#include "service/admission.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace qbism::service {

AdmissionSlot& AdmissionSlot::operator=(AdmissionSlot&& other) noexcept {
  if (this != &other) {
    Release();
    governor_ = other.governor_;
    tenant_ = other.tenant_;
    other.governor_ = nullptr;
    other.tenant_ = -1;
  }
  return *this;
}

void AdmissionSlot::Release() {
  if (governor_ == nullptr) return;
  governor_->Release(tenant_);
  governor_ = nullptr;
  tenant_ = -1;
}

TenantGovernor::TenantGovernor(const std::vector<TenantQuota>& tenants,
                               int total_slots)
    : total_slots_(std::max(1, total_slots)) {
  double weight_sum = 0.0;
  for (const TenantQuota& t : tenants) {
    weight_sum += t.weight > 0.0 ? t.weight : 0.0;
  }
  if (weight_sum <= 0.0) weight_sum = 1.0;
  tenants_.resize(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    double weight = tenants[i].weight > 0.0 ? tenants[i].weight : 0.0;
    tenants_[i].slot_cap = std::max(
        1, static_cast<int>(std::floor(static_cast<double>(total_slots_) *
                                       weight / weight_sum)));
    tenants_[i].max_waiting = std::max(1, tenants[i].max_waiting);
  }
}

Result<AdmissionSlot> TenantGovernor::Admit(int tenant,
                                            Clock::time_point deadline) {
  if (tenant < 0 || tenant >= static_cast<int>(tenants_.size())) {
    return Status::InvalidArgument("unknown tenant index");
  }
  TenantState& state = tenants_[static_cast<size_t>(tenant)];
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return Status::Cancelled("admission closed");
  // A free slot goes to an arrival only when nobody of its tenant is
  // already waiting for one: no barging past the line.
  if (state.line.empty() && state.inflight < state.slot_cap &&
      inflight_ < total_slots_) {
    ++state.inflight;
    ++inflight_;
    ++state.admitted;
    return AdmissionSlot(this, tenant);
  }
  // Tenant at its fair-share cap: wait, unless its line is already full
  // — that is the per-tenant quota, and it must reject fast so a greedy
  // tenant's excess bounces instead of accumulating unbounded waiters.
  if (static_cast<int>(state.line.size()) >= state.max_waiting) {
    ++state.rejected_quota;
    return Status::ResourceExhausted(
        "tenant quota: " + std::to_string(state.max_waiting) +
        " requests already waiting");
  }
  Waiter self;
  self.arrival = arrivals_++;
  state.line.push_back(&self);
  ++state.waited;
  auto woken = [&] { return self.granted || closed_; };
  if (deadline == Clock::time_point::max()) {
    self.cv.wait(lock, woken);
  } else {
    self.cv.wait_until(lock, deadline, woken);
  }
  if (self.granted) return AdmissionSlot(this, tenant);
  // Leaving without a slot. Everyone behind this waiter was blocked by
  // the same cap, so dropping out of line frees nothing to grant.
  state.line.erase(std::find(state.line.begin(), state.line.end(), &self));
  if (closed_) return Status::Cancelled("admission closed");
  return Status::DeadlineExceeded("deadline expired waiting for admission");
}

void TenantGovernor::GrantLocked() {
  if (closed_) return;
  while (inflight_ < total_slots_) {
    TenantState* next = nullptr;
    for (TenantState& t : tenants_) {
      if (t.line.empty() || t.inflight >= t.slot_cap) continue;
      if (next == nullptr ||
          t.line.front()->arrival < next->line.front()->arrival) {
        next = &t;
      }
    }
    if (next == nullptr) return;
    Waiter* waiter = next->line.front();
    next->line.pop_front();
    ++next->inflight;
    ++inflight_;
    ++next->admitted;
    waiter->granted = true;
    // Notified under mu_: the waiter cannot leave (and destroy its cv)
    // before this thread lets go of the lock.
    waiter->cv.notify_one();
  }
}

void TenantGovernor::Release(int tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  --tenants_[static_cast<size_t>(tenant)].inflight;
  --inflight_;
  GrantLocked();
}

void TenantGovernor::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  for (TenantState& t : tenants_) {
    for (Waiter* waiter : t.line) waiter->cv.notify_one();
  }
}

TenantAdmissionStats TenantGovernor::tenant_stats(int tenant) const {
  TenantAdmissionStats out;
  std::lock_guard<std::mutex> lock(mu_);
  if (tenant < 0 || tenant >= static_cast<int>(tenants_.size())) return out;
  const TenantState& state = tenants_[static_cast<size_t>(tenant)];
  out.admitted = state.admitted;
  out.rejected_quota = state.rejected_quota;
  out.waited = state.waited;
  out.inflight = state.inflight;
  out.waiting = static_cast<int>(state.line.size());
  out.slot_cap = state.slot_cap;
  return out;
}

int TenantGovernor::total_inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

}  // namespace qbism::service
