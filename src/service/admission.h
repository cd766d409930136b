#ifndef QBISM_SERVICE_ADMISSION_H_
#define QBISM_SERVICE_ADMISSION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/result.h"

namespace qbism::service {

/// One tenant's share of the query service's execution slots.
/// docs/NETWORK.md documents the semantics.
struct TenantQuota {
  /// Fair-share weight: tenant t may hold up to
  /// max(1, floor(total_slots * weight_t / sum(weights))) execution
  /// slots at once.
  double weight = 1.0;
  /// Requests allowed to *wait* for this tenant's slots at once;
  /// arrivals beyond this are rejected immediately (quota_rejected).
  int max_waiting = 64;
};

class TenantGovernor;

/// RAII execution slot handed out by the governor; releasing it (or
/// destroying it) hands the slot to the next eligible waiter. Movable,
/// not copyable.
class AdmissionSlot {
 public:
  AdmissionSlot() = default;
  AdmissionSlot(AdmissionSlot&& other) noexcept { *this = std::move(other); }
  AdmissionSlot& operator=(AdmissionSlot&& other) noexcept;
  ~AdmissionSlot() { Release(); }

  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

  void Release();

 private:
  friend class TenantGovernor;
  AdmissionSlot(TenantGovernor* governor, int tenant)
      : governor_(governor), tenant_(tenant) {}

  TenantGovernor* governor_ = nullptr;
  int tenant_ = -1;
};

/// Point-in-time view of one tenant's admission accounting.
struct TenantAdmissionStats {
  uint64_t admitted = 0;        // slots granted
  uint64_t rejected_quota = 0;  // bounced at the waiting cap
  uint64_t waited = 0;          // admissions that had to block
  int inflight = 0;             // slots currently held
  int waiting = 0;              // currently blocked in Admit
  int slot_cap = 0;             // the tenant's fair-share in-flight cap
};

/// Per-tenant fair-share admission: the query service's only gate.
///
/// At most `total_slots` requests hold a slot at once, and tenant t at
/// most slot_cap(t) = max(1, floor(total_slots * weight_t /
/// sum(weights))) of them. A request that cannot take a slot waits in
/// its tenant's line, which is FIFO: a freed slot is handed directly to
/// the oldest waiter whose tenant is under its cap (oldest across
/// tenants when several are), and an arrival never passes a waiter of
/// its own tenant. At most `max_waiting` requests may wait per tenant;
/// arrivals beyond that are rejected immediately with ResourceExhausted
/// (counted as quota_rejected). A waiter that leaves on its deadline or
/// at Close simply drops out of line.
///
/// The fair-share guarantee: a greedy tenant saturating its own cap
/// cannot take slots that other tenants' caps reserve, so every tenant
/// always has slot_cap(t) worth of service capacity available — the
/// greedy tenant's surplus queues on its own connections instead.
class TenantGovernor {
 public:
  using Clock = std::chrono::steady_clock;

  /// `total_slots` is the capacity being shared (at least 1).
  TenantGovernor(const std::vector<TenantQuota>& tenants, int total_slots);

  /// Blocks until this request is its tenant's oldest waiter and a slot
  /// is free for it, then takes the slot.
  ///   ResourceExhausted  tenant's waiting line is full (quota)
  ///   DeadlineExceeded   `deadline` passed while waiting
  ///   Cancelled          governor closed (service shutdown)
  ///   InvalidArgument    unknown tenant index
  Result<AdmissionSlot> Admit(
      int tenant, Clock::time_point deadline = Clock::time_point::max());

  /// Wakes every waiter with Cancelled and makes further Admit calls
  /// fail; held slots may still be released.
  void Close();

  /// Zeroed for an unknown tenant index.
  TenantAdmissionStats tenant_stats(int tenant) const;
  int slot_cap(int tenant) const {
    return tenants_[static_cast<size_t>(tenant)].slot_cap;
  }
  int total_slots() const { return total_slots_; }
  int total_inflight() const;

 private:
  friend class AdmissionSlot;

  /// One blocked Admit call, on its own stack. `granted` is set (and
  /// the slot already counted) by whoever hands it a slot.
  struct Waiter {
    std::condition_variable cv;
    uint64_t arrival = 0;
    bool granted = false;  // guarded by mu_
  };

  struct TenantState {
    int slot_cap = 0;
    int max_waiting = 0;
    int inflight = 0;          // guarded by mu_
    std::deque<Waiter*> line;  // FIFO; guarded by mu_
    uint64_t admitted = 0;
    uint64_t rejected_quota = 0;
    uint64_t waited = 0;
  };

  void Release(int tenant);
  /// Hands free slots to the oldest waiters whose tenants are under
  /// their caps. Caller holds mu_.
  void GrantLocked();

  const int total_slots_;
  mutable std::mutex mu_;
  std::vector<TenantState> tenants_;  // guarded by mu_
  int inflight_ = 0;                  // guarded by mu_
  uint64_t arrivals_ = 0;             // guarded by mu_
  bool closed_ = false;               // guarded by mu_
};

}  // namespace qbism::service

#endif  // QBISM_SERVICE_ADMISSION_H_
