#include "server/auth.h"

#include <chrono>
#include <utility>

namespace qbism::server {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

AuthManager::AuthManager(std::vector<TenantConfig> tenants,
                         double session_ttl_seconds, uint64_t seed,
                         std::function<double()> clock)
    : tenants_(std::move(tenants)),
      ttl_(session_ttl_seconds),
      clock_(clock ? std::move(clock) : SteadySeconds),
      sessions_per_tenant_(tenants_.size(), 0),
      // Tokens must be unpredictable enough that one tenant cannot
      // guess another's live session; fold wall-entropy into the seed.
      rng_(seed ^ static_cast<uint64_t>(
                      std::chrono::steady_clock::now().time_since_epoch()
                          .count())) {}

int AuthManager::FindTenant(const std::string& name) const {
  for (size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<SessionInfo> AuthManager::Login(const std::string& tenant,
                                       const std::string& secret) {
  int index = FindTenant(tenant);
  // One rejection path for "no such tenant" and "wrong secret": the
  // error must not reveal which half was wrong.
  if (index < 0 || tenants_[static_cast<size_t>(index)].secret != secret) {
    return Status::InvalidArgument("unknown tenant or bad secret");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const int cap = tenants_[static_cast<size_t>(index)].max_sessions;
  int& held = sessions_per_tenant_[static_cast<size_t>(index)];
  // Sessions whose owners never came back must not hold the quota. Sweep
  // only at the cap, so an expired token usually still reads as
  // session_expired (not unknown) when its owner does return.
  if (held >= cap) SweepExpiredLocked();
  if (held >= cap) {
    return Status::ResourceExhausted("tenant '" + tenant +
                                     "' is at its session quota");
  }
  SessionInfo info;
  info.tenant = index;
  info.expires_at = Now() + ttl_;
  do {
    info.token = rng_.Next();
  } while (info.token == 0 || sessions_.count(info.token) != 0);
  sessions_[info.token] = Session{index, info.expires_at};
  ++held;
  return info;
}

Result<int> AuthManager::Validate(uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(token);
  if (it == sessions_.end()) {
    return Status::InvalidArgument("unknown session token");
  }
  double now = Now();
  // A session expires strictly *after* expires_at: a request landing at
  // exactly login + ttl is still in its idle window. The >= form made
  // ttl behave as ttl-epsilon and bounced clients whose keepalive
  // period equaled the configured TTL.
  if (now > it->second.expires_at) {
    --sessions_per_tenant_[static_cast<size_t>(it->second.tenant)];
    sessions_.erase(it);
    return Status::DeadlineExceeded("session expired; re-authenticate");
  }
  it->second.expires_at = now + ttl_;  // idle TTL refresh
  return it->second.tenant;
}

void AuthManager::Logout(uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(token);
  if (it == sessions_.end()) return;
  --sessions_per_tenant_[static_cast<size_t>(it->second.tenant)];
  sessions_.erase(it);
}

size_t AuthManager::SweepExpired() {
  std::lock_guard<std::mutex> lock(mu_);
  return SweepExpiredLocked();
}

size_t AuthManager::SweepExpiredLocked() {
  double now = Now();
  size_t swept = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    // Same boundary as Validate: strictly past expires_at only, so the
    // sweeper can never reap a session Validate would still accept.
    if (now > it->second.expires_at) {
      --sessions_per_tenant_[static_cast<size_t>(it->second.tenant)];
      it = sessions_.erase(it);
      ++swept;
    } else {
      ++it;
    }
  }
  return swept;
}

size_t AuthManager::ActiveSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace qbism::server
