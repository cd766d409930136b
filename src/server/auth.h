#ifndef QBISM_SERVER_AUTH_H_
#define QBISM_SERVER_AUTH_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "service/admission.h"

namespace qbism::server {

/// One tenant the server will serve: credentials and a session cap on
/// top of the query service's fair-share quota (weight, max_waiting),
/// which the service's admission gate enforces. docs/NETWORK.md
/// documents the semantics.
struct TenantConfig : service::TenantQuota {
  std::string name;
  std::string secret;
  /// Concurrent sessions the tenant may hold; further HELLOs are
  /// rejected as quota_rejected until sessions expire or log out.
  int max_sessions = 1 << 16;
};

/// An authenticated session.
struct SessionInfo {
  uint64_t token = 0;
  int tenant = -1;           // index into the tenant table
  double expires_at = 0.0;   // on the manager's clock
};

/// Token-based authentication and session bookkeeping. Login validates
/// a tenant's shared secret and issues an opaque 64-bit token; every
/// subsequent request presents the token, which refreshes the session's
/// idle TTL. Expired sessions are distinguished from unknown tokens so
/// the metrics layer can count session_expired separately from
/// unauthorized. Thread-safe; the clock is injectable for expiry tests.
class AuthManager {
 public:
  /// `clock` returns seconds on a monotonic scale; the default is the
  /// process steady clock. `seed` perturbs token generation.
  AuthManager(std::vector<TenantConfig> tenants, double session_ttl_seconds,
              uint64_t seed = 0, std::function<double()> clock = {});

  /// Validates credentials and opens a session. A tenant at its quota
  /// has its expired sessions swept first: they never hold the quota.
  ///   InvalidArgument  unknown tenant or wrong secret (unauthorized)
  ///   ResourceExhausted tenant at its max_sessions quota
  Result<SessionInfo> Login(const std::string& tenant,
                            const std::string& secret);

  /// Resolves a token to its tenant index and refreshes the TTL.
  ///   InvalidArgument   unknown token (unauthorized)
  ///   DeadlineExceeded  session past its idle TTL (session_expired)
  Result<int> Validate(uint64_t token);

  /// Drops a session; unknown tokens are ignored.
  void Logout(uint64_t token);

  /// Removes every expired session (Validate also removes the one it
  /// touches); returns how many were swept.
  size_t SweepExpired();

  size_t ActiveSessions() const;
  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const TenantConfig& tenant(int index) const {
    return tenants_[static_cast<size_t>(index)];
  }
  /// Index for a tenant name, or -1.
  int FindTenant(const std::string& name) const;
  double session_ttl_seconds() const { return ttl_; }

 private:
  struct Session {
    int tenant = -1;
    double expires_at = 0.0;
  };

  double Now() const { return clock_(); }
  size_t SweepExpiredLocked();  // requires mu_

  const std::vector<TenantConfig> tenants_;
  const double ttl_;
  std::function<double()> clock_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Session> sessions_;   // guarded by mu_
  std::vector<int> sessions_per_tenant_;             // guarded by mu_
  Rng rng_;                                          // guarded by mu_
};

}  // namespace qbism::server

#endif  // QBISM_SERVER_AUTH_H_
