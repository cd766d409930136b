#ifndef QBISM_SERVER_SERVER_H_
#define QBISM_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "server/auth.h"
#include "server/codec.h"
#include "server/socket_io.h"
#include "service/query_service.h"

namespace qbism::server {

/// Socket front-end sizing and policy. The inner service (execution
/// slots, cache, retries, tracer) is configured through `service`; its
/// tenant quotas come from `tenants`.
struct ServerOptions {
  /// 0 binds a kernel-assigned localhost port; port() reports it.
  uint16_t port = 0;
  int listen_backlog = 512;
  /// Hard cap on concurrent connections; an accept beyond it gets one
  /// kError(server_busy) frame and an immediate close.
  int max_connections = 2048;
  double session_ttl_seconds = 300.0;
  /// Throttle on rejected work: a connection that just drew a quota
  /// rejection (tenant-quota bounce or session cap) has its error reply
  /// delayed by this much. Rejections are cheap for the server but a
  /// zero-think-time retry loop turns them into a CPU attack — tens of
  /// thousands of reject round-trips per second starve other tenants'
  /// queries of cycles even though the slot caps hold. Pacing the reply
  /// bounds each connection to ~1/penalty bounces per second no matter
  /// how aggressively the client retries (frames queued back-to-back
  /// still pay it serially, one read per connection thread). 0 disables.
  double quota_penalty_seconds = 0.010;
  std::vector<TenantConfig> tenants;
  service::ServiceOptions service;
};

/// Aggregate server counters (one consistent-enough snapshot).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over the connection cap
  uint64_t connections_open = 0;
  uint64_t peak_connections = 0;
  uint64_t frames_read = 0;
  uint64_t frames_written = 0;
  uint64_t bytes_read = 0;     // wire bytes in (headers + payloads)
  uint64_t bytes_written = 0;  // wire bytes out (headers + payloads)
  /// Answer-payload bytes shipped in kResult frames — the codec's
  /// ship-bytes accounting (sum of EncodeAnswerPayload sizes actually
  /// sent). E19 cross-checks this against client-side receipts.
  uint64_t ship_bytes = 0;
  uint64_t protocol_errors = 0;  // bad frames / payloads / CRC
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;
  /// Quota rejections that were penalty-delayed, and the total delay
  /// charged (connection-thread sleep, not service time).
  uint64_t quota_penalties = 0;
  double quota_penalty_seconds = 0.0;
};

/// Per-tenant wire accounting plus the service governor's admission
/// stats for the tenant.
struct TenantWireStats {
  std::string name;
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;
  uint64_t ship_bytes = 0;
  service::LatencySummary latency;  // request read -> last byte shipped
  service::TenantAdmissionStats admission;
};

/// The real network front end (ROADMAP item 1): a TCP listener on
/// localhost speaking the framed binary protocol of server/protocol.h,
/// thread-per-connection with a connection cap, token-based sessions
/// (AuthManager), and one result frame per query answer. Each query
/// runs on its connection's thread through QueryService::Execute, whose
/// per-tenant fair-share governor is the one admission gate. When the
/// service is traced, every wire request becomes one trace: kRequest
/// root -> kAccept (frame receive) / kDecode / kQuery (the service's
/// stage tree, admission wait first) / kShip (socket writes).
///
///   clients ==TCP== accept loop -> connection threads
///                      |  HELLO -> AuthManager (sessions, tokens)
///                      |  QUERY -> QueryService::Execute (tenant
///                      |           governor, then pipeline) -> ship
///
/// The extension must be fully loaded before Start(); the server treats
/// it as read-only, exactly like QueryService.
class QbismServer {
 public:
  QbismServer(qbism::SpatialExtension* ext, ServerOptions options);
  ~QbismServer();

  QbismServer(const QbismServer&) = delete;
  QbismServer& operator=(const QbismServer&) = delete;

  /// Binds, listens, and starts the accept loop + service pool.
  Status Start();

  /// Stops accepting, severs every connection, drains the service.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  ServerStats stats() const;
  /// Stats of the tenant at index `tenant` of ServerOptions::tenants;
  /// zeroed for an index out of range and for any index before Start().
  TenantWireStats tenant_stats(int tenant) const;
  /// Inner service metrics (includes unauthorized / quota_rejected /
  /// session_expired counted at this server's edge); zeroed before
  /// Start().
  service::MetricsSnapshot metrics() const;

  service::QueryService* service() { return service_.get(); }
  AuthManager* auth() { return auth_.get(); }

 private:
  struct Connection {
    FrameSocket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  struct PerTenant {
    std::atomic<uint64_t> queries_ok{0};
    std::atomic<uint64_t> queries_failed{0};
    std::atomic<uint64_t> ship_bytes{0};
    obs::Histogram latency;
  };

  void AcceptLoop();
  void HandleConnection(Connection* conn);
  /// One kQuery request end to end; returns false when the connection
  /// should be dropped (send failure).
  bool HandleQuery(Connection* conn, const Frame& frame,
                   double read_seconds);
  bool SendError(Connection* conn, uint64_t request_id, ErrorReason reason,
                 const Status& status);
  /// Sleeps the connection thread for the configured quota penalty
  /// before its rejection reply goes out (no-op when disabled/stopping).
  void PenalizeQuota();
  Status SendCounted(Connection* conn, MessageType type, uint64_t session,
                     uint64_t request_id,
                     std::initializer_list<PayloadPart> parts);
  void ReapFinished();

  qbism::SpatialExtension* ext_;
  ServerOptions options_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<AuthManager> auth_;
  std::vector<std::unique_ptr<PerTenant>> per_tenant_;

  FrameSocket listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;  // guarded by conns_mu_

  // stats (relaxed atomics; stats() snapshots)
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> connections_open_{0};
  std::atomic<uint64_t> peak_connections_{0};
  std::atomic<uint64_t> frames_read_{0};
  std::atomic<uint64_t> frames_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> ship_bytes_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> quota_penalties_{0};
  std::atomic<double> quota_penalty_seconds_{0.0};
};

}  // namespace qbism::server

#endif  // QBISM_SERVER_SERVER_H_
