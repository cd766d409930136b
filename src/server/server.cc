#include "server/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/macros.h"
#include "common/timer.h"

namespace qbism::server {

QbismServer::QbismServer(qbism::SpatialExtension* ext, ServerOptions options)
    : ext_(ext), options_(std::move(options)) {}

QbismServer::~QbismServer() { Shutdown(); }

Status QbismServer::Start() {
  if (running_.load()) return Status::AlreadyExists("server already started");
  if (options_.tenants.empty()) {
    return Status::InvalidArgument("server needs at least one tenant");
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status(StatusCode::kIOError,
                  std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, options_.listen_backlog) < 0) {
    Status status(StatusCode::kIOError,
                  std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status status(StatusCode::kIOError,
                  std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  port_ = ntohs(addr.sin_port);
  listener_ = FrameSocket(fd);

  auth_ = std::make_unique<AuthManager>(options_.tenants,
                                        options_.session_ttl_seconds);
  service_ = std::make_unique<service::QueryService>(
      ext_, options_.service,
      std::vector<service::TenantQuota>(options_.tenants.begin(),
                                        options_.tenants.end()));
  per_tenant_.clear();
  for (size_t i = 0; i < options_.tenants.size(); ++i) {
    per_tenant_.push_back(std::make_unique<PerTenant>());
  }

  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QbismServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // The listener was closed (shutdown) or broke; either way, stop.
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    uint64_t open = connections_open_.load(std::memory_order_relaxed);
    if (open >= static_cast<uint64_t>(options_.max_connections)) {
      // Over the cap: one busy frame, then an immediate close, so the
      // client backs off instead of hanging in recv.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      FrameSocket reject(fd);
      ErrorReply busy;
      busy.code = StatusCode::kResourceExhausted;
      busy.reason = ErrorReason::kServerBusy;
      busy.message = "connection cap reached";
      (void)reject.SendFrame(MessageType::kError, 0, 0, {EncodeError(busy)});
      continue;  // reject's destructor closes the fd
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    uint64_t now_open =
        connections_open_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t peak = peak_connections_.load(std::memory_order_relaxed);
    while (now_open > peak && !peak_connections_.compare_exchange_weak(
                                  peak, now_open, std::memory_order_relaxed)) {
    }
    auto conn = std::make_unique<Connection>();
    conn->socket = FrameSocket(fd);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { HandleConnection(raw); });
    ReapFinished();
  }
}

void QbismServer::ReapFinished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

Status QbismServer::SendCounted(Connection* conn, MessageType type,
                                uint64_t session, uint64_t request_id,
                                std::initializer_list<PayloadPart> parts) {
  Status status = conn->socket.SendFrame(type, session, request_id, parts);
  if (status.ok()) {
    uint64_t bytes = kHeaderBytes;
    for (PayloadPart part : parts) bytes += part.size();
    frames_written_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  }
  return status;
}

void QbismServer::PenalizeQuota() {
  const double penalty = options_.quota_penalty_seconds;
  if (penalty <= 0.0 || stopping_.load(std::memory_order_relaxed)) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(penalty));
  quota_penalties_.fetch_add(1, std::memory_order_relaxed);
  quota_penalty_seconds_.fetch_add(penalty, std::memory_order_relaxed);
}

bool QbismServer::SendError(Connection* conn, uint64_t request_id,
                            ErrorReason reason, const Status& status) {
  ErrorReply error;
  error.code = status.code();
  error.reason = reason;
  error.message = status.message();
  return SendCounted(conn, MessageType::kError, 0, request_id,
                     {EncodeError(error)})
      .ok();
}

void QbismServer::HandleConnection(Connection* conn) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    WallTimer read_timer;
    // No request is longer than kMaxRequestPayload, so a header that
    // declares more is refused before a payload byte is read or held.
    Result<Frame> frame = conn->socket.ReadFrame(kMaxRequestPayload);
    double read_seconds = read_timer.Seconds();
    if (!frame.ok()) {
      if (frame.status().IsCorruption()) {
        // A corrupt length-prefixed stream cannot be re-synchronized;
        // report and drop the connection.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        (void)SendError(conn, 0, ErrorReason::kProtocol, frame.status());
      }
      break;  // clean EOF, socket error, or corruption: close
    }
    frames_read_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(kHeaderBytes + frame->payload.size(),
                          std::memory_order_relaxed);

    const FrameHeader& header = frame->header;
    bool keep = true;
    switch (header.type) {
      case MessageType::kHello: {
        Result<HelloRequest> hello = DecodeHello(frame->payload);
        if (!hello.ok()) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          keep = SendError(conn, header.request_id, ErrorReason::kProtocol,
                           hello.status());
          break;
        }
        Result<SessionInfo> session =
            auth_->Login(hello->tenant, hello->secret);
        if (!session.ok()) {
          ErrorReason reason = session.status().IsResourceExhausted()
                                   ? ErrorReason::kQuotaRejected
                                   : ErrorReason::kUnauthorized;
          if (reason == ErrorReason::kUnauthorized) {
            service_->NoteUnauthorized();
          } else {
            service_->NoteQuotaRejected();
            PenalizeQuota();
          }
          keep = SendError(conn, header.request_id, reason, session.status());
          break;
        }
        WelcomeReply welcome;
        welcome.session_token = session->token;
        welcome.session_ttl_seconds = auth_->session_ttl_seconds();
        keep = SendCounted(conn, MessageType::kWelcome, session->token,
                           header.request_id, {EncodeWelcome(welcome)})
                   .ok();
        break;
      }
      case MessageType::kPing: {
        Result<int> tenant = auth_->Validate(header.session);
        if (!tenant.ok()) {
          bool expired = tenant.status().IsDeadlineExceeded();
          if (expired) {
            service_->NoteSessionExpired();
          } else {
            service_->NoteUnauthorized();
          }
          keep = SendError(conn, header.request_id,
                           expired ? ErrorReason::kSessionExpired
                                   : ErrorReason::kUnauthorized,
                           tenant.status());
          break;
        }
        keep = SendCounted(conn, MessageType::kPong, header.session,
                           header.request_id, {})
                   .ok();
        break;
      }
      case MessageType::kQuery:
        keep = HandleQuery(conn, *frame, read_seconds);
        break;
      case MessageType::kBye:
        auth_->Logout(header.session);
        keep = false;
        break;
      default:
        // Server-to-client frame types arriving at the server are a
        // protocol violation.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        keep = SendError(
            conn, header.request_id, ErrorReason::kProtocol,
            Status::InvalidArgument(std::string("unexpected frame type ") +
                                    MessageTypeName(header.type)));
        keep = false;
        break;
    }
    if (!keep) break;
  }
  // Tell the peer we are done, but keep the fd: it is released only when
  // the connection is reaped after this thread is joined, so Shutdown
  // can never shutdown(2) a descriptor number a later accept reused.
  conn->socket.ShutdownBoth();
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  conn->done.store(true, std::memory_order_release);
}

bool QbismServer::HandleQuery(Connection* conn, const Frame& frame,
                              double read_seconds) {
  const FrameHeader& header = frame.header;
  WallTimer request_timer;

  // Session first: an unauthenticated peer gets no work done for it.
  Result<int> tenant_result = auth_->Validate(header.session);
  if (!tenant_result.ok()) {
    bool expired = tenant_result.status().IsDeadlineExceeded();
    if (expired) {
      service_->NoteSessionExpired();
    } else {
      service_->NoteUnauthorized();
    }
    return SendError(conn, header.request_id,
                     expired ? ErrorReason::kSessionExpired
                             : ErrorReason::kUnauthorized,
                     tenant_result.status());
  }
  int tenant = *tenant_result;
  PerTenant* tstats = per_tenant_[static_cast<size_t>(tenant)].get();

  // One trace per wire request: kRequest root, tenant-labeled, with the
  // frame receive recorded retroactively as its kAccept child.
  obs::Tracer* tracer = options_.service.tracer;
  obs::TraceContext root_parent{};
  if (tracer != nullptr && tracer->enabled()) {
    root_parent = tracer->StartTrace();
  }
  obs::Span request_span(root_parent, obs::Stage::kRequest);
  request_span.SetLabel(options_.tenants[static_cast<size_t>(tenant)]
                            .name.c_str());
  if (request_span.active()) {
    obs::SpanRecord accept;
    accept.trace_id = root_parent.trace_id;
    accept.span_id = tracer->NextSpanId();
    accept.parent_id = request_span.context().span_id;
    accept.stage = obs::Stage::kAccept;
    accept.start_seconds = tracer->NowSeconds() - read_seconds;
    accept.duration_seconds = read_seconds;
    accept.bytes = kHeaderBytes + frame.payload.size();
    tracer->Record(accept);
  }

  obs::Span decode(request_span.context(), obs::Stage::kDecode);
  decode.SetLabel("frame");
  Result<QueryRequest> query = DecodeQuery(frame.payload);
  decode.End();
  if (!query.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    request_span.SetFailed();
    return SendError(conn, header.request_id, ErrorReason::kProtocol,
                     query.status());
  }

  // The service admits the request on this thread (a greedy tenant's
  // surplus waits or bounces there) and runs it in the same call.
  service::ServiceRequest request;
  request.spec = query->spec;
  request.tenant = tenant;
  request.deadline_seconds = query->deadline_seconds;
  request.trace_parent = request_span.context();
  Result<service::ServiceReply> reply = service_->Execute(request);
  if (!reply.ok()) {
    request_span.SetFailed();
    tstats->queries_failed.fetch_add(1, std::memory_order_relaxed);
    if (reply.status().IsResourceExhausted()) {
      PenalizeQuota();
      return SendError(conn, header.request_id, ErrorReason::kQuotaRejected,
                       reply.status());
    }
    if (reply.status().IsCancelled()) {
      return SendError(conn, header.request_id, ErrorReason::kShutdown,
                       reply.status());
    }
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return SendError(conn, header.request_id, ErrorReason::kQueryFailed,
                     reply.status());
  }

  // Ship the region in the extension's configured encoding (the codec
  // tags the payload so the client decodes whatever was configured).
  // The payload is EncodeAnswerPayload's bytes, sent as the prefix and
  // then the answer's voxels in place.
  const std::vector<uint8_t>& values = reply->result.data.values();
  Result<std::vector<uint8_t>> prefix =
      EncodeAnswerPrefix(reply->result.data, ext_->config().region_encoding);
  if (prefix.ok() && prefix->size() + values.size() > kMaxFramePayload) {
    // The answer ships as one frame, which no reader accepts above this.
    prefix = Status::ResourceExhausted(
        "answer payload of " + std::to_string(prefix->size() + values.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte frame limit");
  }
  if (!prefix.ok()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    tstats->queries_failed.fetch_add(1, std::memory_order_relaxed);
    request_span.SetFailed();
    return SendError(conn, header.request_id, ErrorReason::kQueryFailed,
                     prefix.status());
  }

  // The frame is the commit point: the answer is counted before it goes
  // out, so a client holding its answer sees it counted. A send that
  // fails moves the query from queries_ok to queries_failed.
  const uint64_t total = prefix->size() + values.size();
  ship_bytes_.fetch_add(total, std::memory_order_relaxed);
  tstats->ship_bytes.fetch_add(total, std::memory_order_relaxed);
  queries_ok_.fetch_add(1, std::memory_order_relaxed);
  tstats->queries_ok.fetch_add(1, std::memory_order_relaxed);

  obs::Span ship(request_span.context(), obs::Stage::kShip);
  ship.SetLabel("socket");
  ship.AddBytes(total);
  if (!SendCounted(conn, MessageType::kResult, header.session,
                   header.request_id, {*prefix, values})
           .ok()) {
    ship_bytes_.fetch_sub(total, std::memory_order_relaxed);
    tstats->ship_bytes.fetch_sub(total, std::memory_order_relaxed);
    queries_ok_.fetch_sub(1, std::memory_order_relaxed);
    tstats->queries_ok.fetch_sub(1, std::memory_order_relaxed);
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    tstats->queries_failed.fetch_add(1, std::memory_order_relaxed);
    ship.SetFailed();
    request_span.SetFailed();
    return false;
  }
  ship.End();
  tstats->latency.RecordSeconds(read_seconds + request_timer.Seconds());
  return true;
}

void QbismServer::Shutdown() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Drain the service first: connection threads parked in its admission
  // gate wake with Cancelled, and running queries finish, before any
  // socket is severed.
  if (service_ != nullptr) service_->Shutdown();
  // Wake the accept loop and join it before releasing the listening fd
  // it reads; each connection's fd likewise outlives its thread's join.
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->socket.ShutdownBoth();
  }
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.front());
      conns_.pop_front();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
}

ServerStats QbismServer::stats() const {
  ServerStats out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  out.connections_open = connections_open_.load(std::memory_order_relaxed);
  out.peak_connections = peak_connections_.load(std::memory_order_relaxed);
  out.frames_read = frames_read_.load(std::memory_order_relaxed);
  out.frames_written = frames_written_.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  out.ship_bytes = ship_bytes_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  out.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  out.queries_failed = queries_failed_.load(std::memory_order_relaxed);
  out.quota_penalties = quota_penalties_.load(std::memory_order_relaxed);
  out.quota_penalty_seconds =
      quota_penalty_seconds_.load(std::memory_order_relaxed);
  return out;
}

TenantWireStats QbismServer::tenant_stats(int tenant) const {
  TenantWireStats out;
  // per_tenant_ is built by Start(); until then every index is unknown.
  if (tenant < 0 || static_cast<size_t>(tenant) >= per_tenant_.size()) {
    return out;
  }
  out.name = options_.tenants[static_cast<size_t>(tenant)].name;
  const PerTenant& t = *per_tenant_[static_cast<size_t>(tenant)];
  out.queries_ok = t.queries_ok.load(std::memory_order_relaxed);
  out.queries_failed = t.queries_failed.load(std::memory_order_relaxed);
  out.ship_bytes = t.ship_bytes.load(std::memory_order_relaxed);
  out.latency = service::SummarizeLatency(t.latency.Summarize());
  if (service_ != nullptr) {
    out.admission = service_->governor()->tenant_stats(tenant);
  }
  return out;
}

service::MetricsSnapshot QbismServer::metrics() const {
  // service_ is built by Start(); until then nothing has been counted.
  if (service_ == nullptr) return {};
  return service_->metrics();
}

}  // namespace qbism::server
