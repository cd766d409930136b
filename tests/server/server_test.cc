#include "server/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "med/loader.h"
#include "med/schema.h"
#include "obs/trace.h"
#include "qbism/medical_server.h"
#include "server/client.h"

namespace qbism::server {
namespace {

/// One shared loaded database for the socket tests (read-only to the
/// server, exactly like the service tests).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new sql::Database();
    auto ext = SpatialExtension::Install(db_, SpatialConfig{});
    ASSERT_TRUE(ext.ok());
    ext_ = ext.MoveValue().release();
    ASSERT_TRUE(med::BootstrapSchema(db_).ok());
    med::LoadOptions options;
    options.num_pet_studies = 2;
    options.num_mri_studies = 0;
    options.build_meshes = false;
    auto dataset = med::PopulateDatabase(ext_, options);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    study_ids_ = new std::vector<int>(dataset->pet_study_ids);
    structures_ = new std::vector<std::string>(dataset->structure_names);
  }

  static void TearDownTestSuite() {
    delete structures_;
    delete study_ids_;
    delete ext_;
    delete db_;
  }

  static ServerOptions BaseOptions() {
    ServerOptions options;
    TenantConfig tenant;
    tenant.name = "clinic";
    tenant.secret = "clinic-secret";
    options.tenants = {tenant};
    options.service.num_workers = 2;
    options.service.cost_model.sql_compile_seconds = 0.0;
    return options;
  }

  static QuerySpec StructureSpec() {
    QuerySpec spec;
    spec.study_id = study_ids_->front();
    spec.structure_name = structures_->front();
    return spec;
  }

  static sql::Database* db_;
  static SpatialExtension* ext_;
  static std::vector<int>* study_ids_;
  static std::vector<std::string>* structures_;
};

sql::Database* ServerTest::db_ = nullptr;
SpatialExtension* ServerTest::ext_ = nullptr;
std::vector<int>* ServerTest::study_ids_ = nullptr;
std::vector<std::string>* ServerTest::structures_ = nullptr;

void WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

TEST_F(ServerTest, LoginQueryMatchesDirectExecution) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());

  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  EXPECT_NE(client->session_token(), 0u);

  QuerySpec spec = StructureSpec();
  auto outcome = client->RunQuery(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // The wire answer must be bit-identical to a direct in-process run.
  MedicalServer direct(ext_, net::NetworkCostModel{}, ServerCostModel{});
  auto truth = direct.RunStudyQuery(spec, /*render=*/false);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(outcome->data.values(), truth->data.values());
  EXPECT_EQ(outcome->data.region().runs(), truth->data.region().runs());
  EXPECT_EQ(outcome->header.result_voxels, truth->result_voxels);
  EXPECT_EQ(outcome->header.result_runs, truth->result_runs);

  // Codec accounting: what the client received is the encoded answer
  // and what the server says it shipped.
  auto want = EncodeAnswerPayload(truth->data, ext_->config().region_encoding);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(outcome->header.payload_bytes, want->size());
  EXPECT_EQ(server.stats().ship_bytes, outcome->header.payload_bytes);
  EXPECT_EQ(server.stats().queries_ok, 1u);

  client->Bye();
  server.Shutdown();
}

TEST_F(ServerTest, AnswerPayloadIsEncodeAnswerPayloadByteForByte) {
  // The server sends the answer prefix and then the voxels in place;
  // the one frame a client reads must be exactly the one-buffer
  // encoding.
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());

  QuerySpec full;
  full.study_id = study_ids_->front();
  QuerySpec band = full;
  band.intensity_range = {224, 255};  // a stored band
  QuerySpec empty = band;
  empty.box = geometry::Box3i{{0, 0, 0}, {3, 3, 3}};  // background corner

  MedicalServer direct(ext_, net::NetworkCostModel{}, ServerCostModel{});
  uint64_t request_id = 100;
  for (const QuerySpec* answer : {&full, &band, &empty}) {
    const QuerySpec& spec = *answer;
    SCOPED_TRACE(spec.Describe());
    auto truth = direct.RunStudyQuery(spec, /*render=*/false);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    auto want =
        EncodeAnswerPayload(truth->data, ext_->config().region_encoding);
    ASSERT_TRUE(want.ok());
    if (answer == &full) {
      EXPECT_EQ(truth->data.VoxelCount(),
                truth->data.region().grid().NumCells());
    }
    if (answer == &empty) {
      EXPECT_EQ(truth->data.VoxelCount(), 0u);
    }

    const uint64_t shipped_before = server.stats().ship_bytes;
    QueryRequest query;
    query.spec = spec;
    FrameSocket* socket = client->socket();
    ASSERT_TRUE(socket->SendFrame(MessageType::kQuery,
                                  client->session_token(), ++request_id,
                                  {EncodeQuery(query)})
                    .ok());
    auto data = socket->ReadFrame();
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    ASSERT_EQ(data->header.type, MessageType::kResult);
    EXPECT_EQ(data->header.request_id, request_id);
    EXPECT_TRUE(data->payload == *want);
    // The answer was counted before its frame went out.
    EXPECT_EQ(server.stats().ship_bytes - shipped_before, want->size());
    // It is the only frame: the next one on the socket answers a ping.
    ASSERT_TRUE(socket->SendFrame(MessageType::kPing, client->session_token(),
                                  ++request_id, {})
                    .ok());
    auto pong = socket->ReadFrame();
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(pong->header.type, MessageType::kPong);
    EXPECT_EQ(pong->header.request_id, request_id);
  }

  client->Bye();
  server.Shutdown();
  // The welcome, then one result frame and one pong per query.
  EXPECT_EQ(server.stats().frames_written, 1u + 3u * 2u);
}

TEST_F(ServerTest, BadSecretCountsUnauthorized) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Status status = client->Login("clinic", "wrong");
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(client->last_error_reason(), ErrorReason::kUnauthorized);
  EXPECT_EQ(server.metrics().unauthorized, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, QueryWithoutLoginIsUnauthorized) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto outcome = client->RunQuery(StructureSpec());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(client->last_error_reason(), ErrorReason::kUnauthorized);
  EXPECT_GE(server.metrics().unauthorized, 1u);
  EXPECT_EQ(server.stats().queries_ok, 0u);
  server.Shutdown();
}

TEST_F(ServerTest, ExpiredSessionCountsSessionExpired) {
  ServerOptions options = BaseOptions();
  options.session_ttl_seconds = 0.0;  // everything expires immediately
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto outcome = client->RunQuery(StructureSpec());
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsDeadlineExceeded());
  EXPECT_EQ(client->last_error_reason(), ErrorReason::kSessionExpired);
  EXPECT_EQ(server.metrics().session_expired, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, SessionQuotaCountsQuotaRejected) {
  ServerOptions options = BaseOptions();
  options.tenants[0].max_sessions = 1;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto first = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Login("clinic", "clinic-secret").ok());
  auto second = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  Status status = second->Login("clinic", "clinic-secret");
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(second->last_error_reason(), ErrorReason::kQuotaRejected);
  EXPECT_EQ(server.metrics().quota_rejected, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, ByeReleasesTheSession) {
  ServerOptions options = BaseOptions();
  options.tenants[0].max_sessions = 1;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto first = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Login("clinic", "clinic-secret").ok());
  first->Bye();
  // The connection closes only after its bye frame was handled.
  WaitUntil([&] { return server.stats().connections_open == 0; });
  EXPECT_EQ(server.auth()->ActiveSessions(), 0u);
  auto second = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  Status status = second->Login("clinic", "clinic-secret");
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(server.metrics().quota_rejected, 0u);
  server.Shutdown();
}

TEST_F(ServerTest, ExpiredSessionsDoNotHoldTheQuota) {
  ServerOptions options = BaseOptions();
  options.tenants[0].max_sessions = 1;
  options.session_ttl_seconds = 0.05;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  {
    // Sessions are tokens, not connections: hanging up without bye
    // leaves the session to its idle TTL.
    auto first = NetClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->Login("clinic", "clinic-secret").ok());
    first->Close();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto second = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  Status status = second->Login("clinic", "clinic-secret");
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(server.metrics().quota_rejected, 0u);
  server.Shutdown();
}

TEST_F(ServerTest, QuotaBouncesArePenaltyPaced) {
  ServerOptions options = BaseOptions();
  options.service.num_workers = 1;
  options.tenants[0].max_waiting = 1;
  options.quota_penalty_seconds = 0.05;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  service::TenantGovernor* governor = server.service()->governor();

  // Hold the tenant's only slot, then park one query so the waiting
  // line is full: every further query must bounce as quota_rejected.
  auto held = governor->Admit(0);
  ASSERT_TRUE(held.ok());
  auto waiter = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(waiter.ok());
  ASSERT_TRUE(waiter->Login("clinic", "clinic-secret").ok());
  std::thread parked([&] { (void)waiter->RunQuery(StructureSpec()); });
  WaitUntil([&] { return governor->tenant_stats(0).waiting == 1; });

  // A zero-think-time retry loop is paced to ~1/penalty per second:
  // each bounce's reply is delayed by the full penalty.
  auto bouncer = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(bouncer.ok());
  ASSERT_TRUE(bouncer->Login("clinic", "clinic-secret").ok());
  const int kBounces = 4;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kBounces; ++i) {
    auto outcome = bouncer->RunQuery(StructureSpec());
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(bouncer->last_error_reason(), ErrorReason::kQuotaRejected);
  }
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, kBounces * options.quota_penalty_seconds);
  EXPECT_GE(server.stats().quota_penalties, static_cast<uint64_t>(kBounces));
  EXPECT_GE(server.stats().quota_penalty_seconds,
            kBounces * options.quota_penalty_seconds);
  // The service counted each bounce once; nothing else did.
  EXPECT_EQ(server.metrics().quota_rejected, static_cast<uint64_t>(kBounces));
  EXPECT_EQ(governor->tenant_stats(0).rejected_quota,
            static_cast<uint64_t>(kBounces));

  // Freeing the slot lets the parked query run to completion.
  held->Release();
  parked.join();
  EXPECT_EQ(server.stats().queries_ok, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, DeadlineCoversAdmissionWait) {
  ServerOptions options = BaseOptions();
  options.service.num_workers = 1;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());

  // The tenant's only slot is busy for 600 ms; a query with a 50 ms
  // deadline must get its error reply long before the slot frees.
  auto held = server.service()->governor()->Admit(0);
  ASSERT_TRUE(held.ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    held->Release();
  });
  auto start = std::chrono::steady_clock::now();
  auto outcome = client->RunQuery(StructureSpec(), /*deadline_seconds=*/0.050);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  releaser.join();
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsDeadlineExceeded())
      << outcome.status().ToString();
  EXPECT_EQ(client->last_error_reason(), ErrorReason::kQueryFailed);
  EXPECT_LT(elapsed, 0.400) << "the deadline did not bound the wait";
  EXPECT_EQ(server.metrics().deadline_expired, 1u);
  EXPECT_EQ(server.stats().queries_ok, 0u);
  server.Shutdown();
}

TEST_F(ServerTest, PingRefreshesAndPongs) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  EXPECT_TRUE(client->Ping().ok());
  // A ping with a bogus token is unauthorized.
  auto rogue = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(rogue.ok());
  EXPECT_FALSE(rogue->Ping().ok());
  EXPECT_EQ(rogue->last_error_reason(), ErrorReason::kUnauthorized);
  server.Shutdown();
}

TEST_F(ServerTest, GarbageBytesCountProtocolErrorAndDropConnection) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // 36 bytes of garbage: a full "header" with a bad magic.
  std::vector<uint8_t> junk(kHeaderBytes, 0xA5);
  ASSERT_EQ(::send(client->socket()->fd(), junk.data(), junk.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  // The server answers with a protocol error frame, then hangs up.
  auto frame = client->socket()->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->header.type, MessageType::kError);
  auto error = DecodeError(frame->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->reason, ErrorReason::kProtocol);
  EXPECT_TRUE(client->socket()->ReadFrame().status().IsCancelled());  // EOF
  EXPECT_GE(server.stats().protocol_errors, 1u);
  server.Shutdown();
}

// A request header declaring one byte more than the largest valid
// request is refused from the header alone: error(protocol) and a close,
// counted, with no payload byte sent, so none was read or buffered.
TEST_F(ServerTest, RequestOverTheCeilingIsRefusedAtItsHeader) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  const auto header = EncodeFrameHeader(MessageType::kHello, 0, 1,
                                        kMaxRequestPayload + 1, 0);
  ASSERT_EQ(::send(client->socket()->fd(), header.data(), header.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(header.size()));
  auto frame = client->socket()->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->header.type, MessageType::kError);
  auto error = DecodeError(frame->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->reason, ErrorReason::kProtocol);
  EXPECT_NE(error->message.find("exceeds limit " +
                                std::to_string(kMaxRequestPayload)),
            std::string::npos)
      << error->message;
  EXPECT_TRUE(client->socket()->ReadFrame().status().IsCancelled());  // EOF
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  EXPECT_EQ(server.stats().frames_read, 0u);
  server.Shutdown();
}

// The largest valid request, a query whose two names are as long as the
// codec allows, passes the ceiling and is decoded: the names are
// unknown, so the reply is query_failed, not protocol.
TEST_F(ServerTest, QueryAtTheRequestCeilingIsDecoded) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  QueryRequest query;
  query.spec.study_id = study_ids_->front();
  query.spec.atlas_name = std::string(kMaxNameBytes, 'a');
  query.spec.structure_name = std::string(kMaxNameBytes, 's');
  query.spec.box = geometry::Box3i{{0, 0, 0}, {7, 7, 7}};
  query.spec.intensity_range = {0, 255};
  ASSERT_EQ(EncodeQuery(query).size(), kMaxRequestPayload);
  auto outcome = client->RunQuery(query.spec);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(client->last_error_reason(), ErrorReason::kQueryFailed)
      << outcome.status().ToString();
  EXPECT_TRUE(client->connected());
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  EXPECT_EQ(server.stats().queries_failed, 1u);
  server.Shutdown();
}

// A name carrying SQL stays one quoted literal in the generated SQL: an
// unknown structure, so the query fails instead of reading other
// studies.
TEST_F(ServerTest, InjectedStructureNameFailsTheQuery) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  QuerySpec spec;
  spec.study_id = study_ids_->front();
  spec.structure_name = "no_such' or 'a'='a";
  auto outcome = client->RunQuery(spec);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(client->last_error_reason(), ErrorReason::kQueryFailed)
      << outcome.status().ToString();
  EXPECT_TRUE(outcome.status().IsNotFound()) << outcome.status().ToString();
  EXPECT_TRUE(client->connected());
  EXPECT_EQ(server.stats().queries_failed, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, MidFrameDisconnectIsSurvived) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    auto client = NetClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    // A valid header promising 100 payload bytes... then hang up after 3.
    std::vector<uint8_t> wire =
        EncodeFrame(MessageType::kQuery, 1, 1, std::vector<uint8_t>(100, 7));
    ASSERT_EQ(::send(client->socket()->fd(), wire.data(), kHeaderBytes + 3,
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(kHeaderBytes + 3));
    client->Close();
  }
  // The connection thread must notice, count the corruption, and exit;
  // the server keeps serving afterwards. (Wait on the error counter:
  // the connection may not even be accepted yet when we get here.)
  WaitUntil([&] {
    return server.stats().protocol_errors >= 1 &&
           server.stats().connections_open == 0;
  });
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Login("clinic", "clinic-secret").ok());
  EXPECT_TRUE(client->RunQuery(StructureSpec()).ok());
  server.Shutdown();
}

TEST_F(ServerTest, ConnectionCapRejectsWithServerBusy) {
  ServerOptions options = BaseOptions();
  options.max_connections = 1;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto first = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  // Login forces the server to have fully accepted the first socket.
  ASSERT_TRUE(first->Login("clinic", "clinic-secret").ok());
  auto second = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  auto frame = second->socket()->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->header.type, MessageType::kError);
  auto error = DecodeError(frame->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->reason, ErrorReason::kServerBusy);
  EXPECT_EQ(server.stats().connections_rejected, 1u);
  // The slot frees when the first client leaves.
  first->Bye();
  WaitUntil([&] { return server.stats().connections_open == 0; });
  auto third = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->Login("clinic", "clinic-secret").ok());
  server.Shutdown();
}

TEST_F(ServerTest, TraceStitchesAcceptToShip) {
  obs::Tracer tracer;
  ServerOptions options = BaseOptions();
  options.service.tracer = &tracer;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  auto outcome = client->RunQuery(StructureSpec());
  ASSERT_TRUE(outcome.ok());
  server.Shutdown();

  // One trace per wire request: the kRequest root with accept, decode,
  // the service's kQuery subtree (admission wait first), and ship all
  // under it.
  std::vector<obs::SpanRecord> spans = tracer.Spans();
  uint64_t trace_id = 0, request_span = 0;
  for (const auto& span : spans) {
    if (span.stage == obs::Stage::kRequest) {
      trace_id = span.trace_id;
      request_span = span.span_id;
    }
  }
  ASSERT_NE(request_span, 0u);
  std::multiset<obs::Stage> children;
  uint64_t query_span = 0, ship_bytes = 0;
  for (const auto& span : spans) {
    if (span.trace_id != trace_id || span.parent_id != request_span) continue;
    children.insert(span.stage);
    if (span.stage == obs::Stage::kQuery) query_span = span.span_id;
    if (span.stage == obs::Stage::kShip) ship_bytes = span.bytes;
  }
  EXPECT_EQ(children,
            (std::multiset<obs::Stage>{obs::Stage::kAccept, obs::Stage::kDecode,
                                       obs::Stage::kQuery, obs::Stage::kShip}));
  int queue_spans = 0;
  for (const auto& span : spans) {
    if (span.trace_id == trace_id && span.parent_id == query_span &&
        span.stage == obs::Stage::kQueueWait) {
      ++queue_spans;
    }
  }
  EXPECT_EQ(queue_spans, 1);
  // The traced ship span carries exactly the codec's accounting.
  EXPECT_EQ(ship_bytes, outcome->header.payload_bytes);
}

TEST_F(ServerTest, UnknownTenantStatsAreZeroed) {
  QbismServer server(ext_, BaseOptions());
  // Before Start() no tenant's counters exist yet.
  TenantWireStats before = server.tenant_stats(0);
  EXPECT_EQ(before.name, "");
  EXPECT_EQ(before.queries_ok, 0u);
  EXPECT_EQ(before.latency.count, 0u);
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  ASSERT_TRUE(client->RunQuery(StructureSpec()).ok());
  for (int tenant : {-1, 1}) {
    TenantWireStats stats = server.tenant_stats(tenant);
    EXPECT_EQ(stats.name, "") << tenant;
    EXPECT_EQ(stats.queries_ok, 0u) << tenant;
    EXPECT_EQ(stats.ship_bytes, 0u) << tenant;
    EXPECT_EQ(stats.admission.admitted, 0u) << tenant;
  }
  TenantWireStats known = server.tenant_stats(0);
  EXPECT_EQ(known.name, "clinic");
  EXPECT_EQ(known.queries_ok, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, MetricsBeforeStartAreZeroed) {
  QbismServer server(ext_, BaseOptions());
  // The inner service is built by Start(); until then nothing counted.
  service::MetricsSnapshot before = server.metrics();
  EXPECT_EQ(before.submitted, 0u);
  EXPECT_EQ(before.latency.count, 0u);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.metrics().submitted, 0u);
}

TEST_F(ServerTest, ConcurrentClientsAllSucceed) {
  ServerOptions options = BaseOptions();
  options.service.num_workers = 4;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&, i] {
      auto client = NetClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) { failures.fetch_add(1); return; }
      if (!client->Login("clinic", "clinic-secret").ok()) {
        failures.fetch_add(1);
        return;
      }
      QuerySpec spec = StructureSpec();
      spec.study_id = (*study_ids_)[static_cast<size_t>(i) %
                                    study_ids_->size()];
      for (int q = 0; q < 5; ++q) {
        if (!client->RunQuery(spec).ok()) failures.fetch_add(1);
      }
      client->Bye();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().queries_ok, 40u);
  EXPECT_GE(server.stats().peak_connections, 2u);
  server.Shutdown();
}

TEST_F(ServerTest, ShutdownSeversIdleConnections) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  server.Shutdown();  // must not hang on the idle connection
  EXPECT_FALSE(client->Ping().ok());
  // Idempotent.
  server.Shutdown();
}

TEST_F(ServerTest, DestroyWhileConnectionsLeaveAndIdle) {
  // A server torn down while half its clients are saying kBye and the
  // other half sit idle, with a dialer allocating fresh descriptors in
  // this process throughout. Each connection's fd must stay owned until
  // its thread is joined, so Shutdown never touches a closed or reused
  // descriptor. Repeated so the tsan preset sees many interleavings.
  for (int round = 0; round < 20; ++round) {
    std::vector<NetClient> leaving, idle;
    std::vector<std::thread> threads;
    std::atomic<bool> dialing{true};
    {
      QbismServer server(ext_, BaseOptions());
      ASSERT_TRUE(server.Start().ok());
      for (int i = 0; i < 6; ++i) {
        auto client = NetClient::Connect("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.status().ToString();
        ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
        (i % 2 == 0 ? leaving : idle).push_back(client.MoveValue());
      }
      for (NetClient& client : leaving) {
        threads.emplace_back([&client] { client.Bye(); });
      }
      const uint16_t port = server.port();
      threads.emplace_back([&dialing, port] {
        while (dialing.load()) (void)NetClient::Connect("127.0.0.1", port);
      });
    }  // ~QbismServer runs while the byes and the dialer are in flight
    dialing.store(false);
    for (std::thread& t : threads) t.join();
    for (NetClient& client : idle) EXPECT_FALSE(client.Ping().ok());
  }
}

}  // namespace
}  // namespace qbism::server
