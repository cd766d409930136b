// Socket front-end demo: stands up the real TCP server (framed binary
// protocol, sessions, per-tenant admission) over a loaded database,
// then talks to it through NetClient exactly the way a remote display
// station would — login, a few queries, each answer one result frame, a
// rogue login that bounces, and the server's wire accounting at the end.
// See docs/NETWORK.md for the protocol.

#include <cstdio>

#include "common/macros.h"
#include "med/loader.h"
#include "med/schema.h"
#include "server/client.h"
#include "server/server.h"

using qbism::server::NetClient;
using qbism::server::QbismServer;
using qbism::server::ServerOptions;
using qbism::server::ServerStats;
using qbism::server::TenantConfig;

int main() {
  std::printf("QBISM net demo: loading 2 PET studies...\n");
  qbism::sql::Database db;
  auto ext =
      qbism::SpatialExtension::Install(&db, qbism::SpatialConfig{}).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(&db));
  qbism::med::LoadOptions load;
  load.num_pet_studies = 2;
  load.num_mri_studies = 0;
  load.build_meshes = false;
  auto dataset = qbism::med::PopulateDatabase(ext.get(), load).MoveValue();

  // One tenant.
  ServerOptions options;
  TenantConfig clinic;
  clinic.name = "clinic";
  clinic.secret = "clinic-secret";
  options.tenants = {clinic};
  options.service.num_workers = 2;
  QbismServer server(ext.get(), options);
  QBISM_CHECK_OK(server.Start());
  std::printf("Server listening on 127.0.0.1:%u.\n\n", server.port());

  // A display station dials in and authenticates.
  auto client = NetClient::Connect("127.0.0.1", server.port()).MoveValue();
  QBISM_CHECK_OK(client.Login("clinic", "clinic-secret"));
  std::printf("Logged in: session token %016llx, ttl %.0fs.\n",
              static_cast<unsigned long long>(client.session_token()),
              client.session_ttl_seconds());

  // Structure queries over the wire: each answer comes back as one
  // result frame, the encoded DATA_REGION.
  for (int i = 0; i < 3; ++i) {
    qbism::QuerySpec spec;
    spec.study_id = dataset.pet_study_ids[i % dataset.pet_study_ids.size()];
    spec.structure_name = dataset.structure_names[static_cast<size_t>(i)];
    auto outcome = client.RunQuery(spec).MoveValue();
    std::printf(
        "query %d: %-18s -> %llu voxels, %llu B shipped "
        "(%.1f ms on the wire)\n",
        i, dataset.structure_names[static_cast<size_t>(i)].c_str(),
        static_cast<unsigned long long>(outcome.data.VoxelCount()),
        static_cast<unsigned long long>(outcome.header.payload_bytes),
        1e3 * outcome.wire_seconds);
  }

  // A stranger with the wrong secret is turned away at the door.
  auto rogue = NetClient::Connect("127.0.0.1", server.port()).MoveValue();
  auto denied = rogue.Login("clinic", "wrong-secret");
  std::printf("\nrogue login: %s\n", denied.ToString().c_str());
  rogue.Bye();

  client.Bye();
  ServerStats stats = server.stats();
  std::printf(
      "\nServer accounting: %llu connections, %llu frames out, "
      "%llu answer bytes shipped, %llu ok / %llu failed queries.\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.frames_written),
      static_cast<unsigned long long>(stats.ship_bytes),
      static_cast<unsigned long long>(stats.queries_ok),
      static_cast<unsigned long long>(stats.queries_failed));
  std::printf("Edge metrics: %s\n", server.metrics().ToJson().c_str());
  server.Shutdown();
  std::printf("Server shut down cleanly.\n");
  return 0;
}
