// Concurrent query service demo: stands up the query service over a
// loaded database, fires a burst of mixed clinical queries from several
// client threads (each runs its own requests once admitted), and prints
// the per-request accounting and the service-wide metrics — the tenant
// admission gate, the shared result cache, and a deadline in action.
// See DESIGN.md ("Service layer").

#include <cstdio>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "med/loader.h"
#include "med/schema.h"
#include "service/query_service.h"

using qbism::service::QueryService;
using qbism::service::ServiceOptions;
using qbism::service::ServiceRequest;

int main() {
  std::printf("QBISM service demo: loading 3 PET studies...\n");
  qbism::sql::Database db;
  auto ext =
      qbism::SpatialExtension::Install(&db, qbism::SpatialConfig{}).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(&db));
  qbism::med::LoadOptions load;
  load.num_pet_studies = 3;
  load.num_mri_studies = 0;
  load.build_meshes = false;
  auto dataset = qbism::med::PopulateDatabase(ext.get(), load).MoveValue();

  ServiceOptions options;
  options.num_workers = 4;
  QueryService service(ext.get(), options);  // one tenant, 64 waiting places
  std::printf("Service up: %d execution slots, %d waiting places.\n\n",
              service.governor()->total_slots(),
              qbism::service::TenantQuota{}.max_waiting);

  // A small clinical review session: each client repeatedly asks for a
  // structure restriction of its study — the second round of each is
  // served by the shared cache, whichever client filled it.
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&service, &dataset, c] {
      for (int round = 0; round < 2; ++round) {
        ServiceRequest request;
        request.spec.study_id = dataset.pet_study_ids[c];
        request.spec.structure_name = dataset.structure_names[c];
        auto reply = service.Execute(request);
        QBISM_CHECK(reply.ok());
        std::printf(
            "client %d round %d: study %d/%s -> %llu voxels "
            "(%s, waited %.2f ms, %.1f ms total)\n",
            c, round, request.spec.study_id,
            dataset.structure_names[c].c_str(),
            static_cast<unsigned long long>(reply->result.result_voxels),
            reply->cache_hit ? "cache hit" : "executed",
            1e3 * reply->queue_wait_seconds, 1e3 * reply->total_seconds);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  // A hopeless deadline is refused before it costs anything.
  ServiceRequest rushed;
  rushed.spec.study_id = dataset.pet_study_ids[0];
  rushed.deadline_seconds = 1e-12;
  auto reply = service.Execute(rushed);
  std::printf("\nrushed request: %s\n", reply.status().ToString().c_str());

  auto metrics = service.metrics();
  std::printf("\nService metrics: %s\n", metrics.ToJson().c_str());
  auto cache = service.cache_stats();
  std::printf("Result cache: %llu hits, %llu misses, %llu entries\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.entries));
  service.Shutdown();
  std::printf("Service shut down cleanly.\n");
  return 0;
}
