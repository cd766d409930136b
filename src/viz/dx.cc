#include "viz/dx.h"

#include "common/timer.h"

namespace qbism::viz {

DxExecutive::ImportResult DxExecutive::ImportVolume(
    const volume::DataRegion& data) {
  CpuTimer timer;
  ImportResult result;
  result.dense = data.ToDenseVolume(0);
  result.cpu_seconds = timer.Seconds();
  return result;
}

DxExecutive::RenderResult DxExecutive::Render(const volume::Volume& dense,
                                              const Camera& camera) {
  CpuTimer timer;
  RenderResult result;
  result.image = RenderMip(dense, camera);
  result.cpu_seconds = timer.Seconds();
  return result;
}

DxExecutive::RenderResult DxExecutive::RenderSurface(
    const TriangleMesh& mesh, const Camera& camera,
    const region::GridSpec& grid, const volume::Volume* texture) {
  CpuTimer timer;
  RenderResult result;
  result.image = RenderMesh(mesh, camera, grid, texture);
  result.cpu_seconds = timer.Seconds();
  return result;
}

void DxExecutive::CachePut(const std::string& key,
                           std::shared_ptr<const volume::DataRegion> result) {
  cache_[key] = std::move(result);
}

std::shared_ptr<const volume::DataRegion> DxExecutive::CacheGet(
    const std::string& key) const {
  auto it = cache_.find(key);
  return it == cache_.end() ? nullptr : it->second;
}

void DxExecutive::FlushCache() { cache_.clear(); }

}  // namespace qbism::viz
