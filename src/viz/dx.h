#ifndef QBISM_VIZ_DX_H_
#define QBISM_VIZ_DX_H_

#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "viz/renderer.h"
#include "volume/volume.h"

namespace qbism::viz {

/// Stand-in for the Data Explorer executive process (§5.2): hosts the
/// ImportVolume module (which converts the spatially restricted data
/// from the database into a renderable dense object), the renderer, and
/// the query-result cache that lets users review recent results without
/// a database reaccess. Each stage reports its own timing so the Table-3
/// columns can be reassembled. ImportVolume and the renderers are
/// stateless; only the cache belongs to an instance.
class DxExecutive {
 public:
  struct ImportResult {
    volume::Volume dense;      // the "DX object"
    double cpu_seconds = 0.0;  // ImportVolume cpu time
  };

  struct RenderResult {
    Image image;
    double cpu_seconds = 0.0;  // "rendering+" time
  };

  /// ImportVolume: densifies a DATA_REGION (background 0).
  static ImportResult ImportVolume(const volume::DataRegion& data);

  /// Renders an imported volume as a MIP.
  static RenderResult Render(const volume::Volume& dense, const Camera& camera);

  /// Renders a surface mesh, optionally texture-mapped with a study.
  static RenderResult RenderSurface(const TriangleMesh& mesh,
                                    const Camera& camera,
                                    const region::GridSpec& grid,
                                    const volume::Volume* texture = nullptr);

  /// --- Query-result cache ----------------------------------------------

  /// Stores a query result under a key (typically the query text).
  void CachePut(const std::string& key,
                std::shared_ptr<const volume::DataRegion> result);

  /// Returns the cached result or nullptr.
  std::shared_ptr<const volume::DataRegion> CacheGet(
      const std::string& key) const;

  /// Empties the cache (the paper flushes it before each measured run).
  void FlushCache();

  size_t CacheSize() const { return cache_.size(); }

 private:
  std::map<std::string, std::shared_ptr<const volume::DataRegion>> cache_;
};

}  // namespace qbism::viz

#endif  // QBISM_VIZ_DX_H_
