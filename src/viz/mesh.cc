#include "viz/mesh.h"

#include <unordered_map>

#include "common/bytes.h"
#include "common/macros.h"

namespace qbism::viz {

using geometry::Vec3d;
using geometry::Vec3i;

std::vector<uint8_t> TriangleMesh::Serialize() const {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.PutU64(vertices.size());
  w.PutU64(triangles.size());
  for (const Vec3d& v : vertices) {
    w.PutF64(v.x);
    w.PutF64(v.y);
    w.PutF64(v.z);
  }
  for (const auto& t : triangles) {
    for (uint32_t idx : t) w.PutU64(idx);
  }
  return out;
}

Result<TriangleMesh> TriangleMesh::Deserialize(
    const std::vector<uint8_t>& bytes) {
  ByteReader in(bytes);
  QBISM_ASSIGN_OR_RETURN(uint64_t nv, in.GetU64());
  QBISM_ASSIGN_OR_RETURN(uint64_t nt, in.GetU64());
  // Never trust stored counts: the payload size is fully determined by
  // them (24 bytes per vertex, 24 per triangle, 16 of header).
  if (nv > bytes.size() || nt > bytes.size() ||
      bytes.size() != 16 + nv * 24 + nt * 24) {
    return Status::Corruption("TriangleMesh: counts do not match payload");
  }
  TriangleMesh mesh;
  mesh.vertices.resize(nv);
  mesh.triangles.resize(nt);
  for (Vec3d& v : mesh.vertices) {
    QBISM_ASSIGN_OR_RETURN(v.x, in.GetF64());
    QBISM_ASSIGN_OR_RETURN(v.y, in.GetF64());
    QBISM_ASSIGN_OR_RETURN(v.z, in.GetF64());
  }
  for (auto& t : mesh.triangles) {
    for (uint32_t& idx : t) {
      QBISM_ASSIGN_OR_RETURN(uint64_t stored, in.GetU64());
      if (stored >= nv) return Status::Corruption("TriangleMesh: bad index");
      idx = static_cast<uint32_t>(stored);
    }
  }
  return mesh;
}

TriangleMesh ExtractSurface(const region::Region& region) {
  TriangleMesh mesh;
  const uint64_t side = region.grid().SideLength();
  std::unordered_map<uint64_t, uint32_t> vertex_index;
  auto corner = [&](int64_t x, int64_t y, int64_t z) -> uint32_t {
    uint64_t key = (static_cast<uint64_t>(x) * (side + 1) +
                    static_cast<uint64_t>(y)) *
                       (side + 1) +
                   static_cast<uint64_t>(z);
    auto [it, inserted] =
        vertex_index.try_emplace(key, static_cast<uint32_t>(mesh.vertices.size()));
    if (inserted) {
      mesh.vertices.push_back(Vec3d{static_cast<double>(x),
                                    static_cast<double>(y),
                                    static_cast<double>(z)});
    }
    return it->second;
  };
  // Emits a quad whose corners a,b,c,d are counter-clockwise viewed
  // from outside the region.
  auto quad = [&](uint32_t a, uint32_t b, uint32_t c, uint32_t d) {
    mesh.triangles.push_back({a, b, c});
    mesh.triangles.push_back({a, c, d});
  };

  for (const Vec3i& p : region.ToPoints()) {
    int64_t x = p.x, y = p.y, z = p.z;
    auto outside = [&](int64_t nx, int64_t ny, int64_t nz) {
      return !region.ContainsPoint({static_cast<int32_t>(nx),
                                    static_cast<int32_t>(ny),
                                    static_cast<int32_t>(nz)});
    };
    if (outside(x + 1, y, z)) {  // +x face
      quad(corner(x + 1, y, z), corner(x + 1, y + 1, z),
           corner(x + 1, y + 1, z + 1), corner(x + 1, y, z + 1));
    }
    if (outside(x - 1, y, z)) {  // -x face
      quad(corner(x, y, z), corner(x, y, z + 1), corner(x, y + 1, z + 1),
           corner(x, y + 1, z));
    }
    if (outside(x, y + 1, z)) {  // +y face
      quad(corner(x, y + 1, z), corner(x, y + 1, z + 1),
           corner(x + 1, y + 1, z + 1), corner(x + 1, y + 1, z));
    }
    if (outside(x, y - 1, z)) {  // -y face
      quad(corner(x, y, z), corner(x + 1, y, z), corner(x + 1, y, z + 1),
           corner(x, y, z + 1));
    }
    if (outside(x, y, z + 1)) {  // +z face
      quad(corner(x, y, z + 1), corner(x + 1, y, z + 1),
           corner(x + 1, y + 1, z + 1), corner(x, y + 1, z + 1));
    }
    if (outside(x, y, z - 1)) {  // -z face
      quad(corner(x, y, z), corner(x, y + 1, z), corner(x + 1, y + 1, z),
           corner(x + 1, y, z));
    }
  }
  return mesh;
}

}  // namespace qbism::viz
