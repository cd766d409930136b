#ifndef QBISM_COMMON_BYTES_H_
#define QBISM_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"

namespace qbism {

/// The one byte codec. Every integer QBISM stores or ships — page
/// headers and entries, rows, catalog and WAL records, long-field
/// payloads, REGION encodings, meshes, wire frames and answers — is
/// little-endian and is laid out by the helpers in this file, and every
/// variable-length payload is decoded through ByteReader, so a corrupt
/// length surfaces as Corruption instead of a read past the input. The
/// bit-level γ/δ streams (common/bitstream.h, compress/) are a separate
/// format.

/// Byte-swaps `v` on a big-endian host; a no-op (and its own inverse)
/// everywhere, so it converts both to and from little-endian.
template <typename T>
inline T LittleEndian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 2) return __builtin_bswap16(v);
    if constexpr (sizeof(T) == 4) return __builtin_bswap32(v);
    if constexpr (sizeof(T) == 8) return __builtin_bswap64(v);
  }
  return v;
}

/// Fixed-offset accessors for page layouts: `p` must hold the bytes.
/// Each compiles to one move on a little-endian host.
template <typename T>
inline T LoadLE(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return LittleEndian(v);
}
template <typename T>
inline void StoreLE(uint8_t* p, T v) {
  v = LittleEndian(v);
  std::memcpy(p, &v, sizeof(T));
}
inline uint16_t LoadLE16(const uint8_t* p) { return LoadLE<uint16_t>(p); }
inline uint32_t LoadLE32(const uint8_t* p) { return LoadLE<uint32_t>(p); }
inline uint64_t LoadLE64(const uint8_t* p) { return LoadLE<uint64_t>(p); }
inline void StoreLE16(uint8_t* p, uint16_t v) { StoreLE(p, v); }
inline void StoreLE32(uint8_t* p, uint32_t v) { StoreLE(p, v); }
inline void StoreLE64(uint8_t* p, uint64_t v) { StoreLE(p, v); }

/// Appends little-endian fields to a caller-owned buffer (which must
/// outlive the writer).
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { PutLE(v); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  /// u32 length followed by the bytes.
  void PutString(const std::string& s);
  void PutBytes(const uint8_t* data, size_t size) {
    out_->insert(out_->end(), data, data + size);
  }

 private:
  /// Per-byte push_back: GCC 12 at -O3 reports a range insert into an
  /// empty vector as an overflow (a false positive).
  template <typename T>
  void PutLE(T v) {
    uint8_t bytes[sizeof(T)];
    StoreLE(bytes, v);
    for (uint8_t b : bytes) out_->push_back(b);
  }

  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian reader over a byte range it does not
/// own. Every getter fails with Corruption on underrun instead of
/// reading past the end, so truncated or lying payloads surface as
/// clean errors.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  /// A reader over a temporary would dangle.
  explicit ByteReader(std::vector<uint8_t>&&) = delete;

  /// OK when at least `n` bytes remain. Compares against what is left
  /// rather than adding `n` to the position, so no `n` can wrap it.
  Status Need(size_t n) const {
    if (remaining() < n) return Underrun(n);
    return Status::OK();
  }

  Result<uint8_t> GetU8() {
    if (remaining() < 1) return Underrun(1);
    return data_[pos_++];
  }
  Result<uint16_t> GetU16() { return GetLE<uint16_t>(); }
  Result<uint32_t> GetU32() { return GetLE<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetLE<uint64_t>(); }
  Result<int32_t> GetI32() { return GetLE<int32_t>(); }
  Result<int64_t> GetI64() { return GetLE<int64_t>(); }
  Result<double> GetF64() {
    QBISM_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
    return std::bit_cast<double>(bits);
  }
  /// Reads a u32 length + bytes; enforces `max_bytes` before copying.
  Result<std::string> GetString(uint32_t max_bytes = 1u << 20);
  /// The next `n` bytes in place (no copy); the view lives as long as
  /// the reader's buffer.
  Result<std::span<const uint8_t>> GetSpan(size_t n) {
    if (remaining() < n) return Underrun(n);
    std::span<const uint8_t> out(data_ + pos_, n);
    pos_ += n;
    return out;
  }
  /// Copies exactly `n` raw bytes (no length prefix).
  Result<std::vector<uint8_t>> GetRaw(size_t n) {
    QBISM_ASSIGN_OR_RETURN(std::span<const uint8_t> s, GetSpan(n));
    return std::vector<uint8_t>(s.begin(), s.end());
  }
  Status Skip(size_t n) {
    Status st = Need(n);
    if (st.ok()) pos_ += n;
    return st;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  Result<T> GetLE() {
    if (remaining() < sizeof(T)) return Underrun(sizeof(T));
    T v = LoadLE<T>(data_ + pos_);
    pos_ += sizeof(T);
    return v;
  }
  Status Underrun(size_t n) const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace qbism

#endif  // QBISM_COMMON_BYTES_H_
