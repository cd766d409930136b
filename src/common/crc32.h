#ifndef QBISM_COMMON_CRC32_H_
#define QBISM_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qbism {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// buffer. Shared by the wire protocol's frame trailer, the write-ahead
/// log's record framing and the long-field content checksums, so every
/// layer detects the same corruption classes with the same code.
///
/// x86-64 hosts with PCLMULQDQ and SSE4.1 (checked once per process)
/// fold four 128-bit lanes with carry-less multiplies (Gopal et al.,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Intel 2009); every other host, every buffer under 64
/// bytes and every tail under 16 bytes runs the byte loop of
/// Crc32Scalar. Both compute the same function.
uint32_t Crc32(const uint8_t* data, size_t size);
uint32_t Crc32(const std::vector<uint8_t>& data);

/// Continues the finished CRC `crc` over `size` more bytes:
/// Crc32Extend(Crc32(a), b) == Crc32(a‖b), and Crc32Extend(0, b) ==
/// Crc32(b). Lets a caller checksum a payload sent from several
/// buffers without joining them.
uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size);

/// The byte-at-a-time table loop: the reference Crc32 is tested
/// against.
uint32_t Crc32Scalar(const uint8_t* data, size_t size);

}  // namespace qbism

#endif  // QBISM_COMMON_CRC32_H_
