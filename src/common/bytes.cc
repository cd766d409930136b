#include "common/bytes.h"

namespace qbism {

void ByteWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

Status ByteReader::Underrun(size_t n) const {
  return Status::Corruption("payload underrun: need " + std::to_string(n) +
                            " bytes, " + std::to_string(remaining()) +
                            " left");
}

Result<std::string> ByteReader::GetString(uint32_t max_bytes) {
  QBISM_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  if (n > max_bytes) {
    return Status::Corruption("string length " + std::to_string(n) +
                              " exceeds limit " + std::to_string(max_bytes));
  }
  QBISM_ASSIGN_OR_RETURN(std::span<const uint8_t> s, GetSpan(n));
  return std::string(s.begin(), s.end());
}

}  // namespace qbism
