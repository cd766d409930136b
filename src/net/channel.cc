#include "net/channel.h"

namespace qbism::net {

NetworkCharge NetworkCostModel::Charge(
    uint64_t bulk_bytes, std::optional<uint64_t> control_bytes) const {
  NetworkCharge out;
  out.seconds = rtt_seconds;
  if (control_bytes) {
    ++out.messages;
    out.seconds += per_message_seconds +
                   static_cast<double>(*control_bytes) /
                       bandwidth_bytes_per_second;
  }
  uint64_t chunks = (bulk_bytes + chunk_bytes - 1) / chunk_bytes;
  out.messages += chunks;
  out.seconds += static_cast<double>(chunks) * per_message_seconds +
                 static_cast<double>(bulk_bytes) / bandwidth_bytes_per_second;
  return out;
}

}  // namespace qbism::net
