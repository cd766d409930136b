#ifndef QBISM_NET_CHANNEL_H_
#define QBISM_NET_CHANNEL_H_

#include <cstdint>
#include <optional>

namespace qbism::net {

/// Modeled traffic of one exchange over the link.
struct NetworkCharge {
  uint64_t messages = 0;
  double seconds = 0.0;
};

/// Deterministic cost model for the RPC link between the MedicalServer
/// and the DX executive (§5.2/§6.1): machine 1 on a 16 Mb/s Token Ring
/// routed to machine 2 on 10 Mb/s Ethernet, ping RTT 4 ms. Large
/// results are shipped in ~1 KB RPC chunks, which is why the paper's
/// full-study query sends 2103 messages for 2 MB of voxels; per-message
/// software overhead (RPC marshalling on 1993 CPUs) dominates the wire
/// time. No real sockets are involved: the charge is a pure function of
/// the byte counts.
struct NetworkCostModel {
  uint64_t chunk_bytes = 1024;          // RPC payload per data message
  double per_message_seconds = 0.0105;  // software (RPC) overhead
  double bandwidth_bytes_per_second = 10.0e6 / 8.0;  // slower hop wins
  double rtt_seconds = 0.004;           // per round trip (query/answer)

  /// One query/answer exchange: a round trip, then (when given) one
  /// control message of `control_bytes` such as the query text, then
  /// `bulk_bytes` shipped in chunk_bytes data messages (none for 0).
  NetworkCharge Charge(uint64_t bulk_bytes,
                       std::optional<uint64_t> control_bytes = {}) const;
};

}  // namespace qbism::net

#endif  // QBISM_NET_CHANNEL_H_
