#ifndef QBISM_BENCH_E2E_SPANS_H_
#define QBISM_BENCH_E2E_SPANS_H_

// The benchmark's own span log. The traced run replays sampled requests
// through successively deeper public entry points; each call becomes a
// span whose parent is the call one layer up, so a layer's self time is
// its span minus its children. Side measurements (encode, import, ...)
// hang off a request without being part of the layer tree. Spans stay in
// memory and are written out when the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qbism::e2e {

struct SpanRecord {
  uint64_t trace = 0;   // one sampled request
  int id = 0;
  int parent = -1;      // -1: a root (or a side measurement)
  std::string layer;    // e.g. "server", "sql.data", "storage.plan_read"
  double seconds = 0.0;
  bool side = false;    // outside the layer tree (not in coverage)
};

class SpanLog {
 public:
  /// Records one timed call; returns its id for use as a parent.
  int Add(uint64_t trace, int parent, std::string layer, double seconds,
          bool side = false);

  /// Span duration minus its children's, clamped at 0 (a child replayed
  /// separately can time a hair above its parent).
  double SelfSeconds(int id) const;

  /// Self seconds summed over the tree spans of `trace` (side spans
  /// excluded). Equals the root span when no child outlasts its parent.
  double TreeSelfSum(uint64_t trace) const;

  /// Per-layer samples, in milliseconds: full durations and self times.
  std::map<std::string, std::vector<double>> DurationsMs() const;
  std::map<std::string, std::vector<double>> SelfMs() const;

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// JSON array of every span.
  std::string ToJson() const;

 private:
  std::vector<SpanRecord> spans_;  // index == id
};

}  // namespace qbism::e2e

#endif  // QBISM_BENCH_E2E_SPANS_H_
