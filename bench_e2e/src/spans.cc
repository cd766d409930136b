#include "spans.h"

#include <algorithm>

#include "report.h"

namespace qbism::e2e {

int SpanLog::Add(uint64_t trace, int parent, std::string layer,
                 double seconds, bool side) {
  SpanRecord record;
  record.trace = trace;
  record.id = static_cast<int>(spans_.size());
  record.parent = parent;
  record.layer = std::move(layer);
  record.seconds = seconds;
  record.side = side;
  spans_.push_back(std::move(record));
  return spans_.back().id;
}

double SpanLog::SelfSeconds(int id) const {
  const SpanRecord& span = spans_[static_cast<size_t>(id)];
  double children = 0.0;
  for (const SpanRecord& other : spans_) {
    if (other.parent == id && !other.side) children += other.seconds;
  }
  return std::max(0.0, span.seconds - children);
}

double SpanLog::TreeSelfSum(uint64_t trace) const {
  double sum = 0.0;
  for (const SpanRecord& span : spans_) {
    if (span.trace == trace && !span.side) sum += SelfSeconds(span.id);
  }
  return sum;
}

std::map<std::string, std::vector<double>> SpanLog::DurationsMs() const {
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& span : spans_) {
    out[span.layer].push_back(span.seconds * 1e3);
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanLog::SelfMs() const {
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& span : spans_) {
    if (!span.side) out[span.layer].push_back(SelfSeconds(span.id) * 1e3);
  }
  return out;
}

std::string SpanLog::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (i > 0) out += ",\n ";
    out += "{\"trace\": " + std::to_string(span.trace) +
           ", \"id\": " + std::to_string(span.id) +
           ", \"parent\": " + std::to_string(span.parent) +
           ", \"layer\": " + JsonString(span.layer) +
           ", \"seconds\": " + JsonNumber(span.seconds) +
           ", \"self_seconds\": " +
           JsonNumber(span.side ? span.seconds : SelfSeconds(span.id)) +
           ", \"side\": " + (span.side ? "true" : "false") + "}";
  }
  return out + "]";
}

}  // namespace qbism::e2e
