// bench_e2e: the end-to-end benchmark of the QBISM request path.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--source-digest <hex>]
//             [--results-dir <dir>]
//   bench_e2e --list
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. Every metric is printed by
// name with its unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The run header
// and every measured number (plus the spans of a traced run) are also
// written to <results-dir>/<workload>-seed<n>-trace<t>.json. Exits 1 on
// any wrong answer. See README.md beside this file.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

#ifndef QBISM_E2E_BUILD_TYPE
#define QBISM_E2E_BUILD_TYPE "unknown"
#endif

namespace qbism::e2e {
namespace {

struct Args {
  RunOptions run;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string results_dir;
  bool list = false;
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list") {
      args->list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->run.workload = value;
    } else if (flag == "--seed") {
      args->run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->run.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->run.trace = value == "1";
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else if (flag == "--results-dir") {
      args->results_dir = value;
    } else {
      return false;
    }
  }
  return args->list || args->run.seconds > 0;
}

std::string Header(const Args& args) {
  const RunOptions& run = args.run;
  return "{\"git_sha\": " + JsonString(args.git_sha) +
         ", \"source_digest\": " + JsonString(args.source_digest) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + JsonString(__VERSION__) +
         ", \"build_type\": " + JsonString(QBISM_E2E_BUILD_TYPE) +
         ", \"workload\": " + JsonString(run.workload) +
         ", \"seed\": " + std::to_string(run.seed) +
         ", \"run_seconds\": " + JsonNumber(run.seconds) +
         ", \"trace\": " + (run.trace ? "1" : "0") + "}";
}

const char* UnitOf(const std::string& name) {
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) return d.unit;
    }
  }
  return "";
}

void PrintList() {
  std::printf("workloads");
  for (const auto& w : WorkloadNames()) std::printf(" %s", w.c_str());
  std::printf("\nend_to_end");
  for (const auto& d : EndToEndMetrics()) std::printf(" %s:%s", d.name, d.unit);
  std::printf("\nper_layer");
  for (const auto& d : PerLayerMetrics()) std::printf(" %s:%s", d.name, d.unit);
  std::printf("\n");
}

void WriteResults(const Args& args, const std::string& header,
                  const RunResult& result) {
  if (args.results_dir.empty()) return;
  std::string path = args.results_dir + "/" + args.run.workload + "-seed" +
                     std::to_string(args.run.seed) + "-trace" +
                     (args.run.trace ? "1" : "0") + ".json";
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  file << "{\"header\": " << header << ",\n \"correct\": "
       << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.accounting.attempted()
       << ", \"ok\": " << result.accounting.ok
       << ", \"failed\": " << result.accounting.failed
       << ", \"refused\": " << result.accounting.refused
       << ", \"wrong\": " << result.accounting.wrong << ",\n \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics.entries()) {
    file << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
         << JsonNumber(value) << ", \"unit\": " << JsonString(UnitOf(name))
         << "}";
    first = false;
  }
  file << "},\n \"extra\": {";
  first = true;
  for (const auto& [name, value] : result.extra) {
    file << (first ? "" : ", ") << JsonString(name) << ": "
         << JsonNumber(value);
    first = false;
  }
  file << "},\n \"notes\": [";
  for (size_t i = 0; i < result.notes.size(); ++i) {
    file << (i ? ", " : "") << JsonString(result.notes[i]);
  }
  file << "],\n \"spans\": " << result.spans.ToJson() << "}\n";
}

}  // namespace
}  // namespace qbism::e2e

int main(int argc, char** argv) {
  using namespace qbism::e2e;
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> | --list\n");
    return 2;
  }
  if (args.list) {
    PrintList();
    return 0;
  }
  const std::string& w = args.run.workload;
  std::string header = Header(args);
  std::printf("# header %s\n", header.c_str());
  std::fflush(stdout);

  RunResult result;
  if (w == "clinic_cold" || w == "clinic_hot") {
    result = RunClinic(args.run, w == "clinic_hot");
  } else if (w == "ingest_mixed") {
    result = RunIngestMixed(args.run);
  } else if (w == "population") {
    result = RunPopulation(args.run);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
    return 2;
  }

  const auto& defs = args.run.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricDef& d : defs) {
    if (result.metrics.Get(d.name)) continue;
    if (!args.run.trace) {
      std::fprintf(stderr, "internal error: %s was not measured\n", d.name);
      return 3;
    }
    // A layer this workload's traffic never reaches reads 0.
    result.metrics.Set(d.name, 0.0);
  }
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("  error_rate %.6f (%llu of %llu attempted: %llu failed, %llu "
              "refused, %llu wrong)\n",
              result.accounting.ErrorRate(),
              static_cast<unsigned long long>(result.accounting.errors()),
              static_cast<unsigned long long>(result.accounting.attempted()),
              static_cast<unsigned long long>(result.accounting.failed),
              static_cast<unsigned long long>(result.accounting.refused),
              static_cast<unsigned long long>(result.accounting.wrong));
  for (const auto& [name, value] : result.metrics.entries()) {
    std::printf("  metric %-42s %14.6g %s\n", name.c_str(), value,
                UnitOf(name));
  }
  WriteResults(args, header, result);
  std::printf("%s\n",
              ResultLine(result.correct, result.accounting, defs,
                         result.metrics)
                  .c_str());
  return result.correct ? 0 : 1;
}
