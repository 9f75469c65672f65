// Shared declarations of the expert-search benchmark: run options, the
// result every workload reports, and the workload entry points.
#ifndef KPEF_PERFBENCH_HARNESS_H_
#define KPEF_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measured window, seconds.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Short mode: a fifth-size corpus, so every workload and its checks
  /// finish in seconds (the benchmark's test).
  bool short_mode = false;
  /// Scratch directory for artifacts and the WAL (removed at exit).
  std::string work_dir = ".bench_run";
  /// Where traced runs write their spans.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Operation counts by kind for the provenance block.
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> ops;
  /// Why a check failed (printed to stderr).
  std::vector<std::string> problems;

  /// Latency tail, reported in the provenance block without a bound: on
  /// a shared host it swings too far between identical runs to gate.
  double tail_p95_ms = 0.0;
  double tail_p99_ms = 0.0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void AddTail(double p95_ms, double p99_ms) {
    tail_p95_ms = p95_ms;
    tail_p99_ms = p99_ms;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
  void CountOps(const std::string& kind, uint64_t attempted_ops,
                uint64_t failed_ops) {
    ops.push_back({kind, {attempted_ops, failed_ops}});
    attempted += attempted_ops;
    failed += failed_ops;
  }
};

RunResult RunServeHttp(const Options& options);
RunResult RunBatchAssign(const Options& options);
RunResult RunIngestLive(const Options& options);

/// Feeds every correctness check a true answer and perturbed ones
/// (swapped expert, dropped paper, ...); returns the number of checks
/// that misjudged, printing each to stderr.
int SelfTest(const Options& options);

}  // namespace perfbench

#endif  // KPEF_PERFBENCH_HARNESS_H_
