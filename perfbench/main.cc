// kpef_perfbench: one benchmark for expert search.
//
//   kpef_perfbench --workload serve_http|batch_assign|ingest_live
//                  --seed N --seconds S --trace 0|1 [--short 1]
//                  [--work-dir .bench_run] [--out-dir .bench_out]
//   kpef_perfbench --selftest 1
//
// Prints a provenance line, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end
// metrics when --trace 0, the per-layer ones when --trace 1. Usually
// started through perfbench/run.py, which builds it first.

#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common/build_info.h"
#include "common/logging.h"
#include "embed/vector_ops.h"
#include "harness.h"
#include "json_lite.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: kpef_perfbench --workload "
               "serve_http|batch_assign|ingest_live --seed N --seconds S "
               "--trace 0|1 [--short 1]\n       kpef_perfbench --selftest 1\n",
               why);
  return 2;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintProvenance(const Options& options, const RunResult& result) {
  utsname host{};
  uname(&host);
  std::string line = "{\"provenance\":{\"host_cores\":";
  line += std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  line += ",\"kernel\":";
  perfbench::AppendQuoted(std::string(host.sysname) + " " + host.release, &line);
  line += ",\"build_type\":";
  perfbench::AppendQuoted(kpef::BuildType(), &line);
  line += ",\"git_sha\":";
  perfbench::AppendQuoted(kpef::BuildGitHash(), &line);
  line += ",\"distance_kernel\":";
  perfbench::AppendQuoted(kpef::ActiveKernel().name, &line);
  line += ",\"workload\":";
  perfbench::AppendQuoted(options.workload, &line);
  line += ",\"seed\":" + std::to_string(options.seed);
  line += ",\"seconds\":" + Number(options.seconds);
  line += ",\"trace\":" + std::string(options.trace ? "true" : "false");
  line += ",\"short\":" + std::string(options.short_mode ? "true" : "false");
  if (!options.trace) {
    line += ",\"tail_ms\":{\"p95\":" + Number(result.tail_p95_ms) +
            ",\"p99\":" + Number(result.tail_p99_ms) + "}";
  }
  line += ",\"operations\":{";
  for (size_t i = 0; i < result.ops.size(); ++i) {
    if (i > 0) line += ",";
    perfbench::AppendQuoted(result.ops[i].first, &line);
    line += ":{\"attempted\":" + std::to_string(result.ops[i].second.first) +
            ",\"failed\":" + std::to_string(result.ops[i].second.second) + "}";
  }
  line += "}}}";
  std::printf("%s\n", line.c_str());
}

void PrintResult(const RunResult& result) {
  std::string line = "{\"correct\":";
  line += result.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) line += ",";
    perfbench::AppendQuoted(m.name, &line);
    line += ":{\"value\":" + Number(std::isfinite(m.value) ? m.value : 0.0) +
            ",\"unit\":";
    perfbench::AppendQuoted(m.unit, &line);
    line += "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      return Usage("flags come as --name value pairs");
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  kpef::SetLogLevel(kpef::LogLevel::kError);

  Options options;
  if (flags.count("work-dir")) options.work_dir = flags["work-dir"];
  if (flags.count("out-dir")) options.out_dir = flags["out-dir"];
  options.short_mode = flags.count("short") && flags["short"] != "0";
  if (flags.count("selftest") && flags["selftest"] != "0") {
    const int misjudged = perfbench::SelfTest(options);
    std::printf("selftest: %d check(s) misjudged\n", misjudged);
    return misjudged == 0 ? 0 : 1;
  }

  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!flags.count(required)) return Usage((std::string("missing --") + required).c_str());
  }
  options.workload = flags["workload"];
  char* end = nullptr;
  options.seed = std::strtoull(flags["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed must be a whole number");
  options.seconds = std::strtod(flags["seconds"].c_str(), &end);
  if (*end != '\0' || !(options.seconds > 0) || options.seconds > 600) {
    return Usage("--seconds must be a number in (0, 600]");
  }
  if (flags["trace"] != "0" && flags["trace"] != "1") return Usage("--trace must be 0 or 1");
  options.trace = flags["trace"] == "1";

  RunResult result;
  if (options.workload == "serve_http") {
    result = perfbench::RunServeHttp(options);
  } else if (options.workload == "batch_assign") {
    result = perfbench::RunBatchAssign(options);
  } else if (options.workload == "ingest_live") {
    result = perfbench::RunIngestLive(options);
  } else {
    return Usage("unknown --workload");
  }
  std::error_code ignored;
  std::filesystem::remove(options.work_dir, ignored);  // only if left empty

  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  std::fflush(stderr);
  PrintProvenance(options, result);
  PrintResult(result);
  return 0;
}
