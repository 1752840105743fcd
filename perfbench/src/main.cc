// perfbench: runs one workload of the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --fwdecayd PATH --nosync-lib PATH --work-dir DIR
//             [--commit ID]
//
// Runs one workload, checks its outputs against an oracle, and prints a
// context record line followed, as the last line of stdout, by
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run is split into an untraced half and a traced half, and the metrics
// are the per-layer set (including the tracing overhead between the two
// halves). Spans of the traced half are written under DIR/traces.
// run.py orders and completes the metrics against BENCHMARK.json.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

const char* const kWorkloads[] = {"ingest_groupby", "ingest_parallel",
                                  "ingest_decayed", "serve_ingest"};

Outcome RunWorkload(const std::string& name, const RunConfig& cfg,
                    Tracer* tracer) {
  if (name == "ingest_groupby") return RunGroupby(cfg, false, tracer);
  if (name == "ingest_parallel") return RunGroupby(cfg, true, tracer);
  if (name == "ingest_decayed") return RunDecayed(cfg, tracer);
  return RunServe(cfg, tracer);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --fwdecayd PATH --nosync-lib PATH --work-dir DIR "
               "[--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, commit = "unknown";
  RunConfig cfg;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--fwdecayd") {
      cfg.fwdecayd = value;
    } else if (flag == "--nosync-lib") {
      cfg.nosync_lib = value;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || workload == w;
  if (!known || (trace != 0 && trace != 1) || cfg.seconds <= 0.0 ||
      cfg.work_dir.empty() ||
      (workload == "serve_ingest" &&
       (cfg.fwdecayd.empty() || cfg.nosync_lib.empty()))) {
    return Usage();
  }
  std::filesystem::create_directories(cfg.work_dir + "/traces");

  const std::uint64_t run_id =
      (static_cast<std::uint64_t>(NowNs()) * 0x9E3779B97F4A7C15ULL) ^
      (static_cast<std::uint64_t>(getpid()) << 32) ^ cfg.seed;
  Tracer tracer(false, run_id);
  Outcome result;
  MetricMap metrics;
  if (trace == 0) {
    result = RunWorkload(workload, cfg, &tracer);
    metrics = result.e2e;
  } else {
    // Untraced half, then traced half: per-layer numbers come from the
    // traced half, and the pair gives the tracing overhead.
    RunConfig half = cfg;
    half.seconds = cfg.seconds / 2.0;
    Outcome plain = RunWorkload(workload, half, &tracer);
    tracer.set_enabled(true);
    result = RunWorkload(workload, half, &tracer);
    tracer.set_enabled(false);
    if (!plain.correct) result.Fail(plain.why);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    const double traced = result.e2e["ingest_mpps"].value;
    const double untraced = plain.e2e["ingest_mpps"].value;
    result.SetLayer("trace.ingest_mpps", traced, "Mpkt/s");
    result.SetLayer("trace.untraced_ingest_mpps", untraced, "Mpkt/s");
    result.SetLayer("trace.overhead_pct",
                    traced > 0.0 ? (untraced / traced - 1.0) * 100.0 : 0.0,
                    "%");
    result.SetLayer("trace.spans", static_cast<double>(tracer.SpanCount()),
                    "count");
    for (const auto& [layer, s] : tracer.SelfSecondsByLayer()) {
      result.SetLayer("trace.self_s." + layer, s, "s");
    }
    metrics = result.layer;
    const std::string path = cfg.work_dir + "/traces/" + workload + "-seed" +
                             std::to_string(cfg.seed) + ".jsonl";
    if (!tracer.Write(path, workload, cfg.seed)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  if (result.attempted == 0) result.attempted = 1;

  if (!result.correct) {
    std::fprintf(stderr, "perfbench: oracle failed: %s\n", result.why.c_str());
    metrics.clear();
  }
  std::string data_dir_fs = FilesystemType(cfg.work_dir);
  if (workload == "serve_ingest") data_dir_fs += ", daemon fsync stubbed";
  const std::string context =
      ContextJson(workload, cfg.seed, data_dir_fs, commit);
  const char* correct = result.correct ? "true" : "false";
  const std::string record =
      "{\"record\": " + context + ", \"trace\": " +
      (trace == 1 ? "true" : "false") + ", \"correct\": " + correct +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  std::printf("%s\n", record.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct, static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
