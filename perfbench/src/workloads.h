#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "dsms/batch.h"
#include "dsms/engine.h"
#include "dsms/netgen.h"

namespace perfbench {

/// Everything a workload needs besides its tracer.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;          // measured time of this phase
  std::string fwdecayd;           // daemon binary (serve_ingest)
  std::string nosync_lib;         // fsync stub preloaded into the daemon
  std::string work_dir;           // run directory inside the checkout
};

// The paper-style group-by plan shared by ingest_groupby, ingest_parallel
// and serve_ingest, and its group-key expressions.
inline constexpr char kGroupbyQuery[] =
    "select destIP, destPort, count(*), sum(len), avg(len) from TCP "
    "group by destIP, destPort";
inline const std::vector<std::string> kGroupbyKeys = {"destIP", "destPort"};

/// Compiles a plan the benchmark knows to be valid; exits on failure.
std::unique_ptr<fwdecay::dsms::CompiledQuery> MustCompile(
    const std::string& gsql, bool two_level);

/// Flow-structured Zipf trace of ingest_groupby / ingest_parallel /
/// serve_ingest, pre-cut into 1024-packet batches.
std::vector<fwdecay::dsms::PacketBatch> GroupbyTrace(std::uint64_t seed,
                                            std::size_t batches);

// In-process workloads (engine_workloads.cc). `parallel` selects the
// PipelinedQueryExecution path of ingest_parallel.
Outcome RunGroupby(const RunConfig& cfg, bool parallel, Tracer* tracer);
Outcome RunDecayed(const RunConfig& cfg, Tracer* tracer);

// Served workload (serve_workload.cc).
Outcome RunServe(const RunConfig& cfg, Tracer* tracer);

/// Stage-replay ledger: re-runs the filter / key-eval / hash / shard /
/// gather / frame-codec kernels over the workload's own batches and
/// records ns per packet (us per batch for the codec) into `layer`.
void StageReplay(const std::vector<const fwdecay::dsms::PacketBatch*>& batches,
                 const std::vector<std::string>& key_exprs, MetricMap* layer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
