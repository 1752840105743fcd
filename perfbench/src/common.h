#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the repository benchmark: clocks, order statistics,
// process probes, the metric record, and the in-memory span tracer.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToS(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Median of the samples (mean of the middle pair for even counts);
/// 0 for an empty set.
double Median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty set.
double Percentile(std::vector<double> v, double q);

/// Fields of /proc/<pid>/status in kB ("VmHWM", "VmRSS"); pid 0 = self.
double ProcStatusKb(pid_t pid, const char* field);

/// utime + stime of a process from /proc/<pid>/stat, in seconds.
double ProcCpuSeconds(pid_t pid);

/// CPU seconds of this process, all threads (getrusage).
double SelfCpuSeconds();

/// One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What one workload run produced: the correctness verdict, operation
/// counts, and its end-to-end and per-layer metrics.
struct Outcome {
  bool correct = true;
  std::string why;  // first oracle failure, for the log
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap e2e;
  MetricMap layer;

  void Fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
  void SetE2e(const std::string& name, double value, const char* unit) {
    e2e[name] = Metric{value, unit};
  }
  void SetLayer(const std::string& name, double value, const char* unit) {
    layer[name] = Metric{value, unit};
  }
};

// --- Tracing ----------------------------------------------------------

/// One span: a call into a layer's public function, timed from the
/// benchmark side.
struct Span {
  std::uint32_t name = 0;    // index into Tracer::names()
  std::uint32_t parent = 0;  // 1-based index into the same buffer; 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer;

/// Per-thread span buffer with its own open-span stack, so spans from
/// concurrent client threads never interleave parents.
class TraceBuffer {
 public:
  explicit TraceBuffer(Tracer* tracer) : tracer_(tracer) {}

  /// Opens a span; returns its handle for End(). No-op when disabled.
  std::uint32_t Begin(std::uint32_t name);
  void End(std::uint32_t handle);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Tracer* tracer_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Spans are kept in memory and written out once, at exit. Every span
/// of one workload run carries the run id (one id per run).
class Tracer {
 public:
  Tracer(bool enabled, std::uint64_t run_id)
      : enabled_(enabled), run_id_(run_id) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Interns a span name ("layer.operation"); call before timing.
  std::uint32_t Name(const std::string& name);
  const std::vector<std::string>& names() const { return names_; }

  /// A buffer owned by the tracer; one per thread.
  TraceBuffer* NewBuffer();

  /// Total spans recorded across all buffers.
  std::size_t SpanCount() const;

  /// Durations (ns) of every span with this name.
  std::vector<double> Durations(const std::string& name) const;
  double TotalNs(const std::string& name) const;

  /// Self time per layer (the name's prefix before the first '.'): each
  /// span's duration minus the part its direct children cover.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  bool enabled_;
  std::uint64_t run_id_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

/// RAII span on a buffer; records nothing while the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buf, std::uint32_t name)
      : buf_(buf), handle_(buf != nullptr ? buf->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buf_;
  std::uint32_t handle_;
};

/// Machine and build context carried by every record.
std::string ContextJson(const std::string& workload, std::uint64_t seed,
                        const std::string& data_dir_fs,
                        const std::string& commit);

/// Filesystem type name of the directory (statfs magic), e.g. "ext4".
std::string FilesystemType(const std::string& dir);

unsigned Nproc();

std::string JsonEscape(const std::string& s);

/// Renders `{"name": {"value": v, "unit": "u"}, ...}` with full digits.
std::string MetricsJson(const MetricMap& m);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
