#include "common.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_METRICS_ON
#define PERFBENCH_METRICS_ON 1
#endif

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return 0.5 * (lo + hi);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

double ProcStatusKb(pid_t pid, const char* field) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                     : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr);
    }
  }
  return 0.0;
}

double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 (1-based) of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string tok;
  double utime = 0.0;
  double stime = 0.0;
  for (int field = 3; rest >> tok; ++field) {
    if (field == 14) utime = std::strtod(tok.c_str(), nullptr);
    if (field == 15) {
      stime = std::strtod(tok.c_str(), nullptr);
      break;
    }
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// --- Tracing ----------------------------------------------------------

std::uint32_t TraceBuffer::Begin(std::uint32_t name) {
  if (!tracer_->enabled()) return 0;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? 0 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  const auto handle = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(handle);
  return handle;
}

void TraceBuffer::End(std::uint32_t handle) {
  if (handle == 0) return;
  spans_[handle - 1].end_ns = NowNs();
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

std::uint32_t Tracer::Name(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

TraceBuffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>(this));
  return buffers_.back().get();
}

std::size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      if (s.name == it->second) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
  }
  return out;
}

double Tracer::TotalNs(const std::string& name) const {
  double total = 0.0;
  for (double d : Durations(name)) total += d;
  return total;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& b : buffers_) {
    const auto& spans = b->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent != 0) {
        child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string& name = names_[spans[i].name];
      const std::string layer = name.substr(0, name.find('.'));
      const double self =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
          child_ns[i];
      out[layer] += std::max(0.0, self) * 1e-9;
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t span_id = 0;
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    const std::uint64_t base = span_id;
    for (const Span& s : buffers_[b]->spans()) {
      ++span_id;
      std::fprintf(f,
                   "{\"run\":%llu,\"workload\":\"%s\",\"seed\":%llu,"
                   "\"thread\":%zu,\"id\":%llu,\"parent\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(run_id_), workload.c_str(),
                   static_cast<unsigned long long>(seed), b,
                   static_cast<unsigned long long>(span_id),
                   static_cast<unsigned long long>(
                       s.parent == 0 ? 0 : base + s.parent),
                   names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// --- Records ------------------------------------------------------------

unsigned Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string FilesystemType(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    case 0xF2F52010: return "f2fs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string ContextJson(const std::string& workload, std::uint64_t seed,
                        const std::string& data_dir_fs,
                        const std::string& commit) {
  long line = 64;
#ifdef _SC_LEVEL1_DCACHE_LINESIZE
  const long sz = sysconf(_SC_LEVEL1_DCACHE_LINESIZE);
  if (sz > 0) line = sz;
#endif
  const char* force = std::getenv("FWDECAY_FORCE_SCALAR");
  std::ostringstream os;
  os << "{\"workload\":\"" << JsonEscape(workload) << "\",\"seed\":" << seed
     << ",\"nproc\":" << Nproc() << ",\"simd_arch\":\""
     << fwdecay::simd::ActiveArchName() << "\",\"force_scalar\":\""
     << JsonEscape(force != nullptr ? force : "") << "\",\"metrics_build\":"
     << (PERFBENCH_METRICS_ON ? "true" : "false") << ",\"cache_line_bytes\":"
     << line << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"data_dir_fs\":\"" << JsonEscape(data_dir_fs) << "\",\"commit\":\""
     << JsonEscape(commit) << "\"}";
  return os.str();
}

std::string MetricsJson(const MetricMap& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out.append("\"").append(JsonEscape(name)).append("\": {\"value\": ");
    out.append(value).append(", \"unit\": \"");
    out.append(JsonEscape(metric.unit)).append("\"}");
  }
  out += "}";
  return out;
}

}  // namespace perfbench
