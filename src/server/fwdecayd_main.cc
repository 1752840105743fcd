// fwdecayd: the fault-tolerant forward-decay serving daemon.
//
//   fwdecayd --data-dir /var/lib/fwdecay [--port N] [--metrics-port N] ...
//
// Runs until SIGTERM/SIGINT, then drains the ingest queue, writes a
// clean shutdown checkpoint, and flushes final metrics (server/daemon.h
// documents the full robustness envelope). On startup it prints one
// machine-parseable line per listener:
//
//   fwdecayd listening on 127.0.0.1:<port>
//   fwdecayd metrics on http://127.0.0.1:<port>/metrics
//
// so the CI smoke script and crash tests can find ephemeral ports.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dsms/udafs.h"
#include "server/daemon.h"

namespace {

// Self-pipe: the signal handler writes one byte; main polls the read
// end. Keeps the handler async-signal-safe (write(2) only).
int g_signal_pipe[2] = {-1, -1};

void HandleShutdownSignal(int /*signo*/) {
  const char byte = 1;
  // A full pipe just means a shutdown is already pending.
  (void)!write(g_signal_pipe[1], &byte, 1);
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --data-dir DIR [options]\n"
      "\n"
      "  --data-dir DIR           journal + snapshot directory (required)\n"
      "  --port N                 ingest/control port (default 0 = ephemeral)\n"
      "  --metrics-port N         HTTP /metrics port (default 0 = ephemeral)\n"
      "  --queue-capacity N       bounded ingest queue, in batches (64)\n"
      "  --max-connections N      concurrent client connections (32)\n"
      "  --max-tenants N          tenants admitted (16)\n"
      "  --retain N               snapshots kept by rotation (3)\n"
      "  --checkpoint-interval S  seconds between checkpoints (0 = off)\n"
      "  --idle-timeout-ms N      reap connections idle this long (30000)\n"
      "  --io-timeout-ms N        per-frame transfer deadline (10000)\n"
      "  --stats-period S         stderr metrics report period (0 = off)\n"
      "  --alpha A                default tenant decay alpha (0.05)\n"
      "  --landmark L             default tenant landmark (0)\n"
      "  --max-groups N           default tenant shedding budget (4096)\n"
      "  --max-queries N          default tenant query quota (8)\n"
      "  --two-level              default new plans to two-level mode\n",
      argv0);
}

bool ParseU64Flag(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseDoubleFlag(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Served plans may use the paper's UDAFs (samplers, FDHH, ...), not
  // just the built-in aggregates.
  fwdecay::dsms::RegisterPaperUdafs();
  fwdecay::server::DaemonOptions options;
  std::uint64_t u = 0;
  double d = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--help" || flag == "-h") {
      Usage(argv[0]);
      return 0;
    }
    if (flag == "--two-level") {
      options.two_level_default = true;
      continue;
    }
    // Everything below takes a value.
    bool ok = value != nullptr;
    if (ok && flag == "--data-dir") {
      options.data_dir = value;
    } else if (ok && flag == "--port" && ParseU64Flag(value, &u) &&
               u <= 0xffff) {
      options.port = static_cast<std::uint16_t>(u);
    } else if (ok && flag == "--metrics-port" && ParseU64Flag(value, &u) &&
               u <= 0xffff) {
      options.metrics_port = static_cast<std::uint16_t>(u);
    } else if (ok && flag == "--queue-capacity" && ParseU64Flag(value, &u) &&
               u >= 1) {
      options.queue_capacity = static_cast<std::size_t>(u);
    } else if (ok && flag == "--max-connections" && ParseU64Flag(value, &u) &&
               u >= 1) {
      options.max_connections = static_cast<std::size_t>(u);
    } else if (ok && flag == "--max-tenants" && ParseU64Flag(value, &u) &&
               u >= 1) {
      options.max_tenants = static_cast<std::size_t>(u);
    } else if (ok && flag == "--retain" && ParseU64Flag(value, &u) && u >= 1) {
      options.snapshot_retain = static_cast<std::size_t>(u);
    } else if (ok && flag == "--checkpoint-interval" &&
               ParseDoubleFlag(value, &d) && d >= 0.0) {
      options.checkpoint_interval_s = d;
    } else if (ok && flag == "--idle-timeout-ms" && ParseU64Flag(value, &u) &&
               u >= 1) {
      options.idle_timeout_ms = static_cast<int>(u);
    } else if (ok && flag == "--io-timeout-ms" && ParseU64Flag(value, &u) &&
               u >= 1) {
      options.io_timeout_ms = static_cast<int>(u);
    } else if (ok && flag == "--stats-period" && ParseDoubleFlag(value, &d) &&
               d >= 0.0) {
      options.stats_period_s = d;
    } else if (ok && flag == "--alpha" && ParseDoubleFlag(value, &d)) {
      options.tenant_defaults.decay_alpha = d;
    } else if (ok && flag == "--landmark" && ParseDoubleFlag(value, &d)) {
      options.tenant_defaults.landmark = d;
    } else if (ok && flag == "--max-groups" && ParseU64Flag(value, &u)) {
      options.tenant_defaults.max_groups = static_cast<std::size_t>(u);
    } else if (ok && flag == "--max-queries" && ParseU64Flag(value, &u) &&
               u >= 1) {
      options.tenant_defaults.max_queries = static_cast<std::size_t>(u);
    } else {
      std::fprintf(stderr, "fwdecayd: bad flag or value: %s\n", flag.c_str());
      Usage(argv[0]);
      return 2;
    }
    ++i;  // consumed the value
  }
  if (options.data_dir.empty()) {
    std::fprintf(stderr, "fwdecayd: --data-dir is required\n");
    Usage(argv[0]);
    return 2;
  }

  if (pipe(g_signal_pipe) != 0) {
    std::perror("fwdecayd: pipe");
    return 1;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: interrupted syscalls are already retried by the
  // EINTR-safe I/O layer, and the self-pipe wakes the poll below.
  if (sigaction(SIGTERM, &action, nullptr) != 0 ||
      sigaction(SIGINT, &action, nullptr) != 0) {
    std::perror("fwdecayd: sigaction");
    return 1;
  }

  fwdecay::server::Daemon daemon(options);
  std::string error;
  if (!daemon.Start(&error)) {
    std::fprintf(stderr, "fwdecayd: start failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("fwdecayd listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(daemon.ingest_port()));
  std::printf("fwdecayd metrics on http://127.0.0.1:%u/metrics\n",
              static_cast<unsigned>(daemon.metrics_port()));
  std::fflush(stdout);

  // Block until a shutdown signal lands (EINTR from the signal itself
  // just re-polls; the byte in the pipe is what decides).
  for (;;) {
    struct pollfd pfd;
    pfd.fd = g_signal_pipe[0];
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = poll(&pfd, 1, -1);
    if (rc > 0) break;
    if (rc < 0 && errno != EINTR && errno != EAGAIN) break;
  }

  std::fprintf(stderr, "fwdecayd: draining and checkpointing...\n");
  daemon.Stop();
  std::fprintf(stderr, "fwdecayd: clean shutdown\n");
  return 0;
}
