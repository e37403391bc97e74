#include "sim/engine.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace rn::sim {

namespace {
std::atomic<bool> g_fast_forward{true};

/// Monotone high-water mark across reset_peak_rss() windows.
std::atomic<std::int64_t> g_process_peak_rss_kb{0};

void raise_process_peak(std::int64_t kb) {
  std::int64_t seen = g_process_peak_rss_kb.load(std::memory_order_relaxed);
  while (kb > seen && !g_process_peak_rss_kb.compare_exchange_weak(
                          seen, kb, std::memory_order_relaxed)) {
  }
}

/// Reads a "Key:   <n> kB" line from /proc/self/status; -1 when absent
/// (non-Linux or /proc unavailable).
std::int64_t read_proc_status_kb(const char* key) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  const std::size_t key_len = std::strlen(key);
  std::int64_t kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::strtoll(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)key;
  return -1;
#endif
}

std::int64_t getrusage_peak_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(ru.ru_maxrss) / 1024;  // bytes on macOS
#else
  return static_cast<std::int64_t>(ru.ru_maxrss);  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}
}  // namespace

bool use_fast_forward() { return g_fast_forward.load(std::memory_order_relaxed); }

void set_fast_forward(bool on) {
  g_fast_forward.store(on, std::memory_order_relaxed);
}

engine_snapshot engine_counters() {
  return radio::network::process_totals();
}

std::int64_t peak_rss_kb() {
  // Prefer VmHWM: unlike getrusage's ru_maxrss it observes clear_refs
  // resets, which is what makes per-run peaks possible at all.
  std::int64_t kb = read_proc_status_kb("VmHWM");
  if (kb < 0) kb = getrusage_peak_kb();
  raise_process_peak(kb);
  return kb;
}

bool reset_peak_rss() {
#if defined(__linux__)
  raise_process_peak(peak_rss_kb());  // never lose the pre-reset peak
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;  // 5 = reset the RSS high-water mark
  return (std::fclose(f) == 0) && ok && read_proc_status_kb("VmHWM") >= 0;
#else
  return false;
#endif
}

std::int64_t current_rss_kb() {
  const std::int64_t kb = read_proc_status_kb("VmRSS");
  return kb < 0 ? 0 : kb;
}

std::int64_t process_peak_rss_kb() {
  raise_process_peak(peak_rss_kb());
  return g_process_peak_rss_kb.load(std::memory_order_relaxed);
}

}  // namespace rn::sim
