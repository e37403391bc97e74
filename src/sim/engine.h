// Process-wide execution-engine knobs and accounting for the bench harness.
//
// Experiments opt their protocol runners into fast-forward execution via
// `use_fast_forward()`; the bench CLI's `--no-fast-forward` flips the global
// default so a run can be cross-checked against naive stepping (results are
// bit-identical by contract — only the timing sidecar may differ).
//
// `engine_counters()` reads the radio engine's process-wide stepped/skipped
// round totals; the CLI reports per-experiment deltas in the timing sidecar
// (never in the results JSON, which must be independent of execution mode).
#pragma once

#include "radio/network.h"

namespace rn::sim {

/// Whether experiments should request fast-forward execution (default true).
[[nodiscard]] bool use_fast_forward();

/// Overrides the process-wide fast-forward default (bench CLI).
void set_fast_forward(bool on);

using engine_snapshot = radio::engine_totals;

/// Cumulative engine counters for this process (monotone; diff two snapshots
/// to attribute work to a run).
[[nodiscard]] engine_snapshot engine_counters();

// read only by perfbench/driver.cpp; delete with the next benchmark PR
inline void set_intra_trial_threads(unsigned) {}
// end of the perfbench/driver.cpp block

/// Peak resident-set size of this process in kilobytes (0 where the platform
/// offers neither /proc nor getrusage). High-water mark since process start
/// *or since the last successful reset_peak_rss()* — the bench sidecar and
/// the service daemon reset between runs so each run reports its own peak
/// rather than the process-lifetime maximum.
[[nodiscard]] std::int64_t peak_rss_kb();

/// Best-effort reset of the kernel's peak-RSS accounting (Linux:
/// `echo 5 > /proc/self/clear_refs`). Returns false where unsupported, in
/// which case peak_rss_kb() remains a process-lifetime maximum. The
/// pre-reset peak is folded into process_peak_rss_kb() first, so the
/// monotone high-water mark never loses history.
bool reset_peak_rss();

/// Current resident-set size in kilobytes (Linux VmRSS; 0 where
/// unsupported). A gauge — the service exports it alongside the peaks.
[[nodiscard]] std::int64_t current_rss_kb();

/// Monotone process-lifetime peak RSS in kilobytes: the maximum
/// peak_rss_kb() ever observed, immune to reset_peak_rss(). This is the
/// number the top-level sidecar field and cross-run memory trending use.
[[nodiscard]] std::int64_t process_peak_rss_kb();

}  // namespace rn::sim
