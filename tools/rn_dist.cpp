// Multi-process launcher: bench_suite semantics on a rank fleet.
//
//   rn_dist --ranks 4 --experiment e1 --trials 8 --json out.json --timing t.json
//   rn_dist --ranks 4 --intra-trial-threads 2 --topology layered:depth=50,width=200 ...
//
// Every flag after --ranks is the bench_suite CLI. The process forks R
// worker ranks (re-exec'ing this binary with the hidden --rn-worker-fd
// flag), installs the dist session as the trial observer, and runs the
// ordinary suite driver: declarative trials execute on the fleet, each rank
// holding only its partitioned CSR slice. Results JSON is byte-identical to
// bench_suite at any --ranks / --intra-trial-threads; the rn-bench-timing-v7
// sidecar gains per-rank peak RSS, transport byte counts, coordinator merge
// time, and the recovery counters.
//
//   --ranks N               worker ranks, 1..32 (default 4)
//   --intra-trial-threads N partition_walker threads per rank, 1..32 (1)
//
// Supervision flags (dist/supervisor.h; values in milliseconds / attempts):
//
//   --round-deadline-ms N   recv deadline per round frame (default 60000;
//                           0 = block forever, disables wedge detection)
//   --setup-deadline-ms N   recv deadline for setup/teardown acks (300000)
//   --max-respawns N        respawn attempts per rank per trial before the
//                           rank degrades to block reassignment (2)
//   --backoff-ms N          base of the exponential respawn backoff (100)
//   --fault-plan PLAN       deterministic fault injection, e.g.
//                           "kill:rank=1,trial=0,round=4;drop:rank=0,..."
//                           (grammar in dist/fault.h)
//
// A crashed or wedged rank is respawned (bounded backoff) with its CSR slice
// rebuilt and the trial replayed; past the budget its blocks are reassigned
// to the survivors. Results stay byte-identical through every path.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "dist/session.h"
#include "dist/worker.h"
#include "experiments/experiments.h"
#include "sim/cli.h"
#include "sim/engine.h"

int main(int argc, char** argv) {
  // Hidden worker entry: the coordinator re-execs this binary per rank.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string("--rn-worker-fd") == argv[i]) {
      return rn::dist::worker_main(std::atoi(argv[i + 1]));
    }
  }

  std::vector<char*> args(argv, argv + argc);
  rn::dist::session_options opt;
  opt.ranks = 4;
  if (!rn::dist::take_launcher_flags(args, opt)) return 2;

  rn::bench::register_all();

  // Re-exec through /proc/self/exe so the fleet runs this exact binary
  // regardless of how it was invoked.
  opt.worker_exec = "/proc/self/exe";

  rn::dist::session session(opt);
  session.install();
  rn::sim::set_timing_extension([&session](rn::sim::json_value& timing) {
    timing["ranks"] = static_cast<std::uint64_t>(session.ranks());
    const rn::dist::session_totals t = session.totals();
    rn::sim::json_value per_rank = rn::sim::json_value::array();
    std::int64_t peak = rn::sim::process_peak_rss_kb();  // coordinator
    for (const std::int64_t kb : t.peak_rss_kb_per_rank) {
      per_rank.push_back(kb);
      peak = std::max(peak, kb);
    }
    timing["peak_rss_kb_per_rank"] = std::move(per_rank);
    // Cross-process fix: the top-level peak is the max over the coordinator
    // and every rank, not the coordinator alone.
    timing["peak_rss_kb"] = peak;
    timing["dist_bytes_sent"] = t.bytes_sent;
    timing["dist_bytes_received"] = t.bytes_received;
    timing["dist_merge_wall_ms"] = t.merge_wall_ms;
    timing["dist_trials"] = t.trials;
    // Recovery observability — zero across the board on a healthy run.
    timing["dist_rounds"] = t.rounds;
    timing["dist_rank_restarts"] = t.rank_restarts;
    timing["dist_reassigned_blocks"] = t.reassigned_blocks;
    timing["dist_degraded_ranks"] = t.degraded_ranks;
    timing["dist_recovery_wall_ms"] = t.recovery_wall_ms;
  });

  const int rc = rn::sim::run_suite(static_cast<int>(args.size()),
                                    args.data());
  rn::sim::set_timing_extension({});
  session.uninstall();
  return rc;
}
