// perfbench_driver — the in-process half of the repo benchmark.
//
//   perfbench_driver JOB.json      run one job, write <out_dir>/report.json
//   perfbench_driver --rn-worker-fd N   (internal) a dist rank, re-exec'd
//
// A job is one ad-hoc workload (the `bench_suite --topology` surface) run
// with the default execution settings a user gets: trial threads = hardware
// concurrency, intra-trial auto, SIMD auto-detected, fast-forward on. With
// "dist_ranks" > 0 the workload runs on a forked rank fleet, exactly as
// `rn_dist --ranks R` does. perfbench/run.py writes the job file (every input
// is generated there from the workload seed) and reads the report.
//
// Timed iterations repeat the whole run — validate, run, render — until the
// job's time budget is spent, and byte-compare every iteration's results
// JSON with the first. A traced job adds one more iteration with spans
// recorded around calls into the library's public functions (validation,
// run_experiment, rendering, and the per-trial build/probe boundaries that
// sim::trial_graph_hook exposes), then a serial layer replay of trial 0:
// build_topology, a radio::network on the trial graph and one
// core::run_broadcast per probe, each timed with its engine-counter deltas.
// Nothing here reaches inside src/; spans at finer grain belong there.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <time.h>

#include "common/rng.h"
#include "core/api.h"
#include "dist/session.h"
#include "dist/worker.h"
#include "graph/topology.h"
#include "radio/network.h"
#include "sim/adhoc.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/json.h"
#include "svc/cache.h"
#include "svc/request.h"

namespace {

using rn::sim::json_value;
using clock_type = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock_type::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t a, std::int64_t b) { return (b - a) / 1e6; }

/// CPU milliseconds of the calling thread: set-up runs on the main thread,
/// and its CPU time leaves out the hypervisor's steal and scheduling waits
/// that swing its wall time on a shared machine.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// CPU seconds (user + system) of this process's threads plus its reaped
/// children — the dist ranks are reaped when their session ends.
double cpu_seconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                 1e6;
  }
  return total;
}

// --- spans -------------------------------------------------------------------

struct span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  int trial = -1;  ///< trial index, -1 outside a trial
};

class tracer {
 public:
  int add(std::string name, std::int64_t start, std::int64_t end, int parent,
          int trial = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start, end, parent, trial});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, std::int64_t end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  [[nodiscard]] std::vector<span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<span> spans_;
};

/// Total length of the union of [start, end) intervals.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_s = 0;
  std::int64_t cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// Observes trial boundaries: a trial starts when its worker thread finished
/// the previous one (or when the run started), its graph is built by the
/// time trial_begin fires, and its probes run until trial_end. Forwards to
/// an inner hook (the dist session) so distributed runs keep working.
class span_hook final : public rn::sim::trial_graph_hook {
 public:
  span_hook(tracer& tr, int run_span, std::int64_t run_start,
            std::map<std::uint64_t, int> trial_of_seed,
            rn::sim::trial_graph_hook* inner)
      : tr_(tr),
        run_span_(run_span),
        run_start_(run_start),
        trial_of_seed_(std::move(trial_of_seed)),
        inner_(inner) {}

  void trial_begin(const rn::graph::topology_spec& spec,
                   const rn::graph::graph& g) override {
    const std::int64_t t = now_ns();
    std::int64_t start = run_start_;
    int trial = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = last_end_.find(std::this_thread::get_id());
      if (it != last_end_.end()) start = it->second;
      const auto ti = trial_of_seed_.find(spec.seed);
      if (ti != trial_of_seed_.end()) trial = ti->second;
    }
    const int trial_span = tr_.add("sim.trial", start, 0, run_span_, trial);
    tr_.add("graph.build", start, t, trial_span, trial);
    std::int64_t probes_start = t;
    if (inner_ != nullptr) {
      inner_->trial_begin(spec, g);
      probes_start = now_ns();
      tr_.add("dist.trial_setup", t, probes_start, trial_span, trial);
    }
    std::lock_guard<std::mutex> lock(mu_);
    live_[&g] = {trial_span, probes_start, trial};
  }

  void trial_end(const rn::graph::graph& g) override {
    const std::int64_t t = now_ns();
    live_trial lt;
    {
      std::lock_guard<std::mutex> lock(mu_);
      lt = live_[&g];
      live_.erase(&g);
    }
    tr_.add("core.probes", lt.probes_start, t, lt.span, lt.trial);
    std::int64_t end = t;
    if (inner_ != nullptr) {
      inner_->trial_end(g);
      end = now_ns();
      tr_.add("dist.trial_teardown", t, end, lt.span, lt.trial);
    }
    tr_.close(lt.span, end);
    std::lock_guard<std::mutex> lock(mu_);
    last_end_[std::this_thread::get_id()] = end;
  }

 private:
  struct live_trial {
    int span = -1;
    std::int64_t probes_start = 0;
    int trial = -1;
  };
  tracer& tr_;
  int run_span_;
  std::int64_t run_start_;
  std::map<std::uint64_t, int> trial_of_seed_;
  rn::sim::trial_graph_hook* inner_;
  std::mutex mu_;
  std::map<std::thread::id, std::int64_t> last_end_;
  std::map<const rn::graph::graph*, live_trial> live_;
};

// --- job ---------------------------------------------------------------------

struct run_spec {
  rn::sim::adhoc_spec adhoc;
  std::size_t trials = 1;
  std::uint64_t seed = 1;
};

run_spec read_run_spec(const json_value& j) {
  run_spec r;
  r.adhoc.topology = j.find("topology")->as_string();
  r.adhoc.protocols = j.find("protocols")->as_string();
  if (const auto* m = j.find("messages"))
    r.adhoc.messages = static_cast<std::size_t>(m->as_number(1));
  r.trials = static_cast<std::size_t>(j.find("trials")->as_number(1));
  r.seed = static_cast<std::uint64_t>(j.find("seed")->as_number(1));
  return r;
}

/// The bytes `bench_suite --json` writes for one experiment result.
std::string render(const rn::sim::experiment& e,
                   const rn::sim::experiment_result& r) {
  json_value arr = json_value::array();
  arr.push_back(rn::sim::to_json(e, r));
  std::string bytes = arr.dump(2);
  bytes += "\n";
  return bytes;
}

rn::sim::run_config run_cfg(const run_spec& rs) {
  rn::sim::run_config cfg;
  cfg.trials = rs.trials;
  cfg.threads = 0;  // hardware concurrency, the CLI default
  cfg.seed = rs.seed;
  return cfg;
}

std::unique_ptr<rn::dist::session> spawn_fleet(unsigned ranks) {
  rn::dist::session_options opt;
  opt.ranks = ranks;
  opt.intra_trial_threads = 1;  // rn_dist's default worker-side knob
  opt.worker_exec = "/proc/self/exe";
  auto s = std::make_unique<rn::dist::session>(opt);
  s->install();
  return s;
}

struct iteration {
  double wall_ms = 0;
  double cpu_s = 0;
  double validate_ms = 0;
  double fleet_setup_ms = 0;
  double setup_cpu_ms = 0;  ///< CPU time of fleet spawn + validation
  std::int64_t peak_rss_kb = 0;        ///< coordinator + every rank
  std::int64_t coord_peak_rss_kb = 0;
  rn::dist::session_totals fleet;
  std::string bytes;
};

/// One whole user-visible run. `tr` non-null records spans under a root.
iteration run_once(const run_spec& rs, unsigned ranks, tracer* tr) {
  iteration it;
  rn::sim::reset_peak_rss();
  const double c0 = cpu_seconds();
  const double setup_c0 = thread_cpu_ms();
  const std::int64_t t0 = now_ns();
  const int root = tr != nullptr ? tr->add("iteration", t0, 0, -1) : -1;
  std::unique_ptr<rn::dist::session> fleet;
  if (ranks > 0) {
    fleet = spawn_fleet(ranks);
    const std::int64_t t = now_ns();
    it.fleet_setup_ms = ms_between(t0, t);
    if (tr != nullptr) tr->add("dist.setup", t0, t, root);
  }
  const std::int64_t v0 = now_ns();
  const rn::sim::experiment e = rn::sim::make_adhoc_experiment(rs.adhoc);
  const std::int64_t v1 = now_ns();
  it.setup_cpu_ms = thread_cpu_ms() - setup_c0;
  it.validate_ms = ms_between(v0, v1);
  if (tr != nullptr) tr->add("sim.validate", v0, v1, root);

  std::optional<span_hook> hook;
  int run_span = -1;
  if (tr != nullptr) {
    run_span = tr->add("sim.run", v1, 0, root);
    // Trial t draws its topology seed first from stream t (sim/experiment),
    // which names the trial a trial_begin call belongs to.
    std::map<std::uint64_t, int> trial_of_seed;
    for (std::size_t t = 0; t < rs.trials; ++t) {
      rn::rng r = rn::rng::for_stream(rs.seed, t);
      trial_of_seed[r()] = static_cast<int>(t);
    }
    hook.emplace(*tr, run_span, v1, std::move(trial_of_seed), fleet.get());
    rn::sim::set_trial_graph_hook(&*hook);
  }
  const rn::sim::experiment_result result =
      rn::sim::run_experiment(e, run_cfg(rs));
  const std::int64_t r1 = now_ns();
  if (tr != nullptr) {
    rn::sim::set_trial_graph_hook(fleet ? fleet.get() : nullptr);
    tr->close(run_span, r1);
  }
  it.bytes = render(e, result);
  const std::int64_t r2 = now_ns();
  if (tr != nullptr) tr->add("sim.render", r1, r2, root);

  it.coord_peak_rss_kb = rn::sim::peak_rss_kb();
  it.peak_rss_kb = it.coord_peak_rss_kb;
  if (fleet) {
    it.fleet = fleet->totals();
    for (const std::int64_t kb : it.fleet.peak_rss_kb_per_rank)
      it.peak_rss_kb += kb;
    const std::int64_t d0 = now_ns();
    fleet.reset();  // shuts the ranks down and reaps them
    if (tr != nullptr) tr->add("dist.shutdown", d0, now_ns(), root);
  }
  const std::int64_t t1 = now_ns();
  it.wall_ms = ms_between(t0, t1);
  it.cpu_s = cpu_seconds() - c0;
  if (tr != nullptr) tr->close(root, t1);
  return it;
}

json_value iteration_json(const iteration& it) {
  json_value j = json_value::object();
  j["wall_ms"] = it.wall_ms;
  j["cpu_s"] = it.cpu_s;
  j["validate_ms"] = it.validate_ms;
  j["fleet_setup_ms"] = it.fleet_setup_ms;
  j["peak_rss_kb"] = it.peak_rss_kb;
  return j;
}

std::string protocol_layer(const std::string& id) {
  std::string name = id;
  std::replace(name.begin(), name.end(), '-', '_');
  return (id == "decay" ? "baseline." : "core.") + name + "_ms";
}

/// Serial replay of trial 0, one public call per layer, with the engine
/// counter deltas of each call.
json_value layer_replay(const run_spec& rs, json_value& layers) {
  const rn::sim::experiment e = rn::sim::make_adhoc_experiment(rs.adhoc);
  const rn::sim::scenario sc = e.make_scenarios().at(0);
  rn::rng r = rn::rng::for_stream(rs.seed, 0);
  rn::graph::topology_spec spec = sc.topology;
  spec.seed = r();

  json_value probes = json_value::array();
  const std::int64_t b0 = now_ns();
  const rn::graph::graph g = rn::graph::build_topology(spec);
  const std::int64_t b1 = now_ns();
  layers["graph.build_ms"] = ms_between(b0, b1);
  layers["graph.nodes"] = static_cast<std::uint64_t>(g.node_count());
  layers["graph.edges"] = static_cast<std::uint64_t>(g.edge_count());
  // The graph's own CSR: size_t offsets + two node_id slots per edge. The
  // radio network keeps a private copy with 32-bit offsets on top of it.
  const double csr_bytes =
      static_cast<double>(g.node_count() + 1) * sizeof(std::size_t) +
      2.0 * static_cast<double>(g.edge_count()) * sizeof(rn::node_id);
  layers["graph.csr_mb"] = csr_bytes / (1024.0 * 1024.0);

  {
    const std::int64_t n0 = now_ns();
    const rn::radio::network net(g, rn::radio::model{});
    layers["radio.setup_ms"] = ms_between(n0, now_ns());
  }

  double probe_ms = 0;
  double rounds_to_complete = 0;
  std::int64_t transmissions = 0;
  std::int64_t stepped = 0;
  auto run_probe = [&](const std::string& protocol,
                       const rn::core::broadcast_workload& wl,
                       const rn::core::options& opt) {
    const rn::radio::engine_totals before =
        rn::radio::network::process_totals();
    const std::int64_t p0 = now_ns();
    const rn::core::broadcast_outcome out =
        rn::core::run_broadcast(g, protocol, wl, opt);
    const double ms = ms_between(p0, now_ns());
    const rn::radio::engine_totals after = rn::radio::network::process_totals();
    json_value p = json_value::object();
    p["protocol"] = protocol;
    p["messages"] = static_cast<std::uint64_t>(wl.messages);
    p["ms"] = ms;
    p["rounds_to_complete"] =
        static_cast<std::int64_t>(out.base.rounds_to_complete);
    p["transmissions"] = out.base.transmissions;
    p["stepped_rounds"] = after.stepped_rounds - before.stepped_rounds;
    p["skipped_rounds"] = after.skipped_rounds - before.skipped_rounds;
    probes.push_back(std::move(p));
    layers[protocol_layer(protocol)] = ms;
    return ms;
  };
  for (const auto& probe : sc.probes) {
    rn::core::options opt = sc.options;
    opt.fast_forward = rn::sim::use_fast_forward();
    opt.seed = r();
    if (probe.payload_size != 0) opt.payload_size = probe.payload_size;
    if (probe.message_seed != 0) opt.message_seed = probe.message_seed;
    const double ms = run_probe(probe.protocol, sc.workload, opt);
    const json_value& p = probes.at(probes.size() - 1);
    probe_ms += ms;
    rounds_to_complete += p.find("rounds_to_complete")->as_number();
    transmissions += static_cast<std::int64_t>(p.find("transmissions")->as_number());
    stepped += static_cast<std::int64_t>(p.find("stepped_rounds")->as_number());
    // Thm 1.3 relays over the Thm 1.1 setup: the single-message run of the
    // same graph and seed isolates the setup, and the difference is the
    // RLNC relay (derived by subtraction, not a span).
    if (sc.workload.messages > 1 && probe.protocol == "rlnc-unknown-cd") {
      rn::core::broadcast_workload one = sc.workload;
      one.messages = 1;
      layers["coding.relay_ms"] = ms - run_probe("gst-unknown-cd", one, opt);
    }
  }
  layers["core.protocol_ms"] = probe_ms;
  layers["core.rounds_to_complete"] = rounds_to_complete;
  layers["radio.transmissions"] = transmissions;
  layers["radio.ns_per_tx"] =
      transmissions > 0 ? probe_ms * 1e6 / static_cast<double>(transmissions)
                        : 0.0;
  layers["core.us_per_stepped_round"] =
      stepped > 0 ? probe_ms * 1e3 / static_cast<double>(stepped) : 0.0;
  return probes;
}

/// Times the service's request path on each line, as rn_serve's submitting
/// thread would run it: parse, registry validation + cache key, cache get.
json_value svc_probe(const json_value& lines, const std::string& hit_key,
                     const std::string& hit_payload) {
  rn::svc::result_cache cache(128);
  if (!hit_key.empty()) cache.put(hit_key, hit_payload);
  json_value rows = json_value::array();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines.at(i).as_string();
    json_value row = json_value::object();
    const std::int64_t p0 = now_ns();
    std::optional<rn::svc::request> req;
    try {
      req = rn::svc::parse_request(line);
    } catch (const std::exception&) {
    }
    const std::int64_t p1 = now_ns();
    row["parse_ms"] = ms_between(p0, p1);
    if (req && req->what == rn::svc::method::run && req->experiment.empty()) {
      std::string key;
      try {
        const rn::sim::experiment e = rn::sim::make_adhoc_experiment(req->adhoc);
        key = rn::sim::canonical_run_key(
            req->adhoc, req->trials != 0 ? req->trials : e.default_trials,
            req->seed);
      } catch (const std::exception&) {
      }
      const std::int64_t v1 = now_ns();
      row["validate_ms"] = ms_between(p1, v1);
      if (!key.empty()) {
        const bool hit = cache.get(key).has_value();
        row["cache_get_ms"] = ms_between(v1, now_ns());
        row["cache_hit"] = hit;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

json_value layer_self_times(const std::vector<span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const auto& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto iv = kids[i];
    for (auto& [a, b] : iv) {
      a = std::max(a, spans[i].start);
      b = std::min(b, spans[i].end);
      if (b < a) b = a;
    }
    self[spans[i].name] +=
        (spans[i].end - spans[i].start - union_ns(std::move(iv))) / 1e6;
  }
  json_value j = json_value::object();
  for (const auto& [name, ms] : self) j[name] = ms;
  return j;
}

void write_spans(const std::string& path, const std::vector<span>& spans) {
  json_value arr = json_value::array();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start;
  for (const auto& s : spans) {
    json_value j = json_value::object();
    j["name"] = s.name;
    j["start_ms"] = ms_between(origin, s.start);
    j["end_ms"] = ms_between(origin, s.end);
    j["parent"] = static_cast<std::int64_t>(s.parent);
    j["trial"] = static_cast<std::int64_t>(s.trial);
    arr.push_back(std::move(j));
  }
  std::ofstream(path) << arr.dump(1) << "\n";
}

json_value traced_run(const run_spec& rs, unsigned ranks,
                      const std::string& out_dir, const iteration& untraced,
                      bool& identical) {
  json_value layers = json_value::object();
  tracer tr;
  const rn::radio::engine_totals e0 = rn::radio::network::process_totals();
  const rn::radio::shard_totals s0 = rn::radio::network::process_shard_totals();
  const iteration it = run_once(rs, ranks, &tr);
  const rn::radio::engine_totals e1 = rn::radio::network::process_totals();
  const rn::radio::shard_totals s1 = rn::radio::network::process_shard_totals();
  identical = it.bytes == untraced.bytes;

  const std::vector<span> spans = tr.spans();
  write_spans(out_dir + "/spans.json", spans);
  layers["self_ms"] = layer_self_times(spans);

  std::vector<double> trial_ms;
  double trial_sum = 0;
  double run_ms = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> leaves;
  std::vector<bool> has_child(spans.size(), false);
  for (const auto& s : spans)
    if (s.parent >= 0) has_child[static_cast<std::size_t>(s.parent)] = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    if (s.name == "sim.trial") {
      trial_ms.push_back(ms_between(s.start, s.end));
      trial_sum += trial_ms.back();
    }
    if (s.name == "sim.run") run_ms = ms_between(s.start, s.end);
    if (s.name == "sim.validate") layers["sim.validate_ms"] = ms_between(s.start, s.end);
    if (s.name == "sim.render") layers["sim.render_ms"] = ms_between(s.start, s.end);
    if (s.name == "dist.setup") layers["dist.setup_ms"] = ms_between(s.start, s.end);
    if (!has_child[i]) leaves.push_back({s.start, s.end});
  }
  std::sort(trial_ms.begin(), trial_ms.end());
  if (!trial_ms.empty()) {
    layers["sim.trial_ms_p50"] = trial_ms[(trial_ms.size() - 1) / 2];
    layers["sim.trial_ms_max"] = trial_ms.back();
  }
  const unsigned workers = rn::sim::resolve_threads(0, rs.trials);
  layers["sim.workers"] = static_cast<std::uint64_t>(workers);
  layers["sim.parallel_eff"] =
      run_ms > 0 ? trial_sum / (workers * run_ms) : 0.0;
  layers["trace.wall_ms"] = it.wall_ms;
  layers["trace.untraced_wall_ms"] = untraced.wall_ms;
  layers["trace.cpu_s"] = it.cpu_s;
  layers["trace.untraced_cpu_s"] = untraced.cpu_s;
  layers["trace.uncovered_share"] =
      it.wall_ms > 0 ? 1.0 - union_ns(leaves) / 1e6 / it.wall_ms : 0.0;

  layers["radio.stepped_rounds"] = e1.stepped_rounds - e0.stepped_rounds;
  layers["radio.skipped_rounds"] = e1.skipped_rounds - e0.skipped_rounds;
  layers["radio.simd_rounds"] = e1.simd_stepped_rounds - e0.simd_stepped_rounds;
  layers["radio.parallel_rounds"] = s1.parallel_rounds - s0.parallel_rounds;
  double busy_ns = 0;
  for (std::size_t k = 0; k < s1.busy_ns.size(); ++k)
    busy_ns += static_cast<double>(
        s1.busy_ns[k] - (k < s0.busy_ns.size() ? s0.busy_ns[k] : 0));
  layers["radio.shard_busy_ms"] = busy_ns / 1e6;

  layers["dist.bytes_sent"] = it.fleet.bytes_sent;
  layers["dist.bytes_received"] = it.fleet.bytes_received;
  layers["dist.rounds"] = it.fleet.rounds;
  layers["dist.bytes_per_round"] =
      it.fleet.rounds > 0 ? static_cast<double>(it.fleet.bytes_sent +
                                                it.fleet.bytes_received) /
                                static_cast<double>(it.fleet.rounds)
                          : 0.0;
  layers["dist.merge_ms"] = it.fleet.merge_wall_ms;
  std::int64_t rank_peak = 0;
  for (const std::int64_t kb : it.fleet.peak_rss_kb_per_rank)
    rank_peak = std::max(rank_peak, kb);
  layers["dist.rank_peak_rss_mb"] = rank_peak / 1024.0;
  layers["sim.coord_peak_rss_mb"] = it.coord_peak_rss_kb / 1024.0;

  layers["replay"] = layer_replay(rs, layers);
  return layers;
}

int run_job(const std::string& job_path) {
  std::ifstream in(job_path);
  if (!in) {
    std::cerr << "cannot read " << job_path << "\n";
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const json_value job = rn::sim::parse_json(ss.str());
  const std::string out_dir = job.find("out_dir")->as_string();
  const auto ranks = static_cast<unsigned>(job.find("dist_ranks")->as_number(0));
  const double budget_ms = job.find("seconds")->as_number(0) * 1e3;
  const auto min_iters =
      static_cast<std::size_t>(job.find("min_iterations")->as_number(1));
  const auto setup_samples =
      static_cast<std::size_t>(job.find("setup_samples")->as_number(1));
  const bool trace = job.find("trace")->as_bool(false);

  // The defaults every CLI user runs with (sim/cli.cpp): fast-forward on,
  // worker budget = hardware concurrency, intra-trial auto.
  rn::sim::set_fast_forward(true);
  rn::radio::set_worker_budget(0);
  rn::sim::set_intra_trial_threads(0);

  json_value report = json_value::object();
  report["simd_detected"] =
      rn::radio::to_string(rn::radio::detected_simd_level());
  report["simd_active"] = rn::radio::to_string(rn::radio::active_simd_level());
  report["hw_threads"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());

  json_value iters = json_value::array();
  json_value setup_ms = json_value::array();
  json_value setup_cpu_ms = json_value::array();
  if (const json_value* w = job.find("workload")) {
    const run_spec rs = read_run_spec(*w);
    const std::int64_t start = now_ns();
    std::string first_bytes;
    iteration last;
    for (std::size_t i = 0;; ++i) {
      const double elapsed = ms_between(start, now_ns());
      if (i >= min_iters && (elapsed + last.wall_ms > budget_ms || i >= 64))
        break;
      last = run_once(rs, ranks, nullptr);
      if (i == 0) {
        first_bytes = last.bytes;
        std::ofstream(out_dir + "/results.json", std::ios::binary)
            << last.bytes;
      }
      json_value ij = iteration_json(last);
      ij["matches_first"] = last.bytes == first_bytes;
      iters.push_back(std::move(ij));
      setup_ms.push_back(last.fleet_setup_ms + last.validate_ms);
      setup_cpu_ms.push_back(last.setup_cpu_ms);
    }
    // Set-up is everything before the first trial can start: the rank fleet
    // (distributed runs) and validation. Extra samples steady the median of
    // a cheap set-up: at least `setup_samples`, and a quarter second of
    // set-up in all (at most 50).
    double setup_total_ms = 0;
    for (std::size_t k = 0; k < setup_ms.size(); ++k)
      setup_total_ms += setup_ms.at(k).as_number();
    for (std::size_t k = setup_ms.size();
         setup_samples > 0 &&
         (k < setup_samples || (setup_total_ms < 250 && k < 50));
         ++k) {
      const std::int64_t s0 = now_ns();
      const double sc0 = thread_cpu_ms();
      std::unique_ptr<rn::dist::session> fleet;
      if (ranks > 0) fleet = spawn_fleet(ranks);
      (void)rn::sim::make_adhoc_experiment(rs.adhoc);
      const double ms = ms_between(s0, now_ns());
      setup_cpu_ms.push_back(thread_cpu_ms() - sc0);
      setup_total_ms += ms;
      setup_ms.push_back(ms);
    }
    if (trace) {
      bool traced_identical = false;
      json_value layers =
          traced_run(rs, ranks, out_dir, last, traced_identical);
      report["traced_identical"] = traced_identical;
      if (const json_value* lines = job.find("requests")) {
        const std::string key = rn::sim::canonical_run_key(
            rs.adhoc, rs.trials, rs.seed);
        layers["svc_probe"] = svc_probe(*lines, key, first_bytes);
      }
      report["layers"] = std::move(layers);
    }
  }
  report["iterations"] = std::move(iters);
  report["setup_ms"] = std::move(setup_ms);
  report["setup_cpu_ms"] = std::move(setup_cpu_ms);

  // Reference payloads: in-process batch bytes of other runs, for checking
  // served or distributed results against.
  if (const json_value* extra = job.find("extra")) {
    for (std::size_t i = 0; i < extra->size(); ++i) {
      const run_spec rs = read_run_spec(extra->at(i));
      const rn::sim::experiment e = rn::sim::make_adhoc_experiment(rs.adhoc);
      std::ofstream(out_dir + "/extra_" + std::to_string(i) + ".json",
                    std::ios::binary)
          << render(e, rn::sim::run_experiment(e, run_cfg(rs)));
    }
  }
  std::ofstream(out_dir + "/report.json") << report.dump(1) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--rn-worker-fd")
    return rn::dist::worker_main(std::atoi(argv[2]));
  if (argc != 2) {
    std::cerr << "usage: " << argv[0] << " JOB.json\n";
    return 2;
  }
  try {
    return run_job(argv[1]);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench_driver: " << ex.what() << "\n";
    return 1;
  }
}
