#include "sim/adhoc.h"

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/api.h"
#include "graph/topology.h"

namespace rn::sim {

namespace {

std::vector<std::string> split_commas(std::string_view s) {
  std::vector<std::string> out;
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    out.emplace_back(s.substr(0, comma));
    s = comma == std::string_view::npos ? std::string_view{}
                                        : s.substr(comma + 1);
  }
  return out;
}

struct parsed_sweep {
  std::string param;
  std::vector<double> values;
};

parsed_sweep parse_sweep(const std::string& sweep) {
  parsed_sweep out;
  if (sweep.empty()) return out;
  const std::size_t eq = sweep.find('=');
  RN_REQUIRE(eq != std::string::npos && eq > 0,
             "bad sweep (want PARAM=V1,V2,...): " + sweep);
  out.param = sweep.substr(0, eq);
  for (const auto& v : split_commas(std::string_view(sweep).substr(eq + 1))) {
    // Reuse the spec grammar ("x:param=value") so sweep values parse exactly
    // like topology parameters.
    const auto one = graph::parse_topology_spec("x:" + out.param + "=" + v);
    out.values.push_back(one.param(out.param, 0.0));
  }
  RN_REQUIRE(!out.values.empty(), "empty sweep value list");
  return out;
}

std::vector<std::string> validated_protocols(const adhoc_spec& spec) {
  std::vector<std::string> ids =
      split_commas(spec.protocols.empty() ? "decay" : spec.protocols);
  for (const auto& id : ids) {
    const auto* p = core::protocol_registry::instance().find(id);
    RN_REQUIRE(p != nullptr, "unknown protocol '" + id + "' (try --list)");
    RN_REQUIRE(spec.messages == 1 || p->multi_message,
               "protocol '" + id + "' is single-message; drop it or use"
               " messages = 1");
  }
  return ids;
}

}  // namespace

core::options adhoc_options(const adhoc_spec& spec) {
  if (spec.options.empty()) {
    core::options o;
    o.prm = core::params::fast();
    return o;
  }
  return core::parse_options(spec.options);
}

experiment make_adhoc_experiment(const adhoc_spec& spec) {
  RN_REQUIRE(!spec.topology.empty(), "ad-hoc workload needs a topology spec");
  RN_REQUIRE(spec.messages >= 1, "ad-hoc workload needs messages >= 1");
  const graph::topology_spec base = graph::parse_topology_spec(spec.topology);
  RN_REQUIRE(graph::topology_registry::instance().find(base.kind) != nullptr,
             "unknown topology kind '" + base.kind + "' (try --list)");

  const std::vector<std::string> protocol_ids = validated_protocols(spec);
  const parsed_sweep sweep = parse_sweep(spec.sweep);
  const core::options effective = adhoc_options(spec);

  experiment e;
  e.id = "adhoc";
  e.title = "ad-hoc workload: " + base.to_string();
  e.claim = "(user-defined workload; no registered paper claim)";
  e.profile = "fast";
  e.default_trials = 8;
  e.make_scenarios = [base, protocol_ids, sweep, effective,
                      messages = spec.messages] {
    std::vector<scenario> out;
    const std::size_t points = sweep.values.empty() ? 1 : sweep.values.size();
    for (std::size_t i = 0; i < points; ++i) {
      scenario sc;
      sc.topology = base;
      if (!sweep.values.empty()) {
        sc.topology.set_param(sweep.param, sweep.values[i]);
        // "x:param=value" with the canonical value formatting, minus "x:".
        sc.label = graph::topology_spec{"x", {{sweep.param, sweep.values[i]}}}
                       .to_string()
                       .substr(2);
        sc.params = {{sweep.param, sweep.values[i]}};
      } else {
        sc.label = base.kind;
      }
      sc.workload.messages = messages;
      sc.options = effective;
      for (const auto& id : protocol_ids) sc.probes.push_back({id, id});
      out.push_back(std::move(sc));
    }
    return out;
  };
  // One dry build of the first scenario (base spec + sweep param): a
  // mistyped parameter name fails here, before any trial runs. Later sweep
  // points only change this parameter's value, so one build checks them all.
  static_cast<void>(graph::build_topology(e.make_scenarios().front().topology));
  return e;
}

std::string canonical_run_key(const adhoc_spec& spec, std::size_t trials,
                              std::uint64_t seed) {
  RN_REQUIRE(!spec.topology.empty(), "ad-hoc workload needs a topology spec");
  graph::topology_spec base = graph::parse_topology_spec(spec.topology);
  // Author param order is semantically irrelevant (build_topology looks
  // params up by name), so the key sorts them — "grid:cols=5,rows=4" and
  // "grid:rows=4,cols=5" share one cache entry.
  std::sort(base.params.begin(), base.params.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string key = "topology=" + base.to_string();
  key += ";protocols=";
  const std::vector<std::string> ids = validated_protocols(spec);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) key += ",";
    key += ids[i];
  }
  const parsed_sweep sweep = parse_sweep(spec.sweep);
  key += ";sweep=";
  if (!sweep.values.empty()) {
    // Canonical value formatting via the spec printer, minus "x:param=".
    for (std::size_t i = 0; i < sweep.values.size(); ++i) {
      const std::string one =
          graph::topology_spec{"x", {{sweep.param, sweep.values[i]}}}
              .to_string();
      if (i == 0) {
        key.append(one, 2);
      } else {
        key += ',';
        key.append(one, one.find('=') + 1);
      }
    }
  }
  key += ";messages=" + std::to_string(spec.messages);
  key += ";options=" + adhoc_options(spec).to_string();
  key += ";trials=" + std::to_string(trials);
  key += ";seed=" + std::to_string(seed);
  return key;
}

}  // namespace rn::sim
