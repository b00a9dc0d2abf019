// Experiment FAULT-RT — the robustness probe behind the fault-aware
// evaluation engine. Its JSON records one CI-gated invariant and the
// timings of the degraded-mode evaluation walks:
//
//  * fault_free_bit_identical — an empty fault set must leave the mapping
//    search bit-identical to the committed mapping probe: same cost, same
//    evaluated/pruned counts on the 64-core synthetic mesh. Fault awareness
//    costs nothing when it is off.
//  * vopd_n1_sa / mpeg4_n1_sa sub-benchmarks — an SA-shaped neighbor-swap
//    walk with exhaustive N-1 link faults folded into the worst-case
//    objective, so the per-scenario re-evaluation through the BFS tables
//    prebuilt at bind time stays under the 2x regression ratio. That path
//    is checked bit for bit against Mapper::evaluate by fault_test.
//
// Run with `--json[=path]` (default BENCH_fault.json) to dump the probe for
// scripts/check_bench_regression.py.

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "fault/fault.h"
#include "mapping/eval_context.h"
#include "topo/library.h"
#include "util/prng.h"
#include "util/table.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace sunmap;

// The committed contract of the mapping probe (bench_mapping_scaling's
// 64-core greedy search): an empty fault set must reproduce it exactly.
constexpr double kFaultFreeCost = 4.9445597092556772;
constexpr int kFaultFreeEvaluated = 4033;
constexpr int kFaultFreePruned = 3981;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct FaultFreeProbe {
  double wall_ms = 0.0;
  double cost = 0.0;
  int evaluated = 0;
  int pruned = 0;
  bool bit_identical = false;
};

FaultFreeProbe run_fault_free_probe() {
  apps::SyntheticSpec spec;
  spec.num_cores = 64;
  spec.edge_density = 0.12;
  spec.max_bandwidth_mbps = 400.0;
  spec.seed = 42;
  const auto app = apps::synthetic(spec);
  const auto mesh = topo::make_mesh_for(64);
  auto config = bench::video_config();
  config.link_bandwidth_mbps = 4000.0;
  // The whole fault stack is configured but empty: this is the "off" path
  // every fault-unaware search takes.
  config.faults = fault::FaultSet{};
  mapping::Mapper mapper(config);

  FaultFreeProbe probe;
  const double t0 = now_ms();
  const auto result = mapper.map(app, *mesh);
  probe.wall_ms = now_ms() - t0;
  probe.cost = result.eval.cost;
  probe.evaluated = result.evaluated_mappings;
  probe.pruned = result.pruned_mappings;
  probe.bit_identical = probe.cost == kFaultFreeCost &&
                        probe.evaluated == kFaultFreeEvaluated &&
                        probe.pruned == kFaultFreePruned &&
                        result.eval.fault_outcomes.empty();

  bench::print_heading(
      "Fault-free bit-identity: empty fault set vs the committed mapping "
      "probe (64-core synthetic mesh, greedy swaps)");
  util::Table table({"wall ms", "cost", "evaluated", "pruned", "identical"});
  table.add_row({util::Table::num(probe.wall_ms, 1),
                 util::Table::num(probe.cost, 10),
                 std::to_string(probe.evaluated), std::to_string(probe.pruned),
                 probe.bit_identical ? "yes" : "NO"});
  std::printf("%s", table.to_string().c_str());
  return probe;
}

/// SA-shaped probe: a deterministic random walk of neighbor swaps evaluated
/// through one EvalContext with materialize=false — the exact shape of the
/// annealing inner loop, isolated from acceptance logic so the measurement
/// is pure re-evaluation cost. Returns the wall time in ms.
double evaluation_walk(const mapping::CoreGraph& app,
                       const topo::Topology& topology,
                       const mapping::MapperConfig& config, int iters) {
  const mapping::Mapper mapper(config);
  const auto ctx = mapper.make_context(app, topology);
  mapping::EvalScratch scratch;
  std::vector<int> mapping;
  for (int core = 0; core < app.num_cores(); ++core) mapping.push_back(core);

  util::Prng prng(7);
  const double t0 = now_ms();
  for (int i = 0; i < iters; ++i) {
    const auto a = static_cast<std::size_t>(
        prng.next_below(static_cast<std::uint64_t>(app.num_cores())));
    const auto b = static_cast<std::size_t>(
        prng.next_below(static_cast<std::uint64_t>(app.num_cores())));
    std::swap(mapping[a], mapping[b]);
    benchmark::DoNotOptimize(
        ctx.evaluate(mapping, scratch, /*materialize=*/false));
  }
  return now_ms() - t0;
}

/// Min-of-three walks over exhaustive N-1 link faults under the worst-case
/// objective: the walk is deterministic, so the minimum wall time is the
/// least noise-contaminated measurement on loaded runners.
double n1_walk_ms(const mapping::CoreGraph& app, int iters) {
  const auto mesh = topo::make_mesh_for(app.num_cores());
  auto config = bench::video_config();
  config.faults.spec.kind = fault::FaultSpec::Kind::kEveryLink;
  config.faults.aggregation = fault::Aggregation::kWorstCase;
  double best = evaluation_walk(app, *mesh, config, iters);
  for (int rep = 1; rep < 3; ++rep) {
    best = std::min(best, evaluation_walk(app, *mesh, config, iters));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_fault.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  const double t0 = now_ms();
  const auto fault_free = run_fault_free_probe();

  constexpr int kWalkIters = 400;
  const std::vector<std::pair<std::string, double>> walks = {
      {"vopd_n1_sa", n1_walk_ms(apps::vopd(), kWalkIters)},
      {"mpeg4_n1_sa", n1_walk_ms(apps::mpeg4(), kWalkIters)},
  };
  bench::print_heading(
      "Degraded-mode re-evaluation: N-1 link faults, worst-case objective, "
      "SA-shaped walk through the prebuilt per-scenario BFS tables");
  util::Table table({"run", "walk ms"});
  for (const auto& [name, ms] : walks) {
    table.add_row({name, util::Table::num(ms, 1)});
  }
  std::printf("%s", table.to_string().c_str());
  const double total_ms = now_ms() - t0;

  if (!json_path.empty()) {
    FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"benchmark\": \"fault_tolerance\",\n"
                 "  \"wall_ms\": %.3f,\n"
                 "  \"cost\": %.17g,\n"
                 "  \"evaluated_mappings\": %d,\n"
                 "  \"pruned_mappings\": %d,\n"
                 "  \"fault_free_bit_identical\": %s,\n",
                 total_ms, fault_free.cost, fault_free.evaluated,
                 fault_free.pruned,
                 fault_free.bit_identical ? "true" : "false");
    std::fprintf(out, "  \"sub_benchmarks\": {\n");
    for (std::size_t i = 0; i < walks.size(); ++i) {
      std::fprintf(out, "    \"%s\": %.3f%s\n", walks[i].first.c_str(),
                   walks[i].second, i + 1 < walks.size() ? "," : "");
    }
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!fault_free.bit_identical) {
    std::fprintf(stderr,
                 "FAIL: the empty fault set changed the mapping search\n");
    return 1;
  }
  return 0;
}
