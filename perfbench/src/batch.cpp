// Batch workloads: table1_heuristic (the paper's Table 1, heuristic mapper,
// chip-size sweep on) and ilp_exact (three designs by the exact mapping ILP
// at fixed chip sides).  Both run one design at a time in this process.
//
// The design set of a run is every design of the workload at each of its
// seed sets: the workload seed itself (so the default seed reproduces the
// CLI) and, for table1_heuristic, one more seed derived from it.  Table-1
// wall time swings by a fifth from seed to seed (the sweep's attempts
// depend on the annealer's luck), and two seeds per run halve that swing.
// The traced run times the workload seed alone.
//
// Timeline of one run:
//   set-up      build the inputs, one small warm-up synthesis, report ready
//   timed       the design set, untraced, repeated while another whole set
//               still fits into --seconds (always at least once)
//   traced      (--trace 1) one more pass with the tracer on, then the
//               extra per-design calls that split the mapper's time
//   checks      every design of every pass: placement, routing, simulation
//               in both actuation settings, Table-1 columns, ILP objective
#include <algorithm>
#include <iostream>
#include <limits>
#include <optional>

#include "assay/benchmarks.hpp"
#include "baseline/traditional.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "perfbench.hpp"
#include "route/router.hpp"
#include "sched/list_scheduler.hpp"
#include "sim/simulator.hpp"
#include "synth/synthesis.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

using namespace fsyn;

/// Node cap of the exact workload.  There is no wall-clock limit, so the
/// designs do not depend on machine speed; the cap bounds the run if a
/// later solver explores a real tree instead of stopping at the root.
constexpr std::int64_t kIlpNodeCap = 2000;

struct DesignSpec {
  std::string assay;
  int increments = 0;
  std::string label;
  std::optional<int> grid;  ///< fixed chip side (ilp_exact); unset = sweep
};

struct Design {
  const DesignSpec* spec = nullptr;
  const assay::SequencingGraph* graph = nullptr;
  sched::Schedule schedule;
  synth::SynthesisResult result;
  double seconds = 0.0;
  std::string error;  ///< set when the pipeline threw
};

bool is_ilp(const std::string& workload) { return workload == "ilp_exact"; }

/// The traced run needs only the untraced pass its traced pass repeats,
/// which keeps it well inside one run's time limit.
int seed_sets(const std::string& workload, bool traced) {
  return is_ilp(workload) || traced ? 1 : 2;
}

std::vector<DesignSpec> design_specs(const std::string& workload) {
  if (workload == "table1_heuristic") {
    // report::run_full_table's rows: per-case p1 offsets, then p2 and p3.
    const std::pair<const char*, int> cases[] = {{"pcr", 0},
                                                 {"mixing_tree", 0},
                                                 {"interpolating_dilution", 1},
                                                 {"exponential_dilution", 3}};
    std::vector<DesignSpec> specs;
    for (const auto& [name, p1] : cases) {
      for (int p = 0; p < 3; ++p) {
        std::string label = "p";
        label += std::to_string(p + 1);
        specs.push_back({name, p1 + p, label, std::nullopt});
      }
    }
    return specs;
  }
  if (is_ilp(workload)) {
    // The sides the default sweep picks for these assays.
    return {{"pcr", 0, "p0", 9}, {"invitro", 0, "p0", 9}, {"protein", 0, "p0", 12}};
  }
  throw Error("unknown batch workload '" + workload + "'");
}

synth::SynthesisOptions options_for(const std::string& workload, const DesignSpec& spec,
                                    std::uint64_t seed) {
  synth::SynthesisOptions options;
  options.heuristic.seed = seed;
  options.grid_size = spec.grid;
  if (is_ilp(workload)) {
    options.mapper = synth::MapperKind::kIlp;
    options.ilp.time_limit_seconds = std::numeric_limits<double>::infinity();
    options.ilp.max_nodes = kIlpNodeCap;
  }
  return options;
}

/// One design through the user's pipeline, each public call in a bench span
/// (the spans cost one relaxed load each while tracing is off).
Design run_design(const std::string& workload, const DesignSpec& spec,
                  const assay::SequencingGraph& graph, std::uint64_t seed) {
  Design design;
  design.spec = &spec;
  design.graph = &graph;
  obs::Span span("bench", "design");
  if (span.active()) {
    span.arg("assay", spec.assay);
    span.arg("policy", spec.label);
  }
  const double started = mono_seconds();
  try {
    const sched::Policy policy = [&] {
      obs::Span s("bench", "make_policy");
      return sched::make_policy(graph, spec.increments);
    }();
    design.schedule = [&] {
      obs::Span s("bench", "schedule_with_policy");
      return sched::schedule_with_policy(graph, policy);
    }();
    if (!is_ilp(workload)) {
      obs::Span s("bench", "build_traditional");
      const baseline::TraditionalDesign traditional =
          baseline::build_traditional(graph, policy, design.schedule);
      if (s.active()) s.arg("vs_tmax", traditional.max_valve_actuations);
    }
    obs::Span s("bench", "synthesize");
    design.result = synth::synthesize(graph, design.schedule, options_for(workload, spec, seed));
  } catch (const std::exception& e) {
    design.error = e.what();
  }
  design.seconds = mono_seconds() - started;
  return design;
}

/// Everything a user may rely on in a design; empty when it holds.
std::string check_design(const Design& design, bool ilp) {
  if (!design.error.empty()) return "threw: " + design.error;
  const synth::SynthesisResult& r = design.result;
  try {
    obs::Span span("bench", "check");
    const synth::MappingProblem problem = [&] {
      obs::Span s("bench", "MappingProblem::build");
      return synth::MappingProblem::build(*design.graph, design.schedule,
                                          arch::Architecture(r.chip_width, r.chip_height));
    }();
    {
      obs::Span s("bench", "validate_placement");
      problem.validate_placement(r.placement);
    }
    {
      obs::Span s("bench", "validate_routing");
      route::validate_routing(problem, r.placement, r.routing);
    }
    const auto verify = [&](sim::Setting setting) {
      obs::Span s("bench", "ChipSimulator::verify");
      return sim::ChipSimulator(problem, r.placement, r.routing, setting).verify();
    };
    const sim::ActuationLedger ledger1 = verify(sim::Setting::kConservative);
    const sim::ActuationLedger ledger2 = verify(sim::Setting::kRescaled);
    if (ledger1.max_total() != r.vs1_max || ledger1.max_pump() != r.vs1_pump ||
        ledger2.max_total() != r.vs2_max || ledger2.max_pump() != r.vs2_pump ||
        ledger1.actuated_valve_count() != r.valve_count) {
      return "simulated ledgers disagree with the reported Table-1 columns";
    }
    if (ilp && problem.max_pump_load(r.placement) != ledger1.max_pump()) {
      return "ILP objective w " + std::to_string(problem.max_pump_load(r.placement)) +
             " != max pump load " + std::to_string(ledger1.max_pump()) + " from the ledger";
    }
  } catch (const std::exception& e) {
    return std::string("check threw: ") + e.what();
  }
  return {};
}

const char* status_text(ilp::MilpStatus status) {
  switch (status) {
    case ilp::MilpStatus::kOptimal: return "optimal";
    case ilp::MilpStatus::kFeasible: return "feasible";
    case ilp::MilpStatus::kInfeasible: return "infeasible";
    case ilp::MilpStatus::kUnbounded: return "unbounded";
    case ilp::MilpStatus::kLimit: return "limit";
  }
  return "unknown";
}

/// Traced run only: on the side the design chose, time greedy construction
/// alone (sa_iterations = 0) beside the full heuristic, three times each,
/// count annealing moves, and (ilp_exact) take the ILP's verdict from
/// map_ilp itself.  Returns an error text when the ILP's w disagrees with
/// its placement.
std::string run_extras(const std::string& workload, const Design& design,
                       std::uint64_t seed, JsonWriter& w) {
  const synth::SynthesisOptions options = options_for(workload, *design.spec, seed);
  const synth::SynthesisResult& r = design.result;
  obs::Span span("bench", "extra");
  const synth::MappingProblem problem = [&] {
    obs::Span s("bench", "MappingProblem::build");
    return synth::MappingProblem::build(*design.graph, design.schedule,
                                        arch::Architecture(r.chip_width, r.chip_height));
  }();
  w.begin_object();
  w.key("design").value(design.spec->assay + " " + design.spec->label);
  synth::HeuristicOptions greedy = options.heuristic;
  greedy.sa_iterations = 0;
  std::optional<synth::MappingOutcome> full;
  for (int repeat = 0; repeat < 3; ++repeat) {
    {
      obs::Span s("bench", "map_heuristic");
      synth::map_heuristic(problem, greedy);
      if (s.active()) s.arg("sa_iterations", 0);
    }
    obs::Span s("bench", "map_heuristic");
    full = synth::map_heuristic(problem, options.heuristic);
    if (s.active()) s.arg("sa_iterations", options.heuristic.sa_iterations);
  }
  w.key("moves_tried").value(static_cast<std::int64_t>(full ? full->moves_tried : 0));
  w.key("moves_accepted").value(static_cast<std::int64_t>(full ? full->moves_accepted : 0));
  std::string error;
  if (is_ilp(workload)) {
    synth::IlpMapperOptions ilp_options = options.ilp;
    if (full) ilp_options.warm_start = full->placement;
    obs::Span s("bench", "map_ilp");
    const auto outcome = synth::map_ilp(problem, ilp_options);
    w.key("ilp_status").value(outcome ? status_text(outcome->status) : "none");
    if (outcome && outcome->max_pump_load != problem.max_pump_load(outcome->placement)) {
      error = "map_ilp reports w " + std::to_string(outcome->max_pump_load) +
              " but its placement loads " +
              std::to_string(problem.max_pump_load(outcome->placement));
    }
  }
  {
    obs::Span s("bench", "route_all");
    const route::RoutingResult routing = route::route_all(problem, r.placement, options.router);
    if (s.active()) s.arg("success", routing.success);
  }
  w.end_object();
  return error;
}

void write_design(JsonWriter& w, const Design& d) {
  const synth::SynthesisResult& r = d.result;
  w.begin_object();
  w.key("assay").value(d.spec->assay);
  w.key("policy").value(d.spec->label);
  w.key("seconds").value(d.seconds);
  w.key("side").value(r.chip_width);
  w.key("vs1_max").value(r.vs1_max);
  w.key("vs2_max").value(r.vs2_max);
  w.key("valves").value(r.valve_count);
  w.key("milp_nodes").value(r.milp_nodes);
  w.key("milp_lp_iterations").value(r.milp_lp_iterations);
  w.key("warm_solves").value(r.milp_lp.warm_solves);
  w.key("cold_solves").value(r.milp_lp.cold_solves);
  w.key("refinements").value(r.refinement_iterations);
  w.key("cuts_retained").value(r.milp_cuts.retained);
  w.key("cut_rounds").value(r.milp_cuts.rounds);
  w.end_object();
}

bool same_design(const Design& a, const Design& b) {
  return a.result.chip_width == b.result.chip_width && a.result.vs1_max == b.result.vs1_max &&
         a.result.vs2_max == b.result.vs2_max && a.result.valve_count == b.result.valve_count;
}

}  // namespace

int run_batch(const Args& args) {
  const std::string workload = args.get("workload");
  const std::uint64_t seed = args.get_seed(2015);
  const double budget = args.get_double("seconds", 10.0);
  const bool traced = args.get_int("trace", 0) != 0;
  const std::string out_path = args.get("out");
  check_input(!out_path.empty(), "--out is required");

  // ---- set-up: inputs and a warm-up synthesis ----
  const std::vector<DesignSpec> specs = design_specs(workload);
  std::vector<assay::SequencingGraph> graphs;
  graphs.reserve(specs.size());
  for (const DesignSpec& spec : specs) graphs.push_back(assay::make_benchmark(spec.assay));
  {
    const assay::SequencingGraph warm = assay::make_benchmark("pcr");
    synth::SynthesisOptions options;
    options.grid_size = 10;
    synth::synthesize(warm, sched::schedule_asap(warm), options);
  }
  const double ready = mono_seconds();

  JsonWriter w;
  w.begin_object();
  w.key("workload").value(workload);
  w.key("seed").value(seed);
  w.key("ready_mono").value(ready);
  if (args.get_int("setup-only", 0) != 0) {
    w.end_object();
    write_file(out_path, w.take());
    return 0;
  }

  // ---- timed design sets, tracing off ----
  std::vector<std::uint64_t> set_seeds;
  for (int k = 0; k < seed_sets(workload, traced); ++k) {
    set_seeds.push_back(k == 0 ? seed : derive_seed(seed, static_cast<std::uint64_t>(k)));
  }
  std::vector<std::vector<Design>> passes;
  std::vector<std::uint64_t> pass_seeds;
  std::vector<double> pass_walls;
  const auto run_pass = [&](std::uint64_t pass_seed) {
    obs::Span span("bench", "pass");
    const double started = mono_seconds();
    std::vector<Design> pass;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      pass.push_back(run_design(workload, specs[i], graphs[i], pass_seed));
    }
    pass_walls.push_back(mono_seconds() - started);
    passes.push_back(std::move(pass));
    pass_seeds.push_back(pass_seed);
  };
  double set_wall = 0.0;
  do {
    const double started = mono_seconds();
    for (std::uint64_t set_seed : set_seeds) run_pass(set_seed);
    set_wall = mono_seconds() - started;
  } while (mono_seconds() - ready + set_wall <= budget);
  const std::size_t untraced_passes = passes.size();

  // ---- traced pass + extra calls ----
  std::vector<std::string> errors;
  JsonWriter extras;
  extras.begin_array();
  if (traced) {
    obs::Tracer::instance().enable();
    run_pass(seed);
    for (const Design& design : passes.back()) {
      if (!design.error.empty()) continue;
      const std::string error = run_extras(workload, design, seed, extras);
      if (!error.empty()) errors.push_back(design.spec->assay + ": " + error);
    }
  }
  extras.end_array();

  // ---- checks, outside every timed window ----
  std::int64_t attempted = 0;
  std::int64_t failed = static_cast<std::int64_t>(errors.size());
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const std::vector<Design>& pass = passes[p];
    const std::size_t first = static_cast<std::size_t>(
        std::find(pass_seeds.begin(), pass_seeds.end(), pass_seeds[p]) - pass_seeds.begin());
    for (std::size_t i = 0; i < pass.size(); ++i) {
      ++attempted;
      std::string error = check_design(pass[i], is_ilp(workload));
      if (error.empty() && !same_design(pass[i], passes[first][i])) {
        error = "design differs from an earlier pass at the same seed";
      }
      if (!error.empty()) {
        ++failed;
        errors.push_back(specs[i].assay + " " + specs[i].label + ": " + error);
      }
    }
  }
  if (traced) {
    obs::Tracer::instance().disable();
    obs::write_chrome_trace_file(args.get("trace-out"));
  }

  w.key("untraced_passes").value(static_cast<std::int64_t>(untraced_passes));
  w.key("set_size").value(static_cast<std::int64_t>(set_seeds.size()));
  w.key("pass_seeds").begin_array();
  for (std::uint64_t pass_seed : pass_seeds) w.value(pass_seed);
  w.end_array();
  w.key("pass_wall_s").begin_array();
  for (double wall : pass_walls) w.value(wall);
  w.end_array();
  w.key("passes").begin_array();
  for (const std::vector<Design>& pass : passes) {
    w.begin_array();
    for (const Design& d : pass) write_design(w, d);
    w.end_array();
  }
  w.end_array();
  w.key("extras").raw(extras.str());
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("errors").begin_array();
  for (const std::string& e : errors) w.value(e);
  w.end_array();
  w.end_object();
  write_file(out_path, w.take());
  for (const std::string& e : errors) std::cerr << "check failed: " << e << '\n';
  return 0;
}

}  // namespace perfbench
