#include "api/session.h"

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "baseline/dpro.h"
#include "core/fusion.h"
#include "core/graph_manipulator.h"
#include "core/trace_parser.h"
#include "json/json.h"
#include "support/allocator.h"
#include "support/mutex.h"
#include "support/thread_annotations.h"
#include "trace/chrome_trace.h"
#include "trace/ingest.h"

namespace lumos::api {

namespace {

/// A process-wide name → factory registry. Writers (add) take the mutex
/// exclusive; readers (lookups from predictions, possibly many Sweep workers
/// at once) take it shared and copy the factory out, so a factory call
/// never runs under the lock.
template <typename Factory>
class Registry {
 public:
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  Status add(const std::string& name, Factory factory) {
    if (name.empty()) {
      return invalid_argument_error(kind_ +
                                    " registry name must be non-empty");
    }
    if (!factory) {
      return invalid_argument_error(kind_ + " factory must be callable");
    }
    WriterLock lock(mutex_);
    factories_[name] = std::move(factory);
    return Status::ok();
  }

  Result<Factory> find(const std::string& name) {
    ReaderLock lock(mutex_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return invalid_argument_error("no " + kind_ + " registered as '" +
                                    name + "'");
    }
    return it->second;
  }

  std::vector<std::string> names() {
    ReaderLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;
  }

 private:
  const std::string kind_;
  SharedMutex mutex_;
  std::map<std::string, Factory> factories_ LUMOS_GUARDED_BY(mutex_);
};

/// The one registry per factory type, named `kind` in its messages.
template <typename Factory>
Registry<Factory>& registry_of(const char* kind) {
  static auto* registry =
      new Registry<Factory>(kind);  // lumos-lint: allow(H004) leaked singleton
  return *registry;
}

Registry<Session::HooksFactory>& hooks_registry() {
  return registry_of<Session::HooksFactory>("simulator hooks");
}

Registry<Session::CostModelFactory>& cost_model_registry() {
  return registry_of<Session::CostModelFactory>("cost model");
}

/// The hooks `scenario` asks for: its shared instance as-is, a fresh product
/// of the registry factory it names (kept alive by `owned`, so concurrent
/// predictions never share one), or nullptr when it asks for none.
Result<core::SimulatorHooks*> instantiate_hooks(
    const Scenario& scenario, std::unique_ptr<core::SimulatorHooks>& owned) {
  if (scenario.hooks() != nullptr) return scenario.hooks().get();
  if (scenario.hooks_name().empty()) {
    return static_cast<core::SimulatorHooks*>(nullptr);
  }
  Result<Session::HooksFactory> factory =
      hooks_registry().find(scenario.hooks_name());
  if (!factory.is_ok()) return factory.status();
  owned = (*factory)();
  if (owned == nullptr) {
    return internal_error("hooks factory '" + scenario.hooks_name() +
                          "' returned nullptr");
  }
  return owned.get();
}

/// The one simulator dispatch behind Session::replay, replay_dpro,
/// predict_on and replay_faulted. A compiled program runs when no hooks are
/// in play and the fault plan, if any, only rescales durations; dropout and
/// contention (stuck-task scan, rendezvous concurrency signal) and hooks
/// take the interpreter. The program for
/// `base.graph` is the baseline's cached one (null after a compile
/// fallback, and then never recompiled per call); any other graph is
/// derived from it and compiles its own program here, running the
/// interpreter when that compile falls back. Both paths are bit-identical
/// (test_replay_program). `compiled`, when given, reports which one ran;
/// `ran`, when given, receives the program that ran (null for the
/// interpreter).
core::SimResult simulate(
    const BaselineArtifacts& base, const core::ExecutionGraph& graph,
    core::SimulatorHooks* hooks, const faults::FaultPlan* plan,
    bool* compiled = nullptr,
    std::shared_ptr<const core::ReplayProgram>* ran = nullptr) {
  const bool eligible =
      hooks == nullptr && (plan == nullptr || plan->compiled_eligible());
  std::shared_ptr<const core::ReplayProgram> program;
  if (eligible) {
    program = &graph == base.graph.get()
                  ? base.program
                  : core::ReplayCompiler::compile(graph).program;
  }
  const bool use_program = program != nullptr;
  if (compiled != nullptr) *compiled = use_program;
  if (use_program) {
    if (ran != nullptr) *ran = program;
    return plan == nullptr ? program->run() : program->run(plan->durations());
  }
  core::SimOptions options;
  options.hooks = hooks;
  std::optional<faults::ColumnHooks> fault_hooks;
  if (plan != nullptr) {
    options.hooks = &fault_hooks.emplace(plan->make_hooks());
    options.dropped_tasks = plan->dropped();
  }
  return core::Simulator(graph, options).run();
}

/// kDeadlock for an incomplete schedule of `graph`: "<what> stuck with N
/// unfinished tasks", naming the lowest stuck task (id, rank, op name) and,
/// when it is a rendezvous member, its group and how many of the group's
/// members are stuck.
Status deadlock_status(const std::string& what,
                       const core::ExecutionGraph& graph,
                       const core::SimResult& sim) {
  const std::vector<core::TaskId>& stuck = sim.stuck_tasks;
  const core::TaskMetaTable& meta = graph.meta();
  const core::TaskId first = stuck.front();
  const core::LaneTable& lanes = meta.lanes();
  std::string message =
      what + " stuck with " + std::to_string(stuck.size()) +
      " unfinished tasks; lowest is task " + std::to_string(first) +
      " (rank " +
      std::to_string(lanes.rank_value(lanes.rank_index(meta.lane(first)))) +
      ", " + std::string(meta.name_view(first)) + ")";
  if (meta.is_coupled_collective(first)) {
    const core::CollectiveGroupMeta& group =
        meta.collective_groups()[static_cast<std::size_t>(
            meta.group_index(first))];
    const auto stuck_members = std::count_if(
        group.members.begin(), group.members.end(), [&](core::TaskId m) {
          return std::binary_search(stuck.begin(), stuck.end(), m);
        });
    message += " in rendezvous group " +
               std::string(meta.group_view(group.group)) + "#" +
               std::to_string(group.instance) + " with " +
               std::to_string(stuck_members) + " of " +
               std::to_string(group.members.size()) + " members stuck";
  }
  return deadlock_error(message);
}

/// True when `whatif` changes parallelism or architecture, i.e. predict_on
/// rebuilds the graph through the template provider.
bool rebuilds_graph(const Scenario& whatif) {
  return whatif.new_dp() || whatif.new_pp() || whatif.new_architecture() ||
         whatif.new_layers() || whatif.new_hidden();
}

const trace::RankTrace* find_rank(const trace::ClusterTrace& trace,
                                  std::int32_t rank) {
  for (const trace::RankTrace& r : trace.ranks) {
    if (r.rank == rank) return &r;
  }
  return nullptr;
}

/// Structured mapping of discovery failures (the offending path is already
/// in what()): a missing directory or an empty match set is an I/O problem;
/// a rank-count mismatch means the caller's num_ranks contract is wrong.
Status status_from_ingest_error(const trace::IngestError& e) {
  if (e.kind() == trace::IngestErrorKind::kRankCountMismatch) {
    return invalid_argument_error(e.what());
  }
  return io_error(e.what());
}

}  // namespace

Result<Session> Session::create(Scenario scenario) {
  keep_freed_memory_resident();
  Session session(std::move(scenario));
  const Scenario& s = session.base_.scenario;
  if (s.source() == Scenario::Source::kSynthetic) {
    // Synthetic sources need a complete, consistent (model, config) pair up
    // front; surface bad names/labels/combinations before any work runs.
    if (Status status = s.validate(); !status.is_ok()) return status;
    session.base_.model = *s.resolved_model();
    session.base_.config = *s.resolved_parallelism();
  } else {
    if (s.trace_prefix().empty()) {
      return invalid_argument_error("trace scenario has an empty prefix");
    }
    // Fail fast on broken trace sources: discovery (one directory scan, no
    // file is opened or parsed) runs here so a missing directory, an empty
    // match set or a num_ranks mismatch surfaces from create() as a
    // structured Status with the offending path — not later, from the
    // first prediction. The trace bytes themselves still load lazily.
    try {
      trace::discover_rank_files(s.trace_prefix(), s.num_ranks());
    } catch (const trace::IngestError& e) {
      return status_from_ingest_error(e);
    }
    // Model/config are optional for trace sessions (only needed for graph
    // manipulation), but if specified they must resolve.
    Result<workload::ModelSpec> model = s.resolved_model();
    if (model.is_ok()) {
      session.base_.model = *model;
    } else if (model.status().code() != ErrorCode::kFailedPrecondition) {
      return model.status();
    }
    Result<workload::ParallelConfig> config = s.resolved_parallelism();
    if (config.is_ok()) {
      session.base_.config = *config;
    } else if (config.status().code() != ErrorCode::kFailedPrecondition) {
      return config.status();
    }
  }
  return session;
}

Status Session::ensure_trace() {
  if (base_.trace) return Status::ok();
  ++stats_.trace_loads;
  const Scenario& s = base_.scenario;
  if (s.source() == Scenario::Source::kSynthetic) {
    try {
      cluster::GroundTruthEngine engine(*base_.model, *base_.config,
                                        s.hardware());
      cluster::GroundTruthRun run = engine.run_profiled(s.seed());
      profiled_iteration_ns_ = run.iteration_ns;
      base_.trace = std::make_shared<const trace::ClusterTrace>(
          std::move(run.trace));
    } catch (const std::exception& e) {
      return internal_error(std::string("ground-truth engine: ") + e.what());
    }
  } else {
    try {
      base_.trace = std::make_shared<const trace::ClusterTrace>(
          trace::read_cluster_trace(s.trace_prefix(), s.num_ranks(),
                                    s.io_options()));
    } catch (const json::ParseError& e) {
      return parse_error(std::string("trace JSON: ") + e.what());
    } catch (const json::TypeError& e) {
      return parse_error(std::string("trace JSON: ") + e.what());
    } catch (const std::out_of_range& e) {
      return parse_error(std::string("trace JSON: ") + e.what());
    } catch (const trace::IngestError& e) {
      // Discovery re-runs at load time (files can vanish between create()
      // and the first prediction); same structured mapping as create().
      return status_from_ingest_error(e);
    } catch (const std::exception& e) {
      return io_error(e.what());
    }
  }
  return Status::ok();
}

Result<const trace::ClusterTrace*> Session::trace() {
  if (Status status = ensure_trace(); !status.is_ok()) return status;
  return base_.trace.get();
}

Status Session::ensure_graph() {
  if (base_.graph) return Status::ok();
  if (Status status = ensure_trace(); !status.is_ok()) return status;
  ++stats_.graph_builds;
  core::ExecutionGraph parsed;
  try {
    parsed = core::TraceParser(base_.scenario.parser_options())
                 .parse(*base_.trace);
  } catch (const std::exception& e) {
    return parse_error(std::string("trace parse: ") + e.what());
  }
  core::TaskId cycle_hint = core::kInvalidTask;
  if (!parsed.is_acyclic(&cycle_hint)) {
    return cyclic_graph_error("parsed graph has a dependency cycle through "
                              "task " +
                              std::to_string(cycle_hint));
  }
  base_.graph = std::make_shared<const core::ExecutionGraph>(std::move(parsed));
  return Status::ok();
}

Result<const core::ExecutionGraph*> Session::graph() {
  if (Status status = ensure_graph(); !status.is_ok()) return status;
  return base_.graph.get();
}

Status Session::ensure_baseline() {
  if (Status status = ensure_graph(); !status.is_ok()) return status;
  if (!compile_attempted_) {
    compile_attempted_ = true;
    attach_replay_program(base_);
  }
  return Status::ok();
}

Result<BaselineArtifacts> Session::share_baseline() {
  if (Status status = ensure_baseline(); !status.is_ok()) return status;
  return base_;
}

void attach_replay_program(BaselineArtifacts& base) {
  if (base.program != nullptr || base.graph == nullptr) return;
  core::ReplayCompiler::Result compiled =
      core::ReplayCompiler::compile(*base.graph);
  // A fallback status is not an error: program stays null and every
  // replay/prediction keeps using the interpreter.
  if (compiled) base.program = std::move(compiled.program);
}

Status Session::ensure_replay() {
  if (replay_) return Status::ok();
  if (Status status = ensure_baseline(); !status.is_ok()) return status;
  std::unique_ptr<core::SimulatorHooks> owned_hooks;
  Result<core::SimulatorHooks*> hooks =
      instantiate_hooks(base_.scenario, owned_hooks);
  if (!hooks.is_ok()) return hooks.status();
  ++stats_.simulations;
  core::SimResult result =
      simulate(base_, *base_.graph, *hooks, nullptr);
  if (!result.complete()) {
    return deadlock_status("replay", *base_.graph, result);
  }
  replay_ = std::move(result);
  return Status::ok();
}

Result<const core::SimResult*> Session::replay() {
  if (Status status = ensure_replay(); !status.is_ok()) return status;
  return &*replay_;
}

Status Session::ensure_dpro() {
  if (dpro_) return Status::ok();
  if (Status status = ensure_graph(); !status.is_ok()) return status;
  ++stats_.simulations;
  const core::ExecutionGraph dpro = baseline::dpro_graph(*base_.graph);
  core::SimResult result = simulate(base_, dpro, nullptr, nullptr);
  if (!result.complete()) {
    return deadlock_status("dPRO replay", dpro, result);
  }
  dpro_ = std::move(result);
  return Status::ok();
}

Result<const core::SimResult*> Session::replay_dpro() {
  if (Status status = ensure_dpro(); !status.is_ok()) return status;
  return &*dpro_;
}

Result<const trace::ClusterTrace*> Session::replayed_trace() {
  if (replayed_trace_) return &*replayed_trace_;
  if (Status status = ensure_replay(); !status.is_ok()) return status;
  replayed_trace_ = replay_->to_trace(*base_.graph);
  return &*replayed_trace_;
}

Result<const trace::ClusterTrace*> Session::dpro_trace() {
  if (dpro_trace_) return &*dpro_trace_;
  if (Status status = ensure_dpro(); !status.is_ok()) return status;
  dpro_trace_ = dpro_->to_trace(*base_.graph);
  return &*dpro_trace_;
}

Result<std::int64_t> Session::profiled_iteration_ns() {
  if (Status status = ensure_trace(); !status.is_ok()) return status;
  if (base_.scenario.source() == Scenario::Source::kSynthetic) {
    return profiled_iteration_ns_;
  }
  return base_.trace->iteration_ns();
}

Status Session::ensure_actual() {
  if (actual_run_) return Status::ok();
  const Scenario& s = base_.scenario;
  if (s.source() != Scenario::Source::kSynthetic) {
    return failed_precondition_error(
        "actual (measured) runs are only available for synthetic scenarios; "
        "this session replays on-disk traces");
  }
  ++stats_.actual_runs;
  try {
    cluster::GroundTruthEngine engine(*base_.model, *base_.config,
                                      s.hardware());
    actual_run_ = engine.run_actual(s.actual_seed());
  } catch (const std::exception& e) {
    return internal_error(std::string("ground-truth engine: ") + e.what());
  }
  return Status::ok();
}

Result<std::int64_t> Session::actual_iteration_ns() {
  if (Status status = ensure_actual(); !status.is_ok()) return status;
  return actual_run_->iteration_ns;
}

Result<const trace::ClusterTrace*> Session::actual_trace() {
  if (Status status = ensure_actual(); !status.is_ok()) return status;
  return &actual_run_->trace;
}

Result<Prediction> Session::predict() {
  return predict_internal(base_.scenario);
}

Result<Prediction> Session::predict(const Scenario& whatif) {
  if (Status status = whatif.validate_whatif(); !status.is_ok()) {
    return status;
  }
  return predict_internal(whatif);
}

Result<Prediction> Session::predict_internal(const Scenario& whatif) {
  if (Status status = ensure_baseline(); !status.is_ok()) return status;
  Result<Prediction> out = predict_on(base_, whatif);
  // Count only what-ifs whose simulation actually ran: every validation /
  // manipulation failure returns before the simulator, while a deadlock is
  // a completed (stuck) simulator invocation.
  if (out.is_ok() || out.status().code() == ErrorCode::kDeadlock) {
    ++stats_.simulations;
  }
  return out;
}

namespace {

/// What a DP family's leader leaves for its siblings: the rebuilt graph,
/// the program it compiled (null when it fell back) and one duration
/// column per sibling.
struct FamilyBuild {
  core::ExecutionGraph graph;
  std::shared_ptr<const core::ReplayProgram> program;
  std::vector<std::vector<std::int64_t>> sibling_durations;
};

/// The tail every prediction shares: an incomplete schedule is kDeadlock,
/// a complete one gets its breakdown over the graph it ran on.
Result<Prediction> finish(Prediction out, const core::ExecutionGraph& graph) {
  if (!out.sim.complete()) {
    return deadlock_status("prediction", graph, out.sim);
  }
  // Aggregate report data is derived from the schedule + meta columns;
  // the full predicted trace is never materialized here (Sweep rows would
  // otherwise each hold a copy of every event).
  out.breakdown = analysis::compute_breakdown(graph, out.sim);
  return out;
}

/// predict_on's pipeline, leaving the graph it ran and the program it
/// compiled in `build`. A rebuild also prices `sibling_dps` into `build`;
/// predict_dp_family passes siblings for pp/dp-only what-ifs only, so the
/// rebuilt graph is the one that runs.
Result<Prediction> predict_member(const BaselineArtifacts& base,
                                  const Scenario& whatif,
                                  std::vector<std::int32_t> sibling_dps,
                                  FamilyBuild& build) {
  if (base.graph == nullptr) {
    return failed_precondition_error(
        "baseline artifacts carry no execution graph; obtain them from "
        "Session::share_baseline()");
  }
  if (whatif.new_tp()) {
    return unsupported_error(
        "tensor-parallelism manipulation is not supported (paper §3.4); "
        "re-profile with the desired TP degree instead");
  }
  // Faults and user hooks both own the duration decision; composing them
  // (whose multiplier applies first? does the hook see the perturbed or
  // the profiled duration?) has no single right answer, so the combination
  // is rejected rather than silently ordered.
  if (whatif.faults() != nullptr &&
      (whatif.hooks() != nullptr || !whatif.hooks_name().empty())) {
    return invalid_argument_error(
        "with_faults cannot be combined with custom simulator hooks; "
        "pick one duration-override mechanism per what-if");
  }
  std::unique_ptr<core::SimulatorHooks> owned_hooks;
  Result<core::SimulatorHooks*> hooks = instantiate_hooks(whatif, owned_hooks);
  if (!hooks.is_ok()) return hooks.status();

  const bool rebuilds = rebuilds_graph(whatif);

  // Resolve the cost model up front: an unknown registry name is an error,
  // and so is naming one on a what-if that never re-costs kernels — silently
  // computing baseline numbers would let the caller believe it was applied.
  cost::KernelPerfModel kernel_model(base.scenario.hardware());
  if (!whatif.cost_model_name().empty()) {
    Result<Session::CostModelFactory> factory =
        cost_model_registry().find(whatif.cost_model_name());
    if (!factory.is_ok()) return factory.status();
    if (!rebuilds) {
      return invalid_argument_error(
          "cost model '" + whatif.cost_model_name() +
          "' has no effect: kernels are only re-costed when the what-if "
          "rebuilds the graph (parallelism or architecture change)");
    }
    kernel_model = (*factory)(base.scenario.hardware());
  }

  // Pick the graph to simulate without copying the baseline unless a
  // manipulation actually produces a new one.
  Prediction out;
  core::ExecutionGraph& owned = build.graph;
  const core::ExecutionGraph* to_run = base.graph.get();
  if (rebuilds) {
    if (!base.model || !base.config) {
      return failed_precondition_error(
          "graph manipulation needs the baseline model and parallelism; "
          "specify them with with_model / with_parallelism");
    }
    workload::ModelSpec target_model = *base.model;
    if (whatif.new_architecture()) target_model = *whatif.new_architecture();
    if (whatif.new_layers()) target_model.num_layers = *whatif.new_layers();
    if (whatif.new_hidden()) {
      target_model = core::GraphManipulator::resized_model(
          target_model, whatif.new_hidden()->first,
          whatif.new_hidden()->second);
    }
    workload::ParallelConfig target_config = *base.config;
    if (whatif.new_pp()) target_config.pp = *whatif.new_pp();
    if (whatif.new_dp()) target_config.dp = *whatif.new_dp();

    try {
      core::GraphManipulator manipulator(*base.graph, *base.model,
                                         *base.config, kernel_model);
      workload::BuiltJob job = manipulator.with_spec(
          target_model, target_config, std::move(sibling_dps));
      owned = std::move(job.graph);
      build.sibling_durations = std::move(job.sibling_durations);
      to_run = &owned;
      out.model = std::move(job.model);
      out.config = job.config;
    } catch (const std::invalid_argument& e) {
      return validation_error(e.what());
    } catch (const std::exception& e) {
      return internal_error(std::string("graph manipulation: ") + e.what());
    }
  } else {
    if (base.model) out.model = *base.model;
    if (base.config) out.config = *base.config;
  }

  if (whatif.fusion()) {
    core::FusionResult fused =
        core::fuse_elementwise(*to_run, *whatif.fusion());
    owned = std::move(fused.graph);
    to_run = &owned;
    out.kernels_eliminated = fused.kernels_eliminated;
    out.fusion_saved_ns = fused.saved_ns;
  }
  for (core::DepType type : whatif.dropped_dependencies()) {
    owned = to_run->without_edges(type);
    to_run = &owned;
  }

  // Lower the fault spec against whatever graph is about to run.
  faults::FaultPlan plan;
  if (whatif.faults() != nullptr) {
    plan = faults::FaultPlan::lower(*to_run, *whatif.faults());
    if (!plan.ok()) {
      return invalid_argument_error("fault spec: " + plan.error());
    }
  }
  // Every structural manipulation above swapped `to_run` for a derived
  // graph, which simulate() compiles; when none did, the baseline's cached
  // program describes this run.
  out.sim = simulate(base, *to_run, *hooks,
                     whatif.faults() != nullptr ? &plan : nullptr,
                     &out.used_compiled_replay, &build.program);
  return finish(std::move(out), *to_run);
}

}  // namespace

Result<Prediction> predict_on(const BaselineArtifacts& base,
                              const Scenario& whatif) {
  FamilyBuild build;
  return predict_member(base, whatif, {}, build);
}

std::optional<std::int32_t> dp_family_pp(const BaselineArtifacts& base,
                                         const Scenario& whatif) {
  const bool pp_dp_only =
      (whatif.new_pp() || whatif.new_dp()) && !whatif.new_tp() &&
      !whatif.new_architecture() && !whatif.new_layers() &&
      !whatif.new_hidden() && !whatif.fusion() &&
      whatif.dropped_dependencies().empty() && whatif.hooks() == nullptr &&
      whatif.hooks_name().empty() && whatif.faults() == nullptr &&
      whatif.cost_model_name().empty() && whatif.validate_whatif().is_ok();
  if (!pp_dp_only || !base.config) return std::nullopt;
  return whatif.new_pp().value_or(base.config->pp);
}

std::vector<Result<Prediction>> predict_dp_family(
    const BaselineArtifacts& base, std::span<const Scenario* const> members) {
  std::vector<Result<Prediction>> out;
  if (members.empty()) return out;
  const std::optional<std::int32_t> pp = dp_family_pp(base, *members.front());
  const bool family =
      pp && members.size() > 1 &&
      std::all_of(members.begin() + 1, members.end(),
                  [&](const Scenario* member) {
                    return dp_family_pp(base, *member) == pp;
                  });
  if (!family) {
    for (const Scenario* member : members) {
      out.push_back(predict_on(base, *member));
    }
    return out;
  }

  std::vector<std::int32_t> sibling_dps;
  for (const Scenario* member : members.subspan(1)) {
    sibling_dps.push_back(member->new_dp().value_or(base.config->dp));
  }
  FamilyBuild build;
  out.push_back(predict_member(base, *members.front(), sibling_dps, build));
  if (!out.front().is_ok()) {
    // A sibling's degree may be what failed the shared build; every member
    // answers for itself.
    out.front() = predict_on(base, *members.front());
  }
  // The leader's program replays a sibling's column only when it compiled
  // and the column keeps the positivity the compile proved for its own.
  bool shared = out.front().is_ok() && build.program != nullptr;
  for (const std::vector<std::int64_t>& column : build.sibling_durations) {
    shared = shared && std::all_of(column.begin(), column.end(),
                                   [](std::int64_t ns) { return ns > 0; });
  }
  for (std::size_t k = 0; k < sibling_dps.size(); ++k) {
    if (!shared) {
      out.push_back(predict_on(base, *members[k + 1]));
      continue;
    }
    Prediction sibling;
    sibling.model = out.front()->model;
    sibling.config = out.front()->config;
    sibling.config.dp = sibling_dps[k];
    sibling.sim = build.program->run(build.sibling_durations[k]);
    sibling.used_compiled_replay = true;
    out.push_back(finish(std::move(sibling), build.graph));
  }
  return out;
}

Result<analysis::Breakdown> Session::breakdown() {
  if (Status status = ensure_replay(); !status.is_ok()) return status;
  return analysis::compute_breakdown(*base_.graph, *replay_);
}

Result<analysis::Breakdown> Session::breakdown_actual() {
  Result<const trace::ClusterTrace*> actual = actual_trace();
  if (!actual.is_ok()) return actual.status();
  return analysis::compute_breakdown(**actual);
}

Result<analysis::CriticalPathSummary> Session::critical_path() {
  if (Status status = ensure_replay(); !status.is_ok()) return status;
  return analysis::critical_path(*base_.graph, *replay_);
}

Result<std::vector<analysis::DiffEntry>> Session::diff(
    Session& other, const analysis::DiffOptions& options) {
  Result<const trace::ClusterTrace*> before = trace();
  if (!before.is_ok()) return before.status();
  Result<const trace::ClusterTrace*> after = other.trace();
  if (!after.is_ok()) return after.status();
  return analysis::diff_traces(**before, **after, options);
}

Result<std::string> Session::timeline(
    std::int32_t rank, const analysis::TimelineOptions& options) {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  const trace::RankTrace* rank_trace = find_rank(**traces, rank);
  if (rank_trace == nullptr) {
    return invalid_argument_error("rank " + std::to_string(rank) +
                                  " not present in the trace");
  }
  return analysis::render_timeline(*rank_trace, options);
}

Result<std::vector<trace::Violation>> Session::validate() {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  return trace::validate(**traces);
}

Result<trace::TraceStats> Session::stats(std::int32_t rank) {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  const trace::RankTrace* rank_trace = find_rank(**traces, rank);
  if (rank_trace == nullptr) {
    return invalid_argument_error("rank " + std::to_string(rank) +
                                  " not present in the trace");
  }
  return trace::compute_stats(*rank_trace);
}

Result<std::vector<double>> Session::sm_utilization(std::int32_t rank,
                                                    std::int64_t bucket_ns) {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  const trace::RankTrace* rank_trace = find_rank(**traces, rank);
  if (rank_trace == nullptr) {
    return invalid_argument_error("rank " + std::to_string(rank) +
                                  " not present in the trace");
  }
  return analysis::sm_utilization(*rank_trace, bucket_ns);
}

Result<std::vector<std::int32_t>> Session::ranks() {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  std::vector<std::int32_t> out;
  out.reserve((*traces)->ranks.size());
  for (const trace::RankTrace& r : (*traces)->ranks) out.push_back(r.rank);
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::size_t> Session::write_traces(const std::string& prefix) {
  Result<std::vector<std::string>> paths = write_trace_files(prefix);
  if (!paths.is_ok()) return paths.status();
  return paths->size();
}

Result<std::vector<std::string>> Session::write_trace_files(
    const std::string& prefix) {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  try {
    return trace::write_cluster_trace_files(**traces, prefix);
  } catch (const std::exception& e) {
    return io_error(e.what());
  }
}

Result<std::string> Session::chrome_trace_json(std::int32_t rank,
                                               int indent) {
  Result<const trace::ClusterTrace*> replayed = replayed_trace();
  if (!replayed.is_ok()) return replayed.status();
  const trace::RankTrace* rank_trace = find_rank(**replayed, rank);
  if (rank_trace == nullptr) {
    return invalid_argument_error("rank " + std::to_string(rank) +
                                  " not present in the replayed trace");
  }
  try {
    return trace::to_json_string(*rank_trace, indent);
  } catch (const std::exception& e) {
    return internal_error(std::string("trace serialization: ") + e.what());
  }
}

Status Session::register_hooks(const std::string& name,
                               HooksFactory factory) {
  return hooks_registry().add(name, std::move(factory));
}

Status Session::register_cost_model(const std::string& name,
                                    CostModelFactory factory) {
  return cost_model_registry().add(name, std::move(factory));
}

std::vector<std::string> Session::registered_hooks() {
  return hooks_registry().names();
}

Result<core::SimResult> replay_graph(const core::ExecutionGraph& graph,
                                     const core::SimOptions& options) {
  core::TaskId cycle_hint = core::kInvalidTask;
  if (!graph.is_acyclic(&cycle_hint)) {
    return cyclic_graph_error("graph has a dependency cycle through task " +
                              std::to_string(cycle_hint));
  }
  return core::Simulator(graph, options).run();
}

Result<core::SimResult> replay_faulted(const BaselineArtifacts& base,
                                       const faults::FaultSpec& spec) {
  if (base.graph == nullptr) {
    return failed_precondition_error(
        "baseline artifacts carry no execution graph; obtain them from "
        "Session::share_baseline()");
  }
  const faults::FaultPlan plan = faults::FaultPlan::lower(*base.graph, spec);
  if (!plan.ok()) {
    return invalid_argument_error("fault spec: " + plan.error());
  }
  // Deadlock-as-data: a dropout spec deadlocks by design, and the stuck-
  // task set *is* the result.
  return simulate(base, *base.graph, nullptr, &plan);
}

}  // namespace lumos::api
