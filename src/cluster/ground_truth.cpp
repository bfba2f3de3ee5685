#include "cluster/ground_truth.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/fnv.h"
#include "workload/analytical_provider.h"

namespace lumos::cluster {

namespace {

/// SplitMix64: cheap, well-mixed deterministic hash for per-task RNG.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_string(std::string_view s) { return io::fnv1a(s); }

/// Standard normal from two SplitMix64 draws (Box-Muller).
double normal_from_hash(std::uint64_t key) {
  const double u1 =
      (static_cast<double>(splitmix64(key) >> 11) + 0.5) / 9007199254740992.0;
  const double u2 =
      (static_cast<double>(splitmix64(key ^ 0xABCDEF1234567890ULL) >> 11) +
       0.5) /
      9007199254740992.0;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// Mean-preserving lognormal multiplier.
double lognormal_multiplier(std::uint64_t key, double sigma) {
  if (sigma <= 0.0) return 1.0;
  return std::exp(sigma * normal_from_hash(key) - 0.5 * sigma * sigma);
}

class GroundTruthHooks : public core::SimulatorHooks {
 public:
  explicit GroundTruthHooks(const GroundTruthOptions& options)
      : options_(options),
        comm_drift_(lognormal_multiplier(splitmix64(options.seed ^ 0xC0111ULL),
                                         options.run_comm_drift_sigma)) {}

  double compute_drift(std::int32_t rank) const {
    return lognormal_multiplier(
        splitmix64(options_.seed ^ 0xC0DEULL ^
                   (static_cast<std::uint64_t>(rank) * 0x9E3779B9ULL)),
        options_.run_compute_drift_sigma);
  }

  std::int64_t task_duration_ns(const core::Task& task) override {
    // Key by (rank, per-rank sequence) so jitter is stable across runs with
    // the same seed and independent of graph-wide task numbering.
    const std::uint64_t key =
        splitmix64(options_.seed ^
                   (static_cast<std::uint64_t>(task.processor.rank) << 40) ^
                   static_cast<std::uint64_t>(task.event.ts_ns));
    double dur = static_cast<double>(task.event.dur_ns);
    if (task.is_gpu()) {
      dur *= lognormal_multiplier(key, options_.kernel_jitter_sigma);
      dur *= compute_drift(task.processor.rank);
    } else {
      dur *= lognormal_multiplier(key, options_.cpu_jitter_sigma);
      if (options_.profiling) {
        dur *= 1.0 + options_.profiling_cpu_inflation;
      }
    }
    return static_cast<std::int64_t>(dur);
  }

  std::int64_t collective_duration_ns(const core::Task& task,
                                      int concurrent) override {
    // Jitter keyed by (group, instance) so all members agree on the
    // transfer time, as they would on a shared fabric. Group names repeat
    // for every collective pick, so the FNV hash is memoized per distinct
    // name instead of re-walking the string each call.
    const std::uint64_t key = splitmix64(
        options_.seed ^ group_hash(task.event.collective.group) ^
        static_cast<std::uint64_t>(task.event.collective.instance * 0x9E37ULL));
    double dur = static_cast<double>(task.event.dur_ns);
    dur *= lognormal_multiplier(key, options_.collective_jitter_sigma);
    dur *= 1.0 + options_.contention_alpha * concurrent;
    dur *= comm_drift_;
    return static_cast<std::int64_t>(dur);
  }

 private:
  std::uint64_t group_hash(const std::string& group) {
    auto [it, inserted] = group_hash_cache_.try_emplace(group, 0);
    if (inserted) it->second = hash_string(group);
    return it->second;
  }

  GroundTruthOptions options_;
  double comm_drift_;
  /// Hooks are per-run (never shared across threads), so a plain map is
  /// safe; the handful of communicator names makes it tiny.
  std::map<std::string, std::uint64_t, std::less<>> group_hash_cache_;
};

}  // namespace

void stretch_blocking_calls(trace::ClusterTrace& trace) {
  for (trace::RankTrace& rank : trace.ranks) {
    // Previous event end per CPU thread, walking in time order over the
    // columns (the CudaApi column was classified at ingest — no name
    // parsing here; ts/dur are patched through the explicit mutators).
    rank.sort_by_time();
    trace::EventTable& t = rank.events;
    std::map<std::int32_t, std::int64_t> prev_end;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t.is_gpu(i)) continue;
      auto it = prev_end.find(t.tid(i));
      if (trace::blocks_cpu(t.cuda_api(i)) && it != prev_end.end() &&
          it->second < t.ts_ns(i)) {
        t.set_dur_ns(i, t.dur_ns(i) + t.ts_ns(i) - it->second);
        t.set_ts_ns(i, it->second);
      }
      prev_end[t.tid(i)] = std::max(
          it == prev_end.end() ? 0 : it->second, t.end_ns(i));
    }
    rank.sort_by_time();
  }
}

GroundTruthEngine::GroundTruthEngine(workload::ModelSpec model,
                                     workload::ParallelConfig config,
                                     cost::HardwareSpec hw,
                                     GroundTruthOptions options)
    : model_(std::move(model)),
      config_(config),
      hw_(hw),
      options_(options) {}

GroundTruthRun GroundTruthEngine::run() const {
  cost::KernelPerfModel kernel_model(hw_);
  workload::AnalyticalProvider provider(kernel_model);
  workload::IterationGraphBuilder builder(model_, config_, provider,
                                          options_.build);
  GroundTruthRun out;
  out.job = builder.build();

  GroundTruthHooks hooks(options_);
  core::SimOptions sim_options;
  sim_options.hooks = &hooks;
  core::Simulator sim(out.job.graph, sim_options);
  out.result = sim.run();
  if (!out.result.complete()) {
    throw std::runtime_error(
        "GroundTruthEngine: simulation deadlocked with " +
        std::to_string(out.result.stuck_tasks.size()) + " stuck tasks");
  }
  out.trace = out.result.to_trace(out.job.graph);
  stretch_blocking_calls(out.trace);
  // Iteration markers, as a profiler step annotation per rank.
  for (trace::RankTrace& rank : out.trace.ranks) {
    trace::TraceEvent marker;
    marker.name = "ProfilerStep#0";
    marker.cat = trace::EventCategory::UserAnnotation;
    marker.pid = rank.rank;
    marker.tid = workload::lanes::kMainThread;
    marker.ts_ns = rank.begin_ns();
    marker.dur_ns = rank.span_ns();
    rank.events.push_back(std::move(marker));
    rank.sort_by_time();
  }
  out.iteration_ns = out.result.makespan_ns;
  return out;
}

GroundTruthRun GroundTruthEngine::run_profiled(std::uint64_t seed) const {
  GroundTruthEngine copy = *this;
  copy.options_.seed = seed;
  copy.options_.profiling = true;
  return copy.run();
}

GroundTruthRun GroundTruthEngine::run_actual(std::uint64_t seed) const {
  GroundTruthEngine copy = *this;
  copy.options_.seed = seed;
  copy.options_.profiling = false;
  return copy.run();
}

}  // namespace lumos::cluster
