// Bottleneck analysis: critical path, SM utilization, breakdown and trace
// export for one training iteration.
//
// Demonstrates the "deeper analysis and downstream optimization studies"
// the paper positions Lumos for: after replaying a trace, walk the critical
// path to see where the iteration time actually comes from, inspect
// per-millisecond SM utilization, and export the replayed trace as
// Chrome-trace JSON for chrome://tracing / Perfetto — all through one
// api::Session.
#include <cstdio>
#include <fstream>
#include <string_view>

#include "api/api.h"

int main() {
  using namespace lumos;

  api::Scenario scenario = api::Scenario::synthetic()
                               .with_model("44b")
                               .with_parallelism("4x4x2")
                               .with_seed(1);
  const workload::ModelSpec model = *scenario.resolved_model();
  const workload::ParallelConfig config = *scenario.resolved_parallelism();
  std::printf("profiling %s on %s (%d GPUs)...\n", model.name.c_str(),
              config.label().c_str(), config.world_size());

  Result<api::Session> session = api::Session::create(scenario);
  if (!session.is_ok()) {
    std::fprintf(stderr, "error: %s\n", session.status().to_string().c_str());
    return 1;
  }

  // -- critical path ------------------------------------------------------
  Result<analysis::CriticalPathSummary> cp = session->critical_path();
  if (!cp.is_ok()) {
    std::fprintf(stderr, "error: %s\n", cp.status().to_string().c_str());
    return 1;
  }
  std::printf("\n%s\n", analysis::to_string(*cp).c_str());
  std::printf("\nlast 8 critical-path tasks before iteration end:\n");
  const core::ExecutionGraph& graph = **session->graph();
  const std::size_t n = cp->path.size();
  for (std::size_t i = n > 8 ? n - 8 : 0; i < n; ++i) {
    const auto& entry = cp->path[i];
    // Processor and name straight from the graph's columns.
    const core::Processor p = graph.processor(entry.task);
    const std::string_view name =
        graph.events().name(static_cast<std::size_t>(entry.task));
    std::printf("  [%7.2f, %7.2f) ms  rank %d  %-10s %.*s\n",
                static_cast<double>(entry.start_ns) / 1e6,
                static_cast<double>(entry.end_ns) / 1e6, p.rank,
                p.gpu ? "kernel" : "cpu", static_cast<int>(name.size()),
                name.data());
  }

  // -- breakdown & utilization --------------------------------------------
  std::printf("\nbreakdown: %s\n",
              session->breakdown()->to_string().c_str());

  Result<std::vector<double>> util = session->sm_utilization(0);
  if (!util.is_ok()) {
    std::fprintf(stderr, "error: %s\n", util.status().to_string().c_str());
    return 1;
  }
  double mean_util = 0;
  for (double u : *util) mean_util += u;
  if (!util->empty()) mean_util /= static_cast<double>(util->size());
  std::printf("rank 0 mean SM utilization: %.1f%% over %zu ms\n",
              100 * mean_util, util->size());

  // -- export for chrome://tracing ----------------------------------------
  const std::string path = "/tmp/lumos_replay_rank0.json";
  Result<std::string> json = session->chrome_trace_json(0, /*indent=*/1);
  if (!json.is_ok()) {
    std::fprintf(stderr, "error: %s\n", json.status().to_string().c_str());
    return 1;
  }
  std::ofstream out(path);
  out << *json;
  const trace::ClusterTrace& replayed = **session->replayed_trace();
  std::printf("\nreplayed rank-0 trace written to %s (%zu events) — open in "
              "chrome://tracing or Perfetto\n",
              path.c_str(), replayed.ranks[0].events.size());
  return 0;
}
