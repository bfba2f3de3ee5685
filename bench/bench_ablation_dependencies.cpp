// Ablation (design-choice study from DESIGN.md): which dependency classes
// matter for replay accuracy?
//
// The paper attributes dPRO's failure specifically to missing inter-stream
// dependencies (§4.2.2). This bench quantifies the contribution of each
// dependency class by replaying the same parsed graph with one class
// removed at a time, plus parser-level ablations of the two *inferred*
// classes (inter-thread gaps, event-record/wait pairing). Graph-level drops
// go through api::replay_graph, which replays with the same coupled
// collectives as Session::replay but returns partial schedules, so
// deadlocked ablations still report their makespan.
#include <vector>

#include "bench_common.h"

int main() {
  using namespace lumos;
  using namespace lumos::bench;

  struct Case {
    workload::ModelSpec model;
    std::int32_t tp, pp, dp;
  };
  const std::vector<Case> cases = {
      {workload::ModelSpec::gpt3_15b(), 2, 2, 4},
      {workload::ModelSpec::gpt3_44b(), 4, 4, 2},
  };

  std::printf("=== Ablation: replay error when a dependency class is "
              "removed ===\n");
  for (const Case& c : cases) {
    const workload::ParallelConfig config = make_config(c.tp, c.pp, c.dp);
    ReplayExperiment e = run_replay_experiment(c.model, config);
    const double actual_ms = e.actual_ms();
    const double full_ms = e.lumos_ms();

    std::printf("\n-- %s %dx%dx%d (actual %.0f ms, full replay err %.1f%%) "
                "--\n",
                c.model.name.c_str(), c.tp, c.pp, c.dp, actual_ms,
                analysis::percent_error(full_ms, actual_ms));
    std::printf("  %-28s %10s %10s\n", "removed class", "replay(ms)",
                "err vs actual");

    const std::vector<std::pair<const char*, core::DepType>> drops = {
        {"inter-stream (dPRO's gap)", core::DepType::InterStream},
        {"inter-thread", core::DepType::InterThread},
        {"cpu-to-gpu (launch)", core::DepType::CpuToGpu},
        {"intra-stream (FIFO)", core::DepType::IntraStream},
    };
    for (const auto& [label, type] : drops) {
      core::ExecutionGraph ablated =
          (*e.session.graph())->without_edges(type);
      Result<core::SimResult> r = api::replay_graph(ablated);
      if (!r.is_ok()) {
        std::printf("  %-28s %s\n", label, r.status().to_string().c_str());
        continue;
      }
      const double ms = static_cast<double>(r->makespan_ns) / 1e6;
      std::printf("  %-28s %8.0fms %9.1f%%%s\n", label, ms,
                  analysis::signed_percent_error(ms, actual_ms),
                  r->complete() ? "" : "  (DEADLOCK)");
    }

    // Parser-level ablations: disable the two *inference* mechanisms. A
    // fresh session with tweaked ParserOptions re-parses the same seeded
    // trace.
    const auto parser_ablation = [&](const char* label,
                                     core::ParserOptions opts) {
      Result<api::Session> session = api::Session::create(
          bench_scenario(c.model, config).with_parser_options(opts));
      if (!session.is_ok()) {
        std::printf("  %-28s %s\n", label,
                    session.status().to_string().c_str());
        return;
      }
      Result<const core::SimResult*> r = session->replay();
      if (!r.is_ok()) {
        std::printf("  %-28s %s\n", label, r.status().to_string().c_str());
        return;
      }
      const double ms = static_cast<double>((*r)->makespan_ns) / 1e6;
      std::printf("  %-28s %8.0fms %9.1f%%\n", label, ms,
                  analysis::signed_percent_error(ms, actual_ms));
    };
    {
      core::ParserOptions opts;
      opts.infer_interstream = false;
      parser_ablation("parser: no record/wait pairing", opts);
    }
    {
      core::ParserOptions opts;
      opts.infer_interthread = false;
      parser_ablation("parser: no gap inference", opts);
    }
  }
  std::printf("\nexpected shape: inter-stream removal dominates the error "
              "(the paper's dPRO diagnosis).\n");
  return 0;
}
