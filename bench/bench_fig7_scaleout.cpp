// Figure 7: runtime prediction for scale-out configurations via graph
// manipulation, from a single GPT-3 15B baseline trace (TP=2, PP=2, DP=4):
//   7a  data-parallel scaling     2x2x8, 2x2x16, 2x2x32
//   7b  pipeline-parallel scaling 2x4x4, 2x8x4, 2x16x4
//   7c  simultaneous scaling      2x4x8, 2x8x8, 2x4x16
//
// Paper result: predictions track the measured runtime and its breakdown
// closely (avg error 4.2% for simultaneous scaling). Each configuration is
// shown as two rows: the Lumos prediction and the actual measurement.
//
// Rebuilt on api::Sweep: the baseline is profiled and parsed once, all nine
// scale-out predictions run concurrently from the shared artifacts, and a
// second section measures the sweep engine itself — a 16-point TPxPPxDP
// grid run sequentially (workers=1) and in parallel, verified bit-identical
// row by row, with the wall-clock speedup reported.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace {

using namespace lumos;

Result<api::SweepReport> run_timed(api::Sweep& sweep, std::size_t workers,
                                   double* elapsed_ms) {
  const auto begin = std::chrono::steady_clock::now();
  Result<api::SweepReport> report = sweep.run(workers);
  const auto end = std::chrono::steady_clock::now();
  *elapsed_ms =
      std::chrono::duration<double, std::milli>(end - begin).count();
  return report;
}

/// Bit-level comparison of two sweep reports: same per-row status and the
/// simulator outputs identical to the nanosecond and task.
bool reports_identical(const api::SweepReport& a, const api::SweepReport& b) {
  if (a.rows.size() != b.rows.size() || a.ranking != b.ranking) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const api::SweepRow& ra = a.rows[i];
    const api::SweepRow& rb = b.rows[i];
    if (ra.label != rb.label || !(ra.status == rb.status) ||
        ra.ok() != rb.ok()) {
      return false;
    }
    if (!ra.ok()) continue;
    const core::SimResult& sa = ra.prediction->sim;
    const core::SimResult& sb = rb.prediction->sim;
    if (sa.makespan_ns != sb.makespan_ns || sa.executed != sb.executed ||
        sa.start_ns != sb.start_ns || sa.end_ns != sb.end_ns ||
        sa.stuck_tasks != sb.stuck_tasks) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace lumos;
  using namespace lumos::bench;

  const workload::ModelSpec model = workload::ModelSpec::gpt3_15b();
  const workload::ParallelConfig base = make_config(2, 2, 4);

  std::printf("=== Figure 7: scale-out prediction from a %s baseline "
              "trace ===\n\n",
              base.label().c_str());

  // Profile + parse the baseline once; the sweep predicts every scale-out
  // variant from the shared artifacts concurrently.
  Result<api::Sweep> sweep =
      api::Sweep::create(bench_scenario(model, base));
  if (!sweep.is_ok()) {
    std::printf("baseline: %s\n", sweep.status().to_string().c_str());
    return 1;
  }

  struct Target {
    const char* panel;
    std::int32_t pp, dp;
  };
  const std::vector<Target> targets = {
      {"7a (DP scaling)", 2, 8},   {"7a (DP scaling)", 2, 16},
      {"7a (DP scaling)", 2, 32},  {"7b (PP scaling)", 4, 4},
      {"7b (PP scaling)", 8, 4},   {"7b (PP scaling)", 16, 4},
      {"7c (DP+PP)", 4, 8},        {"7c (DP+PP)", 8, 8},
      {"7c (DP+PP)", 4, 16},
  };
  std::vector<std::string> labels;
  for (const Target& t : targets) {
    labels.push_back("2x" + std::to_string(t.pp) + "x" +
                     std::to_string(t.dp));
  }
  if (Status status = sweep->add_parallelism_grid(labels);
      !status.is_ok()) {
    std::printf("grid: %s\n", status.to_string().c_str());
    return 1;
  }
  Result<api::SweepReport> predictions = sweep->run();
  if (!predictions.is_ok()) {
    std::printf("sweep: %s\n", predictions.status().to_string().c_str());
    return 1;
  }

  std::vector<double> errors;
  std::vector<double> combined_errors;
  std::string current_panel;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Target& t = targets[i];
    const api::SweepRow& row = predictions->rows[i];
    if (current_panel != t.panel) {
      current_panel = t.panel;
      std::printf("\n-- %s --\n", t.panel);
      print_breakdown_header();
    }
    if (!row.ok()) {
      std::printf("  %s: prediction %s\n", row.label.c_str(),
                  row.status.to_string().c_str());
      return 1;
    }
    // The measured counterpart: an actual-only session on the target
    // deployment (no profiling, no replay).
    Result<api::Session> target = api::Session::create(
        bench_scenario(model, make_config(2, t.pp, t.dp)));
    if (!target.is_ok()) {
      std::printf("  %s: actual %s\n", row.label.c_str(),
                  target.status().to_string().c_str());
      return 1;
    }
    const double actual_ms =
        static_cast<double>(*target->actual_iteration_ns()) / 1e6;
    const double err =
        analysis::percent_error(row.makespan_ms(), actual_ms);
    errors.push_back(err);
    if (std::string(t.panel).rfind("7c", 0) == 0) {
      combined_errors.push_back(err);
    }

    std::printf("  %s (%d GPUs), prediction error %.1f%%\n",
                row.label.c_str(), 2 * t.pp * t.dp, err);
    print_breakdown_row((row.label + " predicted").c_str(),
                        row.prediction->breakdown);
    print_breakdown_row((row.label + " actual").c_str(),
                        *target->breakdown_actual());
  }

  print_rule('=');
  std::printf("summary: avg prediction error %.1f%% (max %.1f%%); "
              "simultaneous-scaling avg %.1f%% (paper: 4.2%%)\n",
              analysis::mean(errors), analysis::max_value(errors),
              analysis::mean(combined_errors));
  const bool shape_holds = analysis::mean(errors) < 10.0;
  std::printf("paper-shape check (predictions track actual): %s\n",
              shape_holds ? "PASS" : "FAIL");

  // -- sweep-engine throughput: 16-point grid, sequential vs parallel ------
  std::printf("\n=== Sweep engine: 16-point TPxPPxDP grid, sequential vs "
              "parallel ===\n");
  Result<api::Sweep> grid = api::Sweep::create(bench_scenario(model, base));
  if (!grid.is_ok()) {
    std::printf("grid baseline: %s\n", grid.status().to_string().c_str());
    return 1;
  }
  if (Status status = grid->add_parallelism_grid({2, 4, 8, 16},
                                                 {4, 8, 16, 32});
      !status.is_ok()) {
    std::printf("grid: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("grid: %zu variants (PP in {2,4,8,16} x DP in {4,8,16,32})\n",
              grid->size());

  // Pool sized to the actual machine: oversubscribing cores makes the
  // parallel run *slower*, which would mis-measure the engine.
  const std::size_t cores = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t pool = std::min<std::size_t>(8, cores);

  double sequential_ms = 0.0, parallel_ms = 0.0;
  Result<api::SweepReport> sequential = run_timed(*grid, 1, &sequential_ms);
  Result<api::SweepReport> parallel =
      run_timed(*grid, pool, &parallel_ms);
  if (!sequential.is_ok() || !parallel.is_ok()) {
    std::printf("grid run failed: %s / %s\n",
                sequential.status().to_string().c_str(),
                parallel.status().to_string().c_str());
    return 1;
  }
  const bool identical = reports_identical(*sequential, *parallel);
  const double speedup =
      parallel_ms > 0.0 ? sequential_ms / parallel_ms : 0.0;
  std::printf("sequential (workers=1): %8.1f ms, %zu/%zu variants ok\n",
              sequential_ms, sequential->succeeded(),
              sequential->rows.size());
  std::printf("parallel   (workers=%zu): %8.1f ms, %zu/%zu variants ok\n",
              pool, parallel_ms, parallel->succeeded(),
              parallel->rows.size());
  // Both runs share one build and one compile per DP family (one per PP
  // depth), so the pp=16 family, over half the grid's work, bounds the
  // parallel run.
  std::printf("speedup: %.2fx on %zu cores (4 DP families)\n", speedup,
              cores);
  std::printf("sequential-vs-parallel bit-identity: %s\n",
              identical ? "PASS" : "FAIL");
  if (const api::SweepRow* best = parallel->best()) {
    std::printf("best grid point: %s (%.1f ms predicted iteration)\n",
                best->label.c_str(), best->makespan_ms());
  }

  return (shape_holds && identical) ? 0 : 1;
}
