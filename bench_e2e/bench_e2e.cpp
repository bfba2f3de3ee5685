// bench_e2e: the four waits a Lumos user sees, timed end to end through the
// public facade (api/api.h, plus serve/server.h for the daemon).
//
//   cold-trace    trace directory -> fresh Session -> graph -> replay ->
//                 breakdown, then one parallelism what-if and one faulted
//                 (structure-preserving) what-if on the same session
//   rebuild-grid  the fig7 16-point PP x DP grid through api::Sweep
//   replay-grid   a fault severity grid through Sweep::run_fault_grid
//   serve-mix     a closed loop of socket clients against serve::Server
//
// Usage:
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--spans <file>]
//   bench_e2e --stages [--seed <n>] [--tiny]
//
// Scratch files (trace directories, snapshots, the serve socket) live in
// .bench_build/work-<pid>/ under the working directory and are removed at
// exit.
//
// The last stdout line is one JSON record (see harness.h). With --trace 0
// it carries the end-to-end metrics of the workload, measured untraced.
// With --trace 1 the selected workload runs once untraced and once traced
// (the gap is the tracing overhead), then every other workload runs a short
// traced pass, so the record carries every per-layer metric.
// bench_e2e/README.md maps each metric to its layer and workload.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.h"
#include "harness.h"
#include "serve/server.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using namespace lumos;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Model and deployment sizes. The full sizes are the benchmark; the tiny
/// ones run every workload and every check in seconds (the self-check).
struct Sizes {
  std::string model;
  std::string cold_config;
  std::string rebuild_base;
  std::vector<std::int32_t> grid_pps, grid_dps;
  /// (pp, dp) targets whose prediction error is reported on rebuild-grid.
  std::vector<std::pair<std::int32_t, std::int32_t>> error_targets;
  std::string replay_base;
  std::vector<std::string> serve_bases;  ///< hot, warm, cold
};

Sizes full_sizes() {
  return Sizes{"15b",
               "2x4x8",
               "2x2x4",
               {2, 4, 8, 16},
               {4, 8, 16, 32},
               // The nine fig7 targets: DP scaling, PP scaling, both.
               {{2, 8}, {2, 16}, {2, 32}, {4, 4}, {8, 4}, {16, 4}, {4, 8},
                {8, 8}, {4, 16}},
               "2x4x8",
               {"2x2x4", "2x4x4", "2x4x8"}};
}

Sizes tiny_sizes() {
  return Sizes{"tiny",   "2x2x2",  "2x2x2", {2, 4}, {2, 4},
               {{2, 4}, {4, 2}, {4, 4}}, "2x2x4",
               {"2x2x2", "2x2x4", "2x4x2"}};
}

/// splitmix64: a small, portable, seeded stream for the serve request mix.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 100).
  int percent() { return static_cast<int>(next() % 100); }
};

std::uint64_t actual_seed(std::uint64_t seed) { return seed + 1000003; }

api::Scenario synthetic(const Sizes& sz, const std::string& config,
                        std::uint64_t seed) {
  return api::Scenario::synthetic()
      .with_model(sz.model)
      .with_parallelism(config)
      .with_seed(seed)
      .with_actual_seed(actual_seed(seed));
}

std::size_t default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// One measurement pass of one workload.
struct Pass {
  const Sizes& sz;
  std::uint64_t seed;
  double seconds;       ///< timed-loop budget
  std::size_t setups;   ///< set-ups to run (median reported)
  Tracer& tr;           ///< enabled on traced passes
  Record& rec;          ///< ops, checks, metrics, digest
  std::string workdir;  ///< scratch directory for this pass
  std::size_t workers = default_workers();
  std::string prefix;   ///< per-layer metric prefix ("cold-trace.")
};

/// What a pass hands back for the overhead and coverage numbers.
struct PassResult {
  double wait_p50_ms = 0.0;
  /// Peak RSS of set-up and timed loop, read before the post-loop checks.
  double peak_rss_mb = 0.0;
  double loop_wall_ms = 0.0;   ///< timed loop, summed over client threads
  std::size_t loop_from = 0;   ///< first span index of the timed loop
  std::size_t loop_to = 0;     ///< one past its last span index
};

bool keep_going(Clock::time_point start, double seconds, std::size_t done,
                std::size_t min_done) {
  return done < min_done || ms_since(start, Clock::now()) < seconds * 1e3;
}

/// The first operation of a loop warms the heap and the caches; it is
/// checked like every other but left out of the timings. Drops it from
/// `samples` and returns the operations per second after it.
double drop_warmup(std::vector<double>& samples, std::size_t ops_after,
                   Clock::time_point warm_end) {
  if (!samples.empty()) samples.erase(samples.begin());
  return ops_after / (ms_since(warm_end, Clock::now()) / 1e3);
}

/// Sets the workload's primary wait as the generic end-to-end metrics plus
/// the workload's own names for them (`alias`, e.g. "cold_answer_ms").
void report_wait(Record& rec, const std::vector<double>& waits,
                 const std::string& alias) {
  const int tail = tail_percentile(waits.size());
  const double p50 = median(waits);
  const double pt = percentile(waits, tail);
  const std::string note = "p" + std::to_string(tail);
  rec.set("wait_ms.p50", p50, "ms", waits.size());
  rec.set("wait_ms.tail", pt, "ms", waits.size(), note);
  rec.set(alias + ".p50", p50, "ms", waits.size());
  if (tail > 50) rec.set(alias + "." + note, pt, "ms", waits.size());
}

void report_setup(Record& rec, const std::vector<double>& setup_ms) {
  rec.set("setup_s", median(setup_ms) / 1e3, "s", setup_ms.size());
}

template <typename T>
bool ok_or_fail(Record& rec, const Result<T>& r, const std::string& what) {
  if (r.is_ok()) return true;
  rec.fail(what + ": " + r.status().to_string());
  return false;
}

// -- cold-trace --------------------------------------------------------------

PassResult cold_trace(Pass& p) {
  PassResult out;
  const api::Scenario base = synthetic(p.sz, p.sz.cold_config, p.seed);
  const workload::ParallelConfig cfg = *base.resolved_parallelism();

  // Set-up: write the trace directory into an empty directory.
  std::vector<double> setup_ms;
  std::optional<api::Session> profiled;
  std::vector<std::string> files;
  std::string trace_prefix;
  for (std::size_t k = 0; k < p.setups; ++k) {
    const std::string dir = p.workdir + "/cold-" + std::to_string(k);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto t0 = Clock::now();
    Result<api::Session> s = api::Session::create(base);
    if (!ok_or_fail(p.rec, s, "cold-trace session")) return out;
    {
      Span span(p.tr, "cluster.collect");
      if (!ok_or_fail(p.rec, s->trace(), "collect")) return out;
    }
    Result<std::vector<std::string>> written = [&] {
      Span span(p.tr, "trace.write");
      return s->write_trace_files(dir + "/trace");
    }();
    setup_ms.push_back(ms_since(t0, Clock::now()));
    if (!ok_or_fail(p.rec, written, "write traces")) return out;
    profiled.emplace(std::move(*s));
    files = *written;
    trace_prefix = dir + "/trace";
  }
  std::uintmax_t trace_bytes = 0;
  for (const std::string& f : files) trace_bytes += fs::file_size(f);

  const std::vector<std::int32_t> ranks = *profiled->ranks();
  const faults::FaultSpec spec =
      faults::FaultSpec()
          .slow_rank(ranks[p.seed % ranks.size()], 1.5)
          .degrade_links(1.2)
          .with_jitter(0.05)
          .with_seed(p.seed);
  const api::Scenario from_disk =
      api::Scenario::from_trace(trace_prefix, files.size())
          .with_model(p.sz.model)
          .with_parallelism(p.sz.cold_config);

  std::vector<double> cold, rebuild, preserve;
  std::vector<std::int64_t> replay_ns;
  std::size_t graph_tasks = 0;
  out.loop_from = p.tr.count();
  const auto loop_start = Clock::now();
  auto warm_end = loop_start;
  std::size_t iterations = 0;
  while (keep_going(loop_start, p.seconds, iterations, 4)) {
    if (iterations++ == 1) warm_end = Clock::now();
    p.tr.begin_op();
    const auto t0 = Clock::now();
    std::optional<api::Session> s;
    {
      Span span(p.tr, "api.session_create");
      Result<api::Session> created = api::Session::create(from_disk);
      if (!ok_or_fail(p.rec, created, "from_trace session")) break;
      s.emplace(std::move(*created));
    }
    bool ok = true;
    {
      Span span(p.tr, "trace.ingest");
      ok = ok && ok_or_fail(p.rec, s->trace(), "ingest");
    }
    {
      Span span(p.tr, "core.graph_build");
      Result<const core::ExecutionGraph*> g = s->graph();
      ok = ok && ok_or_fail(p.rec, g, "graph");
      if (ok) graph_tasks = (*g)->size();
    }
    {
      Span span(p.tr, "core.compile_replay");
      Result<const core::SimResult*> r = s->replay();
      ok = ok && ok_or_fail(p.rec, r, "replay");
      if (ok) replay_ns.push_back((*r)->makespan_ns);
    }
    {
      Span span(p.tr, "analysis.breakdown");
      ok = ok && ok_or_fail(p.rec, s->breakdown(), "breakdown");
    }
    const auto t1 = Clock::now();
    if (!ok) continue;  // the failing call was counted by ok_or_fail
    p.rec.op(true);
    cold.push_back(ms_since(t0, t1));

    {
      Span span(p.tr, "workload.rebuild");
      Result<api::Prediction> w =
          s->predict(api::whatif().with_data_parallelism(cfg.dp * 2));
      const auto t2 = Clock::now();
      if (ok_or_fail(p.rec, w, "dp what-if")) {
        p.rec.op(true);
        rebuild.push_back(ms_since(t1, t2));
        p.rec.digest.add("cold/dp=" + std::to_string(cfg.dp * 2),
                         w->sim.makespan_ns);
      }
    }
    {
      const auto t3 = Clock::now();
      Span span(p.tr, "faults.predict");
      Result<api::Prediction> f = s->predict(api::whatif().with_faults(spec));
      const auto t4 = Clock::now();
      if (ok_or_fail(p.rec, f, "faulted what-if")) {
        p.rec.op(f->used_compiled_replay,
                 "faulted what-if missed the compiled replay path");
        preserve.push_back(ms_since(t3, t4));
        p.rec.digest.add("cold/faulted", f->sim.makespan_ns);
      }
    }
    {
      Span span(p.tr, "api.session_close");
      s.reset();
    }
  }
  out.loop_wall_ms = ms_since(loop_start, Clock::now());
  out.loop_to = p.tr.count();
  out.peak_rss_mb = peak_rss_mb();
  const double answers_per_s = drop_warmup(cold, iterations - 1, warm_end);
  drop_warmup(rebuild, 0, warm_end);
  drop_warmup(preserve, 0, warm_end);
  out.wait_p50_ms = median(cold);

  // Check: the trace-directory replay equals the synthetic session's.
  Result<const core::SimResult*> reference = profiled->replay();
  if (ok_or_fail(p.rec, reference, "synthetic replay")) {
    const std::int64_t want = (*reference)->makespan_ns;
    p.rec.digest.add("cold/replay", want);
    for (std::int64_t got : replay_ns) {
      if (got != want) {
        p.rec.fail("cold-trace replay " + std::to_string(got) +
                   " ns != synthetic replay " + std::to_string(want) + " ns");
        break;
      }
    }
  }

  if (!p.tr.enabled()) {
    report_setup(p.rec, setup_ms);
    report_wait(p.rec, cold, "cold_answer_ms");
    p.rec.set("work_per_s", answers_per_s, "1/s", cold.size());
    p.rec.set("whatif_rebuild_ms.p50", median(rebuild), "ms", rebuild.size());
    p.rec.set("whatif_preserve_ms.p50", median(preserve), "ms",
              preserve.size());
    Result<std::int64_t> actual = profiled->actual_iteration_ns();
    if (ok_or_fail(p.rec, actual, "actual run") && !replay_ns.empty()) {
      p.rec.set("replay_error_pct",
                analysis::percent_error(
                    static_cast<double>(replay_ns.front()),
                    static_cast<double>(*actual)),
                "%");
    }
    return out;
  }
  const std::string& x = p.prefix;
  const auto med = [&](const char* span) {
    return median(p.tr.durations_ms(span, out.loop_from));
  };
  const double ingest = med("trace.ingest");
  const double build = med("core.graph_build");
  p.rec.set(x + "cluster.collect_ms", median(p.tr.durations_ms("cluster.collect")),
            "ms", p.setups);
  p.rec.set(x + "trace.write_ms", median(p.tr.durations_ms("trace.write")), "ms",
            p.setups);
  p.rec.set(x + "trace.ingest_ms", ingest, "ms", cold.size());
  p.rec.set(x + "trace.ingest_mb_per_s",
            static_cast<double>(trace_bytes) / 1e6 / (ingest / 1e3), "MB/s",
            cold.size());
  p.rec.set(x + "core.graph_build_ms", build, "ms", cold.size());
  p.rec.set(x + "core.graph_tasks_per_s",
            static_cast<double>(graph_tasks) / (build / 1e3), "1/s",
            cold.size());
  p.rec.set(x + "core.compile_replay_ms", med("core.compile_replay"), "ms",
            cold.size());
  p.rec.set(x + "analysis.breakdown_ms", med("analysis.breakdown"), "ms",
            cold.size());
  p.rec.set(x + "workload.rebuild_ms", med("workload.rebuild"), "ms",
            rebuild.size());
  p.rec.set(x + "faults.predict_ms", med("faults.predict"), "ms",
            preserve.size());
  return out;
}

// -- rebuild-grid ------------------------------------------------------------

/// Bit-level comparison of two sweep reports (status, makespan, executed
/// count and every per-task start/end).
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

void check_sweep(Record& rec, const Result<api::SweepReport>& report) {
  if (!ok_or_fail(rec, report, "sweep")) return;
  for (const api::SweepRow& row : report->rows) {
    rec.op(row.ok(), "variant " + row.label + ": " + row.status.to_string());
    if (row.ok()) {
      rec.digest.add("rebuild/" + row.label, row.prediction->sim.makespan_ns);
    }
  }
}

PassResult rebuild_grid(Pass& p) {
  PassResult out;
  std::vector<double> setup_ms;
  std::optional<api::Sweep> sweep;
  for (std::size_t k = 0; k < p.setups; ++k) {
    sweep.reset();
    const auto t0 = Clock::now();
    Result<api::Session> s =
        api::Session::create(synthetic(p.sz, p.sz.rebuild_base, p.seed));
    if (!ok_or_fail(p.rec, s, "rebuild-grid session")) return out;
    {
      Span span(p.tr, "cluster.collect");
      if (!ok_or_fail(p.rec, s->trace(), "collect")) return out;
    }
    {
      Span span(p.tr, "core.graph_build");
      if (!ok_or_fail(p.rec, s->graph(), "graph")) return out;
    }
    Result<api::Sweep> created = [&] {
      Span span(p.tr, "api.sweep_create");
      return api::Sweep::over(*s, api::SweepOptions{p.workers});
    }();
    if (!ok_or_fail(p.rec, created, "sweep")) return out;
    sweep.emplace(std::move(*created));
    if (Status st = sweep->add_parallelism_grid(p.sz.grid_pps, p.sz.grid_dps);
        !st.is_ok()) {
      p.rec.fail("grid: " + st.to_string());
      return out;
    }
    setup_ms.push_back(ms_since(t0, Clock::now()));
  }

  std::vector<double> grid_ms;
  std::optional<api::SweepReport> first;
  std::size_t variants = 0;
  out.loop_from = p.tr.count();
  const auto loop_start = Clock::now();
  auto warm_end = loop_start;
  while (keep_going(loop_start, p.seconds, grid_ms.size(), 3)) {
    if (grid_ms.size() == 1) warm_end = Clock::now();
    p.tr.begin_op();
    const auto t0 = Clock::now();
    Result<api::SweepReport> report = [&] {
      Span span(p.tr, "api.sweep_run");
      return sweep->run(p.workers);
    }();
    grid_ms.push_back(ms_since(t0, Clock::now()));
    check_sweep(p.rec, report);
    if (report.is_ok()) {
      if (grid_ms.size() > 1) variants += report->rows.size();
      if (!first) first = std::move(*report);
    }
  }
  const double variants_per_s = drop_warmup(grid_ms, variants, warm_end);
  std::optional<api::SweepReport> sequential;
  if (p.tr.enabled()) {
    // Workers = 1 is the sequential predict_on loop; each variant's span
    // runs from the previous completion to its own (Sweep::on_result).
    p.tr.begin_op();
    std::int64_t last_ns = p.tr.now_ns();
    std::uint32_t parent = 0;
    sweep->on_result([&](const api::SweepRow&) {
      const std::int64_t now = p.tr.now_ns();
      p.tr.record("workload.rebuild", last_ns, now, parent, 0);
      last_ns = now;
    });
    Span span(p.tr, "api.sweep_run_sequential");
    parent = p.tr.current();
    last_ns = p.tr.now_ns();
    Result<api::SweepReport> report = sweep->run(1);
    span.end();
    sweep->on_result(nullptr);
    check_sweep(p.rec, report);
    if (report.is_ok()) sequential = std::move(*report);
  }
  out.loop_wall_ms = ms_since(loop_start, Clock::now());
  out.loop_to = p.tr.count();
  out.peak_rss_mb = peak_rss_mb();
  out.wait_p50_ms = median(grid_ms);

  if (sequential && first) {
    p.rec.op(reports_identical(*sequential, *first),
             "sweep rows differ between workers=1 and workers=" +
                 std::to_string(p.workers));
  }

  if (!p.tr.enabled()) {
    report_setup(p.rec, setup_ms);
    report_wait(p.rec, grid_ms, "grid_ms");
    p.rec.set("work_per_s", variants_per_s, "1/s", grid_ms.size());
    p.rec.set("grid_variants_per_s", variants_per_s, "1/s", grid_ms.size());
    // Prediction error of the fig7 targets against their actual runs.
    if (first) {
      const std::int32_t tp =
          api::parse_parallelism(p.sz.rebuild_base).value().tp;
      std::vector<double> errors;
      for (const auto& [pp, dp] : p.sz.error_targets) {
        const std::string label = std::to_string(tp) + "x" +
                                  std::to_string(pp) + "x" +
                                  std::to_string(dp);
        const auto row = std::find_if(
            first->rows.begin(), first->rows.end(),
            [&](const api::SweepRow& r) { return r.label == label; });
        if (row == first->rows.end() || !row->ok()) {
          p.rec.fail("no grid row for error target " + label);
          continue;
        }
        Result<api::Session> target =
            api::Session::create(synthetic(p.sz, label, p.seed));
        if (!ok_or_fail(p.rec, target, "target " + label)) continue;
        Result<std::int64_t> actual = target->actual_iteration_ns();
        if (!ok_or_fail(p.rec, actual, "actual " + label)) continue;
        errors.push_back(analysis::percent_error(
            row->makespan_ms(), static_cast<double>(*actual) / 1e6));
      }
      double sum = 0.0;
      for (double e : errors) sum += e;
      if (!errors.empty()) {
        p.rec.set("whatif_error_pct", sum / errors.size(), "%",
                  errors.size());
      }
    }
    return out;
  }
  const std::string& x = p.prefix;
  p.rec.set(x + "core.graph_build_ms",
            median(p.tr.durations_ms("core.graph_build")), "ms", p.setups);
  const std::vector<double> per_variant =
      p.tr.durations_ms("workload.rebuild", out.loop_from);
  p.rec.set(x + "workload.rebuild_ms.p50", median(per_variant), "ms",
            per_variant.size());
  const std::vector<double> seq =
      p.tr.durations_ms("api.sweep_run_sequential", out.loop_from);
  if (!seq.empty()) {
    p.rec.set(x + "api.sweep_speedup", seq.front() / median(grid_ms), "x",
              grid_ms.size());
  }
  return out;
}

// -- replay-grid -------------------------------------------------------------

std::vector<double> severities() {
  std::vector<double> s;
  for (int k = 1; k <= 16; ++k) s.push_back(k / 16.0);
  return s;
}

PassResult replay_grid(Pass& p) {
  PassResult out;
  std::vector<double> setup_ms;
  std::optional<api::Sweep> sweep;
  std::vector<std::int32_t> ranks;
  for (std::size_t k = 0; k < p.setups; ++k) {
    sweep.reset();
    const auto t0 = Clock::now();
    Result<api::Session> s =
        api::Session::create(synthetic(p.sz, p.sz.replay_base, p.seed));
    if (!ok_or_fail(p.rec, s, "replay-grid session")) return out;
    {
      Span span(p.tr, "cluster.collect");
      if (!ok_or_fail(p.rec, s->trace(), "collect")) return out;
    }
    {
      Span span(p.tr, "core.graph_build");
      if (!ok_or_fail(p.rec, s->graph(), "graph")) return out;
    }
    Result<api::Sweep> created = [&] {
      Span span(p.tr, "api.sweep_create");  // compiles the replay program
      return api::Sweep::over(*s, api::SweepOptions{p.workers});
    }();
    if (!ok_or_fail(p.rec, created, "sweep")) return out;
    sweep.emplace(std::move(*created));
    setup_ms.push_back(ms_since(t0, Clock::now()));
    ranks = *s->ranks();
  }
  const faults::FaultSpec spec =
      faults::FaultSpec()
          .slow_rank(ranks[p.seed % ranks.size()], 1.5)
          .degrade_links(1.3)
          .with_jitter(0.08)
          .with_seed(p.seed);
  const std::vector<double> sev = severities();

  std::vector<double> grid_ms;
  std::size_t cells = 0, compiled = 0;
  std::optional<api::FaultReport> first;
  out.loop_from = p.tr.count();
  const auto loop_start = Clock::now();
  auto warm_end = loop_start;
  while (keep_going(loop_start, p.seconds, grid_ms.size(), 4)) {
    if (grid_ms.size() == 1) warm_end = Clock::now();
    p.tr.begin_op();
    const auto t0 = Clock::now();
    Result<api::FaultReport> report = [&] {
      Span span(p.tr, "api.fault_grid");
      return sweep->run_fault_grid(spec, sev, p.workers);
    }();
    grid_ms.push_back(ms_since(t0, Clock::now()));
    if (!ok_or_fail(p.rec, report, "fault grid")) continue;
    p.rec.digest.add("replay/baseline", report->baseline_makespan_ns);
    for (const api::FaultImpactRow& row : report->rows) {
      p.rec.op(row.ok(), "cell " + row.label + ": " + row.status.to_string());
      p.rec.digest.add("replay/" + row.label + "@" +
                           std::to_string(row.severity),
                       row.makespan_ns);
      if (grid_ms.size() > 1) ++cells;
      if (row.used_compiled_replay) ++compiled;
    }
    if (!first) first = std::move(*report);
  }
  out.loop_wall_ms = ms_since(loop_start, Clock::now());
  out.loop_to = p.tr.count();
  out.peak_rss_mb = peak_rss_mb();
  const std::size_t first_cells = first ? first->rows.size() : 0;
  const double cells_per_s = drop_warmup(grid_ms, cells, warm_end);
  out.wait_p50_ms = median(grid_ms);

  if (!p.tr.enabled()) {
    report_setup(p.rec, setup_ms);
    report_wait(p.rec, grid_ms, "fault_grid_ms");
    p.rec.set("work_per_s", cells_per_s, "1/s", grid_ms.size());
    p.rec.set("grid_variants_per_s", cells_per_s, "1/s", grid_ms.size());
    return out;
  }
  // Per cell, sequentially: each grid row re-run alone must match, and an
  // empty spec times compiled replay by itself.
  const api::BaselineArtifacts& base = sweep->baseline();
  std::map<std::string, faults::FaultSpec> by_label{{"all", spec}};
  for (auto& [label, component] : spec.components()) by_label[label] = component;
  if (first) {
    for (const api::FaultImpactRow& row : first->rows) {
      Result<core::SimResult> cell = [&] {
        Span span(p.tr, "faults.cell");
        return api::replay_faulted(base, by_label[row.label].scaled(row.severity));
      }();
      if (!ok_or_fail(p.rec, cell, "cell " + row.label)) continue;
      p.rec.op(cell->makespan_ns == row.makespan_ns,
               "cell " + row.label + " replayed alone differs from its grid row");
    }
    for (int k = 0; k < 16; ++k) {
      Result<core::SimResult> plain = [&] {
        Span span(p.tr, "core.replay");
        return api::replay_faulted(base, faults::FaultSpec());
      }();
      if (!ok_or_fail(p.rec, plain, "fault-free replay")) continue;
      p.rec.op(plain->makespan_ns == first->baseline_makespan_ns,
               "fault-free replay differs from the grid baseline");
    }
  }
  const std::string& x = p.prefix;
  const std::vector<double> cell_ms = p.tr.durations_ms("faults.cell");
  const std::vector<double> replay_ms = p.tr.durations_ms("core.replay");
  p.rec.set(x + "faults.cell_ms.p50", median(cell_ms), "ms", cell_ms.size());
  p.rec.set(x + "core.replay_ms.p50", median(replay_ms), "ms",
            replay_ms.size());
  p.rec.set(x + "core.replay_tasks_per_s",
            static_cast<double>(base.graph->size()) /
                (median(replay_ms) / 1e3),
            "1/s", replay_ms.size());
  const std::size_t rows = cells + first_cells;
  p.rec.set(x + "faults.compiled_share",
            rows == 0 ? 0.0 : static_cast<double>(compiled) / rows, "ratio",
            rows);
  return out;
}

// -- serve-mix ---------------------------------------------------------------

/// A persistent NDJSON connection: one request line out, one reply line in.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0) return;
    bool connected = false;
    if (path.size() < sizeof(addr.sun_path)) {
      std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
      connected =
          ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    }
    if (!connected) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends `line` and reads the reply line; false on any I/O failure.
  bool round_trip(const std::string& line, std::string& reply) {
    std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    reply.clear();
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

enum Kind : int { kNoop = 0, kRebuild = 1, kFusion = 2 };
const char* const kKindName[] = {"noop", "rebuild", "fusion"};

/// One entry of the serve catalogue: a baseline and a what-if.
struct Variant {
  std::size_t base = 0;
  Kind kind = kNoop;
  serve::WhatIf whatif;
  std::string key() const { return std::to_string(base) + "/" + whatif.fingerprint(); }
};

/// Per baseline: no-op, dp doubled, dp halved, fusion.
std::vector<Variant> catalogue(const Sizes& sz) {
  std::vector<Variant> out;
  for (std::size_t b = 0; b < sz.serve_bases.size(); ++b) {
    const workload::ParallelConfig cfg =
        *api::parse_parallelism(sz.serve_bases[b]);
    Variant v{b, kNoop, {}};
    out.push_back(v);
    v.kind = kRebuild;
    v.whatif.dp = cfg.dp * 2;
    out.push_back(v);
    v.whatif.dp = std::max(1, cfg.dp / 2);
    out.push_back(v);
    v.kind = kFusion;
    v.whatif = {};
    v.whatif.fusion = true;
    out.push_back(v);
  }
  return out;
}

/// The seeded request order: baseline 60/30/10, then 70% no-op, 20% one of
/// the two rebuilds, 10% fusion. Returns indices into the catalogue.
std::vector<std::size_t> request_order(std::uint64_t seed, std::size_t n) {
  Rng rng{seed};
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int b = rng.percent();
    const std::size_t base = b < 60 ? 0 : (b < 90 ? 1 : 2);
    const int k = rng.percent();
    std::size_t slot = 0;  // no-op
    if (k >= 90) {
      slot = 3;  // fusion
    } else if (k >= 70) {
      slot = 1 + rng.next() % 2;  // dp up / dp down
    }
    out[i] = base * 4 + slot;
  }
  return out;
}

PassResult serve_mix(Pass& p) {
  PassResult out;
  const std::size_t nb = p.sz.serve_bases.size();
  std::vector<std::string> snaps(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    snaps[b] = p.workdir + "/serve-" + std::to_string(b) + ".snap";
  }
  const std::string socket_path = p.workdir + "/serve.sock";

  std::vector<double> setup_ms;
  std::unique_ptr<serve::Server> server;
  for (std::size_t k = 0; k < p.setups; ++k) {
    server.reset();
    const auto t0 = Clock::now();
    std::vector<std::size_t> bytes;
    for (std::size_t b = 0; b < nb; ++b) {
      Result<api::Session> s = api::Session::create(
          synthetic(p.sz, p.sz.serve_bases[b], p.seed));
      if (!ok_or_fail(p.rec, s, "serve session")) return out;
      {
        Span span(p.tr, "cluster.collect");
        if (!ok_or_fail(p.rec, s->trace(), "collect")) return out;
      }
      {
        Span span(p.tr, "core.graph_build");
        if (!ok_or_fail(p.rec, s->graph(), "graph")) return out;
      }
      {
        Span span(p.tr, "snapshot.save");
        if (Status st = s->save_snapshot(snaps[b]); !st.is_ok()) {
          p.rec.fail("snapshot save: " + st.to_string());
          return out;
        }
      }
      Result<api::BaselineArtifacts> shared = s->share_baseline();
      if (!ok_or_fail(p.rec, shared, "share baseline")) return out;
      bytes.push_back(serve::Engine::approx_bytes(*shared));
    }
    // Room for the two largest baselines: the third load evicts one.
    std::sort(bytes.rbegin(), bytes.rend());
    serve::ServerOptions options;
    options.socket_path = socket_path;
    options.workers = p.workers;
    options.max_pending = 64;
    options.engine.cache_capacity_bytes = bytes[0] + bytes[1];
    Result<std::unique_ptr<serve::Server>> started = [&] {
      Span span(p.tr, "serve.start");
      return serve::Server::start(options);
    }();
    if (!ok_or_fail(p.rec, started, "server start")) return out;
    server = std::move(*started);
    setup_ms.push_back(ms_since(t0, Clock::now()));
  }
  std::uintmax_t snapshot_bytes = 0;
  for (const std::string& s : snaps) snapshot_bytes += fs::file_size(s);

  const std::vector<Variant> cat = catalogue(p.sz);
  const std::vector<std::size_t> order = request_order(p.seed, 1u << 16);

  // Closed loop: each client sends its next request when the reply lands.
  struct Sample {
    std::size_t variant;
    double start_ms;  ///< since the loop started
    double ms;
    bool ok;
    std::int64_t makespan_ns;
    std::string error;
  };
  std::vector<std::vector<Sample>> per_client(p.workers);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  out.loop_from = p.tr.count();
  const auto loop_start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < p.workers; ++c) {
    clients.emplace_back([&, c] {
      const auto tid = static_cast<std::uint32_t>(c + 1);
      Span connect_span(p.tr, "serve.connect", tid);
      Connection conn(socket_path);
      connect_span.end();
      std::vector<Sample>& mine = per_client[c];
      if (!conn.ok()) {
        mine.push_back({0, 0.0, 0.0, false, 0, "connect failed"});
        return;
      }
      std::string reply;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1);
        const Variant& v = cat[order[i % order.size()]];
        serve::Request req;
        req.id = static_cast<std::int64_t>(i);
        req.baseline = snaps[v.base];
        req.whatif = v.whatif;
        const std::string line = serve::encode(req);
        p.tr.begin_op();
        const auto t0 = Clock::now();
        Span span(p.tr, "serve.round_trip", tid);
        const bool sent = conn.round_trip(line, reply);
        span.end();
        const double ms = ms_since(t0, Clock::now());
        Sample s{order[i % order.size()], ms_since(loop_start, t0), ms, false,
                 0, ""};
        serve::Reply decoded;
        if (!sent) {
          s.error = "connection lost";
        } else if (Status st = serve::decode_reply(reply, decoded);
                   !st.is_ok()) {
          s.error = st.to_string();
        } else if (!decoded.ok) {
          s.error = decoded.error.to_string();
        } else {
          s.ok = true;
          s.makespan_ns = decoded.body.get_int("makespan_ns", -1);
        }
        mine.push_back(std::move(s));
        if (!sent) return;
      }
    });
  }
  while (ms_since(loop_start, Clock::now()) < p.seconds * 1e3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double loop_ms = ms_since(loop_start, Clock::now());
  out.loop_wall_ms = loop_ms * p.workers;
  out.loop_to = p.tr.count();
  out.peak_rss_mb = peak_rss_mb();

  const Result<std::string> stats_line =
      serve::request_over_socket(socket_path, R"({"method":"stats","id":0})");
  serve::Reply stats;
  if (ok_or_fail(p.rec, stats_line, "stats request")) {
    if (Status st = serve::decode_reply(*stats_line, stats); !st.is_ok()) {
      p.rec.fail("stats reply: " + st.to_string());
    }
  }
  server->shutdown();
  server.reset();

  // Reference: predict_on over each snapshot, for every catalogue entry.
  std::vector<std::optional<api::BaselineArtifacts>> loaded(nb);
  std::vector<std::int64_t> want(cat.size(), -1);
  for (std::size_t b = 0; b < nb; ++b) {
    Result<api::BaselineArtifacts> base = api::load_baseline_snapshot(snaps[b]);
    if (ok_or_fail(p.rec, base, "snapshot load")) loaded[b] = std::move(*base);
  }
  for (std::size_t v = 0; v < cat.size(); ++v) {
    if (!loaded[cat[v].base]) continue;
    Result<api::Prediction> r =
        api::predict_on(*loaded[cat[v].base], cat[v].whatif.to_scenario());
    if (!ok_or_fail(p.rec, r, "reference " + cat[v].key())) continue;
    want[v] = r->sim.makespan_ns;
    p.rec.digest.add("serve/" + p.sz.serve_bases[cat[v].base] + "/" +
                         cat[v].whatif.fingerprint(),
                     want[v]);
  }
  // Requests sent during the first tenth of the loop (at most a second)
  // fill the engine cache: checked, but left out of the timings.
  const double warm_ms = std::min(1e3, p.seconds * 100);
  std::vector<double> latency;
  for (const std::vector<Sample>& mine : per_client) {
    for (const Sample& s : mine) {
      if (!s.ok) {
        p.rec.fail("request: " + s.error);
        continue;
      }
      const bool match = s.makespan_ns == want[s.variant];
      p.rec.op(match, "reply for " + cat[s.variant].key() + " gave " +
                          std::to_string(s.makespan_ns) + " ns, predict_on " +
                          std::to_string(want[s.variant]) + " ns");
      if (s.start_ms >= warm_ms) latency.push_back(s.ms);
    }
  }
  out.wait_p50_ms = median(latency);
  // Cache behaviour over the loop, from the server's own counters.
  const double hits = static_cast<double>(stats.body.get_int("hits", 0));
  const double misses = static_cast<double>(stats.body.get_int("misses", 0));
  const double requests =
      static_cast<double>(stats.body.get_int("requests", 0));
  p.rec.set(p.prefix + "serve.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
            "ratio", static_cast<std::size_t>(hits + misses));
  p.rec.set(p.prefix + "serve.coalesced_ratio",
            requests > 0
                ? static_cast<double>(stats.body.get_int("coalesced", 0)) /
                      requests
                : 0.0,
            "ratio", static_cast<std::size_t>(requests));
  p.rec.set(p.prefix + "serve.evictions",
            static_cast<double>(stats.body.get_int("evictions", 0)), "count");

  if (!p.tr.enabled()) {
    report_setup(p.rec, setup_ms);
    report_wait(p.rec, latency, "serve_latency_ms");
    const double rps = latency.size() / ((loop_ms - warm_ms) / 1e3);
    p.rec.set("work_per_s", rps, "1/s", latency.size());
    p.rec.set("serve_rps", rps, "1/s", latency.size());
    return out;
  }
  // Engine time alone: Engine::predict on the same request sequence, and
  // snapshot loads by themselves.
  serve::Engine::Options engine_options;
  engine_options.cache_capacity_bytes = 0;
  {
    std::vector<std::size_t> bytes;
    for (const auto& l : loaded) {
      if (l) bytes.push_back(serve::Engine::approx_bytes(*l));
    }
    std::sort(bytes.rbegin(), bytes.rend());
    if (bytes.size() >= 2) engine_options.cache_capacity_bytes = bytes[0] + bytes[1];
  }
  serve::Engine engine(engine_options);
  std::vector<std::size_t> seen(3, 0);
  std::vector<std::vector<double>> engine_ms(cat.size());
  const auto engine_start = Clock::now();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const bool enough = *std::min_element(seen.begin(), seen.end()) >= 5;
    if (enough && ms_since(engine_start, Clock::now()) > p.seconds * 250) break;
    const Variant& v = cat[order[i]];
    serve::Request req;
    req.id = static_cast<std::int64_t>(i);
    req.baseline = snaps[v.base];
    req.whatif = v.whatif;
    static const char* const kSpan[] = {"serve.engine_noop",
                                        "serve.engine_rebuild",
                                        "serve.engine_fusion"};
    const auto t0 = Clock::now();
    Result<serve::Engine::Outcome> r = [&] {
      Span span(p.tr, kSpan[v.kind]);
      return engine.predict(req);
    }();
    engine_ms[order[i]].push_back(ms_since(t0, Clock::now()));
    if (ok_or_fail(p.rec, r, "engine predict")) {
      p.rec.op(r->prediction.sim.makespan_ns == want[order[i]],
               "engine result differs from predict_on for " + v.key());
    }
    ++seen[v.kind];
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& path : snaps) {
      Span span(p.tr, "snapshot.load");
      Result<api::BaselineArtifacts> base = api::load_baseline_snapshot(path);
      span.end();
      ok_or_fail(p.rec, base, "snapshot load");
    }
  }
  const std::string& x = p.prefix;
  p.rec.set(x + "snapshot.save_ms", median(p.tr.durations_ms("snapshot.save")),
            "ms", p.setups * nb);
  p.rec.set(x + "snapshot.mb", static_cast<double>(snapshot_bytes) / 1e6, "MB",
            nb);
  const std::vector<double> loads = p.tr.durations_ms("snapshot.load");
  p.rec.set(x + "snapshot.load_ms", median(loads), "ms", loads.size());
  for (int k = 0; k < 3; ++k) {
    const std::vector<double> d =
        p.tr.durations_ms(std::string("serve.engine_") + kKindName[k]);
    p.rec.set(x + "serve.engine_ms.p50." + kKindName[k], median(d), "ms",
              d.size());
  }
  // Round trip minus the engine time of the same catalogue entry, over the
  // requests whose entry the engine pass reached.
  std::vector<double> overhead;
  for (const std::vector<Sample>& mine : per_client) {
    for (const Sample& s : mine) {
      if (s.ok && !engine_ms[s.variant].empty()) {
        overhead.push_back(s.ms - median(engine_ms[s.variant]));
      }
    }
  }
  p.rec.set(x + "serve.overhead_ms.p50", median(overhead), "ms",
            overhead.size());
  return out;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

using WorkloadFn = PassResult (*)(Pass&);
const std::vector<std::pair<std::string, WorkloadFn>>& workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> all = {
      {"cold-trace", cold_trace},
      {"rebuild-grid", rebuild_grid},
      {"replay-grid", replay_grid},
      {"serve-mix", serve_mix}};
  return all;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool stages = false;
  std::string workdir;
  std::string spans;
};

/// Adds the ops, failures and metrics of `from` into `into` (not its
/// digest: a record's digest covers its own workload only).
void merge(Record& into, const Record& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (const std::string& f : from.failures) {
    if (into.failures.size() < 8) into.failures.push_back(f);
  }
  for (const auto& [name, m] : from.metrics) {
    into.set(name, m.value, m.unit, m.samples, m.note);
  }
}

Record run_workload(const Args& a, WorkloadFn fn, const Sizes& sz) {
  Record rec;
  rec.workload = a.workload;
  rec.seed = a.seed;
  rec.traced = a.trace;
  if (!a.trace) {
    Tracer off(false);
    Pass pass{sz, a.seed, a.seconds, 5, off, rec, a.workdir,
              default_workers(), a.workload + "."};
    const PassResult r = fn(pass);
    rec.set("peak_rss_mb", r.peak_rss_mb, "MB");
    return rec;
  }
  // Traced run: the same workload untraced then traced, half the budget
  // each; the difference in median wait is the tracing overhead.
  Tracer off(false);
  Tracer on(true);
  Record untraced;
  untraced.workload = a.workload;
  Pass plain{sz,        a.seed,   a.seconds / 2,     1,
             off,       untraced, a.workdir,          default_workers(),
             a.workload + "."};
  const PassResult base = fn(plain);
  untraced.metrics.clear();
  merge(rec, untraced);
  rec.digest = untraced.digest;
  Pass traced{sz,  a.seed,    a.seconds / 2,     1,
              on,  rec,       a.workdir,          default_workers(),
              a.workload + "."};
  const PassResult t = fn(traced);
  const std::vector<SpanRecord> spans = on.spans();
  const double covered = toplevel_ms(spans, t.loop_from, t.loop_to);
  const double layer_sum_pct =
      t.loop_wall_ms > 0 ? 100.0 * covered / t.loop_wall_ms : 0.0;
  rec.layer_self_ms = self_ms_by_layer(spans, t.loop_from, t.loop_to);
  rec.set("bench.tracing_overhead_pct",
          100.0 * (t.wait_p50_ms - base.wait_p50_ms) / base.wait_p50_ms, "%");
  rec.set("bench.layer_sum_pct", layer_sum_pct, "%");
  rec.op(layer_sum_pct >= 95.0 && layer_sum_pct <= 105.0,
         "per-layer time covers " + std::to_string(layer_sum_pct) +
             "% of wall time, outside 95..105%");
  // A short traced pass of every other workload fills its per-layer
  // metrics on that workload's own inputs.
  for (const auto& [name, other] : workloads()) {
    if (other == fn) continue;
    Tracer probe_tracer(true);
    Record probe;
    Pass probe_pass{sz,        a.seed,           a.tiny ? 0.2 : 1.0,
                    1,         probe_tracer,     probe,
                    a.workdir, default_workers(), name + "."};
    other(probe_pass);
    if (!probe.digest.ok()) probe.fail(name + ": makespans differ between repeats");
    merge(rec, probe);
  }
  if (!a.spans.empty() && !on.write_chrome_trace(a.spans)) {
    rec.fail("cannot write spans to " + a.spans);
  }
  return rec;
}

/// The ROADMAP stage table: each stage of the synthetic and the
/// from-disk path, median of three, for two deployment sizes.
int run_stages(const Args& a) {
  const Sizes sz = a.tiny ? tiny_sizes() : full_sizes();
  const std::vector<std::string> configs =
      a.tiny ? std::vector<std::string>{"2x2x2", "2x2x4"}
             : std::vector<std::string>{"2x2x4", "2x4x8"};
  std::map<std::string, std::map<std::string, std::vector<double>>> t;
  std::vector<std::string> order;
  std::map<std::string, std::size_t> tasks;
  auto time = [&](const std::string& cfg, const std::string& stage, auto&& f) {
    if (std::find(order.begin(), order.end(), stage) == order.end()) {
      order.push_back(stage);
    }
    const auto t0 = Clock::now();
    const bool ok = f();
    t[stage][cfg].push_back(ms_since(t0, Clock::now()));
    if (!ok) std::fprintf(stderr, "stage %s failed on %s\n", stage.c_str(), cfg.c_str());
    return ok;
  };
  for (const std::string& cfg : configs) {
    for (int rep = 0; rep < 3; ++rep) {
      const std::string dir = a.workdir + "/stages-" + cfg;
      fs::remove_all(dir);
      fs::create_directories(dir);
      Result<api::Session> s = api::Session::create(synthetic(sz, cfg, a.seed));
      if (!s.is_ok()) return 1;
      const workload::ParallelConfig pc = *s->scenario().resolved_parallelism();
      std::size_t files = 0;
      time(cfg, "synthetic collect", [&] { return s->trace().is_ok(); });
      time(cfg, "synthetic parse+graph", [&] { return s->graph().is_ok(); });
      tasks[cfg] = (*s->graph())->size();
      time(cfg, "synthetic compile+replay", [&] { return s->replay().is_ok(); });
      time(cfg, "synthetic predict(dp*2)", [&] {
        return s->predict(api::whatif().with_data_parallelism(pc.dp * 2)).is_ok();
      });
      time(cfg, "synthetic write traces", [&] {
        Result<std::size_t> n = s->write_traces(dir + "/trace");
        files = n.value_or(0);
        return n.is_ok();
      });
      Result<api::Session> d = api::Session::create(
          api::Scenario::from_trace(dir + "/trace", files)
              .with_model(sz.model)
              .with_parallelism(cfg));
      if (!d.is_ok()) return 1;
      time(cfg, "from disk ingest", [&] { return d->trace().is_ok(); });
      time(cfg, "from disk parse+graph", [&] { return d->graph().is_ok(); });
      time(cfg, "from disk snapshot save",
           [&] { return d->save_snapshot(dir + "/base.snap").is_ok(); });
      time(cfg, "from disk snapshot load", [&] {
        return api::load_baseline_snapshot(dir + "/base.snap").is_ok();
      });
      fs::remove_all(dir);
    }
  }
  std::printf("%-28s", "stage (median of 3, ms)");
  for (const std::string& cfg : configs) {
    std::printf(" %14s", (cfg + " " + std::to_string(tasks[cfg] / 1000) + "k").c_str());
  }
  std::printf("\n");
  for (const std::string& stage : order) {
    std::printf("%-28s", stage.c_str());
    for (const std::string& cfg : configs) {
      std::printf(" %14.2f", median(t[stage][cfg]));
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans" && has_value) {
      a.spans = argv[++i];
    } else if (arg == "--tiny") {
      a.tiny = true;
    } else if (arg == "--stages") {
      a.stages = true;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  a.workdir = ".bench_build/work-" + std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(a.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_e2e: cannot create %s\n", a.workdir.c_str());
    return 2;
  }
  int rc = 0;
  if (a.stages) {
    rc = run_stages(a);
  } else {
    const auto& all = workloads();
    const auto it = std::find_if(all.begin(), all.end(), [&](const auto& w) {
      return w.first == a.workload;
    });
    if (it == all.end()) {
      std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                   a.workload.c_str());
      rc = 2;
    } else {
      Record rec =
          run_workload(a, it->second, a.tiny ? tiny_sizes() : full_sizes());
      if (!rec.digest.ok()) rec.fail("makespans differ between repeats");
      std::string line = rec.to_json();
      line.pop_back();  // re-open the object to add the build stamp
      line += ",\"compiler\":\"" + std::string(kCompiler) +
              "\",\"build_type\":\"" BENCH_E2E_BUILD_TYPE "\"}";
      std::printf("%s\n", line.c_str());
    }
  }
  fs::remove_all(a.workdir, ec);
  return rc;
}
