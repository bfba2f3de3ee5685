#include "api/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>
#include <utility>

#include "support/mutex.h"

namespace lumos::api {

std::string SweepReport::to_string() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%4s  %-24s %12s %9s  %s\n", "rank",
                "label", "makespan(ms)", "vs best", "status");
  out += line;
  const double best_ms =
      ranking.empty() ? 0.0 : rows[ranking.front()].makespan_ms();
  std::size_t rank = 1;
  for (std::size_t i : ranking) {
    const SweepRow& row = rows[i];
    const double ms = row.makespan_ms();
    const double delta = best_ms > 0.0 ? (ms / best_ms - 1.0) * 100.0 : 0.0;
    std::snprintf(line, sizeof(line), "%4zu  %-24s %12.2f %+8.1f%%  ok\n",
                  rank++, row.label.c_str(), ms, delta);
    out += line;
  }
  for (const SweepRow& row : rows) {
    if (row.ok()) continue;
    std::snprintf(line, sizeof(line), "%4s  %-24s %12s %9s  %s\n", "-",
                  row.label.c_str(), "-", "-",
                  row.status.to_string().c_str());
    out += line;
  }
  return out;
}

std::string FaultReport::to_string() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "baseline makespan: %.2f ms\n",
                static_cast<double>(baseline_makespan_ns) / 1e6);
  out += line;
  std::snprintf(line, sizeof(line), "%4s  %-28s %8s %12s %11s  %s\n", "rank",
                "fault", "severity", "makespan(ms)", "degradation",
                "path");
  out += line;
  std::size_t rank = 1;
  for (std::size_t i : ranking) {
    const FaultImpactRow& row = rows[i];
    std::snprintf(line, sizeof(line), "%4zu  %-28s %8.3g %12.2f %+10.2f%%  %s\n",
                  rank++, row.label.c_str(), row.severity,
                  static_cast<double>(row.makespan_ns) / 1e6,
                  row.degradation_pct,
                  row.used_compiled_replay ? "compiled" : "interpreter");
    out += line;
  }
  for (const FaultImpactRow& row : rows) {
    if (row.ok()) continue;
    std::snprintf(line, sizeof(line), "%4s  %-28s %8.3g %12s %11s  %s\n", "-",
                  row.label.c_str(), row.severity, "-", "-",
                  row.status.to_string().c_str());
    out += line;
  }
  return out;
}

Result<Sweep> Sweep::create(Scenario base, SweepOptions options) {
  Result<Session> session = Session::create(std::move(base));
  if (!session.is_ok()) return session.status();
  return over(*session, options);
}

Result<Sweep> Sweep::over(Session& session, SweepOptions options) {
  Result<BaselineArtifacts> base = session.share_baseline();
  if (!base.is_ok()) return base.status();
  return Sweep(*std::move(base), options);
}

Sweep& Sweep::add(std::string label, Scenario whatif) {
  items_.push_back({std::move(label), std::move(whatif), false});
  return *this;
}

Sweep& Sweep::add_scenario(std::string label, Scenario scenario) {
  items_.push_back({std::move(label), std::move(scenario), true});
  return *this;
}

Sweep& Sweep::on_result(std::function<void(const SweepRow&)> callback) {
  on_result_ = std::move(callback);
  return *this;
}

Status Sweep::add_parallelism_grid(const std::vector<std::string>& labels) {
  // Parse everything before adding anything: a malformed label rejects the
  // whole grid eagerly instead of leaving a half-added sweep behind.
  std::vector<workload::ParallelConfig> configs;
  configs.reserve(labels.size());
  for (const std::string& label : labels) {
    Result<workload::ParallelConfig> config = parse_parallelism(label);
    if (!config.is_ok()) return config.status();
    configs.push_back(*config);
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    Scenario whatif;
    if (base_.config && configs[i].tp != base_.config->tp) {
      // Recorded, and rejected with kUnsupported at run time — in its own
      // row, without poisoning siblings.
      whatif.with_tensor_parallelism(configs[i].tp);
    }
    whatif.with_scaled_parallelism(configs[i].pp, configs[i].dp);
    add(labels[i], std::move(whatif));
  }
  return Status::ok();
}

Status Sweep::add_parallelism_grid(const std::vector<std::int32_t>& pps,
                                   const std::vector<std::int32_t>& dps) {
  // Delegates to the label overload so both entry points share the same
  // eager validation and run-time semantics.
  const std::int32_t tp = base_.config ? base_.config->tp : 1;
  std::vector<std::string> labels;
  labels.reserve(pps.size() * dps.size());
  for (std::int32_t pp : pps) {
    for (std::int32_t dp : dps) {
      labels.push_back(std::to_string(tp) + "x" + std::to_string(pp) + "x" +
                       std::to_string(dp));
    }
  }
  return add_parallelism_grid(labels);
}

void Sweep::run_unit(std::size_t begin, std::size_t end,
                     std::vector<SweepRow>& rows) const {
  for (std::size_t i = begin; i < end; ++i) {
    rows[i].label = items_[i].label;
    rows[i].scenario = items_[i].scenario;
    rows[i].standalone = items_[i].standalone;
  }
  const Item& item = items_[begin];
  try {
    if (item.standalone) {
      // Full independent pipeline: collect/load, parse, simulate. predict()
      // with no manipulations is the coupled replay of the scenario's own
      // baseline, so deadlocks surface as kDeadlock in this row only.
      Result<Session> session = Session::create(item.scenario);
      if (!session.is_ok()) {
        rows[begin].status = session.status();
        return;
      }
      Result<Prediction> prediction = session->predict();
      if (!prediction.is_ok()) {
        rows[begin].status = prediction.status();
        return;
      }
      rows[begin].prediction = *std::move(prediction);
      return;
    }
    // Session::predict's contract: a what-if carries manipulations only.
    if (Status status = item.scenario.validate_whatif(); !status.is_ok()) {
      rows[begin].status = status;
      return;
    }
    std::vector<const Scenario*> members;
    for (std::size_t i = begin; i < end; ++i) {
      members.push_back(&items_[i].scenario);
    }
    std::vector<Result<Prediction>> predictions =
        predict_dp_family(base_, members);
    for (std::size_t i = begin; i < end; ++i) {
      Result<Prediction>& prediction = predictions[i - begin];
      if (prediction.is_ok()) {
        rows[i].prediction = *std::move(prediction);
      } else {
        rows[i].status = prediction.status();
      }
    }
  } catch (const std::exception& e) {
    // predict_on converts exceptions at the facade boundary already; this
    // is the last-resort belt so a worker thread can never terminate.
    for (std::size_t i = begin; i < end; ++i) {
      rows[i].prediction.reset();
      rows[i].status = internal_error(std::string("sweep variant '") +
                                      items_[i].label + "': " + e.what());
    }
  }
}

Result<SweepReport> Sweep::run(std::size_t workers) {
  if (items_.empty()) {
    return failed_precondition_error(
        "sweep has no variants; call add / add_scenario / "
        "add_parallelism_grid first");
  }
  SweepReport report;
  report.rows.resize(items_.size());

  // Units: a contiguous run of what-ifs of one DP family (dp_family_pp) is
  // one unit, built and compiled once; every other item is a unit of one.
  // `bounds` holds each unit's first item, then items_.size().
  std::vector<std::size_t> bounds;
  std::optional<std::int32_t> previous;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const std::optional<std::int32_t> pp =
        items_[i].standalone ? std::nullopt
                             : dp_family_pp(base_, items_[i].scenario);
    if (!pp || pp != previous) bounds.push_back(i);
    previous = pp;
  }
  bounds.push_back(items_.size());
  const std::size_t units = bounds.size() - 1;

  std::size_t pool_size = workers != 0
                              ? workers
                              : std::thread::hardware_concurrency();
  if (pool_size == 0) pool_size = 1;
  pool_size = std::min(pool_size, units);

  // Each worker claims the next unclaimed unit and writes its own row
  // slots; rows are keyed by submission index, so the gathered report is
  // identical whatever the interleaving — run(1) is the bit-identity
  // reference. Streaming callbacks fire per row in submission order within
  // a unit and in completion order across units, serialized under
  // `stream_mutex` (the documented on_result lock discipline); they never
  // affect the gathered rows.
  std::atomic<std::size_t> next{0};
  Mutex stream_mutex;
  const auto work = [this, &next, &bounds, units, &report, &stream_mutex] {
    for (std::size_t u = next.fetch_add(1, std::memory_order_relaxed);
         u < units; u = next.fetch_add(1, std::memory_order_relaxed)) {
      run_unit(bounds[u], bounds[u + 1], report.rows);
      if (!on_result_) continue;
      MutexLock lock(stream_mutex);
      for (std::size_t i = bounds[u]; i < bounds[u + 1]; ++i) {
        try {
          on_result_(report.rows[i]);
        } catch (...) {
          // The row is already complete; a throwing callback must not
          // escape a worker thread (std::terminate) or the no-throw run()
          // API. Contained, the sweep just keeps going.
        }
      }
    }
  };
  // The calling thread is always worker 0, so the sweep completes even if
  // spawning extra workers fails (std::system_error under thread-resource
  // exhaustion must degrade to a smaller pool, not escape the no-throw API
  // or terminate via joinable-thread destruction).
  std::vector<std::thread> pool;
  pool.reserve(pool_size - 1);
  try {
    for (std::size_t i = 1; i < pool_size; ++i) pool.emplace_back(work);
  } catch (const std::system_error&) {
  }
  work();
  for (std::thread& t : pool) t.join();

  report.ranking.reserve(report.rows.size());
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    if (report.rows[i].ok()) report.ranking.push_back(i);
    if (report.rows[i].prediction &&
        report.rows[i].prediction->used_compiled_replay) {
      ++report.compiled_replays;
    }
  }
  std::stable_sort(report.ranking.begin(), report.ranking.end(),
                   [&report](std::size_t a, std::size_t b) {
                     return report.rows[a].prediction->sim.makespan_ns <
                            report.rows[b].prediction->sim.makespan_ns;
                   });
  return report;
}

namespace {

std::string severity_suffix(double severity) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "@%g", severity);
  return std::string(buf);
}

}  // namespace

Result<FaultReport> Sweep::run_fault_grid(
    const faults::FaultSpec& spec, const std::vector<double>& severities,
    std::size_t workers) const {
  if (spec.empty()) {
    return invalid_argument_error(
        "fault grid needs a non-empty FaultSpec (compose slow_rank / "
        "degrade_link / with_jitter / with_contention / drop_rank first)");
  }
  if (const std::string err = spec.validate(); !err.empty()) {
    return invalid_argument_error("fault spec: " + err);
  }
  if (severities.empty()) {
    return invalid_argument_error("fault grid needs at least one severity");
  }
  for (const double s : severities) {
    if (!std::isfinite(s) || s < 0.0) {
      return invalid_argument_error(
          "fault-grid severities must be finite and >= 0");
    }
  }
  if (base_.graph != nullptr) {
    // Eager lowering probe: a spec naming a rank or collective group the
    // baseline graph does not have fails the whole grid here, once, instead
    // of stamping the same kInvalidArgument into every cell. Severity 0
    // keeps every name but draws no jitter.
    const faults::FaultPlan probe =
        faults::FaultPlan::lower(*base_.graph, spec.scaled(0.0));
    if (!probe.ok()) {
      return invalid_argument_error("fault spec: " + probe.error());
    }
  }

  // The grid is itself a Sweep over the same shared baseline: one
  // fault-free row (the degradation denominator), the full composition at
  // each severity, and — when more than one fault model is composed — each
  // component alone at each severity for per-fault attribution. Riding
  // Sweep::run keeps the worker pool, row keying and per-row isolation
  // semantics in one place.
  Sweep grid(base_, SweepOptions{workers});
  grid.add("baseline", whatif());
  const std::vector<std::pair<std::string, faults::FaultSpec>> components =
      spec.components();
  struct CellMeta {
    std::string label;
    double severity;
  };
  std::vector<CellMeta> cells;  // parallel to grid items 1..N
  for (const double s : severities) {
    grid.add("all" + severity_suffix(s), whatif().with_faults(spec.scaled(s)));
    cells.push_back({"all", s});
    if (components.size() > 1) {
      for (const auto& [label, component] : components) {
        grid.add(label + severity_suffix(s),
                 whatif().with_faults(component.scaled(s)));
        cells.push_back({label, s});
      }
    }
  }

  Result<SweepReport> ran = grid.run(workers);
  if (!ran.is_ok()) return ran.status();
  const SweepRow& baseline = ran->rows.front();
  if (!baseline.ok()) {
    // Without a fault-free makespan there is no degradation denominator;
    // the baseline failing is a property of the sweep, not of any fault.
    return baseline.status;
  }
  FaultReport report;
  report.baseline_makespan_ns = baseline.prediction->sim.makespan_ns;
  const double base_ms = static_cast<double>(report.baseline_makespan_ns);
  report.rows.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepRow& row = ran->rows[i + 1];
    FaultImpactRow out;
    out.label = cells[i].label;
    out.severity = cells[i].severity;
    out.status = row.status;
    if (row.ok()) {
      out.makespan_ns = row.prediction->sim.makespan_ns;
      out.degradation_pct =
          base_ms > 0.0
              ? (static_cast<double>(out.makespan_ns) - base_ms) / base_ms *
                    100.0
              : 0.0;
      out.used_compiled_replay = row.prediction->used_compiled_replay;
    }
    report.rows.push_back(std::move(out));
  }
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    if (report.rows[i].ok()) report.ranking.push_back(i);
  }
  std::stable_sort(report.ranking.begin(), report.ranking.end(),
                   [&report](std::size_t a, std::size_t b) {
                     return report.rows[a].degradation_pct >
                            report.rows[b].degradation_pct;
                   });
  return report;
}

}  // namespace lumos::api
