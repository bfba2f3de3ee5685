#include "analysis/breakdown.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/interval_merge.h"

namespace lumos::analysis {

namespace {

/// Intersection length of two sorted-merged interval sets.
std::int64_t intersection_ns(const std::vector<Interval>& a,
                             const std::vector<Interval>& b) {
  std::int64_t total = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].first, b[j].first);
    const std::int64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

/// One rank's breakdown from its raw compute/comm interval sets over a
/// window of `span_ns` — the single definition both the trace-based and the
/// schedule-based overloads share, so they stay bit-identical by
/// construction. The sort-then-sweep lives in the shared merge_intervals
/// kernel.
Breakdown assemble(std::vector<Interval> compute, std::vector<Interval> comm,
                   std::int64_t span_ns) {
  const std::int64_t compute_len = merge_intervals(compute);
  const std::int64_t comm_len = merge_intervals(comm);
  Breakdown b;
  b.overlapped_ns = intersection_ns(compute, comm);
  b.exposed_compute_ns = compute_len - b.overlapped_ns;
  b.exposed_comm_ns = comm_len - b.overlapped_ns;
  const std::int64_t busy =
      compute_len + comm_len - b.overlapped_ns;  // |C ∪ M|
  b.other_ns = span_ns - busy;
  return b;
}

/// Field-wise mean of per-rank breakdowns. The sums run in 128 bits: many
/// ranks over a long window can overflow int64, while their mean cannot.
/// Truncating division, exactly as Breakdown::operator/ divides.
class RankMean {
 public:
  void add(const Breakdown& b) {
    compute_ += b.exposed_compute_ns;
    overlapped_ += b.overlapped_ns;
    comm_ += b.exposed_comm_ns;
    other_ += b.other_ns;
    ++count_;
  }
  Breakdown mean() const {
    return {static_cast<std::int64_t>(compute_ / count_),
            static_cast<std::int64_t>(overlapped_ / count_),
            static_cast<std::int64_t>(comm_ / count_),
            static_cast<std::int64_t>(other_ / count_)};
  }

 private:
  __int128 compute_ = 0, overlapped_ = 0, comm_ = 0, other_ = 0;
  std::int64_t count_ = 0;
};

}  // namespace

Breakdown& Breakdown::operator+=(const Breakdown& o) {
  exposed_compute_ns += o.exposed_compute_ns;
  overlapped_ns += o.overlapped_ns;
  exposed_comm_ns += o.exposed_comm_ns;
  other_ns += o.other_ns;
  return *this;
}

Breakdown Breakdown::operator/(std::int64_t divisor) const {
  return {exposed_compute_ns / divisor, overlapped_ns / divisor,
          exposed_comm_ns / divisor, other_ns / divisor};
}

std::string Breakdown::to_string() const {
  std::ostringstream out;
  out << "compute=" << exposed_compute_ns / 1e6
      << "ms overlapped=" << overlapped_ns / 1e6
      << "ms comm=" << exposed_comm_ns / 1e6 << "ms other=" << other_ns / 1e6
      << "ms total=" << total_ns() / 1e6 << "ms";
  return out.str();
}

Breakdown compute_breakdown(const trace::RankTrace& rank,
                            std::int64_t begin_ns, std::int64_t end_ns) {
  if (begin_ns == 0 && end_ns == 0) {
    begin_ns = rank.begin_ns();
    end_ns = rank.end_ns();
  }
  const trace::EventTable& t = rank.events;
  std::vector<Interval> compute;
  std::vector<Interval> comm;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t.is_gpu(i)) continue;
    const std::int64_t lo = std::clamp(t.ts_ns(i), begin_ns, end_ns);
    const std::int64_t hi = std::clamp(t.end_ns(i), begin_ns, end_ns);
    if (lo >= hi) continue;
    (t.collective_op(i).valid() ? comm : compute).emplace_back(lo, hi);
  }
  return assemble(std::move(compute), std::move(comm), end_ns - begin_ns);
}

Breakdown compute_breakdown(const trace::ClusterTrace& trace) {
  if (trace.ranks.empty()) return {};
  // Use the global iteration window for every rank so per-rank idle tails
  // (pipeline bubbles) are attributed to "other" consistently.
  std::int64_t begin = trace.ranks.front().begin_ns();
  std::int64_t end = trace.ranks.front().end_ns();
  for (const trace::RankTrace& r : trace.ranks) {
    begin = std::min(begin, r.begin_ns());
    end = std::max(end, r.end_ns());
  }
  RankMean sum;
  for (const trace::RankTrace& r : trace.ranks) {
    sum.add(compute_breakdown(r, begin, end));
  }
  return sum.mean();
}

Breakdown compute_breakdown(const core::ExecutionGraph& graph,
                            const core::SimResult& result) {
  const std::size_t n = graph.size();
  if (n == 0) return {};
  const core::TaskMetaTable& meta = graph.meta();

  // Global iteration window over every task, mirroring the min-begin /
  // max-end the trace-based overload derives from the materialized events.
  std::int64_t begin = result.start_ns[0];
  std::int64_t end = result.end_ns[0];
  for (std::size_t i = 1; i < n; ++i) {
    begin = std::min(begin, result.start_ns[i]);
    end = std::max(end, result.end_ns[i]);
  }

  // Device-activity intervals bucketed by dense rank index, comm vs compute
  // straight from the meta columns.
  const std::size_t ranks = meta.lanes().rank_count();
  std::vector<std::vector<Interval>> compute(ranks), comm(ranks);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<core::TaskId>(i);
    if (!meta.is_device_activity(id)) continue;
    const std::int64_t lo = std::clamp(result.start_ns[i], begin, end);
    const std::int64_t hi = std::clamp(result.end_ns[i], begin, end);
    if (lo >= hi) continue;
    const auto r = static_cast<std::size_t>(
        meta.lanes().rank_index(meta.lane(id)));
    (meta.collective_op(id).valid() ? comm : compute)[r].emplace_back(lo, hi);
  }

  RankMean sum;
  for (std::size_t r = 0; r < ranks; ++r) {
    sum.add(assemble(std::move(compute[r]), std::move(comm[r]), end - begin));
  }
  return sum.mean();
}

}  // namespace lumos::analysis
