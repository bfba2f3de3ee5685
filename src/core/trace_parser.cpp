#include "core/trace_parser.h"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

namespace lumos::core {

namespace {

/// CPU tasks sorted by end time, for inter-thread gap attribution.
struct EndIndexEntry {
  std::int64_t end_ns;
  TaskId id;
  std::int32_t tid;
};

/// Pools for the parsed graph: the trace's own pools when every rank shares
/// one TracePools instance (the one-pool-per-trace rule all producers
/// follow), so the graph's event rows are a pure column gather and its ids
/// coincide with the trace's. Hand-assembled traces with per-rank pools get
/// fresh pools the rows are re-interned into — never a pool another rank's
/// readers may be using.
std::shared_ptr<trace::TracePools> shared_cluster_pools(
    const trace::ClusterTrace& trace) {
  if (trace.ranks.empty()) return nullptr;
  const std::shared_ptr<trace::TracePools>& pools =
      trace.ranks.front().events.pools();
  for (const trace::RankTrace& rank : trace.ranks) {
    if (rank.events.pools() != pools) return nullptr;
  }
  return pools;
}

}  // namespace

ExecutionGraph TraceParser::parse(const trace::RankTrace& trace) const {
  // The graph shares the trace's pools: strings interned at JSON ingest are
  // neither re-stored nor re-interned. Classification runs now, at parse
  // time, so the graph is published complete.
  ExecutionGraph graph(trace.events.pools());
  graph.reserve(trace.events.size(), 2 * trace.events.size());
  parse_rank_into(trace, graph);
  graph.finalize();
  return graph;
}

ExecutionGraph TraceParser::parse(const trace::ClusterTrace& trace) const {
  ExecutionGraph graph(shared_cluster_pools(trace));
  graph.reserve(trace.total_events(), 2 * trace.total_events());
  for (const trace::RankTrace& rank : trace.ranks) {
    parse_rank_into(rank, graph);
  }
  graph.finalize();
  return graph;
}

void TraceParser::parse_rank_into(const trace::RankTrace& trace,
                                  ExecutionGraph& graph) const {
  const trace::EventTable& t = trace.events;

  // 1. Gather the events into task rows in timestamp order; ids then encode
  //    launch order, the invariant the simulator's runtime-dependency rules
  //    need. Everything below reads only table columns.
  std::vector<std::uint32_t> ordered;
  ordered.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.category(i) == trace::EventCategory::UserAnnotation) continue;
    ordered.push_back(static_cast<std::uint32_t>(i));
  }
  auto by_time = [&t](std::uint32_t a, std::uint32_t b) {
    if (t.ts_ns(a) != t.ts_ns(b)) return t.ts_ns(a) < t.ts_ns(b);
    return t.tid(a) < t.tid(b);
  };
  // Traces usually arrive in canonical (ts, tid) order already.
  if (!std::is_sorted(ordered.begin(), ordered.end(), by_time)) {
    std::stable_sort(ordered.begin(), ordered.end(), by_time);
  }

  // Task j of this rank is graph row first + j; the passes below read the
  // graph's own columns. Blocking CUDA APIs get their duration clamped —
  // the value the row carries and every pass uses for end times.
  const auto first = static_cast<TaskId>(graph.size());
  graph.append_events(t, ordered);
  for (std::size_t j = 0; j < ordered.size(); ++j) {
    const std::uint32_t i = ordered[j];
    if (trace::blocks_cpu(t.cuda_api(i)) &&
        t.dur_ns(i) > options_.sync_duration_clamp_ns) {
      graph.set_duration_ns(first + static_cast<TaskId>(j),
                            options_.sync_duration_clamp_ns);
    }
  }
  const trace::EventTable& g = graph.events();
  const auto end = static_cast<TaskId>(graph.size());
  auto row = [](TaskId id) { return static_cast<std::size_t>(id); };

  // 2. Intra-thread / intra-stream program order.
  std::map<std::int32_t, TaskId> last_cpu;
  std::map<std::int64_t, TaskId> last_gpu;
  for (TaskId id = first; id < end; ++id) {
    const std::size_t k = row(id);
    if (g.is_gpu(k)) {
      const auto stream = static_cast<std::int64_t>(g.tid(k));
      if (auto it = last_gpu.find(stream); it != last_gpu.end()) {
        graph.add_edge(it->second, id, DepType::IntraStream);
      }
      last_gpu[stream] = id;
    } else {
      const std::int32_t tid = g.tid(k);
      if (auto it = last_cpu.find(tid); it != last_cpu.end()) {
        graph.add_edge(it->second, id, DepType::IntraThread);
      }
      last_cpu[tid] = id;
    }
  }

  // 3. CPU→GPU launch edges by correlation id. Both sides sort by
  //    (correlation, id), so the last entry of a correlation's run is its
  //    latest launch / device activity.
  std::vector<std::pair<std::int64_t, TaskId>> launches, kernels;
  for (TaskId id = first; id < end; ++id) {
    const std::size_t k = row(id);
    if (g.correlation(k) < 0) continue;
    if (g.is_gpu(k)) {
      kernels.push_back({g.correlation(k), id});
    } else if (trace::launches_device_work(g.cuda_api(k))) {
      launches.push_back({g.correlation(k), id});
    }
  }
  auto latest = [](const std::vector<std::pair<std::int64_t, TaskId>>& v,
                   std::int64_t corr) {
    const std::pair key{corr, std::numeric_limits<TaskId>::max()};
    auto it = std::upper_bound(v.begin(), v.end(), key);
    return it != v.begin() && (--it)->first == corr ? it->second
                                                    : kInvalidTask;
  };
  std::sort(launches.begin(), launches.end());
  for (const auto& [corr, id] : kernels) {
    if (const TaskId launch = latest(launches, corr); launch != kInvalidTask) {
      graph.add_edge(launch, id, DepType::CpuToGpu);
    }
  }
  std::sort(kernels.begin(), kernels.end());

  // 4. GPU→GPU inter-stream edges from cudaEventRecord/cudaStreamWaitEvent
  //    pairs. Replaying the CPU event stream in time order reconstructs
  //    "last kernel launched to the recorded stream before the record" and
  //    "first kernel launched to the waiting stream after the wait".
  if (options_.infer_interstream) {
    std::map<std::int64_t, TaskId> last_launched_kernel;  // per stream
    std::map<std::int64_t, TaskId> record_point;          // per cuda event
    std::map<std::int64_t, std::vector<TaskId>> pending_waits;  // per stream
    for (TaskId id = first; id < end; ++id) {
      const std::size_t k = row(id);
      if (g.is_gpu(k)) continue;
      switch (g.cuda_api(k)) {
        case trace::CudaApi::LaunchKernel:
        case trace::CudaApi::MemcpyAsync:
        case trace::CudaApi::MemsetAsync: {
          const TaskId kernel_id = latest(kernels, g.correlation(k));
          if (kernel_id == kInvalidTask) break;
          const std::int64_t stream = g.stream(k);
          if (auto pit = pending_waits.find(stream);
              pit != pending_waits.end()) {
            for (TaskId src : pit->second) {
              if (src != kernel_id) {
                graph.add_edge(src, kernel_id, DepType::InterStream);
              }
            }
            pending_waits.erase(pit);
          }
          last_launched_kernel[stream] = kernel_id;
          break;
        }
        case trace::CudaApi::EventRecord: {
          auto lit = last_launched_kernel.find(g.stream(k));
          record_point[g.cuda_event(k)] =
              lit != last_launched_kernel.end() ? lit->second : kInvalidTask;
          break;
        }
        case trace::CudaApi::StreamWaitEvent: {
          auto rit = record_point.find(g.cuda_event(k));
          if (rit != record_point.end() && rit->second != kInvalidTask) {
            pending_waits[g.stream(k)].push_back(rit->second);
          }
          break;
        }
        default:
          break;
      }
    }
  }

  // 5. CPU→CPU inter-thread dependencies from unexplained gaps: when a
  //    thread resumes after a gap, attribute the wake-up to the latest CPU
  //    task on another thread that ended at or before the resume point.
  if (options_.infer_interthread) {
    std::vector<EndIndexEntry> by_end;
    std::map<std::int32_t, std::vector<TaskId>> per_thread;
    for (TaskId id = first; id < end; ++id) {
      const std::size_t k = row(id);
      if (g.is_gpu(k)) continue;
      by_end.push_back({g.end_ns(k), id, g.tid(k)});
      per_thread[g.tid(k)].push_back(id);
    }
    std::sort(by_end.begin(), by_end.end(),
              [](const EndIndexEntry& a, const EndIndexEntry& b) {
                return a.end_ns < b.end_ns;
              });
    for (const auto& [tid, thread_tasks] : per_thread) {
      for (std::size_t pos = 0; pos < thread_tasks.size(); ++pos) {
        const TaskId id = thread_tasks[pos];
        const std::size_t k = row(id);
        // Blocking APIs explain their own gap (GPU→CPU runtime dependency).
        if (trace::blocks_cpu(g.cuda_api(k))) continue;
        const bool first_on_thread = pos == 0;
        std::int64_t prev_end = 0;
        if (!first_on_thread) {
          prev_end = g.end_ns(row(thread_tasks[pos - 1]));
          if (g.ts_ns(k) - prev_end < options_.interthread_gap_ns) {
            continue;
          }
        }
        // Latest entry with end <= b.ts on a different thread, ending
        // after the previous task on this thread (otherwise it adds no
        // ordering information).
        auto it = std::upper_bound(
            by_end.begin(), by_end.end(), g.ts_ns(k),
            [](std::int64_t ts, const EndIndexEntry& e) {
              return ts < e.end_ns;
            });
        TaskId candidate = kInvalidTask;
        while (it != by_end.begin()) {
          --it;
          if (!first_on_thread && it->end_ns <= prev_end) break;
          if (it->tid != tid) {
            candidate = it->id;
            break;
          }
        }
        if (candidate != kInvalidTask) {
          graph.add_edge(candidate, id, DepType::InterThread);
        } else if (first_on_thread) {
          continue;  // thread simply starts first; no dependency
        }
      }
    }
  }
}

}  // namespace lumos::core
