#include "core/fusion.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

namespace lumos::core {

namespace {

/// A fusible kernel: memory-bound device kernel, neither GEMM nor
/// collective — classified from the meta and event columns.
bool is_fusible(const TaskMetaTable& meta, const trace::EventTable& ev,
                TaskId id) {
  const auto i = static_cast<std::size_t>(id);
  return meta.is_gpu(id) &&
         meta.category(id) == trace::EventCategory::Kernel &&
         ev.bytes_moved(i) > 0 && !ev.collective_op(i).valid() &&
         !ev.gemm(i).valid();
}

/// Same (block, layer, phase, microbatch) instance; pooled ids compare
/// equal exactly when their strings do.
bool same_block(const trace::EventTable& ev, TaskId a, TaskId b) {
  const auto i = static_cast<std::size_t>(a);
  const auto j = static_cast<std::size_t>(b);
  return ev.block_id(i) == ev.block_id(j) && ev.layer(i) == ev.layer(j) &&
         ev.phase_id(i) == ev.phase_id(j) &&
         ev.microbatch(i) == ev.microbatch(j);
}

}  // namespace

FusionResult fuse_elementwise(const ExecutionGraph& graph,
                              const FusionOptions& options) {
  // 1. Walk each GPU lane's tasks in id (launch) order — the meta table
  //    already holds them as dense per-lane lists — and find maximal runs
  //    of fusible kernels.
  const TaskMetaTable& meta = graph.meta();
  const trace::EventTable& ev = graph.events();
  const std::size_t n = graph.size();

  // representative[d] = surviving kernel that absorbs task d.
  std::vector<TaskId> representative(n, kInvalidTask);
  // Extra duration added to each surviving fused kernel; -1 = not a head.
  std::vector<std::int64_t> added_ns(n, -1);
  FusionResult result;

  for (LaneId lane = 0; lane < static_cast<LaneId>(meta.lanes().size());
       ++lane) {
    const std::span<const TaskId> ids = meta.gpu_tasks(lane);
    std::size_t i = 0;
    while (i < ids.size()) {
      if (!is_fusible(meta, ev, ids[i])) {
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < ids.size() && is_fusible(meta, ev, ids[j]) &&
             (!options.require_same_block || same_block(ev, ids[j], ids[i])) &&
             (options.max_run_length == 0 ||
              static_cast<std::int32_t>(j - i) < options.max_run_length)) {
        ++j;
      }
      if (j - i >= 2) {
        const auto head = static_cast<std::size_t>(ids[i]);
        ++result.fused_groups;
        added_ns[head] = 0;
        for (std::size_t k = i + 1; k < j; ++k) {
          representative[static_cast<std::size_t>(ids[k])] = ids[i];
          const std::int64_t dur = meta.duration_ns(ids[k]);
          const std::int64_t contribution =
              std::max<std::int64_t>(0, dur - options.per_kernel_saving_ns);
          added_ns[head] += contribution;
          result.saved_ns += dur - contribution;
          ++result.kernels_eliminated;
        }
      }
      i = j;
    }
  }

  // 2. Rebuild the graph by row copy: survivors keep their relative order
  //    (ids shift), eliminated kernels vanish, fused heads get the absorbed
  //    durations and a "fused_" name, edges re-target their representative.
  std::vector<std::uint32_t> survivors;
  std::vector<TaskId> new_id(n, kInvalidTask);
  for (std::size_t id = 0; id < n; ++id) {
    if (representative[id] != kInvalidTask) continue;
    new_id[id] = static_cast<TaskId>(survivors.size());
    survivors.push_back(static_cast<std::uint32_t>(id));
  }
  ExecutionGraph& out = result.graph;
  out = ExecutionGraph(graph.pools());
  out.reserve(survivors.size(), graph.edges().size());
  out.append_tasks(graph, survivors);
  if (result.fused_groups > 0) {
    // New names are interned into a private copy of the pools: the source
    // pools may be shared with a trace other threads are reading.
    out.detach_pools();
    trace::StringPool& names = out.pools()->names;
    // One fused name per source name id; the last slot serves the empty
    // name (the invalid id).
    const std::size_t unnamed = graph.pools()->names.size();
    std::vector<std::uint32_t> fused_name(unnamed + 1,
                                          trace::NameId::kInvalidIndex);
    for (std::size_t id = 0; id < n; ++id) {
      if (added_ns[id] < 0) continue;
      const TaskId t = new_id[id];
      const auto tid = static_cast<TaskId>(id);
      out.set_duration_ns(t, meta.duration_ns(tid) + added_ns[id]);
      const trace::NameId name = ev.name_id(id);
      std::uint32_t& fused = fused_name[name.valid() ? name.index : unnamed];
      if (fused == trace::NameId::kInvalidIndex) {
        fused = names.intern("fused_" + std::string(ev.name(id)));
      }
      out.set_name(t, {fused});
    }
  }

  // Re-targeted edges, minus collapsed intra-run edges and duplicates: the
  // first occurrence of each (src, dst, type) survives, in edge order.
  auto resolve = [&](TaskId id) {
    const TaskId rep = representative[static_cast<std::size_t>(id)];
    return new_id[static_cast<std::size_t>(rep == kInvalidTask ? id : rep)];
  };
  std::vector<Edge> edges;
  for (const Edge& e : graph.edges()) {
    const Edge r{resolve(e.src), resolve(e.dst), e.type};
    if (r.src != r.dst) edges.push_back(r);
  }
  auto key = [&edges](std::uint32_t i) {
    return std::tuple(edges[i].src, edges[i].dst, edges[i].type);
  };
  std::vector<std::uint32_t> order(edges.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return key(a) < key(b);
                   });
  std::vector<std::uint8_t> keep(edges.size(), 1);
  for (std::size_t k = 1; k < order.size(); ++k) {
    if (key(order[k]) == key(order[k - 1])) keep[order[k]] = 0;
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (keep[i]) out.add_edge(edges[i].src, edges[i].dst, edges[i].type);
  }
  // The fused graph has new ids, durations and names, so it needs its own
  // classification pass before it is simulated.
  out.finalize();
  return result;
}

}  // namespace lumos::core
