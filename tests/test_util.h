// Shared test helpers: tiny model specs (fast to simulate) and graph
// comparison utilities.
#pragma once

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/execution_graph.h"
#include "workload/model_spec.h"
#include "workload/parallelism.h"

namespace lumos::testutil {

/// A miniature GPT: small enough for sub-second ground-truth simulation,
/// structurally identical to the paper's models.
inline workload::ModelSpec tiny_model() {
  workload::ModelSpec m;
  m.name = "GPT-tiny";
  m.num_layers = 8;
  m.d_model = 1024;
  m.d_ff = 4096;
  m.num_heads = 8;
  m.head_dim = 128;
  m.vocab_size = 8192;
  m.seq_len = 512;
  return m;
}

inline workload::ParallelConfig tiny_config(std::int32_t tp = 2,
                                            std::int32_t pp = 2,
                                            std::int32_t dp = 2) {
  workload::ParallelConfig c;
  c.tp = tp;
  c.pp = pp;
  c.dp = dp;
  c.microbatch_size = 1;
  return c;
}

/// Materialized Task views of every task, in id order (the graph stores
/// columns; tests that inspect whole tasks iterate these).
inline std::vector<core::Task> task_views(const core::ExecutionGraph& g) {
  std::vector<core::Task> out;
  out.reserve(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    out.push_back(g.task(static_cast<core::TaskId>(i)));
  }
  return out;
}

/// Identity of a task that is stable across graph reconstructions: the
/// n-th task on a given (rank, gpu, lane) processor.
using LaneKey = std::tuple<std::int32_t, bool, std::int64_t, std::size_t>;

/// Maps each task to its lane-ordinal key.
inline std::map<core::TaskId, LaneKey> lane_keys(
    const core::ExecutionGraph& g) {
  std::map<std::tuple<std::int32_t, bool, std::int64_t>, std::size_t> counts;
  std::map<core::TaskId, LaneKey> out;
  for (const core::Task& t : task_views(g)) {
    auto lane = std::make_tuple(t.processor.rank, t.processor.gpu,
                                t.processor.lane);
    out[t.id] = std::tuple_cat(lane, std::make_tuple(counts[lane]++));
  }
  return out;
}

/// Edge set of a graph expressed in lane-ordinal space, so two graphs of
/// the same execution can be compared even if their task ids differ.
inline std::set<std::pair<LaneKey, LaneKey>> edge_set(
    const core::ExecutionGraph& g, core::DepType type) {
  auto keys = lane_keys(g);
  std::set<std::pair<LaneKey, LaneKey>> out;
  for (const core::Edge& e : g.edges()) {
    if (e.type == type) out.insert({keys.at(e.src), keys.at(e.dst)});
  }
  return out;
}

}  // namespace lumos::testutil
