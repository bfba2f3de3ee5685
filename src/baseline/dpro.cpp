#include "baseline/dpro.h"

#include <vector>

namespace lumos::baseline {

core::ExecutionGraph dpro_graph(const core::ExecutionGraph& graph) {
  // dPRO's global dataflow graph does capture producer/consumer relations
  // of pipeline transfers (a recv's output feeds the next forward), so
  // inter-stream edges touching send/recv kernels survive. What it misses
  // is the cudaEventRecord/cudaStreamWaitEvent choreography ordering
  // overlapped collectives (TP/DP all-reduce) against compute — exactly the
  // paper's diagnosis of its overlap overestimation.
  //
  // dPRO's dataflow graph knows a collective's *inputs* (tensors produced
  // on the compute stream feed the all-reduce), so compute->comm edges and
  // all pipeline-transfer edges survive. What its graph lacks is the
  // event-based ordering from communication back into computation — the
  // comm->compute edges — which is what lets its replay overlap collectives
  // with the downstream compute that really waits for them. Classification
  // comes from the meta table's precomputed flags — no string probes — and
  // the view shares the graph's task columns and meta; only the edge list
  // is filtered.
  const core::TaskMetaTable& meta = graph.meta();
  auto is_p2p = [&](core::TaskId id) {
    return meta.is_collective_kernel(id) && meta.is_p2p(id);
  };
  std::vector<core::Edge> kept;
  kept.reserve(graph.edges().size());
  for (const core::Edge& e : graph.edges()) {
    const bool missed_by_dpro = e.type == core::DepType::InterStream &&
                                meta.is_collective_kernel(e.src) &&
                                !is_p2p(e.src) && !is_p2p(e.dst);
    if (!missed_by_dpro) kept.push_back(e);
  }
  return graph.with_edges(std::move(kept));
}

core::SimResult replay_dpro(const core::ExecutionGraph& graph) {
  // dPRO also builds a global (cross-worker) dataflow graph, so collective
  // coupling stays on; only the inter-stream dependencies are lost.
  return core::replay(dpro_graph(graph));
}

}  // namespace lumos::baseline
