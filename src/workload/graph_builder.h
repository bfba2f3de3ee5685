// IterationGraphBuilder: constructs the multi-rank execution graph of one
// training iteration of a Megatron-style 3D-parallel GPT model.
//
// The builder materializes one data-parallel replica explicitly (tp*pp
// ranks, using the real global rank numbering so node placement is
// faithful); data-parallel collectives carry their full group size for
// costing. Each rank gets:
//   - a main CPU thread (forward passes, pipeline p2p, optimizer) and an
//     autograd CPU thread (backward passes, DP-bucket reducer hooks),
//   - a compute stream, a tensor-parallel NCCL stream, a data-parallel NCCL
//     stream, and separate pipeline send / recv streams,
//   - cudaEventRecord / cudaStreamWaitEvent pairs expressing every
//     compute<->communication ordering, exactly the inter-stream artifacts
//     Lumos's dependency inference must recover from traces (paper §3.3.2).
//
// Durations come from a DurationProvider: analytical cost model for
// ground-truth graphs, profiled-trace templates for manipulated graphs.
// The same builder therefore implements both the synthetic cluster and the
// paper's graph-manipulation procedure (§3.4).
#pragma once

#include <cstdint>
#include <vector>

#include "core/execution_graph.h"
#include "workload/duration_provider.h"
#include "workload/model_spec.h"
#include "workload/parallelism.h"
#include "workload/schedule.h"

namespace lumos::workload {

/// Well-known lanes, shared by builder, tests and analysis.
namespace lanes {
constexpr std::int32_t kMainThread = 100;
constexpr std::int32_t kAutogradThread = 101;
constexpr std::int64_t kComputeStream = 7;
constexpr std::int64_t kTpStream = 13;
constexpr std::int64_t kDpStream = 17;
constexpr std::int64_t kPpSendStream = 21;
constexpr std::int64_t kPpRecvStream = 22;
}  // namespace lanes

struct BuildOptions {
  SchedulePolicy policy = SchedulePolicy::OneFOneB;
  /// Transformer layers per data-parallel gradient bucket (Megatron DDP
  /// buckets gradients and all-reduces them as backward produces them).
  std::int32_t bucket_layers = 6;
};

/// A built job: the graph plus the configuration that produced it.
struct BuiltJob {
  core::ExecutionGraph graph;
  ModelSpec model;
  ParallelConfig config;
  BuildOptions options;
  /// One task-duration column per sibling DP degree the build priced, in
  /// the order asked for (see IterationGraphBuilder). Empty for a family of
  /// one.
  std::vector<std::vector<std::int64_t>> sibling_durations;
};

/// A DP family is a set of configs that differ only in dp. DP degree
/// changes only communication pricing (DP bucket and grad-norm group sizes,
/// and through the global rank the node placement of every communicator),
/// so the family's graphs share edges, `ts`, lanes and rendezvous groups
/// and differ only in their duration and rank columns. One walk builds the
/// leader's graph and describes every communication kernel once per
/// sibling degree, pricing it where the description differs from the
/// leader's; a family of one (no siblings) is the plain build.
class IterationGraphBuilder {
 public:
  IterationGraphBuilder(ModelSpec model, ParallelConfig config,
                        DurationProvider& provider, BuildOptions options = {},
                        std::vector<std::int32_t> sibling_dps = {});

  /// Builds the iteration graph at `config`, plus one duration column per
  /// sibling DP degree in BuiltJob::sibling_durations — each equal to the
  /// duration column of a standalone build at that dp, given a provider
  /// whose durations are a function of the descriptor (both here are). Throws
  /// std::invalid_argument if the config, or a sibling's, does not
  /// validate against the model.
  BuiltJob build();

 private:
  ModelSpec model_;
  ParallelConfig config_;
  DurationProvider& provider_;
  BuildOptions options_;
  std::vector<std::int32_t> sibling_dps_;
};

}  // namespace lumos::workload
