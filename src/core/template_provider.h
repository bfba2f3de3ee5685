// TemplateProvider: a DurationProvider backed by a profiled execution
// graph — the duration oracle behind graph manipulation (paper §3.4, §4.3).
//
// Extraction groups profiled tasks by semantic key
//   (block, phase, name, ordinal-within-block-instance)
// aggregated across ranks, layers and micro-batches. Lookup rules:
//   - CPU ops and unchanged kernels: mean profiled duration ("we duplicate
//     the layers and corresponding tasks from the existing trace").
//   - GEMM kernels whose shape changed: mean duration scaled by the cost
//     model ratio cost(new shape)/cost(profiled shape) — trace-calibrated
//     analytical scaling, the paper's "update execution times using the
//     in-house performance model".
//   - Attention kernels: same ratio scaling using the base model's
//     attention dimensions.
//   - Collective kernels: *minimum* profiled duration (profiled collective
//     durations include peer-wait skew; the minimum approximates pure
//     transfer, and the coupled simulator re-derives waits), scaled by the
//     collective-model ratio when bytes / group size / placement changed.
//   - Memory-bound kernels: scaled by bytes_moved ratio (input dims are
//     visible in real traces) — can be disabled to exactly match the
//     paper's "GEMM and communication only" policy.
//   - Keys absent from the profile (e.g. pipeline send/recv when the base
//     run had pp=1): analytical cost model fallback.
//
// Keys are dense: (block, phase, name) are indexes into the builder's
// vocabulary (workload/duration_provider.h), so extraction is one pass over
// the profiled graph's id columns — each distinct profiled string is mapped
// to the vocabulary once — and a lookup is two vector indexings.
#pragma once

#include <cstdint>
#include <vector>

#include "core/execution_graph.h"
#include "costmodel/kernel_model.h"
#include "workload/analytical_provider.h"
#include "workload/duration_provider.h"
#include "workload/parallelism.h"

namespace lumos::core {

class TemplateProvider : public workload::DurationProvider {
 public:
  /// `profiled` is a parsed (or built) graph of the base configuration;
  /// `base_model`/`base_config` describe the run that produced it.
  TemplateProvider(const ExecutionGraph& profiled,
                   workload::ModelSpec base_model,
                   workload::ParallelConfig base_config,
                   const cost::KernelPerfModel& kernel_model);

  std::int64_t cpu_ns(const workload::CpuOpDesc& desc) override;
  std::int64_t kernel_ns(const workload::KernelDesc& desc) override;

  /// Number of distinct template keys extracted (for tests/diagnostics).
  std::size_t num_cpu_keys() const { return cpu_keys_; }
  std::size_t num_kernel_keys() const { return kernel_keys_; }
  /// Count of lookups that fell back to the analytical model.
  std::size_t fallback_count() const { return fallbacks_; }

 private:
  struct Stats {
    std::int64_t total_ns = 0;
    std::int64_t min_ns = 0;
    std::int64_t count = 0;
    // The first occurrence's cost-relevant payload (ratio-scaling base).
    trace::GemmShape gemm;
    std::int64_t bytes_moved = 0;
    bool collective = false;
    std::int64_t collective_bytes = 0;
    std::int32_t collective_group_size = 0;
    cost::CommPlacement placement;  ///< old-topology placement of the group

    std::int64_t mean_ns() const { return count > 0 ? total_ns / count : 0; }
  };

  /// Templates of one (block, phase, name) slot, indexed by ordinal; a
  /// Stats with count 0 marks an ordinal the profile never showed.
  using Slot = std::vector<Stats>;

  void extract(const ExecutionGraph& profiled);
  static std::size_t slot_index(workload::Block block, workload::Phase phase,
                                workload::OpName name);
  const Stats* find(const std::vector<Slot>& slots, workload::Block block,
                    workload::Phase phase, workload::OpName name,
                    std::int32_t ordinal) const;
  /// Old-topology placement for a collective, inferred from its group-name
  /// prefix ("tp_", "dp_", "pp_", "mp_").
  cost::CommPlacement base_placement(std::string_view group) const;

  workload::ModelSpec base_model_;
  workload::ParallelConfig base_config_;
  const cost::KernelPerfModel& kernel_model_;
  workload::AnalyticalProvider fallback_;  ///< for keys absent in the profile

  std::vector<Slot> cpu_slots_;
  std::vector<Slot> kernel_slots_;
  std::size_t cpu_keys_ = 0;
  std::size_t kernel_keys_ = 0;
  std::size_t fallbacks_ = 0;
};

}  // namespace lumos::core
