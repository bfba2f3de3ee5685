#include "core/template_provider.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace lumos::core {

using workload::Block;
using workload::kBlockNames;
using workload::kOpNames;
using workload::kPhaseNames;
using workload::OpName;
using workload::Phase;

TemplateProvider::TemplateProvider(const ExecutionGraph& profiled,
                                   workload::ModelSpec base_model,
                                   workload::ParallelConfig base_config,
                                   const cost::KernelPerfModel& kernel_model)
    : base_model_(std::move(base_model)),
      base_config_(base_config),
      kernel_model_(kernel_model),
      fallback_(kernel_model) {
  extract(profiled);
}

std::size_t TemplateProvider::slot_index(Block block, Phase phase,
                                         OpName name) {
  return (static_cast<std::size_t>(block) * kPhaseNames.size() +
          static_cast<std::size_t>(phase)) *
             kOpNames.size() +
         name.index;
}

void TemplateProvider::extract(const ExecutionGraph& profiled) {
  // Profiled collective kernel durations include peer-wait skew (early
  // members spin until the last rank arrives). Within one rendezvous
  // instance the *minimum* member duration is the last arrival's — pure
  // transfer plus real fabric contention, no skew. Use that value for
  // every member so the template averages transfer+contention across
  // instances while the coupled simulator re-derives the waits. The meta
  // table already materializes the rendezvous groups, so this is one pass
  // over dense member lists.
  const TaskMetaTable& meta = profiled.meta();
  std::vector<std::int64_t> group_min(meta.collective_groups().size());
  for (std::size_t g = 0; g < meta.collective_groups().size(); ++g) {
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    for (TaskId member : meta.collective_groups()[g].members) {
      lo = std::min(lo, meta.duration_ns(member));
    }
    group_min[g] = lo;
  }

  // Each distinct profiled string maps into the vocabulary once; strings
  // the builder never emits map to -1 and their tasks are never looked up.
  const trace::StringPool& names = profiled.pools()->names;
  std::vector<std::int32_t> op_of(names.size()), block_of(names.size()),
      phase_of(names.size());
  auto index_of = [](const auto& vocabulary, std::string_view text) {
    const auto it = std::find(vocabulary.begin(), vocabulary.end(), text);
    return it == vocabulary.end() ? -1 : static_cast<std::int32_t>(
                                             it - vocabulary.begin());
  };
  for (std::uint32_t id = 0; id < names.size(); ++id) {
    const std::string_view text = names.view(id);
    op_of[id] = index_of(kOpNames, text);
    block_of[id] = index_of(kBlockNames, text);
    phase_of[id] = index_of(kPhaseNames, text);
  }
  auto lookup = [](const std::vector<std::int32_t>& table, trace::NameId id) {
    return id.valid() ? table[id.index] : -1;
  };

  cpu_slots_.assign(kBlockNames.size() * kPhaseNames.size() * kOpNames.size(),
                    {});
  kernel_slots_.assign(cpu_slots_.size(), {});
  const TaskColumns& tasks = profiled.columns();
  const trace::EventTable& ev = tasks.events;
  // Within-block ordinal counters per block instance of one rank, keyed
  // by (rank index, block, phase, layer + 1, microbatch + 1) packed into 64
  // bits; instances outside the builder's small layer/microbatch range are
  // never looked up and are skipped.
  std::unordered_map<std::uint64_t, std::pair<std::int32_t, std::int32_t>>
      counters;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::int32_t block = lookup(block_of, ev.block_id(i));
    const std::int32_t phase = lookup(phase_of, ev.phase_id(i));
    // Unsigned +1: -1 maps to 0, and no column value can overflow.
    const std::uint32_t layer = static_cast<std::uint32_t>(ev.layer(i)) + 1u;
    const std::uint32_t microbatch =
        static_cast<std::uint32_t>(ev.microbatch(i)) + 1u;
    if (block < 0 || phase < 0 || layer >= (1u << 20) ||
        microbatch >= (1u << 20)) {
      continue;
    }
    const auto rank = static_cast<std::uint64_t>(
        meta.lanes().rank_index(meta.lane(static_cast<TaskId>(i))));
    const std::uint64_t inst =
        rank << 45 |
        static_cast<std::uint64_t>(block * std::ssize(kPhaseNames) + phase)
            << 40 |
        std::uint64_t{layer} << 20 | microbatch;
    auto& [cpu_ordinal, kernel_ordinal] = counters[inst];
    const bool gpu = tasks.gpu[i] != 0;
    const std::int32_t ordinal = gpu ? kernel_ordinal++ : cpu_ordinal++;
    const std::int32_t name = lookup(op_of, ev.name_id(i));
    if (name < 0) continue;

    Slot& slot = (gpu ? kernel_slots_ : cpu_slots_)[slot_index(
        static_cast<Block>(block), static_cast<Phase>(phase),
        OpName{static_cast<std::uint8_t>(name)})];
    if (slot.size() <= static_cast<std::size_t>(ordinal)) {
      slot.resize(static_cast<std::size_t>(ordinal) + 1);
    }
    Stats& stats = slot[static_cast<std::size_t>(ordinal)];
    std::int64_t dur = ev.dur_ns(i);
    if (const std::int32_t g = meta.group_index(static_cast<TaskId>(i));
        g >= 0) {
      dur = group_min[static_cast<std::size_t>(g)];
    }
    if (stats.count == 0) {
      ++(gpu ? kernel_keys_ : cpu_keys_);
      stats.min_ns = dur;
      stats.gemm = ev.gemm(i);
      stats.bytes_moved = ev.bytes_moved(i);
      stats.collective = ev.collective_op(i).valid();
      if (stats.collective) {
        stats.collective_bytes = ev.collective_bytes(i);
        stats.collective_group_size = ev.collective_group_size(i);
        stats.placement = base_placement(ev.collective_group_view(i));
      }
    }
    stats.total_ns += dur;
    stats.min_ns = std::min(stats.min_ns, dur);
    ++stats.count;
  }
}

const TemplateProvider::Stats* TemplateProvider::find(
    const std::vector<Slot>& slots, Block block, Phase phase, OpName name,
    std::int32_t ordinal) const {
  const Slot& slot = slots[slot_index(block, phase, name)];
  const auto o = static_cast<std::size_t>(ordinal);
  return o < slot.size() && slot[o].count > 0 ? &slot[o] : nullptr;
}

cost::CommPlacement TemplateProvider::base_placement(
    std::string_view group) const {
  workload::Placement placement(base_config_);
  // Any member rank of the right kind of group yields the same placement;
  // rank 0 belongs to a tp/dp group and stage-0 pp links.
  if (group.starts_with("tp_")) return placement.tp_placement(0);
  if (group.starts_with("dp_")) return placement.dp_placement(0);
  if (group.starts_with("pp_")) return placement.pp_placement(0);
  // Model-parallel (grad-norm) group: tp*pp ranks spread over the replica.
  cost::CommPlacement p;
  p.group_size = base_config_.tp * base_config_.pp;
  p.nodes_spanned = std::max<std::int32_t>(
      1, base_config_.world_size() / base_config_.gpus_per_node);
  return p;
}

std::int64_t TemplateProvider::cpu_ns(const workload::CpuOpDesc& desc) {
  const Stats* stats =
      find(cpu_slots_, desc.block, desc.phase, desc.name, desc.ordinal);
  if (stats == nullptr) {
    ++fallbacks_;
    return fallback_.cpu_ns(desc);
  }
  return stats->mean_ns();
}

std::int64_t TemplateProvider::kernel_ns(const workload::KernelDesc& desc) {
  const Stats* found =
      find(kernel_slots_, desc.block, desc.phase, desc.name, desc.ordinal);
  if (found == nullptr) {
    ++fallbacks_;
    return fallback_.kernel_ns(desc);
  }
  const Stats& stats = *found;

  // `base` scaled by the cost-model ratio new/old (kept when old <= 0).
  const auto scaled = [](std::int64_t base, std::int64_t new_cost,
                         std::int64_t old_cost) {
    if (old_cost <= 0) return base;
    return static_cast<std::int64_t>(static_cast<double>(base) *
                                     static_cast<double>(new_cost) /
                                     static_cast<double>(old_cost));
  };

  if (desc.collective) {
    // Extraction already reduced collective durations to per-instance
    // minima (transfer + contention, no peer-wait skew); average across
    // instances and scale by the collective-model ratio when the
    // communicator or payload changed.
    const workload::CollectiveDesc& c = *desc.collective;
    if (!stats.collective || (stats.collective_bytes == c.bytes &&
                              stats.collective_group_size == c.group_size)) {
      return stats.mean_ns();
    }
    return scaled(stats.mean_ns(),
                  kernel_model_.collective_ns(c.kind, c.bytes, c.placement),
                  kernel_model_.collective_ns(c.kind, stats.collective_bytes,
                                              stats.placement));
  }

  if (desc.gemm.valid() && stats.gemm.valid()) {
    if (desc.gemm == stats.gemm) return stats.mean_ns();
    return scaled(stats.mean_ns(), kernel_model_.gemm_ns(desc.gemm),
                  kernel_model_.gemm_ns(stats.gemm));
  }

  if (desc.is_attention()) {
    // Reconstruct the base run's attention dims from the base model/config.
    const std::int64_t base_heads = base_model_.num_heads / base_config_.tp;
    const bool backward = desc.phase == Phase::Backward;
    const auto attn = [&](std::int64_t batch, std::int64_t heads,
                          std::int64_t seq, std::int64_t hd) {
      return backward
                 ? kernel_model_.attention_backward_ns(batch, heads, seq, hd)
                 : kernel_model_.attention_forward_ns(batch, heads, seq, hd);
    };
    const double old_cost = static_cast<double>(
        attn(base_config_.microbatch_size, base_heads, base_model_.seq_len,
             base_model_.head_dim));
    const double new_cost = static_cast<double>(
        attn(desc.attn_batch, desc.attn_heads, desc.attn_seq,
             desc.attn_head_dim));
    double base = static_cast<double>(stats.mean_ns());
    if (old_cost > 0 && new_cost != old_cost) base *= new_cost / old_cost;
    return static_cast<std::int64_t>(base);
  }

  // Memory-bound kernels are re-costed when their bytes change too (the
  // paper only re-costs GEMM and communication).
  if (desc.elementwise_bytes > 0 && stats.bytes_moved > 0 &&
      stats.bytes_moved != desc.elementwise_bytes) {
    return scaled(stats.mean_ns(),
                  kernel_model_.memory_bound_ns(desc.elementwise_bytes),
                  kernel_model_.memory_bound_ns(stats.bytes_moved));
  }
  return stats.mean_ns();
}

}  // namespace lumos::core
