// The columnar hot-path data layer: LaneTable + TaskMetaTable.
//
// Every semantic fact the simulator and the graph-level analyses need about
// a task — its category, its CUDA runtime API, which serial lane it runs
// on, its collective rendezvous group, its duration — is derivable from the
// Task's TraceEvent, but deriving it in the replay loop means string parses
// (cuda_api_from_name on every pick), heap-string map keys
// (std::map<Processor, ...>, GroupKey{std::string, ...}) and pointer-chasing
// through 200-byte Tasks. TaskMetaTable performs that classification once,
// when a graph is finalized, into flat structure-of-arrays columns of PODs:
//
//   - LaneTable maps each distinct Processor (one CPU thread or one CUDA
//     stream of one rank) to a dense LaneId, so per-processor simulator
//     state is a vector indexed by lane instead of an ordered map keyed by
//     struct comparison;
//   - event names / collective ops / communicator groups stay the payload's
//     trace::StringPool handles (resolve them back to text only at report
//     boundaries);
//   - runtime-dependency targets (which stream a cudaStreamSynchronize
//     waits on, which EventRecord a cudaEventSynchronize resolves to) are
//     pre-resolved to LaneId / TaskId;
//   - collective rendezvous groups (comm group x instance) are materialized
//     as dense member lists.
//
// The table is owned by ExecutionGraph, built lazily under the same
// double-checked locking discipline as the adjacency index (or eagerly via
// ExecutionGraph::finalize(), which every producer calls; the snapshot
// loader calls meta()), and shared
// across graph copies — it depends only on the task payload, never on the
// edge set. All build-order choices (lane ids, group ids) are
// deterministic functions of the task sequence, so identical graphs yield
// identical tables and api::Sweep's sequential-vs-parallel bit-identity is
// preserved.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/task.h"
#include "io/column.h"
#include "trace/string_pool.h"

namespace lumos::core {

/// Dense index of one serial execution lane (one distinct Processor).
using LaneId = std::int32_t;
constexpr LaneId kInvalidLane = -1;

/// Maps Processors to dense LaneIds and back, with rank and GPU-lane
/// indexes precomputed for the simulator's bookkeeping. Lanes are numbered
/// in first-appearance (task id) order; ranks are numbered in first-
/// appearance order as well.
class LaneTable {
 public:
  /// Lane of `p`, or kInvalidLane when no task runs on it.
  LaneId id_of(const Processor& p) const;

  const Processor& processor(LaneId lane) const {
    return lanes_[static_cast<std::size_t>(lane)];
  }
  std::size_t size() const { return lanes_.size(); }
  bool is_gpu(LaneId lane) const {
    return lanes_[static_cast<std::size_t>(lane)].gpu;
  }

  /// Dense rank index of a lane (0..rank_count()-1).
  std::int32_t rank_index(LaneId lane) const {
    return rank_index_[static_cast<std::size_t>(lane)];
  }
  std::size_t rank_count() const { return rank_values_.size(); }
  /// The actual rank id behind a dense rank index.
  std::int32_t rank_value(std::int32_t rank_index) const {
    return rank_values_[static_cast<std::size_t>(rank_index)];
  }

  /// GPU lanes of one dense rank index, ascending by stream id — the set a
  /// cudaDeviceSynchronize on that rank waits on.
  std::span<const LaneId> gpu_lanes(std::int32_t rank_index) const {
    const auto i = static_cast<std::size_t>(rank_index);
    return {gpu_lane_ids_.data() + gpu_offsets_[i],
            static_cast<std::size_t>(gpu_offsets_[i + 1] - gpu_offsets_[i])};
  }

 private:
  friend class TaskMetaTable;

  std::vector<Processor> lanes_;          ///< by LaneId
  std::vector<std::uint32_t> sorted_;     ///< lane ids sorted by Processor
  std::vector<std::int32_t> rank_index_;  ///< per lane, dense
  std::vector<std::int32_t> rank_values_; ///< dense rank index -> rank id
  std::vector<std::int32_t> gpu_offsets_; ///< CSR over dense rank indices
  std::vector<LaneId> gpu_lane_ids_;
};

/// One collective rendezvous: all coupled kernels of one (communicator
/// group, instance) pair, members in task-id order.
struct CollectiveGroupMeta {
  trace::GroupId group;
  std::int64_t instance = -1;
  std::vector<TaskId> members;
};

class TaskMetaTable {
 public:
  /// Classifies every task once, from id columns only: no string is
  /// interned or compared (p2p ops are recognized by pool lookup). Columns
  /// the payload already holds (category, API, duration, start, name) are
  /// views of it — the table keeps `tasks` alive — and strings resolve in
  /// the payload's own pools. Deterministic: identical payloads produce
  /// identical tables.
  static TaskMetaTable build(std::shared_ptr<const TaskColumns> tasks);

  std::size_t size() const { return lane_.size(); }

  // -- hot-path column accessors (all O(1), no string work) -----------------
  trace::EventCategory category(TaskId id) const {
    return static_cast<trace::EventCategory>(cat_[idx(id)]);
  }
  trace::CudaApi cuda_api(TaskId id) const {
    return static_cast<trace::CudaApi>(api_[idx(id)]);
  }
  LaneId lane(TaskId id) const { return lane_[idx(id)]; }
  std::int64_t duration_ns(TaskId id) const { return dur_[idx(id)]; }
  std::int64_t ts_ns(TaskId id) const { return ts_[idx(id)]; }
  trace::NameId name(TaskId id) const { return {name_[idx(id)]}; }
  trace::OpId collective_op(TaskId id) const { return {coll_op_[idx(id)]}; }
  trace::GroupId collective_group(TaskId id) const {
    return {coll_group_[idx(id)]};
  }
  std::int64_t collective_instance(TaskId id) const {
    return coll_instance_[idx(id)];
  }

  bool is_gpu(TaskId id) const { return (flags_[idx(id)] & kGpu) != 0; }
  /// Category-based device-activity test (Kernel / Memcpy / Memset) — the
  /// same classification trace::TraceEvent::is_gpu() applies to events.
  bool is_device_activity(TaskId id) const {
    const auto cat = static_cast<trace::EventCategory>(cat_[idx(id)]);
    return cat == trace::EventCategory::Kernel ||
           cat == trace::EventCategory::Memcpy ||
           cat == trace::EventCategory::Memset;
  }
  bool is_collective_kernel(TaskId id) const {
    return (flags_[idx(id)] & kCollectiveKernel) != 0;
  }
  /// Collective kernel with a known rendezvous instance — the set the
  /// simulator and the compiled replay couple into rendezvous groups.
  bool is_coupled_collective(TaskId id) const {
    return (flags_[idx(id)] & kCoupled) != 0;
  }
  /// Pipeline point-to-point transfer (op "send"/"recv"): starts at the
  /// rendezvous rather than at its own arrival.
  bool is_p2p(TaskId id) const { return (flags_[idx(id)] & kP2p) != 0; }

  /// Rendezvous group index of a coupled collective, -1 otherwise.
  std::int32_t group_index(TaskId id) const { return group_idx_[idx(id)]; }

  /// Pre-resolved runtime-dependency target: for cudaStreamSynchronize the
  /// lane of the stream it blocks on, for cudaEventSynchronize the lane the
  /// matching cudaEventRecord targeted. kInvalidLane when unresolvable
  /// (unknown stream / no record) — the task then has no runtime blocker.
  LaneId sync_lane(TaskId id) const { return sync_lane_[idx(id)]; }
  /// The "launched before" bound for the sync search: the task's own id for
  /// StreamSynchronize, the EventRecord's id for EventSynchronize.
  TaskId sync_before(TaskId id) const { return sync_before_[idx(id)]; }

  // -- derived tables --------------------------------------------------------
  const LaneTable& lanes() const { return lanes_; }
  /// GPU tasks of one lane in id (= launch) order; empty for CPU lanes.
  std::span<const TaskId> gpu_tasks(LaneId lane) const {
    const auto i = static_cast<std::size_t>(lane);
    return {gpu_task_ids_.data() + gpu_task_offsets_[i],
            static_cast<std::size_t>(gpu_task_offsets_[i + 1] -
                                     gpu_task_offsets_[i])};
  }
  const std::vector<CollectiveGroupMeta>& collective_groups() const {
    return groups_;
  }

  // -- string resolution (report boundaries only) ---------------------------
  const trace::StringPool& names() const { return pools_->names; }
  const trace::StringPool& ops() const { return pools_->ops; }
  const trace::StringPool& groups() const { return pools_->groups; }
  /// The pools backing this table: the graph payload's pools (the trace's
  /// own pools when the graph was parsed from a trace).
  const std::shared_ptr<trace::TracePools>& pools() const { return pools_; }
  /// Text of a pooled id; the invalid id encodes the empty string.
  std::string_view name_view(TaskId id) const {
    return view(pools_->names, name_[idx(id)]);
  }
  std::string_view op_view(trace::OpId id) const {
    return view(pools_->ops, id.index);
  }
  std::string_view group_view(trace::GroupId id) const {
    return view(pools_->groups, id.index);
  }

 private:
  static std::size_t idx(TaskId id) { return static_cast<std::size_t>(id); }
  static std::string_view view(const trace::StringPool& pool,
                               std::uint32_t id) {
    return id == trace::NameId::kInvalidIndex ? std::string_view{}
                                              : pool.view(id);
  }

  enum Flag : std::uint8_t {
    kGpu = 1u << 0,
    kCollectiveKernel = 1u << 1,
    kCoupled = 1u << 2,
    kP2p = 1u << 3,
  };

  // Structure-of-arrays columns, indexed by TaskId. The columns the event
  // table already holds are views of the graph payload (which the table
  // keeps alive); the rest are classified here.
  io::Column<std::uint8_t> cat_;
  io::Column<std::uint8_t> api_;
  io::Column<std::int64_t> dur_;
  io::Column<std::int64_t> ts_;
  io::Column<std::uint32_t> name_;
  std::vector<std::uint8_t> flags_;
  std::vector<LaneId> lane_;
  std::vector<std::uint32_t> coll_op_;
  std::vector<std::uint32_t> coll_group_;
  std::vector<std::int64_t> coll_instance_;
  std::vector<std::int32_t> group_idx_;
  std::vector<LaneId> sync_lane_;
  std::vector<TaskId> sync_before_;

  LaneTable lanes_;
  std::vector<std::int32_t> gpu_task_offsets_;  ///< CSR over lanes
  std::vector<TaskId> gpu_task_ids_;
  std::vector<CollectiveGroupMeta> groups_;

  std::shared_ptr<trace::TracePools> pools_;
};

}  // namespace lumos::core
