#include "core/task_meta.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

namespace lumos::core {

LaneId LaneTable::id_of(const Processor& p) const {
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), p,
                             [this](std::uint32_t lane, const Processor& key) {
                               return lanes_[lane] < key;
                             });
  if (it == sorted_.end() || !(lanes_[*it] == p)) return kInvalidLane;
  return static_cast<LaneId>(*it);
}

namespace {

/// First-appearance lane numbering without hashing: tasks arrive grouped by
/// rank, so each task searches its rank's handful of lanes linearly and a
/// rank switch scans the short rank list.
struct LaneNumbering {
  std::vector<Processor>& lanes;
  std::vector<std::pair<std::int32_t, std::vector<LaneId>>> ranks;
  std::size_t current = 0;

  LaneId operator()(const Processor& p) {
    if (current >= ranks.size() || ranks[current].first != p.rank) {
      current = 0;
      while (current < ranks.size() && ranks[current].first != p.rank) {
        ++current;
      }
      if (current == ranks.size()) ranks.push_back({p.rank, {}});
    }
    std::vector<LaneId>& own = ranks[current].second;
    for (const LaneId l : own) {
      const Processor& q = lanes[static_cast<std::size_t>(l)];
      if (q.gpu == p.gpu && q.lane == p.lane) return l;
    }
    own.push_back(static_cast<LaneId>(lanes.size()));
    lanes.push_back(p);
    return own.back();
  }
};

/// Hash of an (id, 64-bit value) key: (group id, instance) of a rendezvous,
/// (rank, CUDA event id) of an EventRecord.
struct PairHash {
  template <class A>
  std::size_t operator()(const std::pair<A, std::int64_t>& k) const {
    return std::hash<std::int64_t>{}(k.second * 0x9E3779B97F4A7C15LL ^
                                     static_cast<std::int64_t>(k.first));
  }
};

/// A meta column viewing `column` of the payload, which it keeps alive.
template <class T>
io::Column<T> borrow(std::span<const T> column,
                     const std::shared_ptr<const TaskColumns>& payload) {
  return io::Column<T>::borrow(column.data(), column.size(), payload);
}

}  // namespace

TaskMetaTable TaskMetaTable::build(
    std::shared_ptr<const TaskColumns> payload) {
  const TaskColumns& tasks = *payload;
  const trace::EventTable& e = tasks.events;
  TaskMetaTable t;
  t.pools_ = e.pools();
  const std::size_t n = tasks.size();
  // Columns the event table already classifies are views of the payload:
  // category and CUDA API bytes, durations, start times and name ids.
  t.cat_ = borrow(e.category_column(), payload);
  t.api_ = borrow(e.api_column(), payload);
  t.dur_ = borrow(e.dur_column(), payload);
  t.ts_ = borrow(e.ts_column(), payload);
  t.name_ = borrow(e.name_column(), payload);
  t.flags_.assign(n, 0);
  t.lane_.resize(n);
  t.coll_op_.assign(n, trace::OpId::kInvalidIndex);
  t.coll_group_.assign(n, trace::GroupId::kInvalidIndex);
  t.coll_instance_.assign(n, -1);
  t.group_idx_.assign(n, -1);
  t.sync_lane_.assign(n, kInvalidLane);
  t.sync_before_.assign(n, kInvalidTask);

  // Point-to-point ops by id: a lookup, never an intern (the pools may be
  // shared with a trace other threads are reading).
  const std::uint32_t send_op = t.pools_->ops.find("send");
  const std::uint32_t recv_op = t.pools_->ops.find("recv");

  // Pass 1: lanes in first-appearance order, plus per-task classification.
  LaneNumbering lane_of{t.lanes_.lanes_, {}};
  std::unordered_map<std::pair<std::uint32_t, std::int64_t>, std::int32_t,
                     PairHash>
      group_of;
  std::unordered_map<std::pair<std::int32_t, std::int64_t>, TaskId, PairHash>
      record_task;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<TaskId>(i);
    const Processor processor = tasks.processor(i);
    t.lane_[i] = lane_of(processor);
    const trace::CudaApi a = e.cuda_api(i);

    std::uint8_t f = processor.gpu ? kGpu : 0;
    if (const trace::OpId op = e.collective_op(i); op.valid()) {
      const trace::GroupId group = e.collective_group(i);
      const std::int64_t instance = e.collective_instance(i);
      t.coll_op_[i] = op.index;
      t.coll_group_[i] = group.index;
      t.coll_instance_[i] = instance;
      if (op.index == send_op || op.index == recv_op) f |= kP2p;
      if (processor.gpu) {
        f |= kCollectiveKernel;
        if (instance >= 0) {
          f |= kCoupled;
          auto [git, gnew] = group_of.try_emplace(
              std::make_pair(group.index, instance),
              static_cast<std::int32_t>(t.groups_.size()));
          if (gnew) t.groups_.push_back({group, instance, {}});
          t.group_idx_[i] = git->second;
          t.groups_[static_cast<std::size_t>(git->second)]
              .members.push_back(id);
        }
      }
    }
    t.flags_[i] = f;

    if (a == trace::CudaApi::EventRecord && e.cuda_event(i) >= 0) {
      // Later re-records of the same event id overwrite earlier ones, the
      // same way the CUDA runtime does.
      record_task[{processor.rank, e.cuda_event(i)}] = id;
    }
  }

  // Lane lookup index + dense rank numbering (first-appearance order).
  LaneTable& lanes = t.lanes_;
  lanes.sorted_.resize(lanes.lanes_.size());
  for (std::size_t i = 0; i < lanes.sorted_.size(); ++i) {
    lanes.sorted_[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(lanes.sorted_.begin(), lanes.sorted_.end(),
            [&lanes](std::uint32_t a, std::uint32_t b) {
              return lanes.lanes_[a] < lanes.lanes_[b];
            });
  lanes.rank_index_.resize(lanes.lanes_.size());
  std::map<std::int32_t, std::int32_t> rank_of;
  for (std::size_t i = 0; i < lanes.lanes_.size(); ++i) {
    auto [it, inserted] = rank_of.emplace(
        lanes.lanes_[i].rank, static_cast<std::int32_t>(rank_of.size()));
    if (inserted) lanes.rank_values_.push_back(lanes.lanes_[i].rank);
    lanes.rank_index_[i] = it->second;
  }

  // GPU lanes per rank, ascending by stream id (the cudaDeviceSynchronize
  // wait set), and GPU tasks per lane in id (= launch) order.
  lanes.gpu_offsets_.assign(lanes.rank_count() + 1, 0);
  for (std::uint32_t lane : lanes.sorted_) {
    if (lanes.lanes_[lane].gpu) {
      ++lanes.gpu_offsets_[static_cast<std::size_t>(
                               lanes.rank_index_[lane]) +
                           1];
    }
  }
  for (std::size_t i = 1; i < lanes.gpu_offsets_.size(); ++i) {
    lanes.gpu_offsets_[i] += lanes.gpu_offsets_[i - 1];
  }
  lanes.gpu_lane_ids_.resize(
      static_cast<std::size_t>(lanes.gpu_offsets_.back()));
  {
    std::vector<std::int32_t> fill(lanes.gpu_offsets_.begin(),
                                   lanes.gpu_offsets_.end() - 1);
    // sorted_ walks Processors ascending, so each rank's GPU lanes land in
    // ascending stream order.
    for (std::uint32_t lane : lanes.sorted_) {
      if (lanes.lanes_[lane].gpu) {
        lanes.gpu_lane_ids_[static_cast<std::size_t>(
            fill[static_cast<std::size_t>(lanes.rank_index_[lane])]++)] =
            static_cast<LaneId>(lane);
      }
    }
  }

  t.gpu_task_offsets_.assign(lanes.size() + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (t.flags_[i] & kGpu) {
      ++t.gpu_task_offsets_[static_cast<std::size_t>(t.lane_[i]) + 1];
    }
  }
  for (std::size_t i = 1; i < t.gpu_task_offsets_.size(); ++i) {
    t.gpu_task_offsets_[i] += t.gpu_task_offsets_[i - 1];
  }
  t.gpu_task_ids_.resize(static_cast<std::size_t>(t.gpu_task_offsets_.back()));
  {
    std::vector<std::int32_t> fill(t.gpu_task_offsets_.begin(),
                                   t.gpu_task_offsets_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      if (t.flags_[i] & kGpu) {
        t.gpu_task_ids_[static_cast<std::size_t>(
            fill[static_cast<std::size_t>(t.lane_[i])]++)] =
            static_cast<TaskId>(i);
      }
    }
  }

  // Pass 2: pre-resolve runtime-dependency targets, now that every lane
  // exists. Semantics mirror the simulator's former per-run lookups: a
  // StreamSynchronize blocks on the last prior launch to its own (rank,
  // stream); an EventSynchronize blocks on the last prior launch to the
  // stream its (rank-local) EventRecord targeted, bounded by the record's
  // id; unresolvable targets mean "no runtime blocker".
  for (std::size_t i = 0; i < n; ++i) {
    switch (e.cuda_api(i)) {
      case trace::CudaApi::StreamSynchronize:
        t.sync_lane_[i] = lanes.id_of({tasks.rank[i], true, e.stream(i)});
        t.sync_before_[i] = static_cast<TaskId>(i);
        break;
      case trace::CudaApi::EventSynchronize: {
        auto it = record_task.find({tasks.rank[i], e.cuda_event(i)});
        if (it == record_task.end()) break;
        const auto record = static_cast<std::size_t>(it->second);
        t.sync_lane_[i] =
            lanes.id_of({tasks.rank[record], true, e.stream(record)});
        t.sync_before_[i] = it->second;
        break;
      }
      default:
        break;
    }
  }
  return t;
}

}  // namespace lumos::core
