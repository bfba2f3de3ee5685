#include "core/execution_graph.h"

#include <algorithm>
#include <stdexcept>

namespace lumos::core {

std::string_view to_string(DepType type) {
  switch (type) {
    case DepType::IntraThread: return "intra_thread";
    case DepType::InterThread: return "inter_thread";
    case DepType::CpuToGpu: return "cpu_to_gpu";
    case DepType::GpuToCpu: return "gpu_to_cpu";
    case DepType::IntraStream: return "intra_stream";
    case DepType::InterStream: return "inter_stream";
    case DepType::CrossRank: return "cross_rank";
  }
  return "unknown";
}

ExecutionGraph::ExecutionGraph()
    : ExecutionGraph(std::make_shared<trace::TracePools>()) {}

ExecutionGraph::ExecutionGraph(std::shared_ptr<trace::TracePools> pools)
    : tasks_(std::make_shared<TaskColumns>(
          TaskColumns{trace::EventTable(std::move(pools)), {}, {}, {}})) {}

const TaskColumns& ExecutionGraph::columns() const {
  static const TaskColumns kMovedFrom{};
  return tasks_ ? *tasks_ : kMovedFrom;
}

TaskColumns& ExecutionGraph::mutable_tasks() {
  if (meta_.built()) meta_.reset();
  if (adjacency_.built()) adjacency_.reset();
  if (!tasks_) {
    tasks_ = std::make_shared<TaskColumns>();
  } else if (tasks_.use_count() > 1) {
    tasks_ = std::make_shared<TaskColumns>(*tasks_);
  }
  return *tasks_;
}

void ExecutionGraph::reserve(std::size_t tasks, std::size_t edges) {
  TaskColumns& t = mutable_tasks();
  t.events.reserve(tasks);
  t.rank.reserve(tasks);
  t.gpu.reserve(tasks);
  t.lane.reserve(tasks);
  edges_.reserve(edges);
}

Task ExecutionGraph::task(TaskId id) const {
  const auto i = static_cast<std::size_t>(id);
  return {id, columns().processor(i), events().materialize(i)};
}

TaskId ExecutionGraph::add_task(const Task& task) {
  TaskColumns& t = mutable_tasks();
  t.events.push_back(task.event);
  t.push_processor(task.processor);
  return static_cast<TaskId>(t.size() - 1);
}

TaskId ExecutionGraph::add_row(const Processor& processor,
                               const trace::EventTable::Row& row,
                               trace::CudaApi api) {
  TaskColumns& t = mutable_tasks();
  t.events.push_row(row, api);
  t.push_processor(processor);
  return static_cast<TaskId>(t.size() - 1);
}

void ExecutionGraph::append_events(const trace::EventTable& src,
                                   std::span<const std::uint32_t> rows) {
  TaskColumns& t = mutable_tasks();
  t.events.append_rows(src, rows);
  for (const std::uint32_t r : rows) {
    t.push_processor({src.pid(r), src.is_gpu(r),
                      static_cast<std::int64_t>(src.tid(r))});
  }
}

void ExecutionGraph::append_tasks(const ExecutionGraph& src,
                                  std::span<const std::uint32_t> rows) {
  const TaskColumns& from = src.columns();
  TaskColumns& t = mutable_tasks();
  t.events.append_rows(from.events, rows);
  for (const std::uint32_t r : rows) t.push_processor(from.processor(r));
}

void ExecutionGraph::detach_pools() { mutable_tasks().events.detach_pools(); }

void ExecutionGraph::set_duration_ns(TaskId id, std::int64_t dur_ns) {
  mutable_tasks().events.set_dur_ns(static_cast<std::size_t>(id), dur_ns);
}

void ExecutionGraph::set_name(TaskId id, trace::NameId name) {
  mutable_tasks().events.set_name(static_cast<std::size_t>(id), name);
}

void ExecutionGraph::reject_edge(TaskId src, TaskId dst) {
  if (src == dst) {
    throw std::invalid_argument("ExecutionGraph: self edge on task " +
                                std::to_string(src));
  }
  throw std::invalid_argument("ExecutionGraph: edge references invalid task");
}

const ExecutionGraph::Adjacency& ExecutionGraph::adjacency() const {
  // Concurrent readers of a frozen graph (Sweep workers sharing one
  // baseline) may race to the first successors() call; exactly one builds.
  return adjacency_.get([this] {
    const std::size_t n = size();
    Adjacency a;
    a.succ_offsets.assign(n + 1, 0);
    a.pred_offsets.assign(n + 1, 0);
    for (const Edge& e : edges_) {
      ++a.succ_offsets[static_cast<std::size_t>(e.src) + 1];
      ++a.pred_offsets[static_cast<std::size_t>(e.dst) + 1];
    }
    for (std::size_t i = 1; i <= n; ++i) {
      a.succ_offsets[i] += a.succ_offsets[i - 1];
      a.pred_offsets[i] += a.pred_offsets[i - 1];
    }
    // Fill with each node's offset as its cursor; afterwards offset[i]
    // holds the old offset[i + 1], so one shift restores the index.
    a.succ_ids.resize(edges_.size());
    a.pred_ids.resize(edges_.size());
    for (const Edge& e : edges_) {
      a.succ_ids[static_cast<std::size_t>(
          a.succ_offsets[static_cast<std::size_t>(e.src)]++)] = e.dst;
      a.pred_ids[static_cast<std::size_t>(
          a.pred_offsets[static_cast<std::size_t>(e.dst)]++)] = e.src;
    }
    for (std::size_t i = n; i > 0; --i) {
      a.succ_offsets[i] = a.succ_offsets[i - 1];
      a.pred_offsets[i] = a.pred_offsets[i - 1];
    }
    a.succ_offsets[0] = 0;
    a.pred_offsets[0] = 0;
    return a;
  });
}

const TaskMetaTable& ExecutionGraph::meta() const {
  return meta_.get([this] {
    return TaskMetaTable::build(tasks_ ? tasks_
                                       : std::make_shared<TaskColumns>());
  });
}

void ExecutionGraph::finalize() {
  meta();
  adjacency();
}

std::span<const TaskId> ExecutionGraph::successors(TaskId id) const {
  const Adjacency& a = adjacency();
  const auto i = static_cast<std::size_t>(id);
  return {a.succ_ids.data() + a.succ_offsets[i],
          static_cast<std::size_t>(a.succ_offsets[i + 1] - a.succ_offsets[i])};
}

std::span<const TaskId> ExecutionGraph::predecessors(TaskId id) const {
  const Adjacency& a = adjacency();
  const auto i = static_cast<std::size_t>(id);
  return {a.pred_ids.data() + a.pred_offsets[i],
          static_cast<std::size_t>(a.pred_offsets[i + 1] - a.pred_offsets[i])};
}

std::vector<std::int32_t> ExecutionGraph::in_degrees() const {
  std::vector<std::int32_t> deg(size(), 0);
  for (const Edge& e : edges_) ++deg[static_cast<std::size_t>(e.dst)];
  return deg;
}

std::vector<std::int32_t> ExecutionGraph::ranks() const {
  const LaneTable& lanes = meta().lanes();
  std::vector<std::int32_t> out(lanes.rank_count());
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r] = lanes.rank_value(static_cast<std::int32_t>(r));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t EdgeTypeHistogram::total() const {
  std::size_t sum = 0;
  for (std::size_t c : counts_) sum += c;
  return sum;
}

EdgeTypeHistogram ExecutionGraph::edge_type_histogram() const {
  EdgeTypeHistogram hist;
  for (const Edge& e : edges_) ++hist[e.type];
  return hist;
}

bool ExecutionGraph::is_acyclic(TaskId* cycle_hint) const {
  // Kahn's algorithm; anything left unprocessed sits on a cycle.
  std::vector<std::int32_t> deg = in_degrees();
  std::vector<TaskId> ready;
  for (std::size_t i = 0; i < deg.size(); ++i) {
    if (deg[i] == 0) ready.push_back(static_cast<TaskId>(i));
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    TaskId t = ready.back();
    ready.pop_back();
    ++processed;
    for (TaskId s : successors(t)) {
      if (--deg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  }
  if (processed == size()) return true;
  if (cycle_hint != nullptr) {
    // A leftover task may only sit downstream of a cycle, but every
    // leftover task has a leftover predecessor: walking those from the
    // lowest leftover task must revisit a task, and the first one
    // revisited is on a cycle.
    const auto left = [&deg](TaskId id) {
      return deg[static_cast<std::size_t>(id)] > 0;
    };
    TaskId t = 0;
    while (!left(t)) ++t;
    std::vector<bool> seen(deg.size(), false);
    while (!seen[static_cast<std::size_t>(t)]) {
      seen[static_cast<std::size_t>(t)] = true;
      const std::span<const TaskId> preds = predecessors(t);
      t = *std::find_if(preds.begin(), preds.end(), left);
    }
    *cycle_hint = t;
  }
  return false;
}

ExecutionGraph ExecutionGraph::with_edges(std::vector<Edge> edges) const {
  ExecutionGraph out;
  out.tasks_ = tasks_;
  out.edges_ = std::move(edges);
  // Tasks are identical, so the derived graph shares this one's meta table
  // (building it here if needed keeps ablation replays off the lazy path).
  meta();
  out.meta_ = meta_;
  return out;
}

ExecutionGraph ExecutionGraph::without_edges(DepType drop) const {
  std::vector<Edge> kept;
  kept.reserve(edges_.size());
  for (const Edge& e : edges_) {
    if (e.type != drop) kept.push_back(e);
  }
  return with_edges(std::move(kept));
}

std::int64_t ExecutionGraph::total_duration_ns() const {
  std::int64_t total = 0;
  for (const std::int64_t dur : events().dur_column()) total += dur;
  return total;
}

}  // namespace lumos::core
