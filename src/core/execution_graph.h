// ExecutionGraph: the task-level dependency graph at the center of Lumos.
//
// A graph may span one rank (replay of a single trace) or many ranks (the
// ground-truth engine and manipulated-graph prediction). Edges are stored
// flat and indexed into CSR adjacency on demand.
//
// Data layer: the task payload is columnar — TaskColumns (core/task.h), a
// trace::EventTable of one row per task plus rank/gpu/lane processor
// columns. Producers append rows with pre-interned string ids (builders,
// the parser's gather, fusion's row copy, the snapshot loader's zero-copy
// columns); Task is only a read-only view materialized by task(id). The
// graph also owns a TaskMetaTable (core/task_meta.h) — per-task CudaApi /
// category / flags, dense LaneIds and collective rendezvous groups,
// classified once from the id columns. Producers call finalize() when a
// graph is fully built; meta() also builds lazily for hand-assembled
// graphs. Payload and meta are shared by copies and by edge-filtered
// derivations (with_edges / without_edges).
//
// Thread safety: mutation (add_task / add_row / append_* / set_* /
// add_edge) is not synchronized — build the graph on one thread. Once
// built, every const member is safe to call from any number of threads
// concurrently: nothing interns, and the lazily built CSR adjacency cache
// and TaskMetaTable are each guarded by double-checked locking, so a frozen
// graph can back many Simulator instances at once (api::Sweep fans
// scenario variants out over exactly this shared-const-graph shape).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/task.h"
#include "core/task_meta.h"
#include "support/shared_cache.h"
#include "trace/event_table.h"

namespace lumos::core {

/// Count of edges per dependency type, indexable by DepType (a dense enum).
/// Iteration yields (type, count) entries for the types present (count > 0),
/// matching the sparse-map interface this replaced.
class EdgeTypeHistogram {
 public:
  std::size_t& operator[](DepType type) {
    return counts_[static_cast<std::size_t>(type)];
  }
  std::size_t operator[](DepType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }

  std::size_t total() const;
  bool operator==(const EdgeTypeHistogram&) const = default;

  struct Entry {
    DepType type;
    std::size_t count;
  };

  class const_iterator {
   public:
    const_iterator(const EdgeTypeHistogram* hist, std::size_t pos)
        : hist_(hist), pos_(pos) {
      skip_zeros();
    }
    Entry operator*() const {
      return {static_cast<DepType>(pos_), hist_->counts_[pos_]};
    }
    const_iterator& operator++() {
      ++pos_;
      skip_zeros();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    void skip_zeros() {
      while (pos_ < kDepTypeCount && hist_->counts_[pos_] == 0) ++pos_;
    }
    const EdgeTypeHistogram* hist_;
    std::size_t pos_;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, kDepTypeCount}; }

 private:
  std::array<std::size_t, kDepTypeCount> counts_{};
};

class ExecutionGraph {
 public:
  /// An empty graph interning into fresh pools.
  ExecutionGraph();
  /// An empty graph whose event rows intern into (or, for gathers, share)
  /// `pools` — TraceParser passes the trace's pools so trace ids == graph
  /// ids and nothing is re-interned.
  explicit ExecutionGraph(std::shared_ptr<trace::TracePools> pools);

  // -- building (single-threaded; each append assigns the next id) ---------
  /// Convenience for tests and hand-built graphs: interns `task.event`'s
  /// strings and appends one row. Returns the new id (= program order).
  TaskId add_task(const Task& task);
  /// Appends one row whose string ids are already interned in pools(), with
  /// its CUDA API classified by the caller — the builders' path.
  TaskId add_row(const Processor& processor,
                 const trace::EventTable::Row& row, trace::CudaApi api);
  /// Appends rows `rows` of a trace table as tasks, in order, on processor
  /// (pid, is_gpu, tid) — the trace convention. A pure gather when `src`
  /// shares pools() (see trace::EventTable::append_rows).
  void append_events(const trace::EventTable& src,
                     std::span<const std::uint32_t> rows);
  /// Appends tasks `rows` of `src`, processors included — a row copy.
  void append_tasks(const ExecutionGraph& src,
                    std::span<const std::uint32_t> rows);
  /// Capacity hint for producers that know (or can estimate) the final
  /// size: the columns then grow without reallocation.
  void reserve(std::size_t tasks, std::size_t edges);
  /// Moves this graph onto a private copy of its pools (same ids) so that
  /// interning new strings cannot race readers of a shared pool set.
  void detach_pools();
  /// Explicit column mutators: tasks are read-only views, so in-place edits
  /// go through these (each invalidates the meta table).
  void set_duration_ns(TaskId id, std::int64_t dur_ns);
  void set_name(TaskId id, trace::NameId name);

  /// Adds a fixed dependency edge. Self-edges and invalid ids are rejected
  /// with std::invalid_argument.
  void add_edge(TaskId src, TaskId dst, DepType type) {
    const auto n = static_cast<TaskId>(size());
    if (src == dst || src < 0 || dst < 0 || src >= n || dst >= n) {
      reject_edge(src, dst);
    }
    edges_.push_back({src, dst, type});
    if (adjacency_.built()) adjacency_.reset();
  }

  // -- reading --------------------------------------------------------------
  std::size_t size() const { return tasks_ ? tasks_->size() : 0; }
  bool empty() const { return size() == 0; }

  /// Materialized view of one task (report and hook boundaries; hot paths
  /// read meta() or the columns).
  Task task(TaskId id) const;
  Processor processor(TaskId id) const {
    return columns().processor(static_cast<std::size_t>(id));
  }
  /// The task payload: event columns plus processor columns, by TaskId.
  const TaskColumns& columns() const;
  const trace::EventTable& events() const { return columns().events; }
  /// The pools every string id of this graph (events and meta) resolves in.
  const std::shared_ptr<trace::TracePools>& pools() const {
    return events().pools();
  }

  const std::vector<Edge>& edges() const { return edges_; }

  /// The columnar per-task metadata (core/task_meta.h): lanes, interned
  /// names/ops/groups, CudaApi, durations, rendezvous groups. Built lazily
  /// on first use (thread-safe); producers call finalize() to build it
  /// eagerly at the build/parse boundary. Valid until the next mutation.
  const TaskMetaTable& meta() const;

  /// Eagerly builds the derived indexes (meta table + adjacency). Producers
  /// call this once a graph is fully built, so all classification happens
  /// at build time, before the graph is published to (possibly concurrent)
  /// consumers.
  void finalize();

  /// Successor task ids of `id` (fixed edges only). Valid until the next
  /// mutation; builds the adjacency index lazily.
  std::span<const TaskId> successors(TaskId id) const;
  std::span<const TaskId> predecessors(TaskId id) const;

  /// Number of fixed in-edges per task.
  std::vector<std::int32_t> in_degrees() const;

  /// Distinct rank ids in ascending order.
  std::vector<std::int32_t> ranks() const;

  /// Count of edges of each dependency type.
  EdgeTypeHistogram edge_type_histogram() const;

  /// Verifies the graph is a DAG (fixed edges only); returns false and
  /// fills `cycle_hint` with a task on a cycle otherwise.
  bool is_acyclic(TaskId* cycle_hint = nullptr) const;

  /// A graph sharing this one's task payload and meta table with `edges` as
  /// its edge set (ids must be valid here) — how edge-filtered derivations
  /// such as the dPRO view cost no task copy.
  ExecutionGraph with_edges(std::vector<Edge> edges) const;

  /// Returns a copy with all edges of `drop` removed (ablation support).
  ExecutionGraph without_edges(DepType drop) const;

  /// Sum of task durations per processor (used in analysis & tests).
  std::int64_t total_duration_ns() const;

 private:
  friend struct lumos::snapshot::Access;  // installs the loaded payload

  /// CSR successor / predecessor lists over the fixed edges.
  struct Adjacency {
    std::vector<std::int32_t> succ_offsets, pred_offsets;
    std::vector<TaskId> succ_ids, pred_ids;
  };
  const Adjacency& adjacency() const;
  [[noreturn]] static void reject_edge(TaskId src, TaskId dst);
  /// Called by every payload mutator: a payload still shared with a copy is
  /// cloned first, and the derived indexes are dropped (the meta table
  /// views the payload, so it goes before the sharing check).
  TaskColumns& mutable_tasks();

  // Task payload, null only in a moved-from graph. Shared (copy-on-write)
  // with copies and with_edges derivations; immutable once published.
  std::shared_ptr<TaskColumns> tasks_;
  std::vector<Edge> edges_;
  // Derived indexes, built lazily (double-checked, thread-safe) and shared
  // by copies; with_edges derivations share the meta table.
  SharedCache<Adjacency> adjacency_;
  SharedCache<TaskMetaTable> meta_;
};

}  // namespace lumos::core
