#include "core/replay_program.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/execution_graph.h"

namespace lumos::core {

const char* to_string(ReplayCompileStatus status) {
  switch (status) {
    case ReplayCompileStatus::kCompiled:
      return "compiled";
    case ReplayCompileStatus::kCyclic:
      return "cyclic";
    case ReplayCompileStatus::kUnorderedLane:
      return "unordered-lane";
    case ReplayCompileStatus::kNonPositiveDuration:
      return "non-positive-duration";
  }
  return "unknown";
}

SimResult ReplayProgram::run() const { return run(durations_); }

SimResult ReplayProgram::run(std::span<const std::int64_t> durations) const {
  assert(durations.size() == task_count_);
  SimResult result;
  const std::size_t n = task_count_;
  result.start_ns.assign(n, 0);
  result.end_ns.assign(n, 0);
  result.executed = n;
  if (n == 0) return result;

  // The whole run state: one cursor per lane. Everything else the
  // interpreter maintains (ready times, dependency counters, the priority
  // queue, parked sets) was folded into the instruction order at compile
  // time.
  std::vector<std::int64_t> lane_free(lane_count_, 0);
  std::int64_t* const start = result.start_ns.data();
  std::int64_t* const end = result.end_ns.data();
  const std::int64_t* const dur = durations.data();
  std::int64_t* const free_at = lane_free.data();
  const TaskId* const ops = operands_.data();
  const Member* const mems = members_.data();

  for (const Instr& ins : instrs_) {
    switch (ins.op) {
      case Op::kRun: {
        // start = max(effective predecessors' end, lane cursor). Proven at
        // compile time: every earlier occupant of this lane has already
        // executed, so the cursor is exact, and end > start (positive
        // durations) keeps the cursor monotone without a max.
        const auto idx = static_cast<std::size_t>(ins.id);
        std::int64_t at = free_at[static_cast<std::size_t>(ins.lane)];
        const TaskId* const first = ops + ins.first;
        for (std::uint32_t i = 0; i < ins.count; ++i) {
          const std::int64_t e = end[static_cast<std::size_t>(first[i])];
          at = e > at ? e : at;
        }
        start[idx] = at;
        const std::int64_t fin = at + dur[idx];
        end[idx] = fin;
        free_at[static_cast<std::size_t>(ins.lane)] = fin;
        break;
      }
      case Op::kArrive: {
        // Collective member: record the arrival (scratch in start_ns, made
        // final at the rendezvous) without occupying the lane — real NCCL
        // kernels spin on-stream while waiting for peers.
        const auto idx = static_cast<std::size_t>(ins.id);
        std::int64_t at = free_at[static_cast<std::size_t>(ins.lane)];
        const TaskId* const first = ops + ins.first;
        for (std::uint32_t i = 0; i < ins.count; ++i) {
          const std::int64_t e = end[static_cast<std::size_t>(first[i])];
          at = e > at ? e : at;
        }
        start[idx] = at;
        break;
      }
      case Op::kRendezvous: {
        // Members are pre-sorted by (profiled ts, id) — the interpreter's
        // park order among equal arrivals — so the strictly-greater max
        // scan picks the same last arrival and the same transfer duration.
        const Member* const member = mems + ins.first;
        std::int64_t rendezvous = 0;
        std::uint32_t last = 0;
        for (std::uint32_t i = 0; i < ins.count; ++i) {
          const std::int64_t at =
              start[static_cast<std::size_t>(member[i].task)];
          if (at > rendezvous) {
            rendezvous = at;
            last = i;
          }
        }
        const std::int64_t transfer =
            dur[static_cast<std::size_t>(member[last].task)];
        const std::int64_t group_end = rendezvous + transfer;
        const bool rendezvous_start = member[last].p2p;
        for (std::uint32_t i = 0; i < ins.count; ++i) {
          const auto idx = static_cast<std::size_t>(member[i].task);
          if (rendezvous_start) start[idx] = rendezvous;
          end[idx] = group_end;
          std::int64_t& lf = free_at[static_cast<std::size_t>(member[i].lane)];
          lf = group_end > lf ? group_end : lf;
        }
        break;
      }
    }
  }

  std::int64_t lo = start[0];
  std::int64_t hi = end[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = start[i] < lo ? start[i] : lo;
    hi = end[i] > hi ? end[i] : hi;
  }
  result.makespan_ns = hi - lo;
  return result;
}

namespace {

/// Node budget for each lane-order path proof. Every parser/builder lane
/// carries direct intra-lane chain edges (found within one or two
/// expansions), so the budget only bounds pathological hand-built graphs,
/// which fall back to the interpreter.
constexpr std::size_t kLaneProofBudget = 4096;

/// Invokes `emit(blocker)` for every statically resolved runtime
/// dependency of `t` — the exact task Simulator's runtime_blocker() probe
/// would defer on / lift to. The blocker identity is a pure function of
/// the meta table (launch order and lane membership), never of durations.
template <typename Emit>
void for_each_sync_blocker(const TaskMetaTable& meta, TaskId t, Emit&& emit) {
  const auto last_prior = [&meta](LaneId lane, TaskId before) -> TaskId {
    const std::span<const TaskId> list = meta.gpu_tasks(lane);
    const auto pos = std::lower_bound(list.begin(), list.end(), before);
    if (pos == list.begin()) return kInvalidTask;
    return *std::prev(pos);
  };
  switch (meta.cuda_api(t)) {
    case trace::CudaApi::StreamSynchronize:
    case trace::CudaApi::EventSynchronize: {
      const LaneId lane = meta.sync_lane(t);
      if (lane == kInvalidLane) return;
      const TaskId blocker = last_prior(lane, meta.sync_before(t));
      if (blocker != kInvalidTask) emit(blocker);
      return;
    }
    case trace::CudaApi::DeviceSynchronize: {
      const std::int32_t rank =
          meta.lanes().rank_index(meta.lane(t));
      for (const LaneId lane : meta.lanes().gpu_lanes(rank)) {
        const TaskId blocker = last_prior(lane, t);
        if (blocker != kInvalidTask) emit(blocker);
      }
      return;
    }
    default:
      return;
  }
}

/// Invokes `visit(operand)` for every effective predecessor of `t`: its
/// fixed predecessors, then its sync blockers.
template <typename Visit>
void for_each_operand(const ExecutionGraph& graph, const TaskMetaTable& meta,
                      TaskId t, Visit&& visit) {
  for (const TaskId pred : graph.predecessors(t)) visit(pred);
  for_each_sync_blocker(meta, t, visit);
}

}  // namespace

ReplayCompiler::Result ReplayCompiler::compile(const ExecutionGraph& graph) {
  const auto fallback = [](ReplayCompileStatus status) {
    return Result{nullptr, status};
  };

  const TaskMetaTable& meta = graph.meta();
  const std::size_t n = graph.size();
  auto program = std::make_shared<ReplayProgram>();
  program->task_count_ = n;
  program->lane_count_ = meta.lanes().size();
  if (n == 0) {
    return Result{std::move(program), ReplayCompileStatus::kCompiled};
  }

  // Positivity gate. The (ts, id) rendezvous tie-break and the monotone
  // lane cursor are exact only when every duration is strictly positive
  // (a zero-duration task can insert equal-key heap entries mid-pop and
  // reorder the interpreter's equal-arrival parking).
  std::size_t coupled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<TaskId>(i);
    if (meta.duration_ns(t) <= 0) {
      return fallback(ReplayCompileStatus::kNonPositiveDuration);
    }
    coupled += meta.is_coupled_collective(t) ? 1 : 0;
  }

  // Defensive: the member lists must hold exactly the coupled collectives,
  // each in the group its meta names, because node_of() below indexes
  // groups by that name. Any other table is a rendezvous the compiled
  // program cannot mirror; it falls back like a deadlock.
  const auto& groups = meta.collective_groups();
  std::size_t members = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    if (groups[gi].members.empty()) {
      return fallback(ReplayCompileStatus::kCyclic);
    }
    for (const TaskId m : groups[gi].members) {
      if (!meta.is_coupled_collective(m) ||
          meta.group_index(m) != static_cast<std::int32_t>(gi)) {
        return fallback(ReplayCompileStatus::kCyclic);
      }
    }
    members += groups[gi].members.size();
  }
  if (members != coupled) return fallback(ReplayCompileStatus::kCyclic);

  // Nodes: tasks [0, n), then one per rendezvous group. An operand that is
  // a collective member resolves through its group's node, because every
  // member ends at the group end.
  const std::size_t node_count = n + groups.size();
  const auto node_of = [&meta, n](TaskId t) -> std::int32_t {
    return meta.is_coupled_collective(t)
               ? static_cast<std::int32_t>(n) + meta.group_index(t)
               : static_cast<std::int32_t>(t);
  };
  const auto for_each_input = [&](TaskId t, auto&& visit) {
    for_each_operand(graph, meta, t,
                     [&](TaskId operand) { visit(node_of(operand)); });
  };

  // Emission: one walk over task ids. pos[node] is the node's instruction
  // index once emitted (-1 before), so it doubles as the resolved flag. A
  // task with an unresolved operand waits on the first one, in an
  // intrusive list (wait_head per node, threaded through next_waiter), and
  // is revisited when that node resolves. Instruction operands are the
  // *original* operand ids: a collective member's end is written by its
  // rendezvous, which resolving through the group node places earlier.
  std::vector<std::int32_t> pos(node_count, -1);
  std::vector<TaskId> wait_head(node_count, kInvalidTask);
  std::vector<TaskId> next_waiter(n, kInvalidTask);
  std::vector<std::uint32_t> arrived(groups.size(), 0);
  std::vector<TaskId> ready;
  program->instrs_.reserve(node_count);
  program->operands_.reserve(graph.edges().size() + n / 4);
  program->collective_count_ = groups.size();

  const auto resolve = [&](std::int32_t node) {
    const auto i = static_cast<std::size_t>(node);
    pos[i] = static_cast<std::int32_t>(program->instrs_.size()) - 1;
    for (TaskId w = wait_head[i]; w != kInvalidTask;
         w = next_waiter[static_cast<std::size_t>(w)]) {
      ready.push_back(w);
    }
    wait_head[i] = kInvalidTask;
  };
  const auto emit = [&](TaskId t) {
    const bool member = meta.is_coupled_collective(t);
    ReplayProgram::Instr ins;
    ins.op = member ? ReplayProgram::Op::kArrive : ReplayProgram::Op::kRun;
    ins.lane = meta.lane(t);
    ins.id = t;
    ins.first = static_cast<std::uint32_t>(program->operands_.size());
    for_each_operand(graph, meta, t, [&](TaskId operand) {
      program->operands_.push_back(operand);
    });
    ins.count =
        static_cast<std::uint32_t>(program->operands_.size()) - ins.first;
    program->instrs_.push_back(ins);
    resolve(static_cast<std::int32_t>(t));
    if (!member) return;

    // A group's rendezvous follows its last member.
    const auto gi = static_cast<std::size_t>(meta.group_index(t));
    if (++arrived[gi] < groups[gi].members.size()) return;
    ReplayProgram::Instr rv;
    rv.op = ReplayProgram::Op::kRendezvous;
    rv.id = static_cast<std::int32_t>(gi);
    rv.first = static_cast<std::uint32_t>(program->members_.size());
    for (const TaskId m : groups[gi].members) {
      program->members_.push_back({m, meta.lane(m), meta.is_p2p(m)});
    }
    rv.count = static_cast<std::uint32_t>(groups[gi].members.size());
    std::sort(program->members_.begin() +
                  static_cast<std::ptrdiff_t>(rv.first),
              program->members_.end(),
              [&meta](const ReplayProgram::Member& a,
                      const ReplayProgram::Member& b) {
                const std::int64_t ta = meta.ts_ns(a.task);
                const std::int64_t tb = meta.ts_ns(b.task);
                return ta != tb ? ta < tb : a.task < b.task;
              });
    program->instrs_.push_back(rv);
    resolve(static_cast<std::int32_t>(n + gi));
  };

  for (std::size_t i = 0; i < n; ++i) {
    ready.push_back(static_cast<TaskId>(i));
    while (!ready.empty()) {
      const TaskId t = ready.back();
      ready.pop_back();
      std::int32_t blocked_on = -1;
      for_each_input(t, [&](std::int32_t node) {
        if (blocked_on < 0 && pos[static_cast<std::size_t>(node)] < 0) {
          blocked_on = node;
        }
      });
      if (blocked_on < 0) {
        emit(t);
        continue;
      }
      const auto b = static_cast<std::size_t>(blocked_on);
      next_waiter[static_cast<std::size_t>(t)] = wait_head[b];
      wait_head[b] = t;
    }
  }
  if (program->instrs_.size() != node_count) {
    // Some task never became ready: a cycle through fixed, sync or
    // rendezvous constraints. The interpreter deadlocks here and must stay
    // in charge of stuck-task reporting.
    return fallback(ReplayCompileStatus::kCyclic);
  }

  // Lane-order proof, a second pass over the emitted stream: every pair of
  // consecutive tasks on a lane must be connected by a dependency path,
  // which makes the order duration-invariant (and therefore the
  // interpreter's order). The search runs backwards from the later task
  // through operands and group members; every such step goes to an earlier
  // instruction, so nodes emitted before the earlier task cannot be on the
  // path and are pruned exactly.
  std::vector<TaskId> last(program->lane_count_, kInvalidTask);
  std::vector<std::uint32_t> stamp(node_count, 0);
  std::uint32_t epoch = 0;
  std::vector<std::int32_t> frontier;
  const auto proven = [&](TaskId before, TaskId after) {
    ++epoch;
    const std::int32_t limit = pos[static_cast<std::size_t>(before)];
    frontier.assign(1, static_cast<std::int32_t>(after));
    std::size_t visited = 1;
    bool found = false;
    const auto reach = [&](std::int32_t node) {
      const auto i = static_cast<std::size_t>(node);
      if (node == static_cast<std::int32_t>(before)) found = true;
      if (found || pos[i] <= limit || stamp[i] == epoch) return;
      stamp[i] = epoch;
      ++visited;
      frontier.push_back(node);
    };
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::int32_t node = frontier[head];
      if (node < static_cast<std::int32_t>(n)) {
        for_each_input(static_cast<TaskId>(node), reach);
      } else {
        for (const TaskId m : groups[static_cast<std::size_t>(node) - n]
                                  .members) {
          reach(static_cast<std::int32_t>(m));
        }
      }
      if (found) return true;
      if (visited > kLaneProofBudget) return false;
    }
    return false;
  };
  for (const ReplayProgram::Instr& ins : program->instrs_) {
    if (ins.op == ReplayProgram::Op::kRendezvous) continue;
    TaskId& prev = last[static_cast<std::size_t>(ins.lane)];
    if (prev != kInvalidTask && !proven(prev, ins.id)) {
      return fallback(ReplayCompileStatus::kUnorderedLane);
    }
    prev = ins.id;
  }

  program->durations_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    program->durations_[i] = meta.duration_ns(static_cast<TaskId>(i));
  }
  return Result{std::move(program), ReplayCompileStatus::kCompiled};
}

}  // namespace lumos::core
