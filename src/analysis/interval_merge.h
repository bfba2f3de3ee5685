// Shared interval-merge kernel.
//
// Every time-occupancy question in Lumos — GPU busy time (validate stats),
// SM utilization buckets, compute/comm overlap breakdowns, per-stream
// overlap validation — reduces to "sort [begin, end) intervals and sweep
// them into a disjoint union". The sort-then-sweep used to be re-implemented
// in sm_utilization.cpp, breakdown.cpp and validate.cpp with subtly
// duplicated logic; this header is the single definition, operating on the
// contiguous ts/dur columns the columnar trace layer (trace::EventTable)
// exposes.
//
// Structure (PR 5): the kernel is built for throughput on large traces.
//  - The sort is an LSD radix sort on the 64-bit begins (stable, 8-bit
//    digits, uniform digit passes skipped — timestamps use ~5 of 8 bytes),
//    falling back to std::sort below a size threshold.
//  - The union sweep is branch-free over separate begin/end arrays:
//    `total += max(0, end[i] - max(begin[i], running_max))` compiles to
//    cmov/max chains instead of a mispredicted merge branch, and an
//    optional SSE4.2 two-lane pass (runtime-dispatched on x86-64; NEON on
//    aarch64) processes the columns vector-wise. Every configuration is
//    guarded by the scalar fallback, and merge_intervals_scalar() remains
//    the executable reference the fast paths must match bit-for-bit
//    (tests/test_analysis.cpp drives both over adversarial inputs).
//  - The hot validate path uses the fused gather_intervals overload:
//    clamp + gather + sum + union in one pass over reusable scratch
//    columns — no intermediate std::vector<Interval> per lane.
//
// Convention: intervals are half-open [begin, end). Touching intervals
// ([a,b) and [b,c)) merge; an input interval *overlaps* when its begin is
// strictly inside the running union.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace lumos::analysis {

/// Half-open [begin, end) interval. (Kept as a pair so the merged output
/// plugs straight into the existing breakdown set algebra.)
using Interval = std::pair<std::int64_t, std::int64_t>;

/// Sorts `intervals` ascending and merges overlapping/touching entries in
/// place. Returns the union length in ns. Dispatches to the radix sort for
/// large inputs; the merged output is identical to merge_intervals_scalar.
std::int64_t merge_intervals(std::vector<Interval>& intervals);

/// Reference implementation (std::sort + in-place sweep): the executable
/// spec of merge_intervals, kept separate so the equivalence tests and the
/// BM_MergeIntervals A/B bench can pin the fast paths against it.
std::int64_t merge_intervals_scalar(std::vector<Interval>& intervals);

/// Gathers the device-activity intervals of a columnar event selection:
/// entries of the parallel ts/dur columns named by `select`, clamped to
/// [clamp_begin, clamp_end) when clamp_end > clamp_begin, empty results
/// dropped. The output is ready for merge_intervals().
std::vector<Interval> gather_intervals(std::span<const std::int64_t> ts,
                                       std::span<const std::int64_t> dur,
                                       std::span<const std::uint32_t> select,
                                       std::int64_t clamp_begin = 0,
                                       std::int64_t clamp_end = 0);

/// Union + plain-sum lengths of a selection. sum == union  <=>  the
/// selection is pairwise non-overlapping (the O(n) validator test).
struct UnionStats {
  std::int64_t union_ns = 0;
  std::int64_t total_ns = 0;  ///< sum of (clamped) interval lengths
};

/// Reusable begin/end columns for the fused gather overload below. One
/// instance per sweep loop (e.g. per rank in validate) keeps the per-lane
/// kernel allocation-free after the first lane.
struct IntervalScratch {
  std::vector<std::int64_t> begins;
  std::vector<std::int64_t> ends;
  std::vector<std::int64_t> begins_tmp;  ///< radix ping-pong buffers
  std::vector<std::int64_t> ends_tmp;
};

/// Fused overload: clamp + gather + sort + sweep in one call, equivalent to
///   v = gather_intervals(ts, dur, select, clamp_begin, clamp_end);
///   total = total_length_ns(v); union = merge_intervals(v);
/// but without materializing the intermediate Interval vector — the hot
/// validate path. `scratch` is overwritten.
UnionStats gather_intervals(std::span<const std::int64_t> ts,
                            std::span<const std::int64_t> dur,
                            std::span<const std::uint32_t> select,
                            IntervalScratch& scratch,
                            std::int64_t clamp_begin = 0,
                            std::int64_t clamp_end = 0);

/// Total duration of the selected entries (sum of clamped lengths). With
/// merge_intervals this gives the O(n) overlap test the validators use:
/// sum == union  <=>  the selection is pairwise non-overlapping.
std::int64_t total_length_ns(std::span<const Interval> intervals);

namespace detail {

/// Union length over columns already sorted by begin — the branch-free
/// sweep behind both gather_intervals overloads. Exposed for the
/// equivalence tests; dispatches to the SIMD pass when available.
std::int64_t union_of_sorted(std::span<const std::int64_t> begins,
                             std::span<const std::int64_t> ends);

/// The portable scalar body of union_of_sorted (always compiled; the SIMD
/// pass must match it bit-for-bit).
std::int64_t union_of_sorted_scalar(std::span<const std::int64_t> begins,
                                    std::span<const std::int64_t> ends);

/// True when the runtime-dispatched SIMD sweep is active in this build
/// (exposed so tests can report which path they exercised).
bool simd_sweep_active();

}  // namespace detail

}  // namespace lumos::analysis
