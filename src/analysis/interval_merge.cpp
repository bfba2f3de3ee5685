#include "analysis/interval_merge.h"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LUMOS_X86_SIMD_DISPATCH 1
#include <immintrin.h>
#else
#define LUMOS_X86_SIMD_DISPATCH 0
#endif

#if defined(__aarch64__)
#define LUMOS_NEON_SIMD 1
#include <arm_neon.h>
#else
#define LUMOS_NEON_SIMD 0
#endif

namespace lumos::analysis {

namespace {

/// Below this size std::sort / insertion sort beats the radix passes'
/// fixed histogram cost.
constexpr std::size_t kRadixThreshold = 128;

/// Maps int64 keys to uint64 so unsigned digit order equals signed order.
constexpr std::uint64_t kSignBias = 0x8000000000000000ULL;

std::uint64_t biased(std::int64_t v) {
  return static_cast<std::uint64_t>(v) ^ kSignBias;
}

/// Per-digit histograms for all 8 byte positions, built in one pass.
struct RadixHistogram {
  std::array<std::array<std::size_t, 256>, 8> counts{};

  void add(std::int64_t key) {
    std::uint64_t k = biased(key);
    for (int d = 0; d < 8; ++d) {
      ++counts[static_cast<std::size_t>(d)][k & 0xFF];
      k >>= 8;
    }
  }

  /// A pass whose elements all share one digit value permutes nothing —
  /// skip it. Timestamp data typically uses ~5 of the 8 bytes.
  bool uniform(int d, std::size_t n) const {
    for (const std::size_t c : counts[static_cast<std::size_t>(d)]) {
      if (c == n) return true;
      if (c != 0) return false;
    }
    return n == 0;
  }
};

/// Stable LSD radix sort of (begin, end) pairs by begin. Ties keep input
/// order (std::sort orders them by end instead); the merge sweep collapses
/// equal-begin runs into one interval either way, so the merged output is
/// identical — the bit-identity the tests pin.
void radix_sort_pairs(std::vector<Interval>& v) {
  const std::size_t n = v.size();
  RadixHistogram hist;
  for (const Interval& iv : v) hist.add(iv.first);

  std::vector<Interval> tmp(n);
  Interval* src = v.data();
  Interval* dst = tmp.data();
  for (int d = 0; d < 8; ++d) {
    if (hist.uniform(d, n)) continue;
    std::array<std::size_t, 256> offset;
    std::size_t running = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      offset[b] = running;
      running += hist.counts[static_cast<std::size_t>(d)][b];
    }
    const int shift = 8 * d;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t digit = (biased(src[i].first) >> shift) & 0xFF;
      dst[offset[digit]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != v.data()) {
    std::copy(src, src + n, v.data());
  }
}

/// Stable LSD radix co-sort of the separate begin/end columns by begin.
void radix_sort_columns(std::vector<std::int64_t>& begins,
                        std::vector<std::int64_t>& ends,
                        std::vector<std::int64_t>& begins_tmp,
                        std::vector<std::int64_t>& ends_tmp) {
  const std::size_t n = begins.size();
  RadixHistogram hist;
  for (const std::int64_t b : begins) hist.add(b);

  begins_tmp.resize(n);
  ends_tmp.resize(n);
  std::int64_t* sb = begins.data();
  std::int64_t* se = ends.data();
  std::int64_t* db = begins_tmp.data();
  std::int64_t* de = ends_tmp.data();
  for (int d = 0; d < 8; ++d) {
    if (hist.uniform(d, n)) continue;
    std::array<std::size_t, 256> offset;
    std::size_t running = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      offset[b] = running;
      running += hist.counts[static_cast<std::size_t>(d)][b];
    }
    const int shift = 8 * d;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t slot = offset[(biased(sb[i]) >> shift) & 0xFF]++;
      db[slot] = sb[i];
      de[slot] = se[i];
    }
    std::swap(sb, db);
    std::swap(se, de);
  }
  if (sb != begins.data()) {
    std::memcpy(begins.data(), sb, n * sizeof(std::int64_t));
    std::memcpy(ends.data(), se, n * sizeof(std::int64_t));
  }
}

/// In-place insertion co-sort for tiny selections (the common per-lane case
/// in validate): no histogram overhead, no temp traffic.
void insertion_sort_columns(std::vector<std::int64_t>& begins,
                            std::vector<std::int64_t>& ends) {
  for (std::size_t i = 1; i < begins.size(); ++i) {
    const std::int64_t b = begins[i];
    const std::int64_t e = ends[i];
    std::size_t j = i;
    for (; j > 0 && begins[j - 1] > b; --j) {
      begins[j] = begins[j - 1];
      ends[j] = ends[j - 1];
    }
    begins[j] = b;
    ends[j] = e;
  }
}

void sort_columns(std::vector<std::int64_t>& begins,
                  std::vector<std::int64_t>& ends,
                  IntervalScratch& scratch) {
  if (begins.size() < kRadixThreshold) {
    insertion_sort_columns(begins, ends);
  } else {
    radix_sort_columns(begins, ends, scratch.begins_tmp, scratch.ends_tmp);
  }
}

/// The one in-place merge sweep (shared by the scalar reference and the
/// radix-sorted fast path): `w` is the last merged interval; each element
/// either extends it or is appended. Returns the union length.
std::int64_t sweep_merge(std::vector<Interval>& intervals) {
  std::size_t w = 0;
  std::int64_t total = 0;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].first <= intervals[w].second) {
      intervals[w].second = std::max(intervals[w].second, intervals[i].second);
    } else {
      total += intervals[w].second - intervals[w].first;
      intervals[++w] = intervals[i];
    }
  }
  total += intervals[w].second - intervals[w].first;
  intervals.resize(w + 1);
  return total;
}

#if LUMOS_X86_SIMD_DISPATCH

// Note: lambdas do not inherit a function-level target attribute, so the
// 64-bit max helper is a target-attributed function of its own.
__attribute__((target("sse4.2"))) inline __m128i max64(__m128i a, __m128i b) {
  return _mm_blendv_epi8(b, a, _mm_cmpgt_epi64(a, b));
}

/// Two-lane SSE4.2 sweep. Lane math: with P the *exclusive* prefix max of
/// the ends (seeded with the running carry), each element contributes
/// max(0, end - max(begin, P)) — the same telescoped union the scalar
/// formula computes, so results are bit-identical. Compiled with a
/// function-level target attribute and dispatched at runtime, so the
/// baseline build needs no -msse4.2.
__attribute__((target("sse4.2")))
std::int64_t union_sorted_sse42(const std::int64_t* begins,
                                const std::int64_t* ends, std::size_t n) {
  std::int64_t carry = begins[0];  // exclusive prefix max, seeded at b[0]
  std::int64_t total = 0;
  const __m128i zero = _mm_setzero_si128();
  const __m128i int_min = _mm_set1_epi64x(INT64_MIN);
  __m128i acc = zero;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(begins + i));
    const __m128i e = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ends + i));
    // shifted = [INT64_MIN, e0]: lane k holds the intra-block end before it.
    const __m128i shifted =
        _mm_blend_epi16(_mm_slli_si128(e, 8), int_min, 0x0F);
    const __m128i prefix = max64(_mm_set1_epi64x(carry), shifted);
    const __m128i lo = max64(b, prefix);
    const __m128i add = max64(_mm_sub_epi64(e, lo), zero);
    acc = _mm_add_epi64(acc, add);
    const std::int64_t e0 = ends[i];
    const std::int64_t e1 = ends[i + 1];
    carry = std::max(carry, std::max(e0, e1));
  }
  alignas(16) std::int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  total = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    const std::int64_t lo = std::max(begins[i], carry);
    const std::int64_t add = ends[i] - lo;
    total += add > 0 ? add : 0;
    carry = std::max(carry, ends[i]);
  }
  return total;
}

bool cpu_has_sse42() {
  static const bool supported = __builtin_cpu_supports("sse4.2");
  return supported;
}

#endif  // LUMOS_X86_SIMD_DISPATCH

#if LUMOS_NEON_SIMD

/// Two-lane NEON sweep — same lane math as the SSE4.2 pass.
std::int64_t union_sorted_neon(const std::int64_t* begins,
                               const std::int64_t* ends, std::size_t n) {
  std::int64_t carry = begins[0];
  const int64x2_t zero = vdupq_n_s64(0);
  const int64x2_t int_min = vdupq_n_s64(INT64_MIN);
  int64x2_t acc = zero;
  std::size_t i = 0;
  auto max64 = [](int64x2_t a, int64x2_t b) {
    return vbslq_s64(vcgtq_s64(a, b), a, b);
  };
  for (; i + 2 <= n; i += 2) {
    const int64x2_t b = vld1q_s64(begins + i);
    const int64x2_t e = vld1q_s64(ends + i);
    const int64x2_t shifted = vextq_s64(int_min, e, 1);  // [INT64_MIN, e0]
    const int64x2_t prefix = max64(vdupq_n_s64(carry), shifted);
    const int64x2_t lo = max64(b, prefix);
    const int64x2_t add = max64(vsubq_s64(e, lo), zero);
    acc = vaddq_s64(acc, add);
    carry = std::max(carry, std::max(ends[i], ends[i + 1]));
  }
  std::int64_t total = vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
  for (; i < n; ++i) {
    const std::int64_t lo = std::max(begins[i], carry);
    const std::int64_t add = ends[i] - lo;
    total += add > 0 ? add : 0;
    carry = std::max(carry, ends[i]);
  }
  return total;
}

#endif  // LUMOS_NEON_SIMD

}  // namespace

namespace detail {

std::int64_t union_of_sorted_scalar(std::span<const std::int64_t> begins,
                                    std::span<const std::int64_t> ends) {
  if (begins.empty()) return 0;
  // Branch-free: both max() calls and the clamp compile to cmov/csel, so
  // the loop runs at a constant rate regardless of overlap patterns.
  std::int64_t carry = begins[0];
  std::int64_t total = 0;
  for (std::size_t i = 0; i < begins.size(); ++i) {
    const std::int64_t lo = std::max(begins[i], carry);
    const std::int64_t add = ends[i] - lo;
    total += add > 0 ? add : 0;
    carry = std::max(carry, ends[i]);
  }
  return total;
}

bool simd_sweep_active() {
#if LUMOS_X86_SIMD_DISPATCH
  return cpu_has_sse42();
#elif LUMOS_NEON_SIMD
  return true;
#else
  return false;
#endif
}

std::int64_t union_of_sorted(std::span<const std::int64_t> begins,
                             std::span<const std::int64_t> ends) {
  if (begins.empty()) return 0;
#if LUMOS_X86_SIMD_DISPATCH
  if (begins.size() >= 8 && cpu_has_sse42()) {
    return union_sorted_sse42(begins.data(), ends.data(), begins.size());
  }
#elif LUMOS_NEON_SIMD
  if (begins.size() >= 8) {
    return union_sorted_neon(begins.data(), ends.data(), begins.size());
  }
#endif
  return union_of_sorted_scalar(begins, ends);
}

}  // namespace detail

std::int64_t merge_intervals(std::vector<Interval>& intervals) {
  if (intervals.empty()) return 0;
  if (intervals.size() >= kRadixThreshold) {
    radix_sort_pairs(intervals);
  } else {
    std::sort(intervals.begin(), intervals.end());
  }
  return sweep_merge(intervals);
}

std::int64_t merge_intervals_scalar(std::vector<Interval>& intervals) {
  if (intervals.empty()) return 0;
  std::sort(intervals.begin(), intervals.end());
  return sweep_merge(intervals);
}

std::vector<Interval> gather_intervals(std::span<const std::int64_t> ts,
                                       std::span<const std::int64_t> dur,
                                       std::span<const std::uint32_t> select,
                                       std::int64_t clamp_begin,
                                       std::int64_t clamp_end) {
  const bool clamp = clamp_end > clamp_begin;
  std::vector<Interval> out;
  out.reserve(select.size());
  for (const std::uint32_t i : select) {
    std::int64_t lo = ts[i];
    std::int64_t hi = lo + dur[i];
    if (clamp) {
      lo = std::max(lo, clamp_begin);
      hi = std::min(hi, clamp_end);
    }
    if (lo < hi) out.emplace_back(lo, hi);
  }
  return out;
}

UnionStats gather_intervals(std::span<const std::int64_t> ts,
                            std::span<const std::int64_t> dur,
                            std::span<const std::uint32_t> select,
                            IntervalScratch& scratch,
                            std::int64_t clamp_begin,
                            std::int64_t clamp_end) {
  const bool clamp = clamp_end > clamp_begin;
  std::vector<std::int64_t>& begins = scratch.begins;
  std::vector<std::int64_t>& ends = scratch.ends;
  begins.clear();
  ends.clear();
  begins.reserve(select.size());
  ends.reserve(select.size());
  UnionStats stats;
  for (const std::uint32_t i : select) {
    std::int64_t lo = ts[i];
    std::int64_t hi = lo + dur[i];
    if (clamp) {
      lo = std::max(lo, clamp_begin);
      hi = std::min(hi, clamp_end);
    }
    if (lo < hi) {
      begins.push_back(lo);
      ends.push_back(hi);
      stats.total_ns += hi - lo;
    }
  }
  if (begins.empty()) return stats;
  sort_columns(begins, ends, scratch);
  stats.union_ns = detail::union_of_sorted(begins, ends);
  return stats;
}

std::int64_t total_length_ns(std::span<const Interval> intervals) {
  std::int64_t total = 0;
  for (const auto& [lo, hi] : intervals) total += hi - lo;
  return total;
}

}  // namespace lumos::analysis
