// Measurement scaffolding for bench_e2e: clocks, in-memory spans, sample
// statistics, the makespan digest and the result record.
//
// Spans are recorded only from this benchmark's own files, around the
// public calls that enter each Lumos layer. A span's name is
// "<layer>.<call>", so the layer is the text before the first dot. Spans are
// kept in memory and written out once, at exit, as Chrome-trace JSON.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = top level
  std::uint32_t op = 0;      ///< operation (user request) it belongs to
  std::uint32_t tid = 0;     ///< benchmark thread (0 = main)

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced passes read no extra clocks. Thread-safe: each benchmark thread
/// keeps its own parent stack, and finished spans append under one lock
/// (spans wrap whole public calls, never per-task work).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Starts a new operation (one user request) on the calling thread: the
  /// spans it opens next share one operation id.
  void begin_op();

  /// Opens a span on the calling thread; returns its id (0 when disabled).
  std::uint32_t open(const char* name, std::uint32_t tid);
  void close(std::uint32_t id);

  /// Records an already-finished span with explicit timestamps (used for
  /// per-variant spans observed through Sweep::on_result callbacks).
  void record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint32_t parent, std::uint32_t tid);

  /// Id of the innermost span open on the calling thread (0 = none).
  std::uint32_t current() const;

  /// Spans recorded so far, in completion order.
  std::vector<SpanRecord> spans() const;
  /// Finished spans named `name` since index `from` of spans().
  std::vector<double> durations_ms(const std::string& name,
                                   std::size_t from = 0) const;
  std::size_t count() const;

  /// Writes every span as Chrome-trace JSON ("X" events; pid 1, tid =
  /// benchmark thread). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t id;
    std::string name;
    std::int64_t start_ns;
    std::uint32_t parent;
    std::uint32_t op;
    std::uint32_t tid;
  };

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::uint32_t next_id_ = 1;
  std::uint32_t next_op_ = 1;
  std::vector<SpanRecord> done_;
  std::map<std::uint32_t, Open> open_;
};

/// RAII span around one public call.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint32_t tid = 0)
      : tracer_(tracer), id_(tracer.open(name, tid)) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void end() {
    if (id_ != 0) tracer_.close(id_);
    id_ = 0;
  }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Summed duration of the top-level spans in [from, to): the time the layer
/// calls cover, checked against the pass's wall time.
double toplevel_ms(const std::vector<SpanRecord>& spans, std::size_t from,
                   std::size_t to);

/// Self time (duration minus the part covered by direct children) summed
/// per layer, over spans in [from, to).
std::map<std::string, double> self_ms_by_layer(
    const std::vector<SpanRecord>& spans, std::size_t from, std::size_t to);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated percentile (0..100) of `v`; NaN when empty.
double percentile(std::vector<double> v, double p);
inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// The highest of {99, 90, 75} that leaves at least ten samples beyond it;
/// 50 (the median) when none does.
int tail_percentile(std::size_t samples);

// ---------------------------------------------------------------------------
// Digest of simulated makespans
// ---------------------------------------------------------------------------

/// FNV-1a over (label, makespan_ns) pairs, order-independent: entries are
/// sorted by label before hashing, so the digest depends only on what was
/// simulated, not on the run length or completion order.
class Digest {
 public:
  /// Records a makespan under `label`. The same label must always carry
  /// the same makespan; a mismatch is remembered and reported by ok().
  void add(const std::string& label, std::int64_t makespan_ns);
  bool ok() const { return conflicts_ == 0; }
  std::size_t size() const { return values_.size(); }
  std::uint64_t value() const;
  std::string hex() const;

 private:
  std::map<std::string, std::int64_t> values_;
  std::size_t conflicts_ = 0;
};

// ---------------------------------------------------------------------------
// Result record
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = a single measurement or a count
  std::string note;         ///< e.g. "p90" for a tail metric
};

/// One workload run's outcome: operation counts, every metric and the
/// checks that failed. Printed as the last stdout line (JSON).
struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<std::pair<std::string, Metric>> metrics;
  std::map<std::string, double> layer_self_ms;
  Digest digest;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0, std::string note = "");
  /// Counts one operation; a false `ok` counts it failed and keeps `why`.
  void op(bool ok, const std::string& why = "");
  /// A failed output check: counts as a failed operation too.
  void fail(const std::string& why) { op(false, why); }
  std::string to_json() const;
};

}  // namespace e2e
