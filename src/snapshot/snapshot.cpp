#include "snapshot/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/column.h"
#include "io/fnv.h"
#include "io/mapped_file.h"

namespace lumos::snapshot {

// The format stores raw little-endian column bytes; a big-endian build
// would need byte-swapping fixup that nothing in this codebase targets.
static_assert(std::endian::native == std::endian::little,
              "snapshot format requires a little-endian build");

namespace {

constexpr char kMagic[8] = {'L', 'U', 'M', 'O', 'S', 'N', 'A', 'P'};

enum SectionId : std::uint32_t {
  kSectionMeta = 1,   ///< opaque api-layer JSON
  kSectionPools = 2,  ///< canonical string pools (names / ops / groups)
  kSectionTrace = 3,  ///< per-rank event columns
  kSectionGraph = 4,  ///< edges and the task payload columns
};

#pragma pack(push, 1)
struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t section_count;
  std::uint64_t content_hash;      ///< trace::content_hash of the payload trace
  std::uint64_t payload_checksum;  ///< io::fnv1a_words over the payload bytes
  std::uint64_t file_size;         ///< total file length (truncation check)
};
struct SectionEntry {
  std::uint32_t id;
  std::uint32_t reserved;
  std::uint64_t offset;  ///< from file start, 8-byte aligned
  std::uint64_t length;
};
#pragma pack(pop)
static_assert(sizeof(Header) == 40, "header layout is part of the format");
static_assert(sizeof(SectionEntry) == 24,
              "section entry layout is part of the format");

[[noreturn]] void fail_corrupt(const std::string& what) {
  throw Error(ErrorKind::kCorrupt, "snapshot: " + what);
}

std::size_t align8(std::size_t n) { return (n + 7u) & ~std::size_t{7}; }

/// Append-only serialization buffer. Every scalar is widened to 8 bytes
/// and every array is padded to an 8-byte boundary, so all offsets stay
/// 8-aligned and the reader can view columns in place without fixup.
class Buffer {
 public:
  std::size_t size() const { return bytes_.size(); }
  const std::string& bytes() const { return bytes_; }

  template <class T>
  void put(T v) {
    static_assert(std::is_scalar_v<T>, "serialize scalars only (no padding)");
    if constexpr (std::is_floating_point_v<T>) {
      const double wide = static_cast<double>(v);
      append(&wide, sizeof(wide));
    } else if constexpr (std::is_signed_v<T>) {
      const std::int64_t wide = static_cast<std::int64_t>(v);
      append(&wide, sizeof(wide));
    } else {
      const std::uint64_t wide = static_cast<std::uint64_t>(v);
      append(&wide, sizeof(wide));
    }
  }

  template <class T>
  void put_array(const T* data, std::size_t n) {
    static_assert(std::is_scalar_v<T>,
                  "serialize scalar columns only — struct padding would make "
                  "the payload checksum nondeterministic");
    put(static_cast<std::uint64_t>(n));
    append(data, n * sizeof(T));
    pad();
  }

  template <class T>
  void put_array(const std::vector<T>& v) {
    put_array(v.data(), v.size());
  }

  void put_bytes(std::string_view s) {
    put(static_cast<std::uint64_t>(s.size()));
    append(s.data(), s.size());
    pad();
  }

 private:
  void append(const void* data, std::size_t n) {
    bytes_.append(static_cast<const char*>(data), n);
  }
  void pad() { bytes_.resize(align8(bytes_.size()), '\0'); }

  std::string bytes_;
};

/// Bounds-checked reading cursor over one section of the mapping. Columns
/// come back as io::Column borrows pinned to `keepalive` (the MappedFile).
class Cursor {
 public:
  Cursor(std::string_view data, std::shared_ptr<const void> keepalive)
      : data_(data), keepalive_(std::move(keepalive)) {}

  template <class T>
  T get() {
    static_assert(std::is_scalar_v<T>);
    if constexpr (std::is_floating_point_v<T>) {
      double wide;
      std::memcpy(&wide, take(sizeof(wide)), sizeof(wide));
      return static_cast<T>(wide);
    } else if constexpr (std::is_signed_v<T>) {
      std::int64_t wide;
      std::memcpy(&wide, take(sizeof(wide)), sizeof(wide));
      return static_cast<T>(wide);
    } else {
      std::uint64_t wide;
      std::memcpy(&wide, take(sizeof(wide)), sizeof(wide));
      return static_cast<T>(wide);
    }
  }

  template <class T>
  std::span<const T> get_span() {
    const auto n = get<std::uint64_t>();
    if (n > data_.size() / sizeof(T)) fail_corrupt("column length overflow");
    const char* p = take(static_cast<std::size_t>(n) * sizeof(T));
    pad();
    return {reinterpret_cast<const T*>(p), static_cast<std::size_t>(n)};
  }

  /// Zero-copy column view into the mapping.
  template <class T>
  io::Column<T> get_column() {
    const std::span<const T> s = get_span<T>();
    if (s.empty()) return {};
    return io::Column<T>::borrow(s.data(), s.size(), keepalive_);
  }

  std::string_view get_bytes() {
    const auto n = get<std::uint64_t>();
    if (n > data_.size()) fail_corrupt("blob length overflow");
    const char* p = take(static_cast<std::size_t>(n));
    pad();
    return {p, static_cast<std::size_t>(n)};
  }

 private:
  const char* take(std::size_t n) {
    if (n > data_.size() - pos_) fail_corrupt("truncated section");
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  void pad() {
    const std::size_t aligned = align8(pos_);
    if (aligned > data_.size()) fail_corrupt("truncated section");
    pos_ = aligned;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::shared_ptr<const void> keepalive_;
};

/// Id translation from one source StringPool into the canonical output
/// pool, interning on first sight. Identity when the source was already
/// the canonical pool (the common "one pool per trace" case) — the writer
/// then streams columns without rewriting them.
class PoolRemap {
 public:
  PoolRemap() = default;
  PoolRemap(const trace::StringPool& src, trace::StringPool& dst) {
    map_.resize(src.size());
    for (std::size_t id = 0; id < src.size(); ++id) {
      map_[id] = dst.intern(src.view(static_cast<std::uint32_t>(id)));
      identity_ &= (map_[id] == id);
    }
  }

  bool identity() const { return identity_; }
  std::uint32_t operator[](std::uint32_t id) const {
    return id == trace::NameId::kInvalidIndex ? id : map_[id];
  }

 private:
  std::vector<std::uint32_t> map_;
  bool identity_ = true;
};

struct PoolsRemap {
  PoolRemap names, ops, groups;
};

void write_pool(Buffer& buf, const trace::StringPool& pool) {
  std::vector<std::uint64_t> offsets(pool.size() + 1, 0);
  std::string blob;
  for (std::size_t id = 0; id < pool.size(); ++id) {
    blob += pool.view(static_cast<std::uint32_t>(id));
    offsets[id + 1] = blob.size();
  }
  buf.put(static_cast<std::uint64_t>(pool.size()));
  buf.put_array(offsets);
  buf.put_bytes(blob);
}

void read_pool(Cursor& cur, trace::StringPool& pool) {
  const auto count = cur.get<std::uint64_t>();
  const std::span<const std::uint64_t> offsets = cur.get_span<std::uint64_t>();
  const std::string_view blob = cur.get_bytes();
  if (offsets.size() != count + 1) fail_corrupt("pool offset table size");
  for (std::uint64_t id = 0; id < count; ++id) {
    const std::uint64_t lo = offsets[id], hi = offsets[id + 1];
    if (lo > hi || hi > blob.size()) fail_corrupt("pool offsets out of range");
    // Re-interning in serialized id order reproduces the serialized ids
    // exactly (first-intern-order determinism), so every id column in the
    // payload resolves without translation.
    const std::uint32_t got = pool.intern(
        blob.substr(static_cast<std::size_t>(lo),
                    static_cast<std::size_t>(hi - lo)));
    if (got != id) fail_corrupt("pool contains duplicate strings");
  }
}

}  // namespace

/// The one friend of the trace tables: serializes and reconstructs them
/// column by column. visit_event_columns defines the on-disk column order
/// — writer, reader and checker share it, so they can never disagree.
struct Access {
  /// What a column's values are, for the load-time range checks: ids into
  /// a string pool or rows of the collective / GEMM side table, task
  /// durations and start times, or anything (kNone).
  enum class Domain : std::uint8_t {
    kNone, kName, kOp, kGroup, kCollRow, kGemmRow, kDuration, kTime
  };
  /// Which rows a column has: one per event, or one per side-table entry.
  enum class Rows : std::uint8_t { kEvent, kColl, kGemm };

  template <class Table, class F>
  static void visit_event_columns(Table& t, F&& f) {
    f(t.cat_, Rows::kEvent, Domain::kNone);
    f(t.api_, Rows::kEvent, Domain::kNone);
    f(t.ts_, Rows::kEvent, Domain::kTime);
    f(t.dur_, Rows::kEvent, Domain::kDuration);
    f(t.pid_, Rows::kEvent, Domain::kNone);
    f(t.tid_, Rows::kEvent, Domain::kNone);
    f(t.correlation_, Rows::kEvent, Domain::kNone);
    f(t.stream_, Rows::kEvent, Domain::kNone);
    f(t.cuda_event_, Rows::kEvent, Domain::kNone);
    f(t.layer_, Rows::kEvent, Domain::kNone);
    f(t.microbatch_, Rows::kEvent, Domain::kNone);
    f(t.bytes_moved_, Rows::kEvent, Domain::kNone);
    f(t.name_, Rows::kEvent, Domain::kName);
    f(t.phase_, Rows::kEvent, Domain::kName);
    f(t.block_, Rows::kEvent, Domain::kName);
    f(t.coll_idx_, Rows::kEvent, Domain::kCollRow);
    f(t.gemm_idx_, Rows::kEvent, Domain::kGemmRow);
    f(t.coll_.op, Rows::kColl, Domain::kOp);
    f(t.coll_.group, Rows::kColl, Domain::kGroup);
    f(t.coll_.bytes, Rows::kColl, Domain::kNone);
    f(t.coll_.group_size, Rows::kColl, Domain::kNone);
    f(t.coll_.instance, Rows::kColl, Domain::kNone);
    f(t.gemm_.m, Rows::kGemm, Domain::kNone);
    f(t.gemm_.n, Rows::kGemm, Domain::kNone);
    f(t.gemm_.k, Rows::kGemm, Domain::kNone);
  }

  /// Row counts of the collective and GEMM side tables.
  static std::pair<std::size_t, std::size_t> side_rows(
      const trace::EventTable& t) {
    return {t.coll_.op.size(), t.gemm_.m.size()};
  }
  static std::shared_ptr<trace::TracePools>& cluster_pools(
      trace::ClusterTrace& t) {
    return t.pools_;
  }
  /// The loaded payload columns become the graph's task payload as-is
  /// (zero-copy views of the mapping).
  static void install_tasks(core::ExecutionGraph& g,
                            core::TaskColumns tasks) {
    g.tasks_ = std::make_shared<core::TaskColumns>(std::move(tasks));
  }
};

namespace {

/// Canonical output pools + memoized per-source-pool id remaps. The writer
/// funnels every string domain of the bundle (per-rank trace pools, the
/// graph payload's pools — usually all one shared instance) through this,
/// so the snapshot carries exactly one pool set.
struct WriterPools {
  std::shared_ptr<trace::TracePools> out =
      std::make_shared<trace::TracePools>();
  std::unordered_map<const trace::TracePools*, PoolsRemap> memo;

  const PoolsRemap& remap_for(const trace::TracePools& src) {
    auto it = memo.find(&src);
    if (it != memo.end()) return it->second;
    PoolsRemap r;
    r.names = PoolRemap(src.names, out->names);
    r.ops = PoolRemap(src.ops, out->ops);
    r.groups = PoolRemap(src.groups, out->groups);
    return memo.emplace(&src, std::move(r)).first->second;
  }
};

const PoolRemap& domain_remap(const PoolsRemap& r, Access::Domain d) {
  switch (d) {
    case Access::Domain::kOp: return r.ops;
    case Access::Domain::kGroup: return r.groups;
    default: return r.names;
  }
}

/// Writes one column, translating string-id columns into canonical pool
/// ids. Non-string columns (and identity remaps — the shared-pool fast
/// path) stream straight from the column's storage.
struct ColumnWriter {
  Buffer& buf;
  const PoolsRemap& remap;

  template <class T>
  void operator()(const io::Column<T>& col, Access::Rows,
                  Access::Domain d) const {
    if constexpr (std::is_same_v<T, std::uint32_t>) {
      if (d == Access::Domain::kName || d == Access::Domain::kOp ||
          d == Access::Domain::kGroup) {
        const PoolRemap& r = domain_remap(remap, d);
        if (!r.identity()) {
          std::vector<std::uint32_t> translated(col.size());
          for (std::size_t i = 0; i < col.size(); ++i) translated[i] = r[col[i]];
          buf.put_array(translated);
          return;
        }
      }
    }
    buf.put_array(col.data(), col.size());
  }
};

struct ColumnReader {
  Cursor& cur;

  template <class T>
  void operator()(io::Column<T>& col, Access::Rows, Access::Domain) const {
    col = cur.get_column<T>();
  }
};

/// Range check of one loaded column: its length matches its rows, and
/// every value lies in its domain's range. After this, nothing downstream
/// indexes out of range through a loaded id, and no replay clock overflows.
struct ColumnChecker {
  /// A single task longer than 2^40 ns (~18 minutes) cannot come from an
  /// iteration profile; below it, replay and analysis sums of durations
  /// stay far inside int64.
  static constexpr std::int64_t kMaxDurationNs = std::int64_t{1} << 40;
  /// Start times (epoch-based traces reach ~2^61 ns) stay below 2^62, so a
  /// start plus a duration cannot overflow.
  static constexpr std::int64_t kMaxTimeNs = std::int64_t{1} << 62;

  const trace::TracePools& pools;
  std::size_t events, colls, gemms;

  template <class T>
  void operator()(const io::Column<T>& col, Access::Rows rows,
                  Access::Domain d) const {
    const std::size_t want = rows == Access::Rows::kEvent  ? events
                             : rows == Access::Rows::kColl ? colls
                                                           : gemms;
    if (col.size() != want) fail_corrupt("event column length mismatch");
    if (d == Access::Domain::kNone) return;
    const Range r = range_of(d);
    for (const T v : col) {
      const auto x = static_cast<std::int64_t>(v);
      if ((x < r.lo || x >= r.hi) && x != r.none) {
        fail_corrupt(std::string("event ") + r.what + " out of range");
      }
    }
  }

  /// Values a column may hold: [lo, hi), plus `none`.
  struct Range {
    std::int64_t lo, hi, none;
    const char* what;
  };
  Range range_of(Access::Domain d) const {
    // The invalid string id encodes the empty string; row -1 is "no row".
    constexpr std::int64_t kNoString = trace::NameId::kInvalidIndex;
    const auto size = [](std::size_t n) {
      return static_cast<std::int64_t>(n);
    };
    switch (d) {
      case Access::Domain::kName:
        return {0, size(pools.names.size()), kNoString, "name id"};
      case Access::Domain::kOp:
        return {0, size(pools.ops.size()), kNoString, "collective op id"};
      case Access::Domain::kGroup:
        return {0, size(pools.groups.size()), kNoString, "group id"};
      case Access::Domain::kCollRow:
        return {-1, size(colls), -1, "collective row"};
      case Access::Domain::kGemmRow:
        return {-1, size(gemms), -1, "GEMM row"};
      case Access::Domain::kDuration:
        return {0, kMaxDurationNs, 0, "duration"};
      case Access::Domain::kTime:
        return {-kMaxTimeNs, kMaxTimeNs, 0, "start time"};
      case Access::Domain::kNone: break;
    }
    return {0, 0, 0, ""};
  }
};

void write_event_table(Buffer& buf, const trace::EventTable& t,
                       WriterPools& pools) {
  buf.put(static_cast<std::uint64_t>(t.size()));
  Access::visit_event_columns(t, ColumnWriter{buf, pools.remap_for(*t.pools())});
}

trace::EventTable read_event_table(Cursor& cur,
                                   std::shared_ptr<trace::TracePools> pools) {
  const auto size = cur.get<std::uint64_t>();
  trace::EventTable t(std::move(pools));
  Access::visit_event_columns(t, ColumnReader{cur});
  if (t.size() != size) fail_corrupt("event column length mismatch");
  const auto [colls, gemms] = Access::side_rows(t);
  Access::visit_event_columns(
      t, ColumnChecker{*t.pools(), t.size(), colls, gemms});
  return t;
}

void write_graph(Buffer& buf, const core::ExecutionGraph& graph,
                 WriterPools& pools) {
  // Edges as three scalar columns — Edge itself has padding bytes that
  // would poison the payload checksum.
  const std::vector<core::Edge>& edges = graph.edges();
  std::vector<std::int32_t> src(edges.size()), dst(edges.size());
  std::vector<std::uint8_t> type(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    src[i] = edges[i].src;
    dst[i] = edges[i].dst;
    type[i] = static_cast<std::uint8_t>(edges[i].type);
  }
  buf.put_array(src);
  buf.put_array(dst);
  buf.put_array(type);

  // Task payload: the graph's own processor and event columns, string ids
  // translated into the canonical pools. The meta table is not stored: the
  // loader derives it from these columns like every other producer.
  const core::TaskColumns& tasks = graph.columns();
  buf.put_array(tasks.rank.data(), tasks.rank.size());
  buf.put_array(tasks.gpu.data(), tasks.gpu.size());
  buf.put_array(tasks.lane.data(), tasks.lane.size());
  write_event_table(buf, tasks.events, pools);
}

std::shared_ptr<const core::ExecutionGraph> read_graph(
    Cursor& cur, std::shared_ptr<trace::TracePools> pools) {
  const std::span<const std::int32_t> src = cur.get_span<std::int32_t>();
  const std::span<const std::int32_t> dst = cur.get_span<std::int32_t>();
  const std::span<const std::uint8_t> type = cur.get_span<std::uint8_t>();
  if (src.size() != dst.size() || src.size() != type.size()) {
    fail_corrupt("edge column length mismatch");
  }

  io::Column<std::int32_t> rank = cur.get_column<std::int32_t>();
  io::Column<std::uint8_t> gpu = cur.get_column<std::uint8_t>();
  io::Column<std::int64_t> lane = cur.get_column<std::int64_t>();
  trace::EventTable events = read_event_table(cur, pools);
  if (rank.size() != events.size() || gpu.size() != events.size() ||
      lane.size() != events.size()) {
    fail_corrupt("task column length mismatch");
  }

  auto graph = std::make_shared<core::ExecutionGraph>();
  graph->reserve(0, src.size());  // the payload below replaces the columns
  Access::install_tasks(*graph, {std::move(events), std::move(rank),
                                 std::move(gpu), std::move(lane)});
  try {
    for (std::size_t i = 0; i < src.size(); ++i) {
      if (type[i] >= core::kDepTypeCount) {
        fail_corrupt("edge type out of range");
      }
      graph->add_edge(src[i], dst[i], static_cast<core::DepType>(type[i]));
    }
  } catch (const std::invalid_argument& e) {
    fail_corrupt(e.what());
  }
  graph->meta();  // derived eagerly, before the graph is published
  return graph;
}

}  // namespace

void write(const std::string& path, const Bundle& bundle) {
  WriterPools pools;

  // Section payloads. Build order matters: trace and graph intern into the
  // canonical pools, which are serialized last (complete), but placed
  // before them in the file so the loader rebuilds pools first.
  Buffer meta_buf;
  meta_buf.put_bytes(bundle.meta_json);

  Buffer trace_buf;
  const trace::ClusterTrace& trace = *bundle.trace;
  trace_buf.put(static_cast<std::uint64_t>(trace.ranks.size()));
  for (const trace::RankTrace& rank : trace.ranks) {
    trace_buf.put(rank.rank);
    write_event_table(trace_buf, rank.events, pools);
  }

  Buffer graph_buf;
  write_graph(graph_buf, *bundle.graph, pools);

  Buffer pools_buf;
  write_pool(pools_buf, pools.out->names);
  write_pool(pools_buf, pools.out->ops);
  write_pool(pools_buf, pools.out->groups);

  // Assemble: header, section table, payload in loader order.
  const Buffer* sections[] = {&meta_buf, &pools_buf, &trace_buf, &graph_buf};
  const std::uint32_t ids[] = {kSectionMeta, kSectionPools, kSectionTrace,
                               kSectionGraph};
  constexpr std::size_t kSectionCount = 4;
  const std::size_t payload_start =
      sizeof(Header) + kSectionCount * sizeof(SectionEntry);

  std::string file_bytes(payload_start, '\0');
  SectionEntry table[kSectionCount];
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    table[i] = {ids[i], 0, file_bytes.size(), sections[i]->size()};
    file_bytes += sections[i]->bytes();
  }

  Header header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.section_count = kSectionCount;
  header.content_hash = bundle.content_hash;
  header.payload_checksum = io::fnv1a_words(
      file_bytes.data() + payload_start, file_bytes.size() - payload_start);
  header.file_size = file_bytes.size();
  std::memcpy(file_bytes.data(), &header, sizeof(header));
  std::memcpy(file_bytes.data() + sizeof(header), table, sizeof(table));

  // Crash safety: the image lands under a temporary name in the target
  // directory (same filesystem, so the final step can be rename(2)), is
  // fsync'd, then atomically renamed over `path`. A process killed at any
  // point leaves either the previous snapshot or a stray .tmp — never a
  // torn LUMOSNAP image under the target name. The temp name embeds the
  // pid so two writers racing on one path cannot interleave into one temp
  // file; the loser's rename still wins or loses atomically.
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw Error(ErrorKind::kIo, "snapshot: cannot open '" + tmp_path +
                                    "' for writing: " + std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < file_bytes.size()) {
    const ssize_t n = ::write(fd, file_bytes.data() + written,
                              file_bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: without it the rename can be durable while the
  // data is not, which is exactly the torn-image window the temp file is
  // supposed to close.
  const bool synced = written == file_bytes.size() && ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed) {
    ::unlink(tmp_path.c_str());
    throw Error(ErrorKind::kIo, "snapshot: short write to '" + tmp_path + "'");
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp_path.c_str());
    throw Error(ErrorKind::kIo, "snapshot: cannot rename '" + tmp_path +
                                    "' to '" + path +
                                    "': " + std::strerror(err));
  }
}

namespace {

Header checked_header(std::string_view view, const std::string& path) {
  if (view.size() < sizeof(Header)) {
    fail_corrupt("'" + path + "' is too short for a snapshot header");
  }
  Header header;
  std::memcpy(&header, view.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    fail_corrupt("'" + path + "' is not a lumos snapshot (bad magic)");
  }
  if (header.version != kFormatVersion) {
    throw Error(ErrorKind::kVersion,
                "snapshot: '" + path + "' has format version " +
                    std::to_string(header.version) + ", this build reads " +
                    std::to_string(kFormatVersion));
  }
  return header;
}

}  // namespace

Bundle load(const std::string& path, bool use_mmap) {
  std::shared_ptr<io::MappedFile> file;
  try {
    file = std::make_shared<io::MappedFile>(io::MappedFile::open(path, use_mmap));
  } catch (const std::exception& e) {
    throw Error(ErrorKind::kIo, std::string("snapshot: ") + e.what());
  }
  const std::string_view view = file->view();
  const Header header = checked_header(view, path);
  if (header.file_size != view.size()) {
    fail_corrupt("'" + path + "' is truncated (header says " +
                 std::to_string(header.file_size) + " bytes, file has " +
                 std::to_string(view.size()) + ")");
  }
  const std::size_t table_bytes =
      static_cast<std::size_t>(header.section_count) * sizeof(SectionEntry);
  if (header.section_count > 64 ||
      sizeof(Header) + table_bytes > view.size()) {
    fail_corrupt("section table out of range");
  }
  const std::size_t payload_start = sizeof(Header) + table_bytes;
  if (io::fnv1a_words(view.data() + payload_start,
                      view.size() - payload_start) !=
      header.payload_checksum) {
    fail_corrupt("'" + path + "' payload checksum mismatch");
  }

  std::string_view section_views[5];  // indexed by SectionId
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, view.data() + sizeof(Header) + i * sizeof(entry),
                sizeof(entry));
    if (entry.offset % 8 != 0 || entry.offset < payload_start ||
        entry.offset > view.size() ||
        entry.length > view.size() - entry.offset) {
      fail_corrupt("section bounds out of range");
    }
    if (entry.id >= 1 && entry.id <= 4) {
      section_views[entry.id] =
          view.substr(static_cast<std::size_t>(entry.offset),
                      static_cast<std::size_t>(entry.length));
    }
  }
  for (std::uint32_t id = 1; id <= 4; ++id) {
    if (section_views[id].data() == nullptr) {
      fail_corrupt("missing section " + std::to_string(id));
    }
  }

  Bundle bundle;
  bundle.content_hash = header.content_hash;
  {
    Cursor cur(section_views[kSectionMeta], file);
    bundle.meta_json = std::string(cur.get_bytes());
  }

  auto pools = std::make_shared<trace::TracePools>();
  {
    Cursor cur(section_views[kSectionPools], file);
    read_pool(cur, pools->names);
    read_pool(cur, pools->ops);
    read_pool(cur, pools->groups);
  }

  {
    Cursor cur(section_views[kSectionTrace], file);
    const auto rank_count = cur.get<std::uint64_t>();
    trace::ClusterTrace trace;
    Access::cluster_pools(trace) = pools;
    trace.ranks.reserve(static_cast<std::size_t>(rank_count));
    for (std::uint64_t i = 0; i < rank_count; ++i) {
      const auto rank = cur.get<std::int32_t>();
      trace.ranks.push_back(
          trace::RankTrace{rank, read_event_table(cur, pools)});
    }
    bundle.trace =
        std::make_shared<const trace::ClusterTrace>(std::move(trace));
  }

  {
    Cursor cur(section_views[kSectionGraph], file);
    bundle.graph = read_graph(cur, pools);
  }
  return bundle;
}

std::uint64_t peek_content_hash(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw Error(ErrorKind::kIo, "snapshot: cannot open '" + path +
                                    "': " + std::strerror(errno));
  }
  char bytes[sizeof(Header)];
  const std::size_t got = std::fread(bytes, 1, sizeof(bytes), f);
  std::fclose(f);
  const Header header =
      checked_header(std::string_view(bytes, got), path);
  return header.content_hash;
}

}  // namespace lumos::snapshot
