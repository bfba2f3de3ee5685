#include "trace/json_writer.h"

#include <charconv>
#include <cmath>

#include "json/json.h"

namespace lumos::trace {

namespace {

constexpr double kNsPerUs = 1000.0;

/// True when `s` serializes as itself (no JSON escape needed) — the
/// overwhelming case for event names; escaping is handled by json::escape
/// in the memo-miss path only.
bool needs_escape(std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

}  // namespace

void JsonWriter::nl(int level) {
  if (indent_ < 0) return;
  buf_.push_back('\n');
  buf_.append(static_cast<std::size_t>(level) * static_cast<std::size_t>(indent_),
              ' ');
}

void JsonWriter::member_key(std::string_view key, int level, bool& first) {
  if (!first) buf_.push_back(',');
  first = false;
  nl(level);
  buf_.push_back('"');
  buf_.append(key);  // keys are fixed ASCII literals; escape(key) == key
  buf_.append(indent_ >= 0 ? std::string_view("\": ") : std::string_view("\":"));
}

void JsonWriter::append_int(std::int64_t v) {
  char tmp[24];
  char* end = std::to_chars(tmp, tmp + sizeof(tmp), v).ptr;
  buf_.append(tmp, end);
}

void JsonWriter::append_us(std::int64_t ns) {
  // Replica of the DOM writer's write_double (json.cpp) applied to
  // ns / 1000.0 — byte-identical output is the contract.
  const double d = static_cast<double>(ns) / kNsPerUs;
  if (std::isnan(d) || std::isinf(d)) {
    buf_.append("null");
    return;
  }
  if (d == static_cast<double>(static_cast<std::int64_t>(d)) &&
      std::abs(d) < 1e15) {
    append_int(static_cast<std::int64_t>(d));
    buf_.append(".0");
    return;
  }
  // chars_format::general with explicit precision is specified as "in the
  // style of printf %.17g" — same bytes as the DOM writer's snprintf, at a
  // fraction of the cost (verified exhaustively in tests/test_io.cpp).
  char tmp[32];
  char* end = std::to_chars(tmp, tmp + sizeof(tmp), d,
                            std::chars_format::general, 17)
                  .ptr;
  buf_.append(tmp, end);
}

void JsonWriter::append_quoted(std::string_view s) {
  buf_.push_back('"');
  if (needs_escape(s)) {
    buf_.append(json::escape(s));
  } else {
    buf_.append(s);
  }
  buf_.push_back('"');
}

void JsonWriter::append_pooled(std::vector<std::string>& memo,
                               const StringPool& pool, std::uint32_t id) {
  if (id == NameId::kInvalidIndex) {
    buf_.append("\"\"");
    return;
  }
  if (memo.size() <= id) memo.resize(pool.size());
  std::string& entry = memo[id];
  if (entry.empty()) {
    // A valid id always names non-empty text (empty encodes as the invalid
    // id), so an empty slot can double as the "not built yet" sentinel.
    const std::string_view text = pool.view(id);
    entry.reserve(text.size() + 2);
    entry.push_back('"');
    entry.append(needs_escape(text) ? json::escape(text)
                                    : std::string(text));
    entry.push_back('"');
  }
  buf_.append(entry);
}

void JsonWriter::write_event(const EventTable& t, std::size_t i) {
  const TracePools& pools = *t.pools();
  bool first = true;
  buf_.push_back('{');
  member_key("ph", 3, first);
  buf_.append("\"X\"");
  member_key("cat", 3, first);
  append_quoted(to_string(t.category(i)));
  member_key("name", 3, first);
  append_pooled(name_memo_, pools.names, t.name_id(i).index);
  member_key("pid", 3, first);
  append_int(t.pid(i));
  member_key("tid", 3, first);
  append_int(t.tid(i));
  member_key("ts", 3, first);
  append_us(t.ts_ns(i));
  member_key("dur", 3, first);
  append_us(t.dur_ns(i));

  // The args object is emitted only when non-empty; the presence test must
  // mirror the DOM builder's (event_to_json, tests/trace_dom.cpp) member
  // conditions exactly.
  const OpId coll_op = t.collective_op(i);
  const GemmShape gemm = t.gemm(i);
  const bool has_args =
      t.correlation(i) >= 0 || t.stream(i) >= 0 || t.cuda_event(i) >= 0 ||
      t.layer(i) >= 0 || t.microbatch(i) >= 0 || t.phase_id(i).valid() ||
      t.block_id(i).valid() || coll_op.valid() || gemm.valid() ||
      t.bytes_moved(i) > 0;
  if (has_args) {
    member_key("args", 3, first);
    bool args_first = true;
    buf_.push_back('{');
    if (t.correlation(i) >= 0) {
      member_key("correlation", 4, args_first);
      append_int(t.correlation(i));
    }
    if (t.stream(i) >= 0) {
      member_key("stream", 4, args_first);
      append_int(t.stream(i));
    }
    if (t.cuda_event(i) >= 0) {
      member_key("cuda_event", 4, args_first);
      append_int(t.cuda_event(i));
    }
    if (t.layer(i) >= 0) {
      member_key("layer", 4, args_first);
      append_int(t.layer(i));
    }
    if (t.microbatch(i) >= 0) {
      member_key("microbatch", 4, args_first);
      append_int(t.microbatch(i));
    }
    if (t.phase_id(i).valid()) {
      member_key("phase", 4, args_first);
      append_pooled(name_memo_, pools.names, t.phase_id(i).index);
    }
    if (t.block_id(i).valid()) {
      member_key("block", 4, args_first);
      append_pooled(name_memo_, pools.names, t.block_id(i).index);
    }
    if (coll_op.valid()) {
      member_key("collective", 4, args_first);
      append_pooled(op_memo_, pools.ops, coll_op.index);
      member_key("comm_group", 4, args_first);
      append_pooled(group_memo_, pools.groups, t.collective_group(i).index);
      member_key("comm_bytes", 4, args_first);
      append_int(t.collective_bytes(i));
      member_key("comm_group_size", 4, args_first);
      append_int(t.collective_group_size(i));
      if (t.collective_instance(i) >= 0) {
        member_key("comm_instance", 4, args_first);
        append_int(t.collective_instance(i));
      }
    }
    if (gemm.valid()) {
      member_key("gemm_m", 4, args_first);
      append_int(gemm.m);
      member_key("gemm_n", 4, args_first);
      append_int(gemm.n);
      member_key("gemm_k", 4, args_first);
      append_int(gemm.k);
    }
    if (t.bytes_moved(i) > 0) {
      member_key("bytes_moved", 4, args_first);
      append_int(t.bytes_moved(i));
    }
    nl(3);
    buf_.push_back('}');
  }
  nl(2);
  buf_.push_back('}');
}

std::string_view JsonWriter::write(const RankTrace& trace) {
  const EventTable& t = trace.events;
  buf_.clear();
  // ~220 bytes per compact serialized event; a one-shot reserve so steady
  // state appends never reallocate (the buffer keeps its capacity across
  // write() calls).
  if (buf_.capacity() < t.size() * 220 + 256) buf_.reserve(t.size() * 220 + 256);
  if (memo_pools_ != t.pools()) {
    memo_pools_ = t.pools();
    name_memo_.clear();
    op_memo_.clear();
    group_memo_.clear();
  }

  bool first = true;
  buf_.push_back('{');
  member_key("schemaVersion", 1, first);
  buf_.push_back('1');
  member_key("deviceProperties", 1, first);
  buf_.append("[]");
  member_key("distributedInfo", 1, first);
  {
    bool inner_first = true;
    buf_.push_back('{');
    member_key("rank", 2, inner_first);
    append_int(trace.rank);
    nl(1);
    buf_.push_back('}');
  }
  member_key("traceEvents", 1, first);
  if (t.empty()) {
    buf_.append("[]");
  } else {
    buf_.push_back('[');
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i != 0) buf_.push_back(',');
      nl(2);
      write_event(t, i);
    }
    nl(1);
    buf_.push_back(']');
  }
  nl(0);
  buf_.push_back('}');
  return buf_;
}

}  // namespace lumos::trace
