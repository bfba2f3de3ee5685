#include "harness.h"

#include <cinttypes>
#include <numeric>

namespace e2e {

namespace {

// Per-thread nesting: the innermost open span is the parent of the next
// one, and the current operation id groups the spans of one request.
thread_local std::vector<std::uint32_t> t_stack;
thread_local std::uint32_t t_op = 0;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Tracer::begin_op() {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  t_op = next_op_++;
}

std::uint32_t Tracer::open(const char* name, std::uint32_t tid) {
  if (!enabled_) return 0;
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t id = next_id_++;
  const std::uint32_t parent = t_stack.empty() ? 0 : t_stack.back();
  open_[id] = Open{id, name, start, parent, t_op, tid};
  t_stack.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  const Open& o = it->second;
  done_.push_back(SpanRecord{o.name, o.start_ns, end, o.id, o.parent, o.op,
                             o.tid});
  open_.erase(it);
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

void Tracer::record(std::string name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent,
                    std::uint32_t tid) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  done_.push_back(SpanRecord{std::move(name), start_ns, end_ns, next_id_++,
                             parent, t_op, tid});
}

std::uint32_t Tracer::current() const {
  return t_stack.empty() ? 0 : t_stack.back();
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

std::size_t Tracer::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_.size();
}

std::vector<double> Tracer::durations_ms(const std::string& name,
                                         std::size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (std::size_t i = from; i < done_.size(); ++i) {
    if (done_[i].name == name) out.push_back(done_[i].ms());
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  const std::vector<SpanRecord> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"op\":%u}}\n",
                 i == 0 ? "" : ",", json_escape(s.name).c_str(),
                 json_escape(s.layer()).c_str(), s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, s.op);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double toplevel_ms(const std::vector<SpanRecord>& spans, std::size_t from,
                   std::size_t to) {
  double total = 0.0;
  for (std::size_t i = from; i < to; ++i) {
    if (spans[i].parent == 0) total += spans[i].ms();
  }
  return total;
}

std::map<std::string, double> self_ms_by_layer(
    const std::vector<SpanRecord>& spans, std::size_t from, std::size_t to) {
  std::map<std::uint32_t, double> child_ms;
  for (std::size_t i = from; i < to; ++i) {
    if (spans[i].parent != 0) child_ms[spans[i].parent] += spans[i].ms();
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < to; ++i) {
    const SpanRecord& s = spans[i];
    auto it = child_ms.find(s.id);
    out[s.layer()] += s.ms() - (it == child_ms.end() ? 0.0 : it->second);
  }
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

int tail_percentile(std::size_t samples) {
  for (int p : {99, 90, 75}) {
    const double beyond = static_cast<double>(samples) * (100 - p) / 100.0;
    if (beyond >= 10.0) return p;
  }
  return 50;
}

void Digest::add(const std::string& label, std::int64_t makespan_ns) {
  auto [it, inserted] = values_.emplace(label, makespan_ns);
  if (!inserted && it->second != makespan_ns) ++conflicts_;
}

std::uint64_t Digest::value() const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& [label, ns] : values_) {
    mix(label.data(), label.size());
    mix(&ns, sizeof(ns));
  }
  return h;
}

std::string Digest::hex() const {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value());
  return buf;
}

void Record::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples,
                 std::string note) {
  for (auto& [n, m] : metrics) {
    if (n == name) {
      m = Metric{value, unit, samples, std::move(note)};
      return;
    }
  }
  metrics.emplace_back(name, Metric{value, unit, samples, std::move(note)});
}

void Record::op(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

std::string Record::to_json() const {
  std::string out = "{\"workload\":\"" + json_escape(workload) + "\"";
  out += ",\"seed\":" + std::to_string(seed);
  out += std::string(",\"traced\":") + (traced ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"digest\":\"" + digest.hex() + "\"";
  out += ",\"digest_entries\":" + std::to_string(digest.size());
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i ? ",\"" : "\"") + json_escape(failures[i]) + "\"";
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, m] = metrics[i];
    out += (i ? ",\"" : "\"") + json_escape(name) + "\":{\"value\":" +
           number(m.value) + ",\"unit\":\"" + json_escape(m.unit) +
           "\",\"samples\":" + std::to_string(m.samples) + ",\"note\":\"" +
           json_escape(m.note) + "\"}";
  }
  out += "},\"layer_self_ms\":{";
  bool first = true;
  for (const auto& [layer, ms] : layer_self_ms) {
    out += (first ? "\"" : ",\"") + json_escape(layer) + "\":" + number(ms);
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace e2e
