#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

constexpr std::uint64_t kLinear = 2048;  // exact bins below this
constexpr int kSubBits = 7;              // 128 bins per power of two
constexpr int kMaxExp = 40;              // larger samples share the top bin

std::size_t bin_of(std::uint64_t v) {
  if (v < kLinear) return v;
  const int e = std::min(63 - __builtin_clzll(v), kMaxExp);  // >= 11
  const std::uint64_t sub =
      e == kMaxExp ? (1u << kSubBits) - 1
                   : (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
  return kLinear + (static_cast<std::size_t>(e) - 11) * (1u << kSubBits) +
         sub;
}

/// [low, high) of the values bin `b` holds.
std::pair<double, double> bin_range(std::size_t b) {
  if (b < kLinear) return {static_cast<double>(b), static_cast<double>(b + 1)};
  const std::size_t i = b - kLinear;
  const int e = static_cast<int>(i >> kSubBits) + 11;
  const double width = std::ldexp(1.0, e - kSubBits);
  const double low =
      std::ldexp(1.0, e) + static_cast<double>(i & ((1u << kSubBits) - 1)) *
                               width;
  return {low, low + width};
}

}  // namespace

Histogram::Histogram() : bins_(bin_of(~std::uint64_t{0}) + 1, 0) {}

void Histogram::add(std::uint64_t v) {
  ++bins_[bin_of(v)];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t b = 0; b < bins_.size(); ++b) bins_[b] += other.bins_[b];
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_);
  double below = 0;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    if (bins_[b] == 0) continue;
    const double in_bin = static_cast<double>(bins_[b]);
    if (below + in_bin > rank) {
      const auto [low, high] = bin_range(b);
      return low + (rank - below) / in_bin * (high - low);
    }
    below += in_bin;
  }
  return bin_range(bins_.size() - 1).second;
}

Windows::Windows(Clock::time_point t0, double seconds)
    : t0_(t0),
      length_s_(seconds / static_cast<double>(std::max(
                              1L, std::lround(seconds / kWindowS)))),
      windows_(static_cast<std::size_t>(
          std::max(1L, std::lround(seconds / kWindowS)))),
      end_(t0) {}

Windows::Window& Windows::at(Clock::time_point t) {
  const double offset = std::max(0.0, s_between(t0_, t));
  const auto i = static_cast<std::size_t>(offset / length_s_);
  return windows_[std::min(i, windows_.size() - 1)];
}

std::vector<double> Windows::quantiles(Histogram Window::*h,
                                       double q) const {
  std::vector<double> v;
  for (const Window& w : windows_)
    if ((w.*h).count()) v.push_back((w.*h).quantile(q));
  return v;
}

Histogram Windows::pooled(Histogram Window::*h) const {
  Histogram all;
  for (const Window& w : windows_) all.merge(w.*h);
  return all;
}

std::vector<double> Windows::rates() const {
  std::vector<double> v;
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    // The last window runs until the pass ended.
    const double len =
        i + 1 < windows_.size()
            ? length_s_
            : s_between(t0_, end_) - length_s_ * static_cast<double>(i);
    if (len > 0) v.push_back(static_cast<double>(windows_[i].completed) / len);
  }
  return v;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::uint64_t context_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed_;
    return;
  }
  ++failed_;
  constexpr std::size_t kKeep = 20;
  if (messages_.size() < kKeep) messages_.push_back(what);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"attempted\": " << attempted << ", \"failed\": " << failed
     << ",\n \"checks\": {\"passed\": " << checks.passed()
     << ", \"failed\": " << checks.failed() << ", \"messages\": [";
  for (std::size_t i = 0; i < checks.messages().size(); ++i)
    os << (i ? ", " : "") << json_string(checks.messages()[i]);
  os << "]},\n \"config\": {";
  bool first = true;
  for (const auto& [k, v] : config) {
    os << (first ? "\n  " : ",\n  ") << json_string(k) << ": "
       << json_string(v);
    first = false;
  }
  os << "},\n \"windows\": {";
  first = true;
  for (const auto& [k, v] : windows) {
    os << (first ? "\n  " : ",\n  ") << json_string(k) << ": [";
    for (std::size_t i = 0; i < v.size(); ++i)
      os << (i ? ", " : "") << json_number(v[i]);
    os << "]";
    first = false;
  }
  os << "},\n \"metrics\": {";
  first = true;
  for (const auto& [k, m] : metrics) {
    os << (first ? "\n  " : ",\n  ") << json_string(k)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit)
       << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  os << "}}\n";
  return os.str();
}

// ---- span tracer ----

namespace trace {
namespace {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t job = 0;
  double start_ns = 0;  // since the tracer's epoch
  double end_ns = 0;
  std::uint32_t thread = 0;
};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  /// Indices into `spans` of the spans this thread has open, innermost
  /// last.
  std::vector<std::size_t> open;
};

// Buffers are owned here, not by the threads, so spans recorded by
// short-lived threads (the sweep's workers) survive until write().
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();

ThreadBuffer& local() {
  thread_local ThreadBuffer* buf = nullptr;
  if (!buf) {
    const std::lock_guard lock(g_registry_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = g_buffers.back().get();
    buf->thread = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *buf;
}

std::uint64_t new_id() {
  // relaxed: the id only has to be unique.
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void enable(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(); }

std::uint64_t record(const char* name, std::uint64_t job,
                     std::uint64_t parent, Clock::time_point start,
                     Clock::time_point end) {
  if (!enabled()) return 0;
  ThreadBuffer& buf = local();
  const std::uint64_t id = new_id();
  buf.spans.push_back({name, id, parent, job, ns_between(g_epoch, start),
                       ns_between(g_epoch, end), buf.thread});
  return id;
}

std::uint64_t open(const char* name, std::uint64_t job) {
  if (!enabled()) return 0;
  ThreadBuffer& buf = local();
  const std::uint64_t parent = current();
  const std::uint64_t id = new_id();
  buf.open.push_back(buf.spans.size());
  buf.spans.push_back({name, id, parent, job,
                       ns_between(g_epoch, Clock::now()), 0, buf.thread});
  return id;
}

void close(std::uint64_t id) {
  if (id == 0) return;
  const double now = ns_between(g_epoch, Clock::now());
  ThreadBuffer& buf = local();
  if (buf.open.empty() || buf.spans[buf.open.back()].id != id) return;
  buf.spans[buf.open.back()].end_ns = now;
  buf.open.pop_back();
}

std::uint64_t current() {
  ThreadBuffer& buf = local();
  return buf.open.empty() ? 0 : buf.spans[buf.open.back()].id;
}

std::map<std::string, SpanTotals> totals() {
  const std::lock_guard lock(g_registry_mutex);
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const auto& buf : g_buffers)
    for (const Span& s : buf->spans) by_id.emplace(s.id, &s);
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const auto& [id, s] : by_id)
    if (s->parent != 0 && by_id.count(s->parent))
      children[s->parent].emplace_back(s->start_ns, s->end_ns);

  std::map<std::string, SpanTotals> out;
  for (const auto& [id, s] : by_id) {
    const double dur = s->end_ns - s->start_ns;
    // Self time = duration minus the union of the child intervals clipped
    // to this span (children on other threads may overlap each other).
    double covered = 0;
    if (auto it = children.find(id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0, hi = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s->start_ns);
        b = std::min(b, s->end_ns);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    SpanTotals& t = out[s->name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - covered;
  }
  return out;
}

bool write(const std::string& path) {
  // The file is for looking at one run in a trace viewer; beyond this many
  // spans it only costs disk. totals() always covers every span.
  constexpr std::size_t kMaxWritten = 200000;
  const std::lock_guard lock(g_registry_mutex);
  std::ofstream out(path);
  if (!out) return false;
  std::size_t total = 0;
  for (const auto& buf : g_buffers) total += buf->spans.size();
  out << "{\"otherData\": {\"spans_recorded\": " << total
      << ", \"spans_written_max\": " << kMaxWritten << "},\n"
      << "\"traceEvents\": [";
  std::size_t written = 0;
  char line[512];
  for (const auto& buf : g_buffers) {
    for (const Span& s : buf->spans) {
      if (written == kMaxWritten) break;
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %llu, \"parent\": %llu, \"job\": %llu}}",
                    written ? "," : "", s.name, s.thread, s.start_ns * 1e-3,
                    (s.end_ns - s.start_ns) * 1e-3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.job));
      out << line;
      ++written;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace trace

}  // namespace perfbench
