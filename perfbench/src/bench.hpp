// Shared pieces of the wsf benchmark program: clocks, percentiles, the
// per-run result record, correctness checks, and the span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return ns_between(a, b) * 1e-3;
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return ns_between(a, b) * 1e-9;
}

/// Log-linear histogram of non-negative integer samples (times in whole
/// µs or ns): exact bins of width 1 below 2048, then 128 bins per power of
/// two (relative width under 0.8%). Fixed size, so recording a run's
/// samples does not grow the process.
class Histogram {
 public:
  Histogram();
  void add(std::uint64_t v);
  /// Adds `other`'s samples (every histogram has the same bins).
  void merge(const Histogram& other);
  std::uint64_t count() const { return count_; }
  /// q-quantile (0 < q < 1), interpolated inside the bin that holds rank
  /// q·n (the grouped-data estimator). Integer samples make a plain
  /// nearest-rank percentile jump by a whole unit between runs, which on a
  /// 10 µs job is a 10% swing the system did not make.
  double quantile(double q) const;

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

/// Median of real-valued samples (mean of the middle two). Copies.
double median(std::vector<double> v);

/// A pass's samples split into equal time windows of about kWindowS.
/// Throughput is reported as the median rate over the windows, so a
/// stretch where another tenant of the machine takes a CPU moves one
/// window, not the run's figure. Percentiles are taken over the pooled
/// samples of the whole pass, so a rare stall still shows in the tail;
/// the per-window values are kept for diagnosis.
class Windows {
 public:
  static constexpr double kWindowS = 1.0;

  struct Window {
    Histogram latency_us, service_us, queue_us;
    std::uint64_t completed = 0;
  };

  /// Windows covering [t0, t0 + seconds); later samples join the last one.
  Windows(Clock::time_point t0, double seconds);
  /// The window holding time `t`.
  Window& at(Clock::time_point t);
  /// Marks when the pass ended (the last window's end, for rates).
  void finish(Clock::time_point end) { end_ = end; }

  /// The quantile in each window that has samples.
  std::vector<double> quantiles(Histogram Window::*h, double q) const;
  /// Every window's samples in one histogram.
  Histogram pooled(Histogram Window::*h) const;
  /// completed / window length, per window.
  std::vector<double> rates() const;
  double median_rate() const { return median(rates()); }

 private:
  Clock::time_point t0_;
  double length_s_;
  std::vector<Window> windows_;
  Clock::time_point end_;
};

/// `v` printed with %g, for configuration strings.
std::string format_number(double v);

/// Process-wide voluntary + involuntary context switches so far.
std::uint64_t context_switches();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Correctness checks of one run. Every failed check is kept (the first
/// few verbatim) and fails the run.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return failed_ == 0; }
  std::uint64_t passed() const { return passed_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t passed_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

struct Metric {
  double value = 0;
  std::string unit;
  /// Samples behind the value (jobs, operations, configs, runs).
  std::uint64_t samples = 0;
};

/// Everything one run reports: metrics, the configuration and machine it
/// ran with, and its checks.
struct Report {
  std::map<std::string, Metric> metrics;
  /// Full configuration and machine fingerprint, as printable strings.
  std::map<std::string, std::string> config;
  /// Per-window values behind windowed metrics, for diagnosis.
  std::map<std::string, std::vector<double>> windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Checks checks;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics[name] = {value, unit, samples};
  }
  /// A metric of a layer this workload does not run: reported as 0 with
  /// no samples, and listed under config "not_exercised".
  void not_exercised(const std::string& name, const std::string& unit) {
    set(name, 0, unit, 0);
    std::string& list = config["not_exercised"];
    list += (list.empty() ? "" : " ") + name;
  }
  std::string to_json() const;
};

// ---- span tracer ----
//
// Spans live in per-thread buffers (no lock on the recording path) and are
// written out once, when the run ends, as a Chrome trace-event file. Each
// span names the layer call it wraps, the job it belongs to (0 = none), and
// its parent span, so self time (span minus the part of it its children
// cover) can be computed per layer.

/// Per-layer aggregate of a trace: count, total and self time.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

namespace trace {

/// Turns recording on (spans opened while off are not kept).
void enable(bool on);
bool enabled();
/// Records a finished span; returns its id (0 when tracing is off).
std::uint64_t record(const char* name, std::uint64_t job,
                     std::uint64_t parent, Clock::time_point start,
                     Clock::time_point end);
/// Opens a span on the calling thread; its parent is the innermost span
/// this thread has open. Returns the id the matching close() takes.
std::uint64_t open(const char* name, std::uint64_t job);
void close(std::uint64_t id);
/// The innermost span the calling thread has open (0 if none).
std::uint64_t current();

/// Per-name totals of every span recorded so far, with self time.
std::map<std::string, SpanTotals> totals();
/// Writes every recorded span to `path` (Chrome trace-event JSON).
bool write(const std::string& path);

/// RAII span on the calling thread.
class Scope {
 public:
  Scope(const char* name, std::uint64_t job) : id_(open(name, job)) {}
  ~Scope() { close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint64_t id_;
};

}  // namespace trace

}  // namespace perfbench
