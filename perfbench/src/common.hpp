// Shared pieces of the repo benchmark: the clock, the percentile helper,
// the in-memory span recorder, and the report every workload fills in.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A percentile was asked of too few samples (see percentile()).
struct NotEnoughSamples : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Linear-interpolated percentile (p in [0, 1]). Refuses — throws
/// NotEnoughSamples — unless at least `min_beyond` samples lie beyond it,
/// i.e. n * (1 - p) >= min_beyond: a p99 needs 1000 samples, a p50 20.
double percentile(std::vector<double> samples, double p,
                  std::size_t min_beyond = 10);

/// percentile() that answers 0 for an empty sample (a layer the workload
/// never exercised) but still refuses a thin, non-empty one.
double percentile_or_zero(const std::vector<double>& samples, double p);

/// First, second and third quartile (no sample-count rule: used for
/// reporting spread in the per-hop table, next to the sample count).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> samples);

/// Peak resident set of this process plus that of its largest waited-for
/// descendant, in MiB.
double peak_rss_mb();

/// One finished span. `parent` indexes the enclosing span (-1 = root).
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Per-name aggregate of the recorded spans.
struct SpanStats {
  std::size_t calls = 0;
  double busy_s = 0.0;  // sum of span durations
  std::vector<double> durations_s;
};

/// In-memory span recorder. Spans nest by scope on one thread; a disabled
/// tracer records nothing (the untraced run) but Span still measures its
/// own duration, which the workloads use for their timed metrics.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Closes the span early; returns its duration.
    double close();

   private:
    Tracer& tracer_;
    Clock::time_point start_;
    Clock::time_point end_;
    int index_ = -1;
    int saved_current_ = -1;
    bool open_ = true;
  };

  const std::vector<SpanRecord>& records() const { return records_; }
  std::map<std::string, SpanStats> aggregate() const;
  /// Writes one JSON object per span (name, start_ns, end_ns, parent,
  /// request) to `path`.
  void write_jsonl(const std::string& path) const;

  /// Measured cost of opening and closing one recorded span, in seconds.
  static double span_cost_s();

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> records_;
  int current_ = -1;
};

/// Benchmark-wide options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding pwu_serve and pwu_router.
  std::string bin_dir;
  /// Scratch directory for checkpoints and trace files (inside the
  /// checkout); created and removed by the run.
  std::string work_dir;
  /// Test hook: corrupt one reference reply so the stream check must fail.
  bool inject_mismatch = false;
  unsigned threads = 1;  // hardware threads available to the run
};

/// What one workload run produced. `metrics` maps a metric name to its
/// value; units come from BENCHMARK.json.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;

  void fail_check(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

}  // namespace perfbench
