#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> samples, double p,
                  std::size_t min_beyond) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("percentile: p");
  const double beyond = static_cast<double>(samples.size()) * (1.0 - p);
  if (samples.empty() || beyond + 1e-9 < static_cast<double>(min_beyond)) {
    std::ostringstream msg;
    msg << "percentile p" << p * 100.0 << " of " << samples.size()
        << " samples has fewer than " << min_beyond << " samples beyond it";
    throw NotEnoughSamples(msg.str());
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double percentile_or_zero(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : percentile(samples, p);
}

Quartiles quartiles(std::vector<double> samples) {
  Quartiles q;
  if (samples.empty()) return q;
  q.q1 = percentile(samples, 0.25, 0);
  q.median = percentile(samples, 0.50, 0);
  q.q3 = percentile(std::move(samples), 0.75, 0);
  return q;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest
  // single descendant, not a sum.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer), start_(Clock::now()) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.records_.size());
  SpanRecord record;
  record.name = name;
  record.parent = tracer_.current_;
  record.request = request;
  tracer_.records_.push_back(std::move(record));
  saved_current_ = tracer_.current_;
  tracer_.current_ = index_;
}

Tracer::Span::~Span() { close(); }

double Tracer::Span::close() {
  if (open_) {
    end_ = Clock::now();
    open_ = false;
    if (index_ >= 0) {
      SpanRecord& record = tracer_.records_[static_cast<std::size_t>(index_)];
      record.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            start_ - tracer_.origin_)
                            .count();
      record.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          end_ - tracer_.origin_)
                          .count();
      tracer_.current_ = saved_current_;
    }
  }
  return seconds_between(start_, end_);
}

std::map<std::string, SpanStats> Tracer::aggregate() const {
  std::map<std::string, SpanStats> out;
  for (const SpanRecord& r : records_) {
    const double d = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    SpanStats& s = out[r.name];
    s.calls += 1;
    s.busy_s += d;
    s.durations_s.push_back(d);
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const SpanRecord& r : records_) {
    out << "{\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << ",\"parent\":" << r.parent
        << ",\"request\":" << r.request << "}\n";
  }
}

double Tracer::span_cost_s() {
  constexpr int kSpans = 20000;
  Tracer probe(true);
  const auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Span span(probe, "probe");
  }
  return seconds_between(start, Clock::now()) / kSpans;
}

}  // namespace perfbench
