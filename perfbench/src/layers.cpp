#include "layers.hpp"

#include <filesystem>

namespace perfbench {

void finish_trace(const Tracer& tracer, const Options& opt,
                  double traced_wall_s, std::size_t rows_scored,
                  Report& report) {
  const std::map<std::string, SpanStats> spans = tracer.aggregate();
  const auto get = [&](const char* name) -> SpanStats {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanStats{} : it->second;
  };
  auto& m = report.metrics;
  const auto p = [](const SpanStats& s, double q, double scale) {
    return percentile_or_zero(s.durations_s, q) * scale;
  };

  const SpanStats fit = get("rf.fit");
  m["rf.fit.calls"] = static_cast<double>(fit.calls);
  m["rf.fit.ms_p50"] = p(fit, 0.5, 1e3);
  m["rf.fit.busy_s"] = fit.busy_s;

  const SpanStats score = get("rf.score");
  m["rf.score.calls"] = static_cast<double>(score.calls);
  m["rf.score.ms_p50"] = p(score, 0.5, 1e3);
  m["rf.score.busy_s"] = score.busy_s;
  m["rf.score.rows_per_s"] =
      score.busy_s > 0.0 ? static_cast<double>(rows_scored) / score.busy_s
                         : 0.0;

  const SpanStats select = get("core.select");
  m["core.select.ms_p50"] = p(select, 0.5, 1e3);
  m["core.select.busy_s"] = select.busy_s;
  m["core.tell.us_p50"] = p(get("core.tell"), 0.5, 1e6);

  const SpanStats ask = get("session.ask");
  m["session.ask.ms_p50"] = p(ask, 0.5, 1e3);
  m["session.ask.ms_p99"] = p(ask, 0.99, 1e3);
  m["session.tell.us_p50"] = p(get("session.tell"), 0.5, 1e6);

  m["ckpt.serialize.ms_p50"] = p(get("ckpt.serialize"), 0.5, 1e3);
  const SpanStats write = get("ckpt.write");
  m["ckpt.write.ms_p50"] = p(write, 0.5, 1e3);
  m["ckpt.write.ms_p99"] = p(write, 0.99, 1e3);
  m["ckpt.resume.ms_p50"] = p(get("ckpt.resume"), 0.5, 1e3);

  m["json.encode.us_p50"] = p(get("json.encode"), 0.5, 1e6);
  m["json.decode.us_p50"] = p(get("json.decode"), 0.5, 1e6);
  m["frame.encode.us_p50"] = p(get("frame.encode"), 0.5, 1e6);

  m["workloads.measure.busy_s"] = get("workloads.measure").busy_s;
  m["core.eval.busy_s"] = get("core.eval").busy_s;

  m["trace.overhead_pct"] =
      traced_wall_s > 0.0
          ? 100.0 * static_cast<double>(tracer.records().size()) *
                Tracer::span_cost_s() / traced_wall_s
          : 0.0;

  const std::filesystem::path dir =
      std::filesystem::path(opt.work_dir).parent_path() / "traces";
  std::filesystem::create_directories(dir);
  tracer.write_jsonl(
      (dir / (opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl"))
          .string());
}

}  // namespace perfbench
