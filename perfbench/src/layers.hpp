// Turns recorded spans into the per-layer metrics named in BENCHMARK.json.

#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// Fills every span-derived per-layer metric (rf.*, core.*, session.*,
/// ckpt.serialize/write/resume, json.encode/decode, frame.encode,
/// workloads.measure, core.eval) from `tracer`, writes the spans to
/// `<opt.work_dir>/../traces/<workload>-seed<seed>.jsonl`, and sets
/// trace.overhead_pct from the span count over `traced_wall_s`.
void finish_trace(const Tracer& tracer, const Options& opt,
                  double traced_wall_s, std::size_t rows_scored,
                  Report& report);

}  // namespace perfbench
