// The benchmark's workloads. Each fills a Report: with opt.trace false the
// end-to-end metrics, with opt.trace true the per-layer metrics.

#pragma once

#include "common.hpp"

namespace perfbench {

/// Algorithm 1 in-process at the paper's scale on five kernels.
Report run_tune_paper(const Options& opt);

/// Closed loop through `pwu_router --workers 3 --standby --frame`.
Report run_serve_durable(const Options& opt);

/// Closed loop against one `pwu_serve --threads <nproc-1>`.
Report run_serve_model(const Options& opt);

/// Two-worker in-process Router fleets, killed mid-stream.
Report run_failover(const Options& opt);

}  // namespace perfbench
