// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR [--benchmark-json PATH]
//             [--inject-mismatch]
//
// Metric names and units come from BENCHMARK.json: an untraced run prints
// every end_to_end metric, a traced run every per_layer metric (layers a
// workload never touches read 0); measured metrics BENCHMARK.json does not
// declare are printed in the report only. The last stdout line is the result
// object; the exit code is 0 only when every output check passed.

#include <sched.h>
#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

namespace json = pwu::util::json;
using perfbench::Options;
using perfbench::Report;

struct MetricDecl {
  std::string name;
  std::string unit;
};

struct Declared {
  std::vector<MetricDecl> end_to_end;
  std::vector<MetricDecl> per_layer;
};

Declared read_benchmark_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  Declared d;
  const auto decls = [&](const char* key) {
    std::vector<MetricDecl> out;
    for (const json::Value& m : doc.at(key).as_array()) {
      out.push_back({m.at("name").as_string(), m.at("unit").as_string()});
    }
    return out;
  };
  d.end_to_end = decls("end_to_end");
  d.per_layer = decls("per_layer");
  return d;
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --work-dir DIR "
               "[--benchmark-json PATH] [--inject-mismatch]\n";
  return 2;
}

std::string number(double v) {
  // A failed request misses every latency limit; JSON has no infinity.
  if (!std::isfinite(v)) v = 1e12;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // Killed workers must not leave core files in the checkout, and a dead
  // peer must surface as a write error, not SIGPIPE.
  const rlimit no_core{0, 0};
  setrlimit(RLIMIT_CORE, &no_core);
  signal(SIGPIPE, SIG_IGN);

  Options opt;
  opt.threads = available_cpus();
  std::string benchmark_json = "BENCHMARK.json";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        trace = std::stoi(argv[++i]);
      } else if (arg == "--bin-dir" && has_value) {
        opt.bin_dir = argv[++i];
      } else if (arg == "--work-dir" && has_value) {
        opt.work_dir = argv[++i];
      } else if (arg == "--benchmark-json" && has_value) {
        benchmark_json = argv[++i];
      } else if (arg == "--inject-mismatch") {
        opt.inject_mismatch = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.workload.empty() || (trace != 0 && trace != 1) ||
      opt.seconds <= 0.0 || opt.work_dir.empty()) {
    return usage();
  }
  opt.trace = trace == 1;

  Declared declared;
  try {
    declared = read_benchmark_json(benchmark_json);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  const std::map<std::string, std::function<Report(const Options&)>> runners{
      {"tune_paper", perfbench::run_tune_paper},
      {"serve_durable", perfbench::run_serve_durable},
      {"serve_model", perfbench::run_serve_model},
      {"failover", perfbench::run_failover},
  };
  // serve_durable and failover run on request but are not listed in
  // BENCHMARK.json: their fsync-bound numbers are too unsteady on shared
  // disks to gate on.
  const auto runner = runners.find(opt.workload);
  if (runner == runners.end()) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }

  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
  Report report;
  try {
    report = runner->second(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    std::filesystem::remove_all(opt.work_dir);
    return 1;
  }
  std::filesystem::remove_all(opt.work_dir);

  if (!opt.trace) {
    report.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();
    report.metrics["ok_rate"] =
        report.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted);
  }
  const std::vector<MetricDecl>& wanted =
      opt.trace ? declared.per_layer : declared.end_to_end;
  std::string metrics;
  for (const MetricDecl& m : wanted) {
    auto it = report.metrics.find(m.name);
    if (it == report.metrics.end()) {
      if (!opt.trace) {
        std::cerr << "perfbench: " << opt.workload << " did not measure "
                  << m.name << "\n";
        return 1;
      }
      it = report.metrics.emplace(m.name, 0.0).first;  // layer not exercised
    }
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), it->second,
                m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number(it->second) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  // Measured but not declared (layers only the workloads BENCHMARK.json
  // does not list exercise): shown in the report, left out of the result.
  for (const auto& [name, value] : report.metrics) {
    const bool declared_here =
        std::any_of(wanted.begin(), wanted.end(),
                    [&](const MetricDecl& m) { return m.name == name; });
    if (!declared_here && value != 0.0) {
      std::printf("  %-32s %16.6f (not in BENCHMARK.json)\n", name.c_str(),
                  value);
    }
  }
  for (const std::string& problem : report.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
    std::cerr << "perfbench: check failed: " << problem << "\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
