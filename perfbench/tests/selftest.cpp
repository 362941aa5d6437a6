// Harness self-tests: the closed loop, the percentile rule, and the
// stream check's exit code.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

#include "closed_loop.hpp"
#include "common.hpp"
#include "service/transport.hpp"

namespace perfbench {
namespace {

/// Counts sends and receives around an in-process server.
class CountingTransport : public pwu::service::Transport {
 public:
  void send(const std::string& line) override {
    ++sends_;
    max_outstanding_ = std::max(max_outstanding_, sends_ - recvs_);
    inner_.send(line);
  }
  std::string recv() override {
    ++recvs_;
    return inner_.recv();
  }
  std::size_t sends() const { return sends_; }
  std::size_t recvs() const { return recvs_; }
  std::size_t max_outstanding() const { return max_outstanding_; }

 private:
  pwu::service::InProcessTransport inner_;
  std::size_t sends_ = 0;
  std::size_t recvs_ = 0;
  std::size_t max_outstanding_ = 0;
};

TEST(ClosedLoop, KeepsExactlyKInFlightAndCountsEveryAttempt) {
  constexpr std::size_t kClients = 7;
  const std::vector<SessionShape> mix{{"gesummv", 4, 1, 8, 4, 60},
                                      {"atax", 4, 2, 10, 4, 60}};
  std::vector<TuningClient> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back("t" + std::to_string(c) + "-", mix, c, 100 + c);
  }
  CountingTransport server;
  Tracer tracer(false);
  RequestLog log;
  const LoopResult result =
      run_closed_loop(server, clients, 0.3, tracer, log);
  ASSERT_TRUE(result.transport_ok) << result.transport_error;
  EXPECT_EQ(result.min_in_flight, kClients);
  EXPECT_EQ(result.max_in_flight, kClients);
  EXPECT_EQ(server.max_outstanding(), kClients);
  EXPECT_EQ(result.attempted, server.sends());
  EXPECT_EQ(server.sends(), server.recvs());
  EXPECT_EQ(result.attempted, log.entries.size());
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.completed, result.attempted);
  std::size_t asks = 0;
  std::size_t tells = 0;
  for (const RequestLog::Entry& e : log.entries) {
    EXPECT_TRUE(e.response.bool_or("ok", false)) << e.request;
    asks += e.kind == OpKind::Ask;
    tells += e.kind == OpKind::Tell;
  }
  EXPECT_EQ(result.ask_ms.size(), asks);
  EXPECT_EQ(result.tell_ms.size(), tells);
  EXPECT_GT(log.sessions.size(), kClients);  // sessions completed and reopened
}

TEST(Percentile, RefusesWithoutTenSamplesBeyond) {
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_THROW(percentile(v, 0.99), NotEnoughSamples);
  v.push_back(999.0);
  EXPECT_NEAR(percentile(v, 0.99), 989.01, 1e-9);
  std::vector<double> small(19, 1.0);
  EXPECT_THROW(percentile(small, 0.5), NotEnoughSamples);
  small.push_back(1.0);
  EXPECT_EQ(percentile(small, 0.5), 1.0);
  EXPECT_THROW(percentile({}, 0.5), NotEnoughSamples);
  EXPECT_EQ(percentile_or_zero({}, 0.99), 0.0);
}

struct RunOutput {
  int exit_code = -1;
  std::string stdout_text;
};

RunOutput run_benchmark(const std::string& extra) {
  const std::string cmd =
      std::string("'") + PERFBENCH_BIN +
      "' --workload serve_durable --seed 5 --seconds 6 --trace 0"
      " --bin-dir '" + PERFBENCH_TOOLS + "' --work-dir selftest_work"
      " --benchmark-json '" + PERFBENCH_JSON + "' " + extra + " 2>/dev/null";
  RunOutput out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  std::array<char, 4096> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    out.stdout_text += buf.data();
  }
  const int status = pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

TEST(StreamCheck, InjectedMismatchMakesTheRunExitNonZero) {
  const RunOutput clean = run_benchmark("");
  EXPECT_EQ(clean.exit_code, 0) << clean.stdout_text;
  EXPECT_NE(clean.stdout_text.find("\"correct\": true"), std::string::npos);

  const RunOutput broken = run_benchmark("--inject-mismatch");
  EXPECT_EQ(broken.exit_code, 1) << broken.stdout_text;
  EXPECT_NE(broken.stdout_text.find("\"correct\": false"), std::string::npos);
  EXPECT_NE(broken.stdout_text.find("differ from the in-process reference"),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
