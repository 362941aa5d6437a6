// Steps one AskTellSession through its public calls — refit, plan_ask,
// the surrogate's predict_stats_batch over pool_features(), finish_ask,
// tell — with one span per call. ask() is exactly what
// AskTellSession::ask() does internally, split so each layer is timed.

#pragma once

#include <vector>

#include "common.hpp"
#include "service/ask_tell_session.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

class TimedSession {
 public:
  TimedSession(pwu::service::AskTellSession& session, Tracer& tracer,
               pwu::util::ThreadPool* workers)
      : session_(session), tracer_(tracer), workers_(workers) {}

  /// Runs the due refit, if any. Returns its wall time (0 when none).
  double refit();

  /// refit -> plan_ask -> pool scoring -> finish_ask. `seconds` receives
  /// the wall time of the whole ask.
  std::vector<pwu::service::Candidate> ask(std::size_t n, double& seconds);

  /// Returns the wall time of the tell.
  double tell(const pwu::space::Configuration& config, double time);

  std::size_t rows_scored() const { return rows_scored_; }

 private:
  pwu::service::AskTellSession& session_;
  Tracer& tracer_;
  pwu::util::ThreadPool* workers_;
  std::size_t rows_scored_ = 0;
};

}  // namespace perfbench
