#include "timed_session.hpp"

namespace perfbench {

double TimedSession::refit() {
  if (!session_.refit_due()) return 0.0;
  Tracer::Span span(tracer_, "rf.fit");
  session_.refit();
  return span.close();
}

std::vector<pwu::service::Candidate> TimedSession::ask(std::size_t n,
                                                       double& seconds) {
  Tracer::Span span(tracer_, "tuner.ask");
  refit();
  pwu::service::AskPlan plan;
  {
    Tracer::Span plan_span(tracer_, "core.plan");
    plan = session_.plan_ask(n);
  }
  std::vector<pwu::service::Candidate> out;
  if (!plan.needs_scores) {
    out = std::move(plan.candidates);
  } else {
    std::vector<pwu::rf::PredictionStats> stats;
    {
      Tracer::Span score_span(tracer_, "rf.score");
      stats = session_.model()->predict_stats_batch(session_.pool_features(),
                                                    workers_);
    }
    rows_scored_ += stats.size();
    Tracer::Span select_span(tracer_, "core.select");
    out = session_.finish_ask(plan, stats);
  }
  seconds = span.close();
  return out;
}

double TimedSession::tell(const pwu::space::Configuration& config,
                          double time) {
  Tracer::Span span(tracer_, "core.tell");
  session_.tell(config, time);
  return span.close();
}

}  // namespace perfbench
