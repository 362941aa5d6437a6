#include "service/ask_tell_session.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/killpoints.hpp"

namespace pwu::service {

namespace {

void validate_config(const core::LearnerConfig& config) {
  if (config.n_init == 0) {
    throw std::invalid_argument("AskTellSession: n_init must be > 0");
  }
  if (config.n_batch == 0) {
    throw std::invalid_argument("AskTellSession: n_batch must be > 0");
  }
  if (config.n_max < config.n_init) {
    throw std::invalid_argument("AskTellSession: n_max must be >= n_init");
  }
  if (config.eval_every == 0) {
    throw std::invalid_argument("AskTellSession: eval_every must be > 0");
  }
  if (!(config.failure.backoff_base_seconds >= 0.0) ||
      !(config.failure.backoff_cap_seconds >=
        config.failure.backoff_base_seconds)) {
    throw std::invalid_argument(
        "AskTellSession: failure backoff must satisfy 0 <= base <= cap");
  }
}

}  // namespace

const char* to_string(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::ColdStart: return "cold-start";
    case SessionPhase::AwaitingTells: return "awaiting-tells";
    case SessionPhase::Ready: return "ready";
    case SessionPhase::Done: return "done";
  }
  return "unknown";
}

AskTellSession::AskTellSession(const space::ParameterSpace& space,
                               core::LearnerConfig config,
                               std::vector<space::Configuration> pool,
                               std::uint64_t seed, util::ThreadPool* workers)
    : space_(space),
      config_(std::move(config)),
      workers_(workers),
      pool_(std::move(pool)),
      train_(space_.num_params(), space_.categorical_mask(),
             space_.cardinalities()),
      rng_(seed),
      // Fixed decorrelation constant: the degraded stream is a deterministic
      // function of the session seed but statistically independent of rng_.
      degraded_rng_(seed ^ 0xd5a61266f0c9392dULL) {
  rebuild_pool_features();
}

void AskTellSession::rebuild_pool_features() {
  pool_features_ =
      rf::FeatureMatrix::with_capacity(space_.num_params(), pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    space_.write_features(pool_.at(i), pool_features_.append_row());
  }
}

AskTellSession::AskTellSession(const space::ParameterSpace& space,
                               StrategySpec spec, core::LearnerConfig config,
                               std::vector<space::Configuration> pool,
                               std::uint64_t seed, util::ThreadPool* workers)
    : AskTellSession(space, std::move(config), std::move(pool), seed,
                     workers) {
  validate_config(config_);
  if (pool_.size() < config_.n_init) {
    throw std::invalid_argument("AskTellSession: pool smaller than n_init");
  }
  owned_strategy_ = core::make_strategy(spec.name, spec.alpha);
  strategy_ = owned_strategy_.get();
  spec_ = std::move(spec);
}

AskTellSession::AskTellSession(const space::ParameterSpace& space,
                               const core::SamplingStrategy& strategy,
                               core::LearnerConfig config,
                               std::vector<space::Configuration> pool,
                               const rf::Dataset* warm_start,
                               std::uint64_t seed, util::ThreadPool* workers)
    : AskTellSession(space, std::move(config), std::move(pool), seed,
                     workers) {
  validate_config(config_);
  if (pool_.size() < config_.n_init) {
    throw std::invalid_argument("AskTellSession: pool smaller than n_init");
  }
  strategy_ = &strategy;
  if (warm_start != nullptr) {
    if (warm_start->num_features() != space_.num_params()) {
      throw std::invalid_argument(
          "AskTellSession: warm-start feature schema mismatch");
    }
    for (std::size_t i = 0; i < warm_start->size(); ++i) {
      train_.add(warm_start->row(i), warm_start->y(i));
    }
    warm_rows_ = warm_start->size();
  }
}

bool AskTellSession::done() const {
  if (!pending_.empty()) return false;
  // An exhausted pool ends the session even mid-cold-start (every candidate
  // may have failed); otherwise the budget decides once cold start is over.
  if (pool_.empty()) return true;
  return cold_start_done_ && num_labeled() >= config_.n_max;
}

SessionPhase AskTellSession::phase() const {
  if (!pending_.empty()) return SessionPhase::AwaitingTells;
  if (!cold_start_done_) return SessionPhase::ColdStart;
  if (done()) return SessionPhase::Done;
  return SessionPhase::Ready;
}

double AskTellSession::best_observed() const {
  if (train_labels_.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return *std::min_element(train_labels_.begin(), train_labels_.end());
}

std::vector<Candidate> AskTellSession::ask(std::size_t n) {
  AskPlan plan = plan_ask(n);
  if (!plan.needs_scores) return std::move(plan.candidates);
  const std::vector<rf::PredictionStats> stats =
      model_->predict_stats_batch(pool_features_, workers_);
  return finish_ask(plan, stats);
}

AskPlan AskTellSession::plan_ask(std::size_t n) {
  AskPlan plan;
  if (!pending_.empty()) {
    throw std::logic_error(
        "AskTellSession::ask: previous batch still awaiting tells");
  }
  refit();
  if (done()) return plan;

  if (!cold_start_done_) {
    // Cold start (Algorithm 1, lines 1-4): exactly n_init uniform picks,
    // regardless of the requested batch size. When failures dropped part of
    // a previous cold-start batch, top up with the shortfall only — the
    // first ask (num_labeled() == 0) is bit-identical to the pre-failure
    // behavior.
    PWU_ASSERT(num_labeled() < config_.n_init,
               "ask: cold start still open with n_init labels");
    // Cold-start picks carry iteration 0 even when a degraded ask has
    // already advanced iteration_.
    take_pending(pool_.sample_indices(
                     std::min(config_.n_init - num_labeled(), pool_.size()),
                     rng_),
                 nullptr, 0);
    plan.candidates = pending_;
    return plan;
  }

  // Iteration phase (Algorithm 1, lines 5-9): predict over the pool, let
  // the strategy pick a batch. The prediction pass itself runs between
  // plan_ask and finish_ask: inline in ask(), or in the caller.
  PWU_ASSERT(model_ != nullptr,
             "ask: cold start complete but no fitted surrogate");
  ++iteration_;
  plan.batch = batch_size(n);
  plan.needs_scores = true;
  return plan;
}

std::vector<Candidate> AskTellSession::finish_ask(
    const AskPlan& plan, const std::vector<rf::PredictionStats>& stats) {
  PWU_REQUIRE(plan.needs_scores,
              "finish_ask: plan was already complete (cold start or done)");
  PWU_REQUIRE(stats.size() == pool_.size(),
              "finish_ask: " << stats.size() << " scores for "
                             << pool_.size() << " pool rows");
  take_pending(select_batch(stats, plan.batch, rng_), &stats, iteration_);
  return pending_;
}

std::vector<Candidate> AskTellSession::ask_degraded(
    std::size_t n, const core::Surrogate* stale) {
  if (!pending_.empty()) {
    throw std::logic_error(
        "AskTellSession::ask_degraded: previous batch still awaiting tells");
  }
  if (done()) return {};

  ++iteration_;
  const std::size_t batch = batch_size(n);
  if (stale != nullptr && stale->fitted()) {
    // Score the pool with the caller's last-good snapshot — serially
    // (nullptr pool): the worker threads are busy with the very refit this
    // ask is degrading around.
    const std::vector<rf::PredictionStats> stats =
        stale->predict_stats_batch(pool_features_, nullptr);
    take_pending(select_batch(stats, batch, degraded_rng_), &stats, iteration_);
    ++degraded_stale_asks_;
  } else {
    take_pending(pool_.sample_indices(batch, degraded_rng_), nullptr,
                 iteration_);
    ++degraded_random_asks_;
  }
  return pending_;
}

std::size_t AskTellSession::batch_size(std::size_t n) const {
  const std::size_t want = n == 0 ? config_.n_batch : n;
  return std::min({want, config_.n_max - num_labeled(), pool_.size()});
}

std::vector<std::size_t> AskTellSession::select_batch(
    const std::vector<rf::PredictionStats>& stats, std::size_t batch,
    util::Rng& rng) const {
  core::PoolPrediction prediction;
  prediction.best_observed = best_observed();
  prediction.mean.resize(stats.size());
  prediction.stddev.resize(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    prediction.mean[i] = stats[i].mean;
    prediction.stddev[i] = stats[i].stddev;
  }
  prediction.features = &pool_features_;
  std::vector<std::size_t> selected = strategy_->select(prediction, batch, rng);
  if (selected.empty()) {
    throw std::logic_error("SamplingStrategy returned an empty batch");
  }
  return selected;
}

void AskTellSession::take_pending(std::vector<std::size_t> indices,
                                  const std::vector<rf::PredictionStats>* stats,
                                  std::size_t iteration) {
  // Remove in descending index order so earlier removals (swap-with-last)
  // cannot disturb later indices, keeping each config paired with its
  // feature row and with the prediction it was selected under.
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  for (auto it = indices.rbegin(); it != indices.rend(); ++it) {
    Candidate cand;
    if (stats != nullptr) {
      cand.has_prediction = true;
      cand.predicted_mean = stats->at(*it).mean;
      cand.predicted_stddev = stats->at(*it).stddev;
    }
    cand.iteration = iteration;
    cand.config = pool_.take(*it);
    pool_features_.remove_row_swap(*it);
    pending_.push_back(std::move(cand));
  }
  PWU_ENSURE(phase() == SessionPhase::AwaitingTells,
             "ask: a non-empty batch must leave the session awaiting tells, "
             "got " << to_string(phase()));
  PWU_ENSURE(pool_.size() == pool_features_.num_rows(),
             "ask: pool/features desync " << pool_.size() << " vs "
                                          << pool_features_.num_rows());
}

std::vector<Candidate>::iterator AskTellSession::find_pending(
    const space::Configuration& config, const char* who) {
  const auto it =
      std::find_if(pending_.begin(), pending_.end(),
                   [&](const Candidate& c) { return c.config == config; });
  if (it == pending_.end()) {
    throw std::invalid_argument(
        std::string(who) +
        ": configuration is not an outstanding candidate");
  }
  return it;
}

bool AskTellSession::tell(const space::Configuration& config,
                          double measured_time) {
  const auto it = find_pending(config, "AskTellSession::tell");
  append_label(*it, measured_time);
  pending_.erase(it);
  if (!pending_.empty()) return false;
  on_batch_drained();
  return true;
}

FailureOutcome AskTellSession::tell_failure(const space::Configuration& config,
                                            sim::FailureKind kind,
                                            double cost_seconds) {
  if (kind == sim::FailureKind::None) {
    throw std::invalid_argument(
        "AskTellSession::tell_failure: kind None is a success; use tell()");
  }
  if (!(cost_seconds >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "AskTellSession::tell_failure: cost_seconds must be >= 0");
  }
  const auto it = find_pending(config, "AskTellSession::tell_failure");

  // The failed attempt's wall-clock is real tuning time: charge it.
  cumulative_cost_ += cost_seconds;
  failure_cost_ += cost_seconds;
  ++it->failures;

  FailureOutcome outcome;
  outcome.attempts = it->failures;
  if (kind == sim::FailureKind::Crash &&
      it->failures <= config_.failure.max_retries) {
    // Transient: keep the candidate outstanding and charge the backoff wait
    // the tuner would block on before re-running.
    ++transient_retries_;
    outcome.action = FailureAction::Retry;
    outcome.backoff_seconds = config_.failure.backoff_seconds(it->failures);
    cumulative_cost_ += outcome.backoff_seconds;
    failure_cost_ += outcome.backoff_seconds;
    return outcome;
  }

  // Deterministic failure or retries exhausted: the configuration enters
  // the failed set and is never proposed again. A timeout additionally
  // yields a right-censored observation (true time > cost_seconds) that is
  // recorded but deliberately kept out of the training set.
  if (kind == sim::FailureKind::Timeout) {
    censored_.push_back({it->config, cost_seconds});
  }
  add_failed({it->config, kind, it->failures});
  pending_.erase(it);
  outcome.action = FailureAction::Dropped;
  if (pending_.empty()) {
    outcome.batch_complete = true;
    on_batch_drained();
  }
  return outcome;
}

void AskTellSession::on_batch_drained() {
  PWU_ASSERT(pending_.empty(), "on_batch_drained: batch not drained");
  if (!cold_start_done_) {
    if (num_labeled() < config_.n_init && !pool_.empty()) {
      // Failures left the cold start short and the pool can still top it
      // up: the next ask() draws the shortfall, no refit yet.
      return;
    }
    cold_start_done_ = true;
    refit_due_ = num_labeled() > 0 || warm_rows_ > 0;
    labels_in_batch_ = 0;
    return;
  }
  refit_due_ = labels_in_batch_ > 0;
  labels_in_batch_ = 0;
}

void AskTellSession::add_failed(FailedConfig failed) {
  failed_lookup_.insert(failed.config);
  failed_.push_back(std::move(failed));
  PWU_ENSURE(failed_lookup_.size() == failed_.size(),
             "add_failed: duplicate entry in the failed set ("
                 << failed_.size() << " records, " << failed_lookup_.size()
                 << " unique)");
}

bool AskTellSession::refit(const util::CancelToken* cancel) {
  if (!refit_due_) return false;
  if (cancel != nullptr) cancel->throw_if_requested();
  // Snapshot the rng so a cancelled fit consumes no draws: the requeued
  // fit replays the identical tree streams, keeping cancelled-then-retried
  // sessions bit-identical to undisturbed ones.
  util::Rng snapshot = rng_;
  try {
    fit_model(cancel);
  } catch (...) {
    rng_ = snapshot;
    throw;  // refit_due_ stays true: the fit is still owed
  }
  refit_due_ = false;
  return true;
}

void AskTellSession::append_label(const Candidate& candidate,
                                  double measured_time) {
  cumulative_cost_ += measured_time;
  train_.add(space_.features(candidate.config), measured_time);
  if (candidate.has_prediction) {
    selections_.push_back({candidate.iteration, candidate.predicted_mean,
                           candidate.predicted_stddev, measured_time});
  }
  train_configs_.push_back(candidate.config);
  train_labels_.push_back(measured_time);
  ++labels_in_batch_;
  PWU_ENSURE(train_configs_.size() == train_labels_.size() &&
                 train_.size() == warm_rows_ + train_labels_.size(),
             "append_label: training-set desync: " << train_.size()
                                                   << " rows, " << warm_rows_
                                                   << " warm, "
                                                   << train_labels_.size()
                                                   << " labels");
}

void AskTellSession::fit_model(const util::CancelToken* cancel) {
  // Fit into a fresh surrogate and swap on success. Fits are from-scratch,
  // so this is bit-identical to refitting in place — and it keeps the
  // previous model_ (and every snapshot other threads hold of it) intact
  // when the fit is cancelled or throws.
  //
  // Crash site for the shard-failover harness: a worker killed here has
  // already applied and auto-checkpointed the tell that triggered the
  // refit, but never answers it — the router must synthesize the lost
  // response rather than replay (double-apply) it.
  util::killpoint("ask_tell_session.fit_model");
  core::SurrogatePtr fresh =
      core::make_surrogate(config_.surrogate, config_.forest, config_.gp);
  fresh->fit(train_, rng_, workers_, cancel);
  model_ = std::move(fresh);
}

std::size_t AskTellSession::memory_bytes() const {
  const std::size_t per_config =
      sizeof(space::Configuration) +
      space_.num_params() * sizeof(std::uint32_t);
  std::size_t total = pool_features_.memory_bytes() + train_.memory_bytes();
  if (model_ != nullptr) total += model_->memory_bytes();
  total += pool_.size() * per_config;
  total += (train_configs_.capacity() + pending_.capacity() +
            failed_.capacity()) *
           per_config;
  total += pending_.capacity() * (sizeof(Candidate) - sizeof(space::Configuration));
  total += train_labels_.capacity() * sizeof(double);
  total += selections_.capacity() * sizeof(core::SelectionRecord);
  return total;
}

// ---- checkpointing ----
//
// Text format in the style of rf::RandomForest::save: a magic/version
// header followed by sections. Doubles are written with max_digits10
// precision, which round-trips every finite value exactly.

namespace {

[[noreturn]] void restore_fail(const std::string& what) {
  throw std::runtime_error("AskTellSession::restore: " + what);
}

void expect_section(std::istream& is, const char* name) {
  std::string token;
  if (!(is >> token) || token != name) {
    restore_fail(std::string("missing section '") + name + "'");
  }
}

void write_levels(std::ostream& os, const space::Configuration& config) {
  for (std::size_t i = 0; i < config.size(); ++i) {
    os << config.level(i) << ' ';
  }
}

space::Configuration read_levels(std::istream& is,
                                 const space::ParameterSpace& space) {
  std::vector<std::uint32_t> levels(space.num_params());
  for (auto& level : levels) {
    if (!(is >> level)) restore_fail("bad configuration levels");
  }
  space::Configuration config(std::move(levels));
  if (!space.contains(config)) {
    restore_fail("configuration out of range for the space");
  }
  return config;
}

}  // namespace

void AskTellSession::save(std::ostream& os) const {
  if (!spec_.has_value()) {
    throw std::logic_error(
        "AskTellSession::save: session wraps an externally owned strategy "
        "and cannot be checkpointed");
  }
  const auto precision = os.precision();
  os.precision(std::numeric_limits<double>::max_digits10);

  os << "pwu-session 3\n";
  os << "strategy " << spec_->name << ' ' << spec_->alpha << '\n';
  os << "learner " << config_.n_init << ' ' << config_.n_batch << ' '
     << config_.n_max << ' ' << config_.surrogate << ' ' << config_.eval_every
     << ' ' << config_.measure_repetitions << '\n';
  os << "alphas " << config_.eval_alphas.size();
  for (double alpha : config_.eval_alphas) os << ' ' << alpha;
  os << '\n';
  os << "forest " << config_.forest.num_trees << ' '
     << config_.forest.tree.max_depth << ' '
     << config_.forest.tree.min_samples_leaf << ' '
     << config_.forest.tree.min_samples_split << ' '
     << config_.forest.tree.mtry << ' ' << (config_.forest.bootstrap ? 1 : 0)
     << ' ' << (config_.forest.compute_oob ? 1 : 0) << '\n';
  os << "gp " << config_.gp.kernel << ' ' << config_.gp.signal_variance << ' '
     << config_.gp.lengthscale << ' ' << config_.gp.noise_variance << ' '
     << (config_.gp.median_heuristic ? 1 : 0) << '\n';
  os << "failure_policy " << config_.failure.max_retries << ' '
     << config_.failure.backoff_base_seconds << ' '
     << config_.failure.backoff_cap_seconds << '\n';
  os << "progress " << iteration_ << ' ' << cumulative_cost_ << ' '
     << (cold_start_done_ ? 1 : 0) << ' ' << (refit_due_ ? 1 : 0) << '\n';
  os << "failprogress " << failure_cost_ << ' ' << transient_retries_ << ' '
     << labels_in_batch_ << '\n';
  os << "degraded " << degraded_stale_asks_ << ' ' << degraded_random_asks_
     << ' ';
  degraded_rng_.save(os);
  os << "rng ";
  rng_.save(os);

  os << "warm " << warm_rows_ << ' ' << train_.num_features() << '\n';
  for (std::size_t r = 0; r < warm_rows_; ++r) {
    for (double v : train_.row(r)) os << v << ' ';
    os << train_.y(r) << '\n';
  }
  os << "train " << train_configs_.size() << '\n';
  for (std::size_t i = 0; i < train_configs_.size(); ++i) {
    write_levels(os, train_configs_[i]);
    os << train_labels_[i] << '\n';
  }
  os << "pool " << pool_.size() << '\n';
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    write_levels(os, pool_.at(i));
    os << '\n';
  }
  os << "pending " << pending_.size() << '\n';
  for (const auto& cand : pending_) {
    write_levels(os, cand.config);
    os << (cand.has_prediction ? 1 : 0) << ' ' << cand.predicted_mean << ' '
       << cand.predicted_stddev << ' ' << cand.iteration << ' '
       << cand.failures << '\n';
  }
  os << "failed " << failed_.size() << '\n';
  for (const auto& failed : failed_) {
    write_levels(os, failed.config);
    os << sim::to_string(failed.kind) << ' ' << failed.attempts << '\n';
  }
  os << "censored " << censored_.size() << '\n';
  for (const auto& censored : censored_) {
    write_levels(os, censored.config);
    os << censored.lower_bound << '\n';
  }
  os << "selections " << selections_.size() << '\n';
  for (const auto& sel : selections_) {
    os << sel.iteration << ' ' << sel.predicted_mean << ' '
       << sel.predicted_stddev << ' ' << sel.measured << '\n';
  }

  os << "model " << (model_ != nullptr ? 1 : 0) << '\n';
  if (model_ != nullptr) {
    // Families without a serialized form (the GP) write nothing here;
    // restore() refits them from the training set, which is exact because
    // such fits consume no rng draws.
    model_->save_model(os);
  }
  os << "end\n";
  os.precision(precision);
}

AskTellSession AskTellSession::restore(const space::ParameterSpace& space,
                                       std::istream& is,
                                       util::ThreadPool* workers) {
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != "pwu-session" || version < 1 ||
      version > 3) {
    restore_fail("bad header");
  }

  StrategySpec spec;
  expect_section(is, "strategy");
  if (!(is >> spec.name >> spec.alpha)) restore_fail("bad strategy line");

  core::LearnerConfig config;
  expect_section(is, "learner");
  if (!(is >> config.n_init >> config.n_batch >> config.n_max >>
        config.surrogate >> config.eval_every >>
        config.measure_repetitions)) {
    restore_fail("bad learner line");
  }
  expect_section(is, "alphas");
  std::size_t num_alphas = 0;
  if (!(is >> num_alphas)) restore_fail("bad alphas line");
  config.eval_alphas.resize(num_alphas);
  for (auto& alpha : config.eval_alphas) {
    if (!(is >> alpha)) restore_fail("bad alphas line");
  }
  expect_section(is, "forest");
  int bootstrap = 1, oob = 0;
  if (!(is >> config.forest.num_trees >> config.forest.tree.max_depth >>
        config.forest.tree.min_samples_leaf >>
        config.forest.tree.min_samples_split >> config.forest.tree.mtry >>
        bootstrap >> oob)) {
    restore_fail("bad forest line");
  }
  config.forest.bootstrap = bootstrap != 0;
  config.forest.compute_oob = oob != 0;
  expect_section(is, "gp");
  int median = 1;
  if (!(is >> config.gp.kernel >> config.gp.signal_variance >>
        config.gp.lengthscale >> config.gp.noise_variance >> median)) {
    restore_fail("bad gp line");
  }
  config.gp.median_heuristic = median != 0;
  if (version >= 2) {
    expect_section(is, "failure_policy");
    if (!(is >> config.failure.max_retries >>
          config.failure.backoff_base_seconds >>
          config.failure.backoff_cap_seconds)) {
      restore_fail("bad failure_policy line");
    }
  }

  expect_section(is, "progress");
  std::size_t iteration = 0;
  double cumulative_cost = 0.0;
  int cold_done = 0, refit_due = 0;
  if (!(is >> iteration >> cumulative_cost >> cold_done >> refit_due)) {
    restore_fail("bad progress line");
  }
  double failure_cost = 0.0;
  std::size_t transient_retries = 0, labels_in_batch = 0;
  if (version >= 2) {
    expect_section(is, "failprogress");
    if (!(is >> failure_cost >> transient_retries >> labels_in_batch)) {
      restore_fail("bad failprogress line");
    }
  }
  std::size_t degraded_stale = 0, degraded_random = 0;
  std::optional<util::Rng> degraded_rng;
  if (version >= 3) {
    expect_section(is, "degraded");
    if (!(is >> degraded_stale >> degraded_random)) {
      restore_fail("bad degraded line");
    }
    degraded_rng.emplace();
    degraded_rng->load(is);
  }
  expect_section(is, "rng");
  util::Rng rng;
  rng.load(is);

  expect_section(is, "warm");
  std::size_t warm_rows = 0, num_features = 0;
  if (!(is >> warm_rows >> num_features)) restore_fail("bad warm header");
  if (num_features != space.num_params()) {
    restore_fail("feature schema does not match the given space");
  }

  AskTellSession session(space, config, {}, 0, workers);
  session.spec_ = spec;
  session.owned_strategy_ = core::make_strategy(spec.name, spec.alpha);
  session.strategy_ = session.owned_strategy_.get();
  session.rng_ = rng;
  session.iteration_ = iteration;
  session.cumulative_cost_ = cumulative_cost;
  session.cold_start_done_ = cold_done != 0;
  session.refit_due_ = refit_due != 0;
  session.failure_cost_ = failure_cost;
  session.transient_retries_ = transient_retries;
  session.labels_in_batch_ = labels_in_batch;
  session.degraded_stale_asks_ = degraded_stale;
  session.degraded_random_asks_ = degraded_random;
  if (degraded_rng.has_value()) {
    session.degraded_rng_ = *degraded_rng;
  }
  // v1/v2 checkpoints predate the degraded stream: the constructor seeded
  // it from seed 0 (deterministically), which is fine — such sessions have
  // never consumed a degraded draw.
  session.warm_rows_ = warm_rows;

  std::vector<double> row(num_features);
  for (std::size_t r = 0; r < warm_rows; ++r) {
    double label = 0.0;
    for (auto& v : row) {
      if (!(is >> v)) restore_fail("bad warm row");
    }
    if (!(is >> label)) restore_fail("bad warm row");
    session.train_.add(row, label);
  }

  expect_section(is, "train");
  std::size_t train_count = 0;
  if (!(is >> train_count)) restore_fail("bad train header");
  session.train_configs_.reserve(train_count);
  session.train_labels_.reserve(train_count);
  for (std::size_t i = 0; i < train_count; ++i) {
    space::Configuration config_i = read_levels(is, space);
    double label = 0.0;
    if (!(is >> label)) restore_fail("bad train label");
    session.train_.add(space.features(config_i), label);
    session.train_configs_.push_back(std::move(config_i));
    session.train_labels_.push_back(label);
  }

  expect_section(is, "pool");
  std::size_t pool_count = 0;
  if (!(is >> pool_count)) restore_fail("bad pool header");
  {
    std::vector<space::Configuration> pool_configs;
    pool_configs.reserve(pool_count);
    for (std::size_t i = 0; i < pool_count; ++i) {
      pool_configs.push_back(read_levels(is, space));
    }
    session.pool_ = space::CandidatePool(std::move(pool_configs));
    session.rebuild_pool_features();
  }

  expect_section(is, "pending");
  std::size_t pending_count = 0;
  if (!(is >> pending_count)) restore_fail("bad pending header");
  for (std::size_t i = 0; i < pending_count; ++i) {
    Candidate cand;
    cand.config = read_levels(is, space);
    int has_prediction = 0;
    if (!(is >> has_prediction >> cand.predicted_mean >>
          cand.predicted_stddev >> cand.iteration)) {
      restore_fail("bad pending row");
    }
    if (version >= 2 && !(is >> cand.failures)) {
      restore_fail("bad pending row");
    }
    cand.has_prediction = has_prediction != 0;
    session.pending_.push_back(std::move(cand));
  }

  if (version >= 2) {
    expect_section(is, "failed");
    std::size_t failed_count = 0;
    if (!(is >> failed_count)) restore_fail("bad failed header");
    for (std::size_t i = 0; i < failed_count; ++i) {
      FailedConfig failed;
      failed.config = read_levels(is, space);
      std::string kind;
      if (!(is >> kind >> failed.attempts)) restore_fail("bad failed row");
      const auto parsed = sim::failure_kind_from_string(kind);
      if (!parsed.has_value() || *parsed == sim::FailureKind::None) {
        restore_fail("bad failure kind '" + kind + "'");
      }
      failed.kind = *parsed;
      session.add_failed(std::move(failed));
    }
    expect_section(is, "censored");
    std::size_t censored_count = 0;
    if (!(is >> censored_count)) restore_fail("bad censored header");
    for (std::size_t i = 0; i < censored_count; ++i) {
      CensoredObservation censored;
      censored.config = read_levels(is, space);
      if (!(is >> censored.lower_bound)) restore_fail("bad censored row");
      session.censored_.push_back(std::move(censored));
    }
    // A well-formed checkpoint never lists a failed configuration in the
    // pool (it was removed when asked), but a hand-edited or merged one
    // might; drop such entries rather than risk re-proposing them.
    if (!session.failed_.empty()) {
      std::vector<space::Configuration> kept;
      kept.reserve(session.pool_.size());
      for (std::size_t i = 0; i < session.pool_.size(); ++i) {
        if (!session.is_failed(session.pool_.at(i))) {
          kept.push_back(session.pool_.at(i));
        }
      }
      if (kept.size() != session.pool_.size()) {
        session.pool_ = space::CandidatePool(std::move(kept));
        session.rebuild_pool_features();
      }
    }
  }

  expect_section(is, "selections");
  std::size_t selection_count = 0;
  if (!(is >> selection_count)) restore_fail("bad selections header");
  for (std::size_t i = 0; i < selection_count; ++i) {
    core::SelectionRecord sel;
    if (!(is >> sel.iteration >> sel.predicted_mean >> sel.predicted_stddev >>
          sel.measured)) {
      restore_fail("bad selection row");
    }
    session.selections_.push_back(sel);
  }

  expect_section(is, "model");
  int has_model = 0;
  if (!(is >> has_model)) restore_fail("bad model flag");
  if (has_model != 0) {
    session.model_ = core::make_surrogate(config.surrogate, config.forest,
                                          config.gp);
    if (!session.model_->load_model(is)) {
      // No serialized form for this family: refit from the restored
      // training set. Exact for fits that consume no rng draws (GP); a
      // scratch copy keeps the real stream untouched either way.
      util::Rng scratch = session.rng_;
      session.model_->fit(session.train_, scratch, workers);
    }
  }
  expect_section(is, "end");
  return session;
}

}  // namespace pwu::service
