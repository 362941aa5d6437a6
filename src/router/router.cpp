#include "router/router.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "service/protocol.hpp"
#include "util/logging.hpp"

namespace pwu::router {

namespace json = util::json;

namespace {

json::Value error_response(const std::string& message) {
  json::Object obj;
  obj.emplace("ok", json::Value(false));
  obj.emplace("error", json::Value(message));
  return json::Value(std::move(obj));
}

json::Value ok_response(json::Object fields) {
  fields.emplace("ok", json::Value(true));
  return json::Value(std::move(fields));
}

std::string required_op(const json::Value& request) {
  const json::Value& op = request.at("op");
  if (!op.is_string()) {
    throw std::invalid_argument("missing string field 'op'");
  }
  return op.as_string();
}

bool is_session_op(const std::string& op) {
  return op == "create" || op == "ask" || op == "tell" || op == "status" ||
         op == "close" || op == "checkpoint" || op == "resume";
}

/// A tell carrying a successful measurement — the one request kind whose
/// replay could double-apply (it appends to the training set exactly once
/// per label).
bool is_success_tell(const json::Value& request) {
  return request.string_or("op", "") == "tell" &&
         request.string_or("status", "ok") == "ok";
}

std::size_t status_count(const json::Value& status, const std::string& key) {
  return static_cast<std::size_t>(status.number_or(key, 0.0));
}

json::Value make_request(json::Object fields) {
  return json::Value(std::move(fields));
}

}  // namespace

Router::Router(std::vector<ShardSpec> shards, RouterOptions options,
               ShardClientOptions client_options)
    : ring_(options.vnodes), options_(options),
      client_options_(client_options) {
  if (shards.empty()) {
    throw std::invalid_argument("Router: at least one shard is required");
  }
  shards_.reserve(shards.size());
  for (ShardSpec& spec : shards) {
    if (spec.name.empty()) {
      throw std::invalid_argument("Router: shard names must be non-empty");
    }
    if (ring_.contains(spec.name)) {
      throw std::invalid_argument("Router: duplicate shard name '" +
                                  spec.name + "'");
    }
    Shard shard;
    shard.name = spec.name;
    shard.checkpoint_dir = std::move(spec.checkpoint_dir);
    if (options_.frame) {
      spec.transport = std::make_unique<service::FramedTransport>(
          std::move(spec.transport));
    }
    shard.client = std::make_unique<ShardClient>(
        spec.name, std::move(spec.transport), client_options);
    // Requests carry the ring epoch of the moment they hit the wire, so a
    // failover replay is restamped with the *new* epoch and never fences
    // itself.
    shard.client->set_epoch_provider([this] { return ring_.epoch(); });
    ring_.add(shard.name);
    shards_.push_back(std::move(shard));
  }
}

std::size_t Router::parked_sessions() const {
  std::size_t n = 0;
  for (const auto& [name, rec] : records_) n += rec.parked ? 1 : 0;
  return n;
}

bool Router::shard_up(const std::string& name) const {
  for (const Shard& shard : shards_) {
    if (shard.name == name) return shard.up;
  }
  return false;
}

std::size_t Router::shard_index(const std::string& name) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].name == name) return i;
  }
  throw std::logic_error("Router: '" + name + "' is not a known shard");
}

std::size_t Router::shard_of(const std::string& session) const {
  return shard_index(ring_.owner(session));
}

std::string Router::checkpoint_path(std::size_t shard,
                                    const std::string& session) const {
  // Same path the worker's auto-checkpoints use (<dir>/<session>.ckpt), so
  // the baseline write and every subsequent tell refresh one file and
  // failover always resumes the newest image.
  return shards_[shard].checkpoint_dir + "/" + session + ".ckpt";
}

void Router::SessionRecord::move_to(std::size_t shard,
                                    const json::Value& status) {
  home = shard;
  parked = false;
  resumed_valid = true;
  resumed_labeled = status_count(status, "labeled");
  resumed_pending = status_count(status, "pending");
  resumed_done = status.bool_or("done", false);
}

json::Value Router::redirected_response(const std::string& why) {
  ++stats_.redirects;
  json::Object obj;
  obj.emplace("ok", json::Value(false));
  obj.emplace("error", json::Value(why));
  obj.emplace("redirected", json::Value(true));
  obj.emplace("retry_after_ms",
              json::Value(static_cast<double>(options_.retry_after_ms)));
  return json::Value(std::move(obj));
}

json::Value Router::handle(const json::Value& request) {
  ++stats_.requests;
  try {
    return dispatch(request);
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

json::Value Router::dispatch(const json::Value& request) {
  const std::string op = required_op(request);
  if (op == "shutdown") return handle_shutdown();
  if (op == "hello") {
    // Framing negotiation for the client hop: run_router_loop flips its
    // responses to framed; the ring epoch is this front-end's fence.
    return ok_response(
        {{"proto", json::Value(std::string("pwu1"))},
         {"frame", json::Value(request.bool_or("frame", false))},
         {"fence_epoch",
          json::Value(static_cast<std::size_t>(ring_.epoch()))}});
  }
  if (op == "list") return handle_list();
  if (op == "health") return handle_health();
  if (op == "grow") {
    if (grow_factory_ == nullptr) {
      return error_response("grow is not configured on this router");
    }
    const json::Value& shard = request.at("shard");
    if (!shard.is_string() || shard.as_string().empty()) {
      throw std::invalid_argument("missing string field 'shard'");
    }
    return add_shard(grow_factory_(shard.as_string()));
  }
  if (!is_session_op(op)) return error_response("unknown op '" + op + "'");
  const json::Value& session = request.at("session");
  if (!session.is_string()) {
    throw std::invalid_argument("missing string field 'session'");
  }
  return forward_session_request(session.as_string(),
                                 stamp_idempotency(request));
}

json::Value Router::stamp_idempotency(const json::Value& request) {
  if (!request.is_object() ||
      !service::is_mutating_op(request.string_or("op", "")) ||
      !request.string_or("idem", "").empty()) {
    return request;
  }
  json::Value stamped = request;
  ++idem_counter_;
  stamped.as_object()["idem"] = json::Value("rt#" + std::to_string(
                                                idem_counter_));
  return stamped;
}

json::Value Router::forward_session_request(const std::string& name,
                                            const json::Value& request) {
  auto it = records_.find(name);
  if (it != records_.end() && it->second.parked) {
    // A touch is the retry trigger for parked sessions: try to re-home
    // now, and only redirect the client when that still fails.
    if (!rehome_session(name, it->second)) {
      return redirected_response("session '" + name +
                                 "' is re-homing after shard failure");
    }
  }
  if (ring_.empty()) {
    return error_response("all shards are down");
  }
  const std::size_t target = (it != records_.end() && !it->second.parked)
                                 ? it->second.home
                                 : shard_of(name);
  try {
    json::Value response = shards_[target].client->call(request);
    ++stats_.forwards;
    bookkeep(name, required_op(request), target, request, response);
    return response;
  } catch (const service::TransportError&) {
    failover(target);
    return resolve_interrupted(name, request);
  }
}

json::Value Router::resolve_interrupted(const std::string& name,
                                        const json::Value& request) {
  // `request` was in flight — sent, possibly applied, but unanswered —
  // when its shard died; failover() has already run.
  const auto it = records_.find(name);
  if (it != records_.end() && !it->second.parked &&
      it->second.resumed_valid && is_success_tell(request) &&
      it->second.resumed_labeled >= it->second.labeled + 1) {
    // The dying worker applied and checkpointed this tell (workers
    // checkpoint before the inline refit, so crash-mid-fit lands here)
    // but the response was lost. Replaying would double-apply the label,
    // so the response is synthesized from the resumed status instead.
    // With pipelined same-session tells several may be unacked; each
    // synthesis advances by one, reconstructing the pending count that
    // label saw (later applied tells each consumed one pending
    // candidate).
    SessionRecord& rec = it->second;
    const std::size_t labeled = rec.labeled + 1;
    const std::size_t pending_then =
        rec.resumed_pending + (rec.resumed_labeled - labeled);
    json::Object fields;
    fields.emplace("ok", json::Value(true));
    fields.emplace("labeled", json::Value(labeled));
    fields.emplace("refit", json::Value(pending_then == 0));
    fields.emplace("done", json::Value(rec.resumed_done &&
                                       labeled == rec.resumed_labeled));
    rec.labeled = labeled;
    ++stats_.synthesized;
    return json::Value(std::move(fields));
  }
  if (!options_.replay_in_flight) {
    return redirected_response("shard died mid-request; session '" + name +
                               "' re-homed");
  }
  // Not (provably) applied: replay verbatim on the session's new home.
  // Safe for asks/status/creates (resume rolled the state back to before
  // them) and for the not-yet-applied tell. A further death during the
  // replay recurses, bounded by the shard count.
  ++stats_.replays;
  return forward_session_request(name, request);
}

void Router::bookkeep(const std::string& name, const std::string& op,
                      std::size_t shard, const json::Value& request,
                      const json::Value& response) {
  if (!response.bool_or("ok", false)) return;
  if (op == "create" || op == "resume") {
    // Baseline checkpoint before installing the record: a session becomes
    // the router's responsibility only once it has a durable image. If the
    // shard dies in between, the create/resume simply replays on the new
    // ring owner — nothing durable was lost.
    const json::Value ack = shards_[shard].client->call(
        make_request({{"op", json::Value("checkpoint")},
                      {"session", json::Value(name)},
                      {"path", json::Value(checkpoint_path(shard, name))}}));
    if (!ack.bool_or("ok", false)) {
      util::log_warn() << "router: baseline checkpoint for session '" << name
                       << "' on shard '" << shards_[shard].name
                       << "' failed: " << ack.string_or("error", "unknown");
    }
    SessionRecord rec;
    rec.home = shard;
    rec.labeled = status_count(response.at("status"), "labeled");
    records_[name] = std::move(rec);
    if (options_.standby) {
      // A prior shadow (from a close/resume drill) is obsolete; arm the
      // ring successor fresh from the baseline image just written.
      retire_standby(name);
      const auto order = ring_.owners(name, 2);
      if (order.size() >= 2) {
        arm_standby(name, records_[name], shard_index(order[1]));
      }
    }
    return;
  }
  const auto it = records_.find(name);
  if (it == records_.end()) return;
  SessionRecord& rec = it->second;
  if (op == "ask") {
    // Asks mutate only in-memory worker state (the outstanding-candidate
    // set); they become durable at the next tell checkpoint. Until then
    // the acked request is kept for replay so failover can reconstruct
    // exactly what the client holds.
    rec.replay_log.push_back(request.dump());
    if (options_.standby) {
      OpRecord record;
      record.request = request.dump();
      record.digest = response_digest(response);
      replicate_op(name, std::move(record));
    }
    if (rec.replay_log.size() > options_.max_replay_log) {
      shards_[shard].client->call(
          make_request({{"op", json::Value("checkpoint")},
                        {"session", json::Value(name)},
                        {"path", json::Value(checkpoint_path(shard, name))}}));
      mirror_checkpoint(name);
      rec.replay_log.clear();
    }
    return;
  }
  if (op == "tell") {
    rec.labeled = static_cast<std::size_t>(response.number_or(
        "labeled", static_cast<double>(rec.labeled)));
    if (options_.standby) {
      // The standby re-executes the tell and auto-checkpoints it to its
      // own directory exactly like the primary did, so the durable
      // horizons advance in lockstep without a mirror record.
      OpRecord record;
      record.request = request.dump();
      record.digest = response_digest(response);
      if (response.has("labeled")) record.expect_labeled = rec.labeled;
      replicate_op(name, std::move(record));
    }
    // A checkpoint path in the response means the worker persisted the
    // post-tell state — every ask before it is durable now.
    if (response.has("checkpoint")) rec.replay_log.clear();
    return;
  }
  if (op == "checkpoint") {
    // An explicit checkpoint to the home directory is as good as an
    // auto-checkpoint (same file failover reads). Mirror it before
    // clearing so the standby's durable horizon advances too.
    if (request.string_or("path", "") == checkpoint_path(shard, name)) {
      mirror_checkpoint(name);
      rec.replay_log.clear();
    }
    return;
  }
  if (op == "close") {
    retire_standby(name);
    records_.erase(records_.find(name));
    return;
  }
}

void Router::failover(std::size_t dead) {
  Shard& shard = shards_[dead];
  if (!shard.up) return;
  shard.up = false;
  shard.client->mark_dead();
  ring_.remove(shard.name);  // bumps the fencing epoch
  ++stats_.failovers;
  // A "death" observed through a partition leaves a live stale primary
  // behind; queue it for fencing so it can never apply a write from
  // before this membership change once the partition heals.
  pending_fences_.push_back(dead);
  // Shadows hosted *on* the dead shard are gone with it; shadows of
  // sessions homed there are exactly what failover promotes.
  standbys_.invalidate_shard(dead);
  util::log_warn() << "router: shard '" << shard.name
                   << "' is down; re-homing its sessions onto "
                   << ring_.size() << " survivor(s)";
  for (auto& [name, rec] : records_) {
    if (rec.home != dead || rec.parked) continue;
    rec.parked = true;
    rec.resumed_valid = false;
    if (promote_session(name, rec)) continue;
    if (options_.standby) ++stats_.standby_fallbacks;
    rehome_session(name, rec);
  }
  rearm_standbys();
}

bool Router::rehome_session(const std::string& name, SessionRecord& record) {
  // The cold-rehome target is usually the ring successor — the very shard
  // hosting this session's shadow, if one exists. Retire it first or the
  // resume below would collide with the shadow's name.
  retire_standby(name);
  // record.home is the shard the session last lived on; its checkpoint
  // directory holds the newest durable image (auto-checkpoints and the
  // router's baseline write share one path).
  const std::string source = checkpoint_path(record.home, name);
  for (;;) {
    if (ring_.empty()) {
      util::log_error() << "router: no shard left to re-home session '"
                        << name << "' onto";
      return false;
    }
    const std::size_t target = shard_of(name);
    try {
      const json::Value resumed = shards_[target].client->call(
          make_request({{"op", json::Value("resume")},
                        {"session", json::Value(name)},
                        {"path", json::Value(source)}}));
      if (!resumed.bool_or("ok", false)) {
        util::log_warn() << "router: re-homing session '" << name
                         << "' onto shard '" << shards_[target].name
                         << "' failed: "
                         << resumed.string_or("error", "unknown");
        return false;  // stays parked; the next touch retries
      }
      // Replay the asks acked since the last durable checkpoint: resuming
      // rolled the worker back to that checkpoint, and replaying the same
      // requests from the same state regenerates bit-identical candidates
      // — exactly the set the client is still measuring. One subtlety: the
      // dying worker may have checkpointed *past* the router's ack horizon
      // (a tell it applied but never answered — the crash-mid-fit case).
      // The resume status detects that: more labels than acked means the
      // image postdates every logged ask (they preceded the unacked tell
      // in session order), so replaying would double-consume candidates.
      const std::size_t labels_at_resume =
          status_count(resumed.at("status"), "labeled");
      if (labels_at_resume == record.labeled) {
        for (const std::string& line : record.replay_log) {
          const json::Value replayed =
              shards_[target].client->call(json::parse(line));
          if (!replayed.bool_or("ok", false)) {
            util::log_warn() << "router: ask replay for session '" << name
                             << "' failed: "
                             << replayed.string_or("error", "unknown");
          }
        }
      } else if (labels_at_resume < record.labeled) {
        // Should be impossible with checkpoint-every-tell workers: the
        // newest image lags labels the client was already told about.
        util::log_error() << "router: session '" << name << "' resumed at "
                          << labels_at_resume << " labels but " <<
            record.labeled << " were acknowledged — checkpoint lag?";
      }
      // Fresh status after the replays — the synthesize-vs-replay decision
      // for the in-flight request reads these counts.
      const json::Value status = shards_[target].client->call(
          make_request({{"op", json::Value("status")},
                        {"session", json::Value(name)}}));
      const json::Value& body = status.at("status");
      // Make the re-homed state (including replayed asks) durable at the
      // new home so a further failover starts from here.
      shards_[target].client->call(
          make_request({{"op", json::Value("checkpoint")},
                        {"session", json::Value(name)},
                        {"path", json::Value(checkpoint_path(target, name))}}));
      shards_[record.home].rehomed_away += 1;
      record.move_to(target, body);
      record.replay_log.clear();
      ++stats_.rehomes;
      return true;
    } catch (const service::TransportError&) {
      // The chosen survivor died during the re-home. Cascade: declare it
      // down too (re-homing *its* sessions) and retry this session on the
      // next ring owner, still from the original source image — nothing
      // new became durable on the dead target.
      failover(target);
    }
  }
}

void Router::arm_standby(const std::string& name, SessionRecord& record,
                         std::size_t standby) {
  standbys_.arm(name, standby);
  {
    // Bootstrap from the primary's durable image over the shared
    // checkpoint filesystem. Checkpoint-every-tell workers keep that
    // image at the ack horizon's labeled count, so the expectation is
    // armed; asks past the last checkpoint follow as replay records.
    OpRecord record_resume;
    record_resume.request =
        make_request({{"op", json::Value("resume")},
                      {"session", json::Value(name)},
                      {"path", json::Value(
                                   checkpoint_path(record.home, name))}})
            .dump();
    record_resume.expect_labeled = record.labeled;
    standbys_.enqueue(name, std::move(record_resume));
  }
  {
    OpRecord record_ckpt;
    record_ckpt.request =
        make_request({{"op", json::Value("checkpoint")},
                      {"session", json::Value(name)},
                      {"path", json::Value(checkpoint_path(standby, name))}})
            .dump();
    standbys_.enqueue(name, std::move(record_ckpt));
  }
  for (const std::string& line : record.replay_log) {
    OpRecord record_ask;
    record_ask.request = line;
    standbys_.enqueue(name, std::move(record_ask));
  }
  // Flushing now (not lazily) is a soundness requirement: the primary's
  // checkpoint file advances with every tell, and a bootstrap resume
  // applied later would load an image newer than the queued replay
  // records assume — double-applying them into the shadow.
  flush_replication(name);
}

void Router::replicate_op(const std::string& name, OpRecord record) {
  standbys_.enqueue(name, std::move(record));
  if (standbys_.lag(name) >= options_.replication_lag_max) {
    flush_replication(name);
  }
}

void Router::mirror_checkpoint(const std::string& name) {
  if (!options_.standby) return;
  const StandbyState* st = standbys_.state(name);
  if (st == nullptr || !st->valid || st->stale) return;
  OpRecord record;
  record.request =
      make_request({{"op", json::Value("checkpoint")},
                    {"session", json::Value(name)},
                    {"path", json::Value(checkpoint_path(st->shard, name))}})
          .dump();
  replicate_op(name, std::move(record));
}

bool Router::flush_replication(const std::string& name) {
  const StandbyState* st = standbys_.state(name);
  if (st == nullptr || !st->valid || st->stale) return false;
  if (st->outbox.empty()) return true;
  const std::size_t standby = st->shard;
  if (!shards_[standby].up) {
    standbys_.mark_stale(name);
    return false;
  }
  const std::vector<OpRecord> records = standbys_.take_outbox(name);
  std::vector<json::Value> window;
  window.reserve(records.size());
  for (const OpRecord& record : records) {
    window.push_back(make_replicate_request(name, record));
  }
  ShardClient::PipelineResult result =
      shards_[standby].client->call_pipelined(window);
  if (result.died) {
    failover(standby);
    return false;
  }
  for (std::size_t k = 0; k < result.responses.size(); ++k) {
    if (!replicate_ack_matches(records[k], result.responses[k])) {
      // The shadow diverged (or refused a record): it can never be
      // promoted now. Cold failover remains available unchanged.
      standbys_.mark_stale(name);
      util::log_warn() << "router: standby for session '" << name
                       << "' on shard '" << shards_[standby].name
                       << "' went stale: "
                       << result.responses[k].string_or("error",
                                                        "ack mismatch");
      return false;
    }
  }
  standbys_.ack(name, records.size());
  stats_.replicated_ops += records.size();
  return true;
}

bool Router::promote_session(const std::string& name, SessionRecord& record) {
  if (!options_.standby) return false;
  const StandbyState* st = standbys_.state(name);
  if (st == nullptr || !st->valid || st->stale) return false;
  const std::size_t standby = st->shard;
  if (!shards_[standby].up) {
    standbys_.mark_stale(name);
    return false;
  }
  // Promotion is only sound when the shadow's host is the session's ring
  // owner under the shrunken ring — otherwise future requests would route
  // elsewhere and the promoted copy would be orphaned.
  if (ring_.empty() || shard_of(name) != standby) {
    standbys_.mark_stale(name);
    return false;
  }
  if (!flush_replication(name)) return false;
  try {
    const json::Value reply = shards_[standby].client->call(
        make_request({{"op", json::Value("promote")},
                      {"session", json::Value(name)}}));
    if (!reply.bool_or("ok", false)) {
      standbys_.mark_stale(name);
      util::log_warn() << "router: promoting session '" << name
                       << "' on shard '" << shards_[standby].name
                       << "' failed: " << reply.string_or("error", "unknown");
      return false;
    }
    const json::Value& body = reply.at("status");
    if (status_count(body, "labeled") != record.labeled) {
      // Only acked ops were ever streamed, so a promoted shadow whose
      // labeled count disagrees with the ack horizon missed or gained
      // records — never serve from it.
      standbys_.mark_stale(name);
      util::log_warn() << "router: session '" << name << "' promoted at "
                       << status_count(body, "labeled") << " labels but "
                       << record.labeled << " were acknowledged";
      return false;
    }
    record.move_to(standby, body);
    // The replay log is KEPT: its asks live in the shadow's memory but may
    // postdate its disk image, exactly as they did the primary's. A later
    // cold failover of the promoted home replays them from the mirrored
    // checkpoints.
    standbys_.drop(name);
    ++stats_.promotions;
    return true;
  } catch (const service::TransportError&) {
    failover(standby);
    return false;
  }
}

void Router::retire_standby(const std::string& name) {
  const StandbyState* st = standbys_.state(name);
  if (st != nullptr && st->valid && st->shard < shards_.size() &&
      shards_[st->shard].up) {
    try {
      const json::Value closed = shards_[st->shard].client->call(
          make_request({{"op", json::Value("close")},
                        {"session", json::Value(name)}}));
      // A bootstrap that never applied leaves no shadow to close; the
      // structured "no session named" error is expected then.
      (void)closed;
    } catch (const service::TransportError&) {
      failover(st->shard);
    }
  }
  standbys_.drop(name);
}

void Router::rearm_standbys() {
  if (!options_.standby || ring_.size() < 2) return;
  for (auto& [name, rec] : records_) {
    if (rec.parked) continue;
    // Sessions whose home is down but not yet parked exist transiently
    // inside a cascading failover; arming them now would bootstrap from a
    // dead primary's (possibly replay-lagging) image — skip, the outer
    // failover loop reaches them next.
    if (!shards_[rec.home].up) continue;
    const std::vector<std::string> order = ring_.owners(name, 2);
    if (order.size() < 2) continue;
    const std::size_t desired = shard_index(order[1]);
    const StandbyState* st = standbys_.state(name);
    if (st != nullptr && st->valid && !st->stale && st->shard == desired &&
        shards_[desired].up) {
      continue;  // already the right, healthy standby
    }
    retire_standby(name);
    arm_standby(name, rec, desired);
  }
}

util::json::Value Router::add_shard(ShardSpec spec) {
  if (spec.name.empty()) {
    return error_response("grow: shard names must be non-empty");
  }
  for (const Shard& shard : shards_) {
    if (shard.name == spec.name) {
      return error_response("grow: duplicate shard name '" + spec.name + "'");
    }
  }
  if (spec.transport == nullptr) {
    return error_response("grow: shard '" + spec.name + "' has no transport");
  }
  Shard shard;
  shard.name = spec.name;
  shard.checkpoint_dir = std::move(spec.checkpoint_dir);
  if (options_.frame) {
    spec.transport = std::make_unique<service::FramedTransport>(
        std::move(spec.transport));
  }
  shard.client = std::make_unique<ShardClient>(
      spec.name, std::move(spec.transport), client_options_);
  shard.client->set_epoch_provider([this] { return ring_.epoch(); });
  // Probe before committing anything: a stillborn worker must not become
  // a shards_ entry (indices in records_ are forever).
  try {
    const json::Value probe =
        shard.client->call(make_request({{"op", json::Value("health")}}));
    if (!probe.bool_or("ok", false)) {
      return error_response("grow: shard '" + spec.name +
                            "' failed its health probe");
    }
  } catch (const service::TransportError&) {
    return error_response("grow: shard '" + spec.name + "' is unreachable");
  }
  shards_.push_back(std::move(shard));
  const std::size_t added = shards_.size() - 1;

  // Enumerate exactly the sessions the grown ring would hand to the new
  // shard — HashRing::add_node's minimal-remapping guarantee makes this
  // the complete migration set.
  HashRing grown = ring_;
  grown.add_node(shards_[added].name);
  std::vector<std::string> moving;
  for (const auto& [name, rec] : records_) {
    if (rec.parked) continue;  // parked sessions re-home by touch later
    if (grown.owner(name) == shards_[added].name) moving.push_back(name);
  }

  std::size_t migrated = 0;
  for (const std::string& name : moving) {
    SessionRecord& rec = records_[name];
    if (!migrate_session(name, rec, added)) {
      // All-or-nothing: the ring never learned the new shard, so
      // declaring it down re-homes any sessions already copied to it —
      // cold, from the checkpoints migration just wrote — back onto the
      // old owners. Client-visible placement is exactly the pre-grow one.
      util::log_warn() << "router: grow aborted; migration of session '"
                       << name << "' onto shard '" << shards_[added].name
                       << "' failed";
      failover(added);
      return error_response("grow aborted: migrating session '" + name +
                            "' failed");
    }
    ++migrated;
  }
  ring_.add_node(shards_[added].name);  // the atomic ownership flip
  ++stats_.grows;
  rearm_standbys();
  return ok_response({{"added", json::Value(shards_[added].name)},
                      {"migrated", json::Value(migrated)}});
}

bool Router::migrate_session(const std::string& name, SessionRecord& record,
                             std::size_t to) {
  const std::size_t from = record.home;
  // The old home writes the live session (pending asks included, so the
  // image subsumes the replay log) to the path the new home's own
  // auto-checkpoints use, and the new home resumes from it: the shared
  // checkpoint filesystem that failover and standby bootstrap read.
  const std::string image = checkpoint_path(to, name);
  try {
    const json::Value written = shards_[from].client->call(
        make_request({{"op", json::Value("checkpoint")},
                      {"session", json::Value(name)},
                      {"path", json::Value(image)}}));
    if (!written.bool_or("ok", false)) {
      util::log_warn() << "router: checkpointing session '" << name
                       << "' for migration failed: "
                       << written.string_or("error", "unknown");
      return false;
    }
  } catch (const service::TransportError&) {
    failover(from);
    return false;
  }
  json::Value resumed;
  try {
    resumed = shards_[to].client->call(
        make_request({{"op", json::Value("resume")},
                      {"session", json::Value(name)},
                      {"path", json::Value(image)}}));
    if (!resumed.bool_or("ok", false)) {
      util::log_warn() << "router: resuming migrated session '" << name
                       << "' failed: " << resumed.string_or("error", "unknown");
      return false;
    }
    const std::size_t labeled = status_count(resumed.at("status"), "labeled");
    if (labeled != record.labeled) {
      util::log_warn() << "router: migrated session '" << name
                       << "' landed at " << labeled << " labels but "
                       << record.labeled
                       << " were acknowledged; discarding the copy";
      shards_[to].client->call(
          make_request({{"op", json::Value("close")},
                        {"session", json::Value(name)}}));
      return false;
    }
  } catch (const service::TransportError&) {
    return false;  // caller declares `to` down
  }
  // No further checkpoint: the file just resumed is the new home's durable
  // image, so a death right after the flip cold-rehomes from it.
  retire_standby(name);
  record.move_to(to, resumed.at("status"));
  record.replay_log.clear();
  ++stats_.migrated_sessions;
  // Close the old copy last, best-effort: the home already flipped, so a
  // death here is an ordinary failover of a shard this session left.
  try {
    shards_[from].client->call(
        make_request({{"op", json::Value("close")},
                      {"session", json::Value(name)}}));
  } catch (const service::TransportError&) {
    failover(from);
  }
  return true;
}

void Router::probe_all() {
  const json::Value probe = make_request({{"op", json::Value("health")}});
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i].up) continue;
    try {
      shards_[i].client->call(probe);
    } catch (const service::TransportError&) {
      failover(i);
    }
  }
  sweep_fences();
}

void Router::sweep_fences() {
  if (pending_fences_.empty()) return;
  const json::Value fence = make_request(
      {{"op", json::Value("fence")},
       {"epoch", json::Value(static_cast<std::size_t>(ring_.epoch()))}});
  std::size_t kept = 0;
  for (const std::size_t dead : pending_fences_) {
    // probe() reaches through the dead-mark but never through a transport
    // that observed a real connection failure — a genuinely crashed
    // worker stays pending forever (harmless: it cannot write either).
    const std::optional<json::Value> reply =
        shards_[dead].client->probe(fence);
    if (reply.has_value() && reply->bool_or("ok", false)) {
      ++stats_.fences_delivered;
      util::log_warn() << "router: fenced stale shard '"
                       << shards_[dead].name << "' at epoch "
                       << ring_.epoch();
    } else {
      pending_fences_[kept] = dead;
      ++kept;
    }
  }
  pending_fences_.resize(kept);
}

json::Value Router::handle_list() {
  // A shard death mid-listing re-homes its sessions onto shards that may
  // already have been listed; restart the sweep so the merged view is a
  // consistent snapshot. Bounded: each restart removed a shard.
  for (;;) {
    json::Array sessions;
    bool restart = false;
    for (std::size_t i = 0; i < shards_.size() && !restart; ++i) {
      if (!shards_[i].up) continue;
      try {
        const json::Value response = shards_[i].client->call(
            make_request({{"op", json::Value("list")}}));
        if (response.bool_or("ok", false) &&
            response.at("sessions").is_array()) {
          for (const json::Value& s : response.at("sessions").as_array()) {
            sessions.push_back(s);
          }
        }
      } catch (const service::TransportError&) {
        failover(i);
        restart = true;
      }
    }
    if (!restart) {
      return ok_response({{"sessions", json::Value(std::move(sessions))}});
    }
  }
}

json::Value Router::handle_health() {
  // Settle membership first: dead-but-undetected workers fail over here,
  // so the report describes a stable fleet.
  probe_all();
  json::Array shard_arr;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shards_[i];
    json::Object entry;
    entry.emplace("shard", json::Value(shard.name));
    entry.emplace("state", json::Value(shard.up ? "up" : "down"));
    std::size_t homed = 0;
    for (const auto& [name, rec] : records_) {
      homed += (rec.home == i && !rec.parked) ? 1 : 0;
    }
    entry.emplace("sessions", json::Value(homed));
    entry.emplace("rehomed_away", json::Value(shard.rehomed_away));
    entry.emplace("requests", json::Value(static_cast<std::size_t>(
                                  shard.client->requests())));
    entry.emplace("overload_retries",
                  json::Value(static_cast<std::size_t>(
                      shard.client->overload_retries())));
    entry.emplace("corrupt_replies",
                  json::Value(static_cast<std::size_t>(
                      shard.client->corrupt_replies())));
    if (shard.up) {
      try {
        const json::Value response = shard.client->call(
            make_request({{"op", json::Value("health")}}));
        if (response.bool_or("ok", false)) {
          entry.emplace("worker", response.at("health"));
        }
      } catch (const service::TransportError&) {
        // Raced a death between probe and report; the next health call
        // will show it down with its sessions re-homed.
        entry["state"] = json::Value("down");
      }
    }
    shard_arr.push_back(json::Value(std::move(entry)));
  }
  json::Object ring;
  ring.emplace("vnodes", json::Value(ring_.vnodes()));
  ring.emplace("epoch",
               json::Value(static_cast<std::size_t>(ring_.epoch())));
  json::Array members;
  for (const std::string& m : ring_.members()) members.emplace_back(m);
  ring.emplace("members", json::Value(std::move(members)));

  json::Object counters;
  counters.emplace("requests", json::Value(static_cast<std::size_t>(
                                   stats_.requests)));
  counters.emplace("forwards", json::Value(static_cast<std::size_t>(
                                   stats_.forwards)));
  counters.emplace("failovers", json::Value(static_cast<std::size_t>(
                                    stats_.failovers)));
  counters.emplace("rehomes", json::Value(static_cast<std::size_t>(
                                  stats_.rehomes)));
  counters.emplace("replays", json::Value(static_cast<std::size_t>(
                                  stats_.replays)));
  counters.emplace("synthesized", json::Value(static_cast<std::size_t>(
                                      stats_.synthesized)));
  counters.emplace("redirects", json::Value(static_cast<std::size_t>(
                                    stats_.redirects)));
  counters.emplace("promotions", json::Value(static_cast<std::size_t>(
                                     stats_.promotions)));
  counters.emplace("standby_fallbacks",
                   json::Value(static_cast<std::size_t>(
                       stats_.standby_fallbacks)));
  counters.emplace("replicated_ops", json::Value(static_cast<std::size_t>(
                                         stats_.replicated_ops)));
  counters.emplace("migrated_sessions",
                   json::Value(static_cast<std::size_t>(
                       stats_.migrated_sessions)));
  counters.emplace("grows", json::Value(static_cast<std::size_t>(
                                stats_.grows)));
  counters.emplace("fences_delivered",
                   json::Value(static_cast<std::size_t>(
                       stats_.fences_delivered)));
  counters.emplace("fences_pending", json::Value(pending_fences_.size()));

  // Aggregated replication view: per-session replay-log depth and
  // standby lag are the two numbers an operator watches to judge how warm
  // a failover would be right now.
  json::Object replication;
  replication.emplace("enabled", json::Value(options_.standby));
  replication.emplace("lag_max", json::Value(options_.replication_lag_max));
  replication.emplace("max_replay_log",
                      json::Value(options_.max_replay_log));
  json::Array repl_sessions;
  for (const auto& [name, rec] : records_) {
    json::Object entry;
    entry.emplace("session", json::Value(name));
    entry.emplace("home", json::Value(shards_[rec.home].name));
    entry.emplace("parked", json::Value(rec.parked));
    entry.emplace("replay_log_depth", json::Value(rec.replay_log.size()));
    const StandbyState* st = standbys_.state(name);
    entry.emplace("standby", json::Value(st != nullptr && st->valid
                                             ? shards_[st->shard].name
                                             : std::string()));
    entry.emplace("replication_lag", json::Value(standbys_.lag(name)));
    entry.emplace("stale", json::Value(st != nullptr && st->stale));
    repl_sessions.push_back(json::Value(std::move(entry)));
  }
  replication.emplace("sessions", json::Value(std::move(repl_sessions)));

  json::Object health;
  health.emplace("role", json::Value("router"));
  health.emplace("ring", json::Value(std::move(ring)));
  health.emplace("shards", json::Value(std::move(shard_arr)));
  health.emplace("sessions_tracked", json::Value(records_.size()));
  health.emplace("sessions_parked", json::Value(parked_sessions()));
  health.emplace("counters", json::Value(std::move(counters)));
  health.emplace("replication", json::Value(std::move(replication)));
  return ok_response({{"health", json::Value(std::move(health))}});
}

json::Value Router::handle_shutdown() {
  // Fan the graceful shutdown out: each worker drains refits and flushes
  // final checkpoints before acking. A worker that dies here is simply
  // marked down — no failover, the fleet is going away.
  const json::Value request = make_request({{"op", json::Value("shutdown")}});
  for (Shard& shard : shards_) {
    if (!shard.up) continue;
    try {
      shard.client->call(request);
    } catch (const service::TransportError&) {
      util::log_warn() << "router: shard '" << shard.name
                       << "' died during shutdown";
    }
    shard.up = false;
    shard.client->mark_dead();
    // Leave the ring too: a down shard that still owns keys would make a
    // late session request target it forever (failover is a no-op on an
    // already-down shard). With the ring empty, stragglers get the
    // structured "all shards are down" error instead.
    ring_.remove(shard.name);
  }
  return ok_response({{"shutdown", json::Value(true)}});
}

std::vector<json::Value> Router::handle_batch(
    const std::vector<json::Value>& requests_in) {
  // Stamp idempotency keys up front so the pipelined forward, any
  // corrupted-reply resend, and a failover replay of the same request all
  // carry the same key.
  std::vector<json::Value> requests;
  requests.reserve(requests_in.size());
  for (const json::Value& request : requests_in) {
    requests.push_back(stamp_idempotency(request));
  }
  std::vector<json::Value> responses(requests.size());
  // Per-shard windows accumulate until a request that cannot pipeline
  // (create/resume/close, admin ops, parked sessions, malformed) forces a
  // flush; that keeps per-session order intact while independent sessions
  // on one shard share a send/drain round.
  std::map<std::size_t, std::vector<std::size_t>> windows;

  const auto flush = [&]() {
    for (auto& [shard, indexes] : windows) {
      std::vector<json::Value> window;
      window.reserve(indexes.size());
      for (const std::size_t idx : indexes) window.push_back(requests[idx]);
      ShardClient::PipelineResult result =
          shards_[shard].client->call_pipelined(window);
      for (std::size_t k = 0; k < result.responses.size(); ++k) {
        const std::size_t idx = indexes[k];
        ++stats_.forwards;
        ++stats_.requests;
        bookkeep(requests[idx].at("session").as_string(),
                 requests[idx].string_or("op", ""), shard, requests[idx],
                 result.responses[k]);
        responses[idx] = std::move(result.responses[k]);
      }
      if (result.died) {
        failover(shard);
        // The unanswered tail was in flight when the shard died: resolve
        // each request in order — applied tells synthesize, the rest
        // replay on the sessions' new homes (or redirect while parked).
        for (std::size_t k = result.responses.size(); k < indexes.size();
             ++k) {
          const std::size_t idx = indexes[k];
          ++stats_.requests;
          responses[idx] = resolve_interrupted(
              requests[idx].at("session").as_string(), requests[idx]);
        }
      }
    }
    windows.clear();
  };

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const json::Value& request = requests[i];
    std::string op;
    bool pipelinable = false;
    try {
      op = required_op(request);
      if ((op == "ask" || op == "tell" || op == "status" ||
           op == "checkpoint") &&
          request.at("session").is_string()) {
        const std::string& name = request.at("session").as_string();
        const auto it = records_.find(name);
        const bool parked = it != records_.end() && it->second.parked;
        if (!parked && !ring_.empty()) {
          const std::size_t target =
              it != records_.end() ? it->second.home : shard_of(name);
          windows[target].push_back(i);
          pipelinable = true;
        }
      }
    } catch (const std::exception&) {
      pipelinable = false;
    }
    if (!pipelinable) {
      flush();
      responses[i] = handle(request);
    }
  }
  flush();
  return responses;
}

std::size_t run_router_loop(std::istream& in, std::ostream& out,
                            Router& router) {
  // Greedy windows: whatever further requests are already buffered join
  // the first, so clients that pipeline get shard-level pipelining.
  constexpr std::size_t kMaxWindow = 256;
  return service::run_line_loop(
      in, out, kMaxWindow, [&router](const std::vector<json::Value>& window) {
        return router.handle_batch(window);
      });
}

}  // namespace pwu::router
