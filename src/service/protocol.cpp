#include "service/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "sim/fault_model.hpp"
#include "util/fs_atomic.hpp"
#include "util/killpoints.hpp"

namespace pwu::service {

namespace json = util::json;

namespace {

std::size_t size_field(const json::Value& request, const std::string& key,
                       std::size_t fallback) {
  const double v = request.number_or(key, static_cast<double>(fallback));
  // Doubles above 2^53 (or fractional ones) do not denote an exact count;
  // casting them to size_t would be UB-adjacent nonsense. Reject instead.
  if (v < 0.0 || v != std::floor(v) || v > 9007199254740992.0) {
    throw std::invalid_argument("field '" + key +
                                "' must be a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

/// size_field with a sanity ceiling: session-shape fields this large are
/// typos or attacks, and either way would try to allocate the moon.
std::size_t bounded_size_field(const json::Value& request,
                               const std::string& key, std::size_t fallback) {
  constexpr std::size_t kMaxSaneSize = std::size_t{1} << 24;
  const std::size_t v = size_field(request, key, fallback);
  if (v > kMaxSaneSize) {
    throw std::invalid_argument("field '" + key + "' exceeds the sane limit (" +
                                std::to_string(kMaxSaneSize) + ")");
  }
  return v;
}

std::string required_string(const json::Value& request,
                            const std::string& key) {
  const json::Value& v = request.at(key);
  if (!v.is_string()) {
    throw std::invalid_argument("missing string field '" + key + "'");
  }
  return v.as_string();
}

json::Value error_response(const std::string& message) {
  json::Object obj;
  obj.emplace("ok", json::Value(false));
  obj.emplace("error", json::Value(message));
  return json::Value(std::move(obj));
}

json::Value ok_response(json::Object fields = {}) {
  fields.emplace("ok", json::Value(true));
  return json::Value(std::move(fields));
}

json::Value health_to_json(const HealthReport& report) {
  json::Object obj;
  obj.emplace("sessions_live", json::Value(report.sessions_live));
  obj.emplace("sessions_evicted", json::Value(report.sessions_evicted));
  obj.emplace("sessions_quarantined",
              json::Value(report.sessions_quarantined));
  obj.emplace("sessions_busy", json::Value(report.sessions_busy));
  obj.emplace("sessions_shadow", json::Value(report.sessions_shadow));
  obj.emplace("refits_in_flight", json::Value(report.refits_in_flight));
  obj.emplace("refits_deferred", json::Value(report.refits_deferred));
  obj.emplace("budget_used_bytes", json::Value(report.budget_used_bytes));
  obj.emplace("budget_capacity_bytes",
              json::Value(report.budget_capacity_bytes));
  obj.emplace("overloaded_sheds",
              json::Value(static_cast<std::size_t>(report.overloaded_sheds)));
  obj.emplace("degraded_stale_asks", json::Value(static_cast<std::size_t>(
                                         report.degraded_stale_asks)));
  obj.emplace("degraded_random_asks", json::Value(static_cast<std::size_t>(
                                          report.degraded_random_asks)));
  obj.emplace("evictions",
              json::Value(static_cast<std::size_t>(report.evictions)));
  obj.emplace("lazy_resumes",
              json::Value(static_cast<std::size_t>(report.lazy_resumes)));
  obj.emplace("watchdog_timeouts", json::Value(static_cast<std::size_t>(
                                       report.watchdog_timeouts)));
  obj.emplace("idem_replays",
              json::Value(static_cast<std::size_t>(report.idem_replays)));
  obj.emplace("fence_epoch",
              json::Value(static_cast<std::size_t>(report.fence_epoch)));
  json::Array sessions;
  sessions.reserve(report.sessions.size());
  for (const SessionHealth& sh : report.sessions) {
    json::Object s;
    s.emplace("session", json::Value(sh.name));
    s.emplace("state", json::Value(sh.state));
    if (sh.shadow) s.emplace("shadow", json::Value(true));
    s.emplace("footprint_bytes", json::Value(sh.footprint_bytes));
    if (!sh.phase.empty()) {
      s.emplace("phase", json::Value(sh.phase));
      s.emplace("pending", json::Value(sh.pending));
      s.emplace("refit_in_flight", json::Value(sh.refit_in_flight));
      s.emplace("refit_deferred", json::Value(sh.refit_deferred));
      s.emplace("refit_timeouts", json::Value(sh.refit_timeouts));
      s.emplace("degraded_stale_asks", json::Value(sh.degraded_stale_asks));
      s.emplace("degraded_random_asks", json::Value(sh.degraded_random_asks));
    }
    sessions.push_back(json::Value(std::move(s)));
  }
  obj.emplace("sessions", json::Value(std::move(sessions)));
  return json::Value(std::move(obj));
}

}  // namespace

/// Ops that change durable or model state — the ones idempotency keys and
/// fencing epochs exist for. ask mutates the learner's pending set, so a
/// stale-epoch or duplicated ask is just as dangerous as a tell.
bool is_mutating_op(const std::string& op) {
  return op == "create" || op == "ask" || op == "tell" || op == "resume" ||
         op == "checkpoint" || op == "replicate" || op == "promote" ||
         op == "close";
}

std::string frame_header(std::string_view payload) {
  char crc_hex[9];
  std::snprintf(crc_hex, sizeof crc_hex, "%08x", util::crc32(payload));
  std::string header(kFrameMagic);
  header += std::to_string(payload.size());
  header += ' ';
  header += crc_hex;
  return header;
}

std::string frame_encode(std::string_view payload) {
  std::string wire = frame_header(payload);
  wire += '\n';
  wire.append(payload);
  wire += '\n';
  return wire;
}

bool parse_frame_header(std::string_view line, FrameHeader& out) {
  if (line.substr(0, kFrameMagic.size()) != kFrameMagic) return false;
  std::string_view rest = line.substr(kFrameMagic.size());
  const std::size_t space = rest.find(' ');
  if (space == std::string_view::npos || space == 0) return false;
  const std::string_view len_text = rest.substr(0, space);
  const std::string_view crc_text = rest.substr(space + 1);
  if (crc_text.size() != 8) return false;
  std::size_t len = 0;
  for (const char c : len_text) {
    if (c < '0' || c > '9') return false;
    if (len > (static_cast<std::size_t>(-1) - 9) / 10) return false;
    len = len * 10 + static_cast<std::size_t>(c - '0');
  }
  std::uint32_t crc = 0;
  for (const char c : crc_text) {
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    crc = (crc << 4) | digit;
  }
  out.len = len;
  out.crc = crc;
  return true;
}

bool frame_payload_matches(const FrameHeader& header,
                           std::string_view payload) {
  return payload.size() == header.len && util::crc32(payload) == header.crc;
}

SessionSpec spec_from_json(const json::Value& request) {
  SessionSpec spec;
  spec.workload = required_string(request, "workload");
  spec.strategy = request.string_or("strategy", spec.strategy);
  spec.alpha = request.number_or("alpha", spec.alpha);
  spec.learner.n_init = bounded_size_field(request, "n_init", spec.learner.n_init);
  spec.learner.n_batch =
      bounded_size_field(request, "n_batch", spec.learner.n_batch);
  spec.learner.n_max = bounded_size_field(request, "n_max", 150);
  spec.learner.surrogate =
      request.string_or("surrogate", spec.learner.surrogate);
  spec.learner.forest.num_trees =
      bounded_size_field(request, "trees", spec.learner.forest.num_trees);
  spec.learner.eval_every =
      bounded_size_field(request, "eval_every", spec.learner.eval_every);
  spec.learner.measure_repetitions = static_cast<int>(bounded_size_field(
      request, "measure_reps",
      static_cast<std::size_t>(spec.learner.measure_repetitions)));
  spec.pool_size = bounded_size_field(request, "pool_size", spec.pool_size);
  spec.test_size = bounded_size_field(request, "test_size", spec.test_size);
  if (request.has("seed")) {
    const json::Value& seed = request.at("seed");
    // Accept a number (exact up to 2^53) or a decimal string (full 64-bit).
    if (seed.is_string()) {
      spec.seed = std::stoull(seed.as_string());
    } else {
      spec.seed = static_cast<std::uint64_t>(seed.as_number());
    }
  }
  return spec;
}

json::Value status_to_json(const SessionStatus& status) {
  json::Object obj;
  obj.emplace("session", json::Value(status.name));
  obj.emplace("workload", json::Value(status.workload));
  obj.emplace("strategy", json::Value(status.strategy));
  obj.emplace("alpha", json::Value(status.alpha));
  obj.emplace("phase", json::Value(status.phase));
  obj.emplace("labeled", json::Value(status.labeled));
  obj.emplace("n_max", json::Value(status.n_max));
  obj.emplace("pending", json::Value(status.pending));
  obj.emplace("iteration", json::Value(status.iteration));
  obj.emplace("pool_remaining", json::Value(status.pool_remaining));
  obj.emplace("cumulative_cost", json::Value(status.cumulative_cost));
  if (std::isfinite(status.best_observed)) {
    obj.emplace("best_observed", json::Value(status.best_observed));
  }
  obj.emplace("done", json::Value(status.done));
  obj.emplace("measure_seed",
              json::Value(std::to_string(status.measure_seed)));
  return json::Value(std::move(obj));
}

json::Value candidate_to_json(const Candidate& candidate) {
  json::Object obj;
  json::Array levels;
  levels.reserve(candidate.config.size());
  for (std::uint32_t level : candidate.config.levels()) {
    levels.emplace_back(static_cast<std::size_t>(level));
  }
  obj.emplace("levels", json::Value(std::move(levels)));
  obj.emplace("iteration", json::Value(candidate.iteration));
  if (candidate.has_prediction) {
    obj.emplace("mean", json::Value(candidate.predicted_mean));
    obj.emplace("stddev", json::Value(candidate.predicted_stddev));
  }
  return json::Value(std::move(obj));
}

space::Configuration configuration_from_json(const json::Value& levels) {
  if (!levels.is_array()) {
    throw std::invalid_argument("'levels' must be an array of level indices");
  }
  std::vector<std::uint32_t> out;
  out.reserve(levels.as_array().size());
  for (const json::Value& v : levels.as_array()) {
    const double d = v.as_number();
    if (d < 0.0 || d != std::floor(d) || d > 4294967295.0) {
      throw std::invalid_argument("'levels' entries must be integers in "
                                  "[0, 2^32)");
    }
    out.push_back(static_cast<std::uint32_t>(d));
  }
  return space::Configuration(std::move(out));
}

namespace {

/// The op dispatch proper — fencing, idempotency replay, and rid echo are
/// layered on top by handle_request.
json::Value dispatch_request(SessionManager& manager,
                             const json::Value& request) {
  try {
    const std::string op = required_string(request, "op");

    if (op == "shutdown") {
      // Graceful: join in-flight refits and flush final auto-checkpoints
      // before acknowledging, so a scripted shutdown never loses a tell.
      manager.drain();
      return ok_response({{"shutdown", json::Value(true)}});
    }
    if (op == "list") {
      json::Array sessions;
      for (const SessionStatus& status : manager.list()) {
        sessions.push_back(status_to_json(status));
      }
      return ok_response({{"sessions", json::Value(std::move(sessions))}});
    }
    if (op == "health") {
      return ok_response({{"health", health_to_json(manager.health())}});
    }
    if (op == "hello") {
      // Framing negotiation: the serve loop watches for this op and flips
      // its responses to framed when "frame" is true. The response itself
      // also reports the fence epoch so a reconnecting client learns
      // immediately whether it is stale.
      return ok_response(
          {{"proto", json::Value(std::string("pwu1"))},
           {"frame", json::Value(request.bool_or("frame", false))},
           {"fence_epoch",
            json::Value(static_cast<std::size_t>(manager.fence_epoch()))}});
    }
    if (op == "fence") {
      const json::Value& epoch = request.at("epoch");
      if (!epoch.is_number()) {
        throw std::invalid_argument("missing number field 'epoch'");
      }
      manager.raise_fence(static_cast<std::uint64_t>(epoch.as_number()));
      return ok_response(
          {{"epoch",
            json::Value(static_cast<std::size_t>(manager.fence_epoch()))}});
    }

    // Reject unknown ops before demanding their operands, so a typo'd op
    // is reported as such rather than as a missing 'session'.
    if (op != "create" && op != "ask" && op != "tell" && op != "status" &&
        op != "close" && op != "checkpoint" && op != "resume" &&
        op != "replicate" && op != "promote") {
      return error_response("unknown op '" + op + "'");
    }
    const std::string name = required_string(request, "session");
    if (op == "create") {
      const SessionStatus status = manager.create(name, spec_from_json(request));
      return ok_response(
          {{"session", json::Value(name)},
           {"measure_seed", json::Value(std::to_string(status.measure_seed))},
           {"status", status_to_json(status)}});
    }
    if (op == "ask") {
      // Chaos/bench instant: the ask request arrived but nothing has been
      // applied — dying here forces the router to recover the session and
      // replay the ask, isolating pure recovery cost (no refit rides on
      // the replayed request).
      util::killpoint("protocol.ask");
      const std::size_t count = bounded_size_field(request, "count", 0);
      // Per-request deadline override; -1 = block for the fresh model.
      std::int64_t deadline_ms = manager.limits().ask_deadline_ms;
      if (request.has("deadline_ms")) {
        const double d = request.at("deadline_ms").as_number();
        if (d != std::floor(d) || d < -1.0 || d > 86400000.0) {
          throw std::invalid_argument(
              "field 'deadline_ms' must be an integer in [-1, 86400000]");
        }
        deadline_ms = static_cast<std::int64_t>(d);
      }
      const AskOutcome outcome =
          manager.ask_with_deadline(name, count, deadline_ms);
      json::Array arr;
      arr.reserve(outcome.candidates.size());
      for (const Candidate& cand : outcome.candidates) {
        arr.push_back(candidate_to_json(cand));
      }
      json::Object fields{{"candidates", json::Value(std::move(arr))},
                          {"done", json::Value(outcome.candidates.empty())}};
      if (outcome.degraded != DegradedMode::None) {
        fields.emplace("degraded",
                       json::Value(std::string(to_string(outcome.degraded))));
      }
      return ok_response(std::move(fields));
    }
    if (op == "tell") {
      // Optional "status" routes failed measurements: "ok" (default) is a
      // successful label, anything else goes through the failure path.
      const std::string status_name = request.string_or("status", "ok");
      const std::optional<sim::FailureKind> kind =
          sim::failure_kind_from_string(status_name);
      if (!kind.has_value()) {
        throw std::invalid_argument("unknown status '" + status_name + "'");
      }
      if (*kind == sim::FailureKind::None) {
        const json::Value& time = request.at("time");
        if (!time.is_number()) {
          throw std::invalid_argument("missing number field 'time'");
        }
        const TellOutcome outcome = manager.tell(
            name, configuration_from_json(request.at("levels")),
            time.as_number());
        json::Object fields{{"labeled", json::Value(outcome.labeled)},
                            {"refit", json::Value(outcome.batch_complete)},
                            {"done", json::Value(outcome.done)}};
        if (!outcome.checkpoint_path.empty()) {
          fields.emplace("checkpoint", json::Value(outcome.checkpoint_path));
        }
        return ok_response(std::move(fields));
      }
      const double cost = request.number_or("cost", 0.0);
      if (!(cost >= 0.0)) {
        throw std::invalid_argument("field 'cost' must be non-negative");
      }
      const FailureTellOutcome outcome = manager.tell_failure(
          name, configuration_from_json(request.at("levels")), *kind, cost);
      json::Object fields{
          {"failure", json::Value(std::string(sim::to_string(*kind)))},
          {"action",
           json::Value(std::string(outcome.action == FailureAction::Retry
                                       ? "retry"
                                       : "dropped"))},
          {"attempts", json::Value(outcome.attempts)},
          {"backoff_seconds", json::Value(outcome.backoff_seconds)},
          {"refit", json::Value(outcome.batch_complete)},
          {"done", json::Value(outcome.done)},
          {"failed_total", json::Value(outcome.failed_total)}};
      if (!outcome.checkpoint_path.empty()) {
        fields.emplace("checkpoint", json::Value(outcome.checkpoint_path));
      }
      return ok_response(std::move(fields));
    }
    if (op == "status") {
      return ok_response({{"status", status_to_json(manager.status(name))}});
    }
    if (op == "close") {
      const bool closed = manager.close(name);
      if (!closed) return error_response("no session named '" + name + "'");
      return ok_response({{"closed", json::Value(name)}});
    }
    if (op == "checkpoint") {
      const std::string path = required_string(request, "path");
      if (path.empty()) {
        throw std::invalid_argument("'path' must be a non-empty string");
      }
      manager.checkpoint_to_file(name, path);
      return ok_response({{"path", json::Value(path)}});
    }
    if (op == "resume") {
      const std::string path = required_string(request, "path");
      if (path.empty()) {
        throw std::invalid_argument("'path' must be a non-empty string");
      }
      const ResumeOutcome outcome = manager.resume_from_file(name, path);
      return ok_response(
          {{"measure_seed",
            json::Value(std::to_string(outcome.status.measure_seed))},
           {"recovered", json::Value(outcome.used_fallback)},
           {"source", json::Value(outcome.source_path)},
           {"status", status_to_json(outcome.status)}});
    }
    if (op == "replicate") {
      // One op record streamed from the session's primary. The record is
      // an ordinary protocol request applied to the local shadow copy —
      // determinism-by-re-execution is what keeps the shadow bit-identical
      // to the primary — so the dispatch is just a recursive
      // handle_request, with the inner response echoed under "applied" for
      // the replicator's digest check.
      const json::Value& record = request.at("record");
      if (!record.is_object()) {
        throw std::invalid_argument("'record' must be an object");
      }
      const std::string inner_op = required_string(record, "op");
      if (inner_op != "create" && inner_op != "ask" && inner_op != "tell" &&
          inner_op != "close" && inner_op != "resume" &&
          inner_op != "checkpoint") {
        throw std::invalid_argument("op '" + inner_op +
                                    "' cannot be replicated");
      }
      if (required_string(record, "session") != name) {
        throw std::invalid_argument(
            "replicate record names a different session");
      }
      // The record is acked upstream but not yet applied here — exactly
      // the window where a standby death must degrade to cold re-home.
      util::killpoint("protocol.replicate");
      json::Value applied = handle_request(manager, record);
      const bool inner_ok = applied.bool_or("ok", false);
      if (inner_ok && inner_op != "close") manager.mark_shadow(name, true);
      if (!inner_ok) {
        json::Value response =
            error_response("replicate: inner op '" + inner_op +
                           "' failed: " + applied.string_or("error", "?"));
        response.as_object().emplace("applied", std::move(applied));
        return response;
      }
      return ok_response({{"applied", std::move(applied)}});
    }
    if (op == "promote") {
      // Zero-cold-start failover: the shadow's state is already current,
      // so promotion is just dropping the shadow mark.
      util::killpoint("protocol.promote");
      manager.mark_shadow(name, false);
      return ok_response({{"status", status_to_json(manager.status(name))}});
    }
    return error_response("unknown op '" + op + "'");
  } catch (const OverloadError& e) {
    // Structural refusal, not a failure: the client is told when to come
    // back instead of being disconnected or blocked.
    json::Value response = error_response(e.what());
    response.as_object().emplace("overloaded", json::Value(true));
    response.as_object().emplace(
        "retry_after_ms",
        json::Value(static_cast<double>(e.retry_after_ms())));
    return response;
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

}  // namespace

util::json::Value handle_request(SessionManager& manager,
                                 const json::Value& request) {
  json::Value response = [&]() -> json::Value {
    try {
      const std::string op = required_string(request, "op");

      // Fencing: a write stamped with an epoch below the highest this
      // server has seen comes from a router whose view of the ring
      // predates a failover or grow — rejecting it closes the split-brain
      // window. Any in-range epoch raises the fence monotonically.
      if (request.has("epoch") && request.at("epoch").is_number()) {
        const std::uint64_t epoch =
            static_cast<std::uint64_t>(request.at("epoch").as_number());
        const std::uint64_t fence = manager.fence_epoch();
        if (is_mutating_op(op) && epoch < fence) {
          json::Value fenced = error_response(
              "stale epoch " + std::to_string(epoch) + " < fence " +
              std::to_string(fence));
          fenced.as_object().emplace("fenced", json::Value(true));
          fenced.as_object().emplace(
              "epoch", json::Value(static_cast<std::size_t>(fence)));
          return fenced;
        }
        manager.raise_fence(epoch);
      }

      // Idempotency: a duplicated or retried mutating op (same
      // client-generated key) replays the original reply instead of
      // re-executing — the whole-client-path version of the router's
      // exactly-once tells.
      const std::string idem = request.string_or("idem", "");
      const std::string session = request.string_or("session", "");
      const bool dedup =
          !idem.empty() && !session.empty() && is_mutating_op(op);
      if (dedup) {
        if (std::optional<std::string> prior =
                manager.idempotent_reply(session, idem)) {
          return json::parse(*prior);
        }
      }
      json::Value fresh = dispatch_request(manager, request);
      // Overload sheds are transient refusals — remembering one would
      // replay it at the retry that the shed itself asked for.
      if (dedup && !fresh.bool_or("overloaded", false)) {
        manager.remember_reply(session, idem, fresh.dump());
      }
      return fresh;
    } catch (const std::exception& e) {
      return error_response(e.what());
    }
  }();
  // Echo the request id (if any) so pipelining clients can re-match
  // duplicated or reordered replies. Echoed after idempotency replay: the
  // replayed reply must carry the *retry's* rid, not the original's.
  if (request.is_object() && request.has("rid") &&
      request.at("rid").is_string()) {
    response.as_object()["rid"] = json::Value(request.at("rid").as_string());
  }
  return response;
}

std::size_t run_line_loop(std::istream& in, std::ostream& out,
                          std::size_t max_window,
                          const WindowHandler& handle) {
  // Requests beyond this size are rejected up front: a runaway or
  // malicious line must not balloon the JSON parser, and the loop (and
  // every other session) keeps serving afterwards.
  constexpr std::size_t kMaxRequestBytes = 1 << 20;
  constexpr std::size_t kImmediate = static_cast<std::size_t>(-1);
  const auto bad_frame = [](const char* what) {
    json::Value bad = error_response(what);
    bad.as_object().emplace("bad_frame", json::Value(true));
    return bad;
  };
  // One slot per answered line, in arrival order: either the index of a
  // parsed request in the window, or a response decided without handling.
  struct Slot {
    std::size_t request = kImmediate;
    json::Value response;
    bool hello_frame = false;  // the request is {"op":"hello","frame":true}
  };
  std::vector<json::Value> requests;
  std::vector<Slot> slots;
  std::size_t handled = 0;
  bool framed_out = false;
  bool stop = false;
  std::string line;
  while (!stop) {
    requests.clear();
    slots.clear();
    // The window's first line blocks; later lines join it only while they
    // are already buffered, so a pipelining client gets batched handling
    // and a one-at-a-time client never waits on a read.
    while (slots.size() < max_window &&
           (slots.empty() || in.rdbuf()->in_avail() > 0)) {
      if (!std::getline(in, line)) {
        stop = true;
        break;
      }
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      // Framed request: a `pwu1 <len> <crc32>` header line, payload on the
      // next line. A damaged frame (bad length, bad CRC, missing payload)
      // is reported as a structured bad_frame error — never mis-parsed —
      // and the loop resyncs at the next line.
      FrameHeader header;
      if (parse_frame_header(line, header)) {
        if (header.len > kMaxRequestBytes) {
          slots.push_back({kImmediate, bad_frame("frame exceeds 1 MiB")});
          continue;
        }
        std::string payload;
        if (!std::getline(in, payload)) {
          slots.push_back({kImmediate,
                           bad_frame("truncated frame: stream ended before "
                                     "payload")});
          stop = true;
          break;
        }
        if (!frame_payload_matches(header, payload)) {
          slots.push_back({kImmediate, bad_frame("frame checksum mismatch")});
          continue;
        }
        line = std::move(payload);
      }
      if (line.size() > kMaxRequestBytes) {
        slots.push_back(
            {kImmediate, error_response("request line exceeds 1 MiB")});
        continue;
      }
      try {
        json::Value request = json::parse(line);
        const std::string op = request.string_or("op", "");
        slots.push_back({requests.size(), json::Value(),
                         op == "hello" && request.bool_or("frame", false)});
        requests.push_back(std::move(request));
        // Nothing after a shutdown joins its window.
        if (op == "shutdown") break;
      } catch (const std::exception& e) {
        slots.push_back({kImmediate, error_response(e.what())});
      }
    }

    std::vector<json::Value> responses;
    if (!requests.empty()) responses = handle(requests);
    for (const Slot& slot : slots) {
      const json::Value& response =
          slot.request == kImmediate ? slot.response : responses[slot.request];
      // An accepted {"op":"hello","frame":true} flips every later response
      // to framed — its own reply included: the client asked for frames,
      // so it can parse one immediately.
      if (slot.hello_frame && response.bool_or("ok", false)) framed_out = true;
      const std::string payload = response.dump();
      if (framed_out) {
        out << frame_encode(payload);
      } else {
        out << payload << '\n';
      }
      ++handled;
      if (response.bool_or("shutdown", false)) {
        stop = true;
        break;
      }
    }
    out.flush();
  }
  return handled;
}

std::size_t run_serve_loop(std::istream& in, std::ostream& out,
                           SessionManager& manager) {
  // One request per window: each reply is written and flushed before the
  // next request is read, which closed-loop pipelining clients rely on.
  return run_line_loop(
      in, out, 1, [&manager](const std::vector<json::Value>& requests) {
        std::vector<json::Value> responses;
        responses.reserve(requests.size());
        for (const json::Value& request : requests) {
          responses.push_back(handle_request(manager, request));
        }
        return responses;
      });
}

}  // namespace pwu::service
