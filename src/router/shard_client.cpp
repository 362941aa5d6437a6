#include "router/shard_client.hpp"

#include "router/hash_ring.hpp"
#include "service/protocol.hpp"

#include <chrono>
#include <map>
#include <thread>
#include <utility>

namespace pwu::router {

namespace json = util::json;

namespace {

/// Unmatched replies tolerated per drain before declaring the connection
/// desynced beyond repair (duplicates and late retransmits are bounded by
/// the retry budget; an endless stray stream means a byzantine peer).
constexpr int kMaxStrayReplies = 64;

bool is_overloaded(const json::Value& response) {
  return response.is_object() && !response.bool_or("ok", true) &&
         response.bool_or("overloaded", false);
}

}  // namespace

ShardClient::ShardClient(std::string name,
                         std::unique_ptr<service::Transport> transport,
                         ShardClientOptions options)
    : name_(std::move(name)),
      transport_(std::move(transport)),
      options_(options),
      jitter_(options.jitter_seed ^ fnv1a64(name_)) {}

json::Value ShardClient::stamp(const json::Value& request,
                               std::string& rid_out) {
  json::Value stamped = request;
  rid_out.clear();
  if (!stamped.is_object()) return stamped;
  ++rid_counter_;
  rid_out = name_ + "#" + std::to_string(rid_counter_);
  json::Object& obj = stamped.as_object();
  obj["rid"] = json::Value(rid_out);
  if (epoch_provider_) {
    obj["epoch"] =
        json::Value(static_cast<std::size_t>(epoch_provider_()));
  }
  // Mutating requests that reach the wire without an idempotency key get
  // one here, so even router-internal traffic (resume, replicate, the
  // checkpoint and resume that migrate a session) survives a
  // corrupted-reply resend exactly-once.
  // Stamped once per logical call — every resend reuses the same key.
  if (service::is_mutating_op(stamped.string_or("op", "")) &&
      stamped.string_or("idem", "").empty() &&
      !stamped.string_or("session", "").empty()) {
    obj["idem"] = json::Value(name_ + "#i" + std::to_string(rid_counter_));
  }
  return stamped;
}

void ShardClient::frame_backoff() {
  const double wait_ms =
      static_cast<double>(options_.backoff_ms) * (0.5 + jitter_.uniform());
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(wait_ms)));
}

json::Value ShardClient::roundtrip(const json::Value& request) {
  std::string rid;
  const json::Value stamped = stamp(request, rid);
  const std::string line = stamped.dump();
  int frame_retries = 0;
  for (;;) {
    try {
      transport_->send(line);
      for (int reads = 0; reads < kMaxStrayReplies; ++reads) {
        const std::string reply_line = transport_->recv();
        json::Value response;
        try {
          response = json::parse(reply_line);
        } catch (const std::exception&) {
          // Corruption on an unframed connection surfaces here instead of
          // as a FrameError; same recovery either way.
          throw service::FrameError("unparseable reply from '" + name_ +
                                    "'");
        }
        if (rid.empty()) return response;  // non-object request: legacy
        if (response.is_object() && response.string_or("rid", "") == rid) {
          response.as_object().erase("rid");
          return response;
        }
        // Stray: a duplicated reply, a late retransmit of an earlier
        // attempt, or a leftover from a previous drain — discard and keep
        // reading.
      }
      throw service::TransportError("shard '" + name_ +
                                    "': too many unmatched replies");
    } catch (const service::FrameError&) {
      ++corrupt_replies_;
      if (++frame_retries > options_.retries) {
        throw service::TransportError("shard '" + name_ +
                                      "': persistent reply corruption");
      }
      frame_backoff();
      // Loop resends the *same* line: same rid, same idempotency key — the
      // server replays the original reply if the lost one was applied.
    }
  }
}

json::Value ShardClient::call(const json::Value& request) {
  if (!alive()) {
    throw service::TransportError("shard '" + name_ + "' is down");
  }
  try {
    json::Value response = roundtrip(request);
    ++requests_;
    if (is_overloaded(response)) {
      response = retry_overloaded(request, std::move(response));
    }
    return response;
  } catch (const service::TransportError&) {
    alive_ = false;
    throw;
  }
}

std::optional<json::Value> ShardClient::probe(const json::Value& request) {
  // Reaching through the dead-mark is the point: a partition-declared
  // death leaves a live process behind, and the fence sweep must be able
  // to talk to it. But never touch a transport that observed a *real*
  // connection failure — sending there would respawn a fresh worker.
  if (!transport_->alive()) return std::nullopt;
  try {
    return roundtrip(request);
  } catch (const service::TransportError&) {
    return std::nullopt;
  }
}

ShardClient::PipelineResult ShardClient::call_pipelined(
    const std::vector<json::Value>& requests) {
  PipelineResult result;
  if (!alive()) {
    result.died = true;
    result.error = "shard '" + name_ + "' is down";
    return result;
  }
  const std::size_t n = requests.size();
  std::vector<std::string> lines(n);
  std::vector<json::Value> slots(n);
  std::vector<bool> answered(n, false);
  std::map<std::string, std::size_t> by_rid;
  for (std::size_t i = 0; i < n; ++i) {
    std::string rid;
    lines[i] = stamp(requests[i], rid).dump();
    if (!rid.empty()) by_rid.emplace(std::move(rid), i);
  }
  std::vector<std::size_t> overloaded;
  std::size_t pending = n;
  int frame_retries = 0;
  int strays = 0;
  const auto resend_unanswered = [&]() {
    ++corrupt_replies_;
    if (++frame_retries > options_.retries) {
      throw service::TransportError("shard '" + name_ +
                                    "': persistent reply corruption");
    }
    frame_backoff();
    // A corrupted or lost reply does not say whose it was; resend every
    // unanswered request. rid matching discards the resulting duplicates
    // and the servers' idempotency windows make re-execution safe.
    for (std::size_t i = 0; i < n; ++i) {
      if (!answered[i]) transport_->send(lines[i]);
    }
  };
  try {
    for (const std::string& line : lines) transport_->send(line);
    while (pending > 0) {
      std::string reply_line;
      try {
        reply_line = transport_->recv();
      } catch (const service::FrameError&) {
        resend_unanswered();
        continue;
      }
      json::Value response;
      try {
        response = json::parse(reply_line);
      } catch (const std::exception&) {
        resend_unanswered();
        continue;
      }
      const std::string rid =
          response.is_object() ? response.string_or("rid", "") : "";
      const auto match = by_rid.find(rid);
      if (match == by_rid.end() || answered[match->second]) {
        if (++strays > kMaxStrayReplies) {
          throw service::TransportError("shard '" + name_ +
                                        "': too many unmatched replies");
        }
        continue;
      }
      const std::size_t idx = match->second;
      response.as_object().erase("rid");
      ++requests_;
      answered[idx] = true;
      --pending;
      if (is_overloaded(response)) overloaded.push_back(idx);
      slots[idx] = std::move(response);
    }
    // Overloaded slots are re-requested only after the window drains — a
    // mid-drain resend would race the still-queued replies. Admission
    // control refused them before touching any state, so the late resend
    // is safe (and pipelined windows carry independent sessions, so the
    // reordering is invisible).
    for (const std::size_t i : overloaded) {
      slots[i] = retry_overloaded(requests[i], std::move(slots[i]));
    }
    result.responses = std::move(slots);
  } catch (const service::TransportError& e) {
    alive_ = false;
    result.died = true;
    result.error = e.what();
    // The answered *prefix* keeps the original partial-drain contract:
    // requests [responses.size(), n) are the router's to resolve through
    // failover (out-of-order answers past the first hole were applied,
    // and the failover path's synthesis/idempotency machinery re-derives
    // them rather than double-applying).
    for (std::size_t i = 0; i < n && answered[i]; ++i) {
      result.responses.push_back(std::move(slots[i]));
    }
  }
  return result;
}

json::Value ShardClient::retry_overloaded(const json::Value& request,
                                          json::Value response) {
  for (int attempt = 0; attempt < options_.retries; ++attempt) {
    if (!is_overloaded(response)) return response;
    const double hint_ms = response.number_or(
        "retry_after_ms", static_cast<double>(options_.backoff_ms));
    const double wait_ms = hint_ms * (0.5 + jitter_.uniform());
    ++overload_retries_;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(wait_ms)));
    response = roundtrip(request);
    ++requests_;
  }
  return response;
}

}  // namespace pwu::router
