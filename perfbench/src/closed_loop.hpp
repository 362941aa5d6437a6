// Closed-loop load for the serving workloads: K simulated tuning clients,
// each with exactly one request in flight, multiplexed over one pipelined
// connection. A client waits for every reply (ask -> measure -> tell) and
// has zero think time; when its session finishes it closes it and opens
// the next one. Every request/reply pair is logged so the run can check
// the candidate streams against an in-process reference and replay them
// one hop shorter in the traced run.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/transport.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace json = pwu::util::json;

/// The tuning fields of one create request.
struct SessionShape {
  std::string workload;
  std::size_t n_init = 5;
  std::size_t n_batch = 1;
  std::size_t n_max = 30;
  std::size_t trees = 8;
  std::size_t pool_size = 150;
};

enum class OpKind { Create, Ask, Tell, Close };
const char* to_string(OpKind kind);

/// Every request the loop sent, in send order, with its reply.
struct RequestLog {
  struct Entry {
    std::size_t session = 0;  // index into sessions
    OpKind kind = OpKind::Create;
    std::string request;
    json::Value response;
    std::size_t response_bytes = 0;
  };
  std::vector<std::string> sessions;
  std::vector<Entry> entries;
};

/// One simulated tuning client: a sequence of sessions drawn from `mix`
/// (session i uses mix[(first + i) % mix.size()]), each seeded from
/// `seed_stream`, measured with the workload simulator on the session's
/// own measure_seed stream.
class TuningClient {
 public:
  TuningClient(std::string prefix, std::vector<SessionShape> mix,
               std::size_t first, std::uint64_t seed);

  /// The next request to send (a create, ask, tell or close).
  json::Value next_request();
  OpKind next_kind() const { return kind_; }
  const std::string& session_name() const { return name_; }

  /// Advances on a reply. Returns false when the reply reports a failure
  /// (ok:false or malformed); the client then abandons the session and
  /// opens the next one.
  bool on_response(const json::Value& response);

 private:
  void start_next_session();

  std::string prefix_;
  std::vector<SessionShape> mix_;
  std::size_t first_ = 0;
  pwu::util::Rng seeds_;
  std::size_t index_ = 0;  // sessions opened so far
  std::string name_;
  SessionShape shape_;
  OpKind kind_ = OpKind::Create;
  pwu::util::Rng measure_rng_{1};
  std::vector<json::Value> batch_;  // candidates still to measure and tell
  std::size_t next_candidate_ = 0;
};

struct LoopResult {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  // ok replies
  std::uint64_t failed = 0;     // ok:false or malformed replies, lost sends
  std::vector<double> ask_ms;
  std::vector<double> tell_ms;
  double wall_s = 0.0;
  /// The measured interval cut into windows of about one second: each
  /// window's ask p50, tell p50 and completed requests per second. Their
  /// medians keep a burst of machine noise from moving a run's numbers.
  std::vector<double> window_ask_p50;
  std::vector<double> window_tell_p50;
  std::vector<double> window_req_per_s;
  /// p99s of up to three consecutive, equal-count runs of the ask and tell
  /// latencies (a p99 needs 1000 samples, more than a window holds).
  std::vector<double> chunk_ask_p99;
  std::vector<double> chunk_tell_p99;
  /// In-flight count observed before every receive while the loop was
  /// still sending (the steady phase); both equal K when the loop is
  /// closed.
  std::size_t min_in_flight = 0;
  std::size_t max_in_flight = 0;
  bool transport_ok = true;
  std::string transport_error;
};

/// Runs the closed loop for `seconds`, then stops sending and drains the
/// requests still in flight. Spans json.encode / json.decode / frame.encode
/// go to `tracer` when it is enabled.
LoopResult run_closed_loop(pwu::service::Transport& server,
                           std::vector<TuningClient>& clients, double seconds,
                           Tracer& tracer, RequestLog& log);

/// The fields of a reply that must be bit-identical across topologies:
/// measure_seed for create, candidates and done for ask, labeled and done
/// for tell.
std::string canonical_reply(OpKind kind, const json::Value& response);

/// Replays every logged request of `sessions` (a set of session indexes)
/// in logged order through `server`, one at a time, counting replies whose
/// canonical form differs from the log. Every rung replays the same
/// requests in the same order, so sample k of two rungs is one request.
struct ReplayResult {
  std::vector<OpKind> kinds;
  std::vector<double> ms;  // latency of each replayed request
  std::size_t mismatches = 0;
  std::string first_mismatch;

  /// Latencies of one kind of request.
  std::vector<double> of(OpKind kind) const;
};
ReplayResult replay(pwu::service::Transport& server, const RequestLog& log,
                    const std::vector<bool>& sessions, Tracer& tracer,
                    const char* span_name);

/// Per-request latency differences later - earlier over the requests of
/// `kind` (every request when `all`): the paired self time of the hop
/// between two rungs.
std::vector<double> paired_diff(const ReplayResult& earlier,
                                const ReplayResult& later, OpKind kind,
                                bool all);

/// Session indexes in creation order whose requests, together, include at
/// least `min_asks` asks (all sessions when the log holds fewer).
std::vector<bool> replay_subset(const RequestLog& log, std::size_t min_asks);

}  // namespace perfbench
