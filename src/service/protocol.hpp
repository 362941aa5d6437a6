// JSON-lines request/response protocol for the tuning service.
//
// One JSON object per line in, one per line out — pipe-friendly, so
// `pwu_serve` is scriptable with a shell heredoc and testable with string
// streams. Every response carries "ok"; failures carry "error" and never
// tear the server down.
//
//   {"op":"create","session":"s1","workload":"atax","strategy":"pwu",
//    "alpha":0.05,"n_init":10,"n_batch":1,"n_max":60,"pool_size":400,
//    "test_size":200,"trees":25,"seed":7}
//     -> {"ok":true,"session":"s1","measure_seed":"1234...","status":{...}}
//   {"op":"ask","session":"s1","count":1}
//     -> {"ok":true,"done":false,"candidates":[{"levels":[3,0,5],
//         "mean":0.41,"stddev":0.07,"iteration":1}]}
//   {"op":"tell","session":"s1","levels":[3,0,5],"time":0.3977}
//     -> {"ok":true,"labeled":11,"refit":true,"done":false}
//   {"op":"tell","session":"s1","levels":[3,0,5],"status":"crash","cost":0.2}
//     -> {"ok":true,"failure":"crash","action":"retry","attempts":1,
//         "backoff_seconds":0.5,"refit":false,"done":false,"failed_total":0}
//   {"op":"status","session":"s1"} | {"op":"list"} | {"op":"health"} |
//   {"op":"close","session":"s1"} |
//   {"op":"checkpoint","session":"s1","path":"/tmp/s1.ckpt"} |
//   {"op":"resume","session":"s1","path":"/tmp/s1.ckpt"} |
//   {"op":"shutdown"}
//
// Replication & migration ops (the router's HA substrate — see
// src/router/replication.hpp and DESIGN.md §14):
//   {"op":"replicate","session":"s1","record":{...}}
//     applies the wrapped op record to a live shadow copy of the session
//     (create/resume records instantiate the shadow); answers the inner
//     response under "applied" so the replicator can verify digests.
//   {"op":"promote","session":"s1"}
//     flips the shadow into an ordinary serving session and returns its
//     status — zero-cold-start failover.
//   {"op":"export","session":"s1","offset":0,"max_bytes":262144}
//     one chunk of the session's checkpoint image ("chunk","offset",
//     "total","eof") — keeps migration transfers under the line cap.
//   {"op":"import","session":"s1","chunk":"..."} stages bytes;
//   {"op":"import","session":"s1","commit":true,"shadow":false} installs
//   the staged image as a live session; {"op":"import","session":"s1",
//   "abort":true} discards the staging slot.
//
// tell's optional "status" ("ok" | "compile_error" | "crash" | "timeout")
// routes failed measurements; "cost" is the simulated seconds the failed
// attempt burned. checkpoint writes atomically (tmp + CRC footer + fsync +
// rename, previous copy kept as .bak); resume verifies the CRC and falls
// back to the .bak — reporting "recovered":true — when the newest copy is
// torn. shutdown drains in-flight refits (and final auto-checkpoints)
// before acknowledging.
//
// Overload behavior (see service/overload.hpp): a request refused by
// admission control answers {"ok":false,"overloaded":true,
// "retry_after_ms":N,...} — clients back off and retry. ask accepts an
// optional "deadline_ms" (-1 = block for the fresh model); a batch served
// past its deadline carries "degraded":"stale_model"|"random". health
// reports per-session state, queue depths, budget usage, and the
// shed/degraded counters without blocking on busy sessions.
//
// Network resilience (DESIGN.md §15):
//   * Checksummed wire framing: a message may arrive as two lines,
//     `pwu1 <len> <crc32-hex>` then the payload. The length and CRC are
//     verified before parsing, so a corrupted or truncated line is detected
//     and reported (`{"ok":false,"bad_frame":true,...}`) instead of being
//     mis-parsed; readers resync at the next `pwu1 ` header. Legacy
//     unframed lines are always accepted. {"op":"hello","frame":true}
//     negotiates framed *responses* for the rest of the connection.
//   * Request ids: any request may carry "rid" (a string); the response
//     echoes it, which is what lets pipelining clients re-match duplicated
//     or reordered replies.
//   * Idempotency: mutating ops may carry "idem" (a client-generated key).
//     The manager keeps a bounded per-session window of (key -> reply) and
//     replays the original reply on duplicates, so a retry after a lost or
//     corrupted reply never double-applies a tell.
//   * Fencing: requests may carry "epoch" (the router's ring epoch). A
//     mutating op whose epoch is below the highest this server has seen
//     answers {"ok":false,"fenced":true,"epoch":<fence>} — a partitioned
//     stale primary cannot write after its standby was promoted.
//     {"op":"fence","epoch":N} raises the fence explicitly.
//
// measure_seed is a decimal *string*: 64-bit seeds do not survive the trip
// through a JSON double.

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "service/session_manager.hpp"
#include "util/json.hpp"

namespace pwu::service {

// ---- checksummed wire framing ----------------------------------------------

/// Magic that opens a frame header line: `pwu1 <len> <crc32-hex>`.
inline constexpr std::string_view kFrameMagic = "pwu1 ";

struct FrameHeader {
  std::size_t len = 0;       // payload bytes (the next line, sans newline)
  std::uint32_t crc = 0;     // IEEE CRC32 of the payload bytes
};

/// Renders the header line (no trailing newline) for `payload`.
std::string frame_header(std::string_view payload);

/// The full two-line wire form: header + '\n' + payload + '\n'.
std::string frame_encode(std::string_view payload);

/// Parses a `pwu1 <len> <crc32-hex>` header line. Returns false when the
/// line is not a well-formed frame header (callers then treat it as a
/// legacy unframed payload, or as garbage to resync past).
bool parse_frame_header(std::string_view line, FrameHeader& out);

/// Verifies `payload` against a parsed header (length and CRC both match).
bool frame_payload_matches(const FrameHeader& header, std::string_view payload);

/// Ops that change durable or model state — the ones idempotency keys and
/// fencing epochs apply to (ask included: it mutates the learner's pending
/// set, so duplicating or stale-writing it corrupts a session like a tell).
bool is_mutating_op(const std::string& op);

/// Parses a create request's tuning fields into a SessionSpec (defaults
/// match the pwu_run CLI). Throws std::invalid_argument on missing or
/// malformed fields.
SessionSpec spec_from_json(const util::json::Value& request);

util::json::Value status_to_json(const SessionStatus& status);
util::json::Value candidate_to_json(const Candidate& candidate);

/// Converts a "levels" JSON array to a Configuration (validated against
/// `space` by the session when told).
space::Configuration configuration_from_json(const util::json::Value& levels);

/// Dispatches one request object against the manager. Never throws for
/// request-level errors — they come back as {"ok":false,"error":...}.
/// A {"op":"shutdown"} request responds {"ok":true,"shutdown":true}.
util::json::Value handle_request(SessionManager& manager,
                                 const util::json::Value& request);

/// Answers one window of parsed requests: one response per request, in
/// request order.
using WindowHandler = std::function<std::vector<util::json::Value>(
    const std::vector<util::json::Value>&)>;

/// The JSON-lines loop behind pwu_serve and pwu_router. Reads requests from
/// `in` until EOF or a shutdown request, writing one response each. Blank
/// lines are skipped; oversized lines and parse errors produce error
/// responses. Framed requests (a `pwu1` header line followed by the
/// payload) are verified and unwrapped — a damaged frame answers
/// bad_frame and the loop resyncs at the next line — and an accepted
/// {"op":"hello","frame":true} flips responses to framed for the rest of
/// the loop. A window is the first (blocking) request plus whatever
/// further requests are already buffered, up to `max_window`, ending at a
/// shutdown request; `handle` answers it and its responses are flushed
/// together. Returns the number of responses written.
std::size_t run_line_loop(std::istream& in, std::ostream& out,
                          std::size_t max_window,
                          const WindowHandler& handle);

/// run_line_loop over handle_request, one request per window. Returns the
/// number of requests handled.
std::size_t run_serve_loop(std::istream& in, std::ostream& out,
                           SessionManager& manager);

}  // namespace pwu::service
