#include "closed_loop.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <unordered_map>

#include "service/protocol.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::Create: return "create";
    case OpKind::Ask: return "ask";
    case OpKind::Tell: return "tell";
    case OpKind::Close: return "close";
  }
  return "?";
}

namespace {

/// Simulators by name, built once per process.
const pwu::workloads::Workload& workload_named(const std::string& name) {
  static std::map<std::string, pwu::workloads::WorkloadPtr> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, pwu::workloads::make_workload(name)).first;
  }
  return *it->second;
}

json::Value session_op(const char* op, const std::string& name) {
  json::Object obj;
  obj.emplace("op", json::Value(op));
  obj.emplace("session", json::Value(name));
  return json::Value(std::move(obj));
}

/// p99 of each of up to three consecutive runs of `samples` of equal
/// length, each long enough for a p99 (1000 samples).
std::vector<double> chunk_p99s(const std::vector<double>& samples) {
  const std::size_t n = std::clamp<std::size_t>(samples.size() / 1000, 1, 3);
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(percentile(
        {samples.begin() + static_cast<std::ptrdiff_t>(i * samples.size() / n),
         samples.begin() +
             static_cast<std::ptrdiff_t>((i + 1) * samples.size() / n)},
        0.99));
  }
  return out;
}

}  // namespace

TuningClient::TuningClient(std::string prefix, std::vector<SessionShape> mix,
                           std::size_t first, std::uint64_t seed)
    : prefix_(std::move(prefix)),
      mix_(std::move(mix)),
      first_(first),
      seeds_(seed) {
  start_next_session();
}

void TuningClient::start_next_session() {
  name_ = prefix_ + "s" + std::to_string(index_);
  shape_ = mix_[(first_ + index_) % mix_.size()];
  ++index_;
  kind_ = OpKind::Create;
  batch_.clear();
  next_candidate_ = 0;
}

json::Value TuningClient::next_request() {
  switch (kind_) {
    case OpKind::Create: {
      json::Value request = session_op("create", name_);
      json::Object& obj = request.as_object();
      obj.emplace("workload", json::Value(shape_.workload));
      obj.emplace("n_init", json::Value(shape_.n_init));
      obj.emplace("n_batch", json::Value(shape_.n_batch));
      obj.emplace("n_max", json::Value(shape_.n_max));
      obj.emplace("trees", json::Value(shape_.trees));
      obj.emplace("pool_size", json::Value(shape_.pool_size));
      // Decimal string: a 64-bit seed does not survive a JSON double.
      obj.emplace("seed", json::Value(std::to_string(seeds_.next_u64())));
      return request;
    }
    case OpKind::Ask:
      return session_op("ask", name_);
    case OpKind::Tell: {
      const json::Value& candidate = batch_.at(next_candidate_);
      const auto config =
          pwu::service::configuration_from_json(candidate.at("levels"));
      const double t =
          workload_named(shape_.workload).measure(config, measure_rng_, 1);
      json::Value request = session_op("tell", name_);
      request.as_object().emplace("levels", candidate.at("levels"));
      request.as_object().emplace("time", json::Value(t));
      return request;
    }
    case OpKind::Close:
      return session_op("close", name_);
  }
  return {};
}

bool TuningClient::on_response(const json::Value& response) {
  if (!response.bool_or("ok", false)) {
    start_next_session();
    return false;
  }
  switch (kind_) {
    case OpKind::Create:
      measure_rng_ = pwu::util::Rng(
          std::stoull(response.at("measure_seed").as_string()));
      kind_ = OpKind::Ask;
      break;
    case OpKind::Ask: {
      const json::Value& candidates = response.at("candidates");
      if (!candidates.is_array() || candidates.as_array().empty()) {
        kind_ = OpKind::Close;
      } else {
        batch_ = candidates.as_array();
        next_candidate_ = 0;
        kind_ = OpKind::Tell;
      }
      break;
    }
    case OpKind::Tell:
      ++next_candidate_;
      if (next_candidate_ >= batch_.size()) kind_ = OpKind::Ask;
      break;
    case OpKind::Close:
      start_next_session();
      break;
  }
  return true;
}

LoopResult run_closed_loop(pwu::service::Transport& server,
                           std::vector<TuningClient>& clients, double seconds,
                           Tracer& tracer, RequestLog& log) {
  struct InFlight {
    std::size_t client = 0;
    std::size_t entry = 0;
    Clock::time_point sent;
  };
  LoopResult result;
  result.min_in_flight = std::numeric_limits<std::size_t>::max();
  std::unordered_map<std::string, std::size_t> session_index;
  std::deque<InFlight> fifo;
  struct Completion {
    double at_s = 0.0;  // since the loop started
    OpKind kind = OpKind::Create;
    double ms = 0.0;
  };
  std::vector<Completion> completions;

  const auto send_for = [&](std::size_t c) {
    TuningClient& client = clients[c];
    const OpKind kind = client.next_kind();
    const json::Value request = client.next_request();
    std::string line;
    {
      Tracer::Span span(tracer, "json.encode", log.entries.size());
      line = request.dump();
    }
    if (tracer.enabled()) {
      // Priced, not sent: the pwu1 framing the router applies per hop.
      Tracer::Span span(tracer, "frame.encode", log.entries.size());
      const std::string framed = pwu::service::frame_encode(line);
      static_cast<void>(framed);
    }
    const auto [it, inserted] =
        session_index.emplace(client.session_name(), log.sessions.size());
    if (inserted) log.sessions.push_back(client.session_name());
    RequestLog::Entry entry;
    entry.session = it->second;
    entry.kind = kind;
    entry.request = line;
    log.entries.push_back(std::move(entry));
    fifo.push_back({c, log.entries.size() - 1, Clock::now()});
    result.attempted += 1;
    server.send(line);
  };

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  bool sending = true;
  try {
    for (std::size_t c = 0; c < clients.size(); ++c) send_for(c);
    while (!fifo.empty()) {
      if (sending) {
        result.min_in_flight = std::min(result.min_in_flight, fifo.size());
        result.max_in_flight = std::max(result.max_in_flight, fifo.size());
      }
      const std::string line = server.recv();
      const auto now = Clock::now();
      const InFlight done = fifo.front();
      fifo.pop_front();
      RequestLog::Entry& entry = log.entries[done.entry];
      const double latency_ms = seconds_between(done.sent, now) * 1000.0;
      entry.response_bytes = line.size();
      bool ok = true;
      try {
        Tracer::Span span(tracer, "json.decode", done.entry);
        entry.response = json::parse(line);
      } catch (const std::exception&) {
        ok = false;
      }
      ok = clients[done.client].on_response(entry.response) && ok;
      // A failed request misses every latency limit.
      const double ms =
          ok ? latency_ms : std::numeric_limits<double>::infinity();
      (ok ? result.completed : result.failed) += 1;
      if (entry.kind == OpKind::Ask) result.ask_ms.push_back(ms);
      if (entry.kind == OpKind::Tell) result.tell_ms.push_back(ms);
      completions.push_back({seconds_between(start, now), entry.kind, ms});
      if (sending && now >= deadline) sending = false;
      if (sending) send_for(done.client);
    }
  } catch (const std::exception& e) {
    result.transport_ok = false;
    result.transport_error = e.what();
    result.failed += fifo.size();
  }
  result.wall_s = seconds_between(start, Clock::now());
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds + 0.5));
  const double width = seconds / static_cast<double>(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> asks;
    std::vector<double> tells;
    std::size_t done = 0;
    for (const Completion& c : completions) {
      if (c.at_s < width * static_cast<double>(w) ||
          c.at_s >= width * static_cast<double>(w + 1)) {
        continue;
      }
      done += 1;
      if (c.kind == OpKind::Ask) asks.push_back(c.ms);
      if (c.kind == OpKind::Tell) tells.push_back(c.ms);
    }
    if (asks.size() >= 20) {
      result.window_ask_p50.push_back(percentile(asks, 0.5));
    }
    if (tells.size() >= 20) {
      result.window_tell_p50.push_back(percentile(tells, 0.5));
    }
    result.window_req_per_s.push_back(static_cast<double>(done) / width);
  }
  result.chunk_ask_p99 = chunk_p99s(result.ask_ms);
  result.chunk_tell_p99 = chunk_p99s(result.tell_ms);
  if (result.min_in_flight == std::numeric_limits<std::size_t>::max()) {
    result.min_in_flight = 0;
  }
  return result;
}

std::string canonical_reply(OpKind kind, const json::Value& response) {
  std::string out = response.bool_or("ok", false) ? "ok" : "FAILED";
  switch (kind) {
    case OpKind::Create:
      out += " seed=" + response.string_or("measure_seed", "");
      break;
    case OpKind::Ask:
      out += " done=" + response.at("done").dump() +
             " candidates=" + response.at("candidates").dump();
      break;
    case OpKind::Tell:
      out += " labeled=" + response.at("labeled").dump() +
             " done=" + response.at("done").dump();
      break;
    case OpKind::Close:
      break;
  }
  return out;
}

std::vector<double> ReplayResult::of(OpKind kind) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (kinds[i] == kind) out.push_back(ms[i]);
  }
  return out;
}

ReplayResult replay(pwu::service::Transport& server, const RequestLog& log,
                    const std::vector<bool>& sessions, Tracer& tracer,
                    const char* span_name) {
  ReplayResult result;
  for (std::size_t i = 0; i < log.entries.size(); ++i) {
    const RequestLog::Entry& entry = log.entries[i];
    if (!sessions[entry.session]) continue;
    json::Value response;
    const auto start = Clock::now();
    {
      Tracer::Span span(tracer, span_name, i);
      server.send(entry.request);
      response = json::parse(server.recv());
    }
    result.kinds.push_back(entry.kind);
    result.ms.push_back(seconds_between(start, Clock::now()) * 1000.0);
    const std::string want = canonical_reply(entry.kind, entry.response);
    const std::string got = canonical_reply(entry.kind, response);
    if (want != got) {
      if (result.mismatches == 0) {
        result.first_mismatch = std::string(span_name) + " " +
                                log.sessions[entry.session] + " " +
                                to_string(entry.kind) + ": want " + want +
                                " got " + got;
      }
      result.mismatches += 1;
    }
  }
  return result;
}

std::vector<double> paired_diff(const ReplayResult& earlier,
                                const ReplayResult& later, OpKind kind,
                                bool all) {
  if (earlier.ms.size() != later.ms.size()) {
    throw std::logic_error("paired_diff: rungs replayed different requests");
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < earlier.ms.size(); ++i) {
    if (all || earlier.kinds[i] == kind) {
      out.push_back(later.ms[i] - earlier.ms[i]);
    }
  }
  return out;
}

std::vector<bool> replay_subset(const RequestLog& log, std::size_t min_asks) {
  std::vector<std::size_t> asks(log.sessions.size(), 0);
  for (const RequestLog::Entry& entry : log.entries) {
    if (entry.kind == OpKind::Ask) asks[entry.session] += 1;
  }
  // Session indexes are assigned in creation order.
  std::vector<bool> chosen(log.sessions.size(), false);
  std::size_t total = 0;
  for (std::size_t s = 0; s < log.sessions.size() && total < min_asks; ++s) {
    chosen[s] = true;
    total += asks[s];
  }
  return chosen;
}

}  // namespace perfbench
