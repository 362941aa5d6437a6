// Flow-aware whole-project rules. Shared machinery: a per-function
// simulation walks the indexed event stream with a scope stack, tracking
// which canonical mutexes are held (lock_guard/scoped_lock/shared_lock are
// scope-released; unique_lock additionally honors .unlock()/.lock() on the
// guard variable; try_to_lock acquisitions are held but can never block, so
// they receive no inbound lock-order edges) and which write-mode file
// streams are open. On top of the simulation:
//
//   lock-graph: direct edges (mutex B blocking-acquired while A held) plus
//   call-propagated edges (call made while A held, callee transitively
//   blocking-acquires B). Any cycle — including the length-1 cycle of
//   re-acquiring a mutex already held, the PR-3 nested-parallelism shape —
//   is reported once, with a witness location per edge.
//
//   blocking-under-lock: a blocking primitive (file stream open, fopen/
//   fsync/rename/..., std::filesystem call, ThreadPool::parallel_for, any
//   method of a *Transport class) either directly under a held lock or
//   reachable through the call graph from a call made under a held lock.
//   `// pwu-lint: blocking-ok(reason)` on the flagged line suppresses.
//
//   rng-stream-discipline: every Rng draw must resolve to a PWU_RNG_STREAM-
//   annotated member or parameter, or to a local derived (fork/copy) from
//   one, or carry its own annotation. Unresolvable receivers only count for
//   draw methods unambiguously ours (fork, next_u64, shuffle, ...), so a
//   stray `x.index(i)` on a non-Rng type cannot misfire.
//
//   killpoint-safety: a util::killpoint() site must not execute while a
//   mutex is held or while a write-mode stream opened earlier in the
//   function is still in scope. src/util/fs_atomic.* is exempt from the
//   open-file clause: its killpoints deliberately straddle the torn-tmp-file
//   machinery the chaos harness exists to test.
//
//   replicate-write-discipline: functions on the replication path (name or
//   qualifier containing "replicat" or "promote") may only write checkpoint
//   images — atomic_write_file calls or write-mode stream opens — while
//   holding a mutex whose canonical name contains "ckpt_write_mutex".
//   Replicated records race the primary's own checkpoint writers for the
//   same image files; the write mutex is the only thing keeping a promoted
//   shadow's disk state newest-wins.
//
//   framed-write-discipline: methods of *Transport classes may only touch
//   the wire through the framing layer — a raw fd write() (bare or
//   ::-qualified; stream receivers like `os.write(...)` don't count) in a
//   transport function whose qualified name lacks "frame" is flagged. The
//   pwu1 framing writer owns the length prefix, the CRC, and the
//   short-write/EINTR loop; a second write path would ship unframed or
//   torn bytes the peer's resync logic then has to survive.

#include "rules_flow.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>

namespace pwu::lint {
namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool in_src(const std::string& file) { return starts_with(file, "src/"); }

// ---------------------------------------------------------------------------
// Reporting with per-file suppression
// ---------------------------------------------------------------------------

class FlowReporter {
 public:
  FlowReporter(const std::vector<SourceFile>& files,
               const std::vector<Directives>& directives,
               std::vector<Finding>& findings, std::size_t& suppressed)
      : files_(files),
        directives_(directives),
        findings_(findings),
        suppressed_(suppressed) {
    for (std::size_t i = 0; i < files.size(); ++i) {
      by_path_[files[i].rel_path] = i;
    }
  }

  void report(const char* rule, const std::string& file, std::size_t line,
              std::string message) {
    if (!reported_.insert(std::string(rule) + '\t' + file + '\t' +
                          std::to_string(line))
             .second) {
      return;  // one finding per (rule, site)
    }
    const auto it = by_path_.find(file);
    std::string excerpt;
    if (it != by_path_.end()) {
      const Directives& d = directives_[it->second];
      if (d.allowed_file.count(rule) != 0) {
        ++suppressed_;
        return;
      }
      const auto al = d.allowed.find(line);
      if (al != d.allowed.end() && al->second.count(rule) != 0) {
        ++suppressed_;
        return;
      }
      const SourceFile& sf = files_[it->second];
      if (line >= 1 && line <= sf.raw.size()) excerpt = trim(sf.raw[line - 1]);
    }
    Finding f;
    f.rule = rule;
    f.file = file;
    f.line = line;
    f.message = std::move(message);
    f.excerpt = std::move(excerpt);
    findings_.push_back(std::move(f));
  }

 private:
  const std::vector<SourceFile>& files_;
  const std::vector<Directives>& directives_;
  std::vector<Finding>& findings_;
  std::size_t& suppressed_;
  std::map<std::string, std::size_t> by_path_;
  std::set<std::string> reported_;
};

// ---------------------------------------------------------------------------
// Per-function simulation
// ---------------------------------------------------------------------------

struct HeldLock {
  std::string mutex;
  std::size_t line = 0;  // acquisition site
  std::string guard_var;
  bool active = false;
};

struct LockEdge {
  std::string file;
  std::size_t line = 0;
  std::string via;  // callee chain note, "" for a direct nested acquisition
};

struct CallSite {
  std::size_t line = 0;
  std::vector<std::size_t> targets;  // resolved function indices
  std::vector<HeldLock> held;        // active locks at the call
};

struct BlockingSite {
  std::string desc;
  std::size_t line = 0;
  std::vector<HeldLock> held;
};

struct KillpointSite {
  std::size_t line = 0;
  std::vector<HeldLock> held;
  bool open_write_file = false;
  std::size_t open_line = 0;
};

struct WriteSite {
  std::string desc;
  std::size_t line = 0;
  std::vector<HeldLock> held;
};

struct FnFacts {
  std::set<std::string> acquires;  // blocking acquisitions, canonical names
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  std::vector<CallSite> calls;
  std::vector<BlockingSite> blocking;
  std::vector<KillpointSite> killpoints;
  std::vector<WriteSite> writes;  // checkpoint-image write sites
};

bool is_file_call(const std::string& callee) {
  static const std::set<std::string> kFileCalls = {
      "fopen",  "fwrite", "fread",  "fclose", "fsync",
      "fdatasync", "rename", "remove", "unlink", "mkstemp",
  };
  return kFileCalls.count(callee) != 0;
}

std::string classify_blocking_call(const ProjectIndex& index, const Event& ev,
                                   const std::vector<std::size_t>& targets) {
  if (ev.qual == "filesystem" || ev.qual == "fs") {
    return "std::filesystem::" + ev.callee;
  }
  if (is_file_call(ev.callee)) return ev.callee + "()";
  if (ev.callee == "parallel_for") return "ThreadPool::parallel_for";
  for (std::size_t tgt : targets) {
    const std::string& cls = index.functions[tgt].class_name;
    if (cls.size() >= 9 && cls.ends_with("Transport")) {
      return cls + "::" + ev.callee;
    }
  }
  return {};
}

FnFacts simulate(const ProjectIndex& index, const FunctionInfo& fn) {
  FnFacts facts;
  struct Open {
    std::size_t line = 0;
    bool write = false;
    bool active = false;
  };
  struct Frame {
    std::vector<std::size_t> locks;
    std::vector<std::size_t> opens;
  };
  std::vector<HeldLock> held;
  std::vector<Open> opens;
  std::vector<Frame> frames(1);

  const auto active_held = [&]() {
    std::vector<HeldLock> out;
    for (const HeldLock& h : held) {
      if (h.active) out.push_back(h);
    }
    return out;
  };
  const auto add_edges_into = [&](const std::string& to, std::size_t line) {
    for (const HeldLock& h : held) {
      if (!h.active) continue;
      facts.edges.emplace(std::make_pair(h.mutex, to),
                          LockEdge{fn.file, line, ""});
    }
  };

  for (const Event& ev : fn.events) {
    switch (ev.kind) {
      case EventKind::ScopeOpen:
        frames.emplace_back();
        break;
      case EventKind::ScopeClose: {
        if (frames.size() <= 1) break;
        for (std::size_t idx : frames.back().locks) held[idx].active = false;
        for (std::size_t idx : frames.back().opens) opens[idx].active = false;
        frames.pop_back();
        break;
      }
      case EventKind::Lock: {
        const bool blocking = !ev.try_lock && !ev.defer_lock;
        for (const std::string& arg : ev.lock_args) {
          const std::string name = index.canonical_mutex(fn, arg);
          if (blocking) {
            facts.acquires.insert(name);
            add_edges_into(name, ev.line);
          }
          HeldLock h;
          h.mutex = name;
          h.line = ev.line;
          h.guard_var = ev.guard_var;
          h.active = !ev.defer_lock;
          held.push_back(std::move(h));
          frames.back().locks.push_back(held.size() - 1);
        }
        break;
      }
      case EventKind::FileOpen: {
        BlockingSite b;
        b.desc = ev.write_open ? "file stream open (write)"
                               : "file stream open (read)";
        b.line = ev.line;
        b.held = active_held();
        facts.blocking.push_back(std::move(b));
        if (ev.write_open) {
          facts.writes.push_back(
              WriteSite{"write-mode file stream open", ev.line, active_held()});
          Open o;
          o.line = ev.line;
          o.write = true;
          o.active = true;
          opens.push_back(o);
          frames.back().opens.push_back(opens.size() - 1);
        }
        break;
      }
      case EventKind::Killpoint: {
        KillpointSite kp;
        kp.line = ev.line;
        kp.held = active_held();
        for (const Open& o : opens) {
          if (o.active && o.write) {
            kp.open_write_file = true;
            kp.open_line = o.line;
            break;
          }
        }
        facts.killpoints.push_back(std::move(kp));
        break;
      }
      case EventKind::Call: {
        // Guard-variable lock management on unique_lock objects.
        if (!ev.receiver.empty() && ev.receiver.find('.') == std::string::npos) {
          bool handled = false;
          for (HeldLock& h : held) {
            if (h.guard_var.empty() || h.guard_var != ev.receiver) continue;
            if (ev.callee == "unlock") {
              h.active = false;
              handled = true;
            } else if (ev.callee == "lock") {
              if (!h.active) {
                facts.acquires.insert(h.mutex);
                add_edges_into(h.mutex, ev.line);
                h.active = true;
              }
              handled = true;
            } else if (ev.callee == "try_lock") {
              h.active = true;  // held if it succeeds; never blocks
              handled = true;
            }
          }
          if (handled) break;
        }
        CallSite call;
        call.line = ev.line;
        call.targets = index.resolve_call(fn, ev);
        call.held = active_held();
        if (ev.callee == "atomic_write_file") {
          facts.writes.push_back(
              WriteSite{"util::atomic_write_file call", ev.line, call.held});
        }
        const std::string desc =
            classify_blocking_call(index, ev, call.targets);
        if (!desc.empty()) {
          BlockingSite b;
          b.desc = desc;
          b.line = ev.line;
          b.held = call.held;
          facts.blocking.push_back(std::move(b));
        }
        facts.calls.push_back(std::move(call));
        break;
      }
      case EventKind::RngLocal:
        break;  // handled by the rng rule's own walk
    }
  }
  return facts;
}

std::string held_names(const std::vector<HeldLock>& held) {
  std::string out;
  for (const HeldLock& h : held) {
    if (!out.empty()) out += ", ";
    out += '\'' + h.mutex + '\'';
  }
  return out;
}

// ---------------------------------------------------------------------------
// lock-graph
// ---------------------------------------------------------------------------

void rule_lock_graph(const ProjectIndex& index,
                     const std::vector<FnFacts>& facts, FlowReporter& rep) {
  // Transitive blocking acquisitions per function.
  std::vector<std::set<std::string>> acq(index.functions.size());
  for (std::size_t i = 0; i < facts.size(); ++i) acq[i] = facts[i].acquires;
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < facts.size(); ++i) {
      for (const CallSite& call : facts[i].calls) {
        for (std::size_t tgt : call.targets) {
          for (const std::string& m : acq[tgt]) {
            if (acq[i].insert(m).second) changed = true;
          }
        }
      }
    }
  }

  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  for (std::size_t i = 0; i < facts.size(); ++i) {
    for (const auto& [key, edge] : facts[i].edges) edges.emplace(key, edge);
    for (const CallSite& call : facts[i].calls) {
      if (call.held.empty()) continue;
      for (std::size_t tgt : call.targets) {
        for (const std::string& m : acq[tgt]) {
          for (const HeldLock& h : call.held) {
            edges.emplace(
                std::make_pair(h.mutex, m),
                LockEdge{index.functions[i].file, call.line,
                         "via call to " + index.functions[tgt].qual});
          }
        }
      }
    }
  }

  // Adjacency + cycle search. The graph is tiny (a handful of mutexes), so
  // a DFS from every node looking for a path back to it is plenty; each
  // cycle is canonicalized by its smallest rotation for dedup.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, edge] : edges) adj[key.first].push_back(key.second);
  std::set<std::string> seen_cycles;
  for (const auto& [start, _] : adj) {
    std::vector<std::string> path{start};
    std::set<std::string> on_path{start};
    std::vector<std::string> cycle;
    const std::function<bool(const std::string&)> dfs =
        [&](const std::string& node) {
          const auto it = adj.find(node);
          if (it == adj.end()) return false;
          for (const std::string& next : it->second) {
            if (next == start) {
              cycle = path;
              return true;
            }
            if (on_path.count(next) != 0) continue;
            path.push_back(next);
            on_path.insert(next);
            if (dfs(next)) return true;
            on_path.erase(next);
            path.pop_back();
          }
          return false;
        };
    if (!dfs(start) || cycle.empty()) continue;
    // Canonical rotation: start at the lexicographically smallest node.
    const auto min_it = std::min_element(cycle.begin(), cycle.end());
    std::rotate(cycle.begin(), min_it, cycle.end());
    std::string key;
    for (const std::string& n : cycle) key += n + "|";
    if (!seen_cycles.insert(key).second) continue;

    std::string msg;
    if (cycle.size() == 1) {
      msg = "mutex '" + cycle[0] +
            "' acquired while already held (self-deadlock)";
    } else {
      msg = "lock-order cycle: ";
      for (const std::string& n : cycle) msg += n + " -> ";
      msg += cycle[0];
    }
    const LockEdge* first_edge = nullptr;
    for (std::size_t k = 0; k < cycle.size(); ++k) {
      const std::string& from = cycle[k];
      const std::string& to = cycle[(k + 1) % cycle.size()];
      const auto it = edges.find(std::make_pair(from, to));
      if (it == edges.end()) continue;
      if (first_edge == nullptr) first_edge = &it->second;
      msg += "; " + from + "->" + to + " at " + it->second.file + ":" +
             std::to_string(it->second.line);
      if (!it->second.via.empty()) msg += " (" + it->second.via + ")";
    }
    if (first_edge == nullptr) continue;
    rep.report("lock-graph", first_edge->file, first_edge->line,
               std::move(msg));
  }
}

// ---------------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------------

void rule_blocking_under_lock(const ProjectIndex& index,
                              const std::vector<FnFacts>& facts,
                              FlowReporter& rep) {
  // Transitive witness: the first blocking primitive reachable from each
  // function, with the callee link for chain reconstruction.
  struct Witness {
    std::string desc;
    std::string file;
    std::size_t line = 0;
    std::size_t via = npos;  // function index the chain continues through
  };
  std::vector<std::optional<Witness>> blk(index.functions.size());
  for (std::size_t i = 0; i < facts.size(); ++i) {
    if (!facts[i].blocking.empty()) {
      const BlockingSite& b = facts[i].blocking.front();
      blk[i] = Witness{b.desc, index.functions[i].file, b.line, npos};
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < facts.size(); ++i) {
      if (blk[i].has_value()) continue;
      for (const CallSite& call : facts[i].calls) {
        for (std::size_t tgt : call.targets) {
          if (!blk[tgt].has_value()) continue;
          blk[i] = Witness{blk[tgt]->desc, index.functions[i].file, call.line,
                           tgt};
          changed = true;
          break;
        }
        if (blk[i].has_value()) break;
      }
    }
  }
  const auto chain = [&](std::size_t tgt) {
    std::string out = index.functions[tgt].qual;
    std::size_t cur = tgt;
    for (int depth = 0; depth < 4 && blk[cur].has_value(); ++depth) {
      const std::size_t via = blk[cur]->via;
      if (via == npos) break;
      out += " -> " + index.functions[via].qual;
      cur = via;
    }
    return out;
  };

  for (std::size_t i = 0; i < facts.size(); ++i) {
    const FunctionInfo& fn = index.functions[i];
    if (!in_src(fn.file)) continue;
    for (const BlockingSite& b : facts[i].blocking) {
      if (b.held.empty()) continue;
      rep.report("blocking-under-lock", fn.file, b.line,
                 b.desc + " while holding " + held_names(b.held));
    }
    for (const CallSite& call : facts[i].calls) {
      if (call.held.empty()) continue;
      for (std::size_t tgt : call.targets) {
        if (!blk[tgt].has_value()) continue;
        rep.report("blocking-under-lock", fn.file, call.line,
                   "call to " + chain(tgt) + " reaches " + blk[tgt]->desc +
                       " (" + blk[tgt]->file + ":" +
                       std::to_string(blk[tgt]->line) + ") while holding " +
                       held_names(call.held));
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// rng-stream-discipline
// ---------------------------------------------------------------------------

void rule_rng_stream(const ProjectIndex& index,
                     const std::vector<FnFacts>& /*facts*/,
                     FlowReporter& rep) {
  // Draw methods that are unambiguously util::Rng's.
  static const std::set<std::string> kStrongDraws = {
      "next_u64", "uniform_int",   "bernoulli",
      "fork",     "shuffle",       "sample_without_replacement",
      "bootstrap_indices", "weighted_index", "lognormal",
  };
  // Common names that only count on a receiver known to be Rng-typed.
  static const std::set<std::string> kWeakDraws = {"uniform", "normal",
                                                   "index"};

  enum class Status { Sanctioned, Known };  // Known = Rng, no annotation

  const auto field_status =
      [&](const FunctionInfo& fn,
          const std::string& name) -> std::optional<Status> {
    // Prefer the owner class; otherwise any class with an Rng field of that
    // name (a chained receiver like `session.rng_` lands here).
    const Field* found = nullptr;
    if (!fn.class_name.empty()) {
      for (const ClassInfo& c : index.classes) {
        if (c.name != fn.class_name) continue;
        const Field* f = c.find_field(name);
        if (f != nullptr && f->is_rng) found = f;
      }
    }
    if (found == nullptr) {
      for (const ClassInfo& c : index.classes) {
        const Field* f = c.find_field(name);
        if (f != nullptr && f->is_rng) {
          found = f;
          if (!f->rng_stream.empty()) break;
        }
      }
    }
    if (found == nullptr) return std::nullopt;
    return found->rng_stream.empty() ? Status::Known : Status::Sanctioned;
  };

  for (const FunctionInfo& fn : index.functions) {
    if (!in_src(fn.file) || starts_with(fn.file, "src/util/rng.")) continue;
    std::map<std::string, Status> locals;
    for (const Param& p : fn.params) {
      if (!p.is_rng || p.name.empty()) continue;
      locals[p.name] =
          p.rng_stream.empty() ? Status::Known : Status::Sanctioned;
    }
    const auto resolve =
        [&](const std::string& chain) -> std::optional<Status> {
      std::string last = chain;
      const std::size_t dot = last.find_last_of('.');
      if (dot != std::string::npos) last = last.substr(dot + 1);
      if (last.empty()) return std::nullopt;
      const auto it = locals.find(last);
      if (it != locals.end()) return it->second;
      return field_status(fn, last);
    };

    for (const Event& ev : fn.events) {
      if (ev.kind == EventKind::RngLocal) {
        if (!ev.rng_stream.empty()) {
          locals[ev.rng_name] = Status::Sanctioned;
        } else if (ev.rng_init == RngInit::Fork ||
                   ev.rng_init == RngInit::Copy) {
          const auto src = resolve(ev.rng_source);
          locals[ev.rng_name] =
              src.value_or(Status::Known) == Status::Sanctioned
                  ? Status::Sanctioned
                  : Status::Known;
        } else {
          locals[ev.rng_name] = Status::Known;
        }
        continue;
      }
      if (ev.kind != EventKind::Call || ev.receiver.empty()) continue;
      const bool strong = kStrongDraws.count(ev.callee) != 0;
      const bool weak = kWeakDraws.count(ev.callee) != 0;
      if (!strong && !weak) continue;
      const auto st = resolve(ev.receiver);
      if (!st.has_value()) {
        if (strong) {
          rep.report("rng-stream-discipline", fn.file, ev.line,
                     "Rng draw '" + ev.receiver + "." + ev.callee +
                         "()' does not resolve to a PWU_RNG_STREAM-annotated "
                         "member or parameter");
        }
        continue;
      }
      if (*st == Status::Known) {
        rep.report("rng-stream-discipline", fn.file, ev.line,
                   "Rng draw '" + ev.receiver + "." + ev.callee +
                       "()' uses a stream with no PWU_RNG_STREAM(name) "
                       "annotation");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// killpoint-safety
// ---------------------------------------------------------------------------

void rule_killpoint_safety(const ProjectIndex& index,
                           const std::vector<FnFacts>& facts,
                           FlowReporter& rep) {
  for (std::size_t i = 0; i < facts.size(); ++i) {
    const FunctionInfo& fn = index.functions[i];
    if (!in_src(fn.file) && !starts_with(fn.file, "tools/")) continue;
    const bool fs_atomic = starts_with(fn.file, "src/util/fs_atomic.");
    for (const KillpointSite& kp : facts[i].killpoints) {
      if (!kp.held.empty()) {
        rep.report("killpoint-safety", fn.file, kp.line,
                   "killpoint fires while holding " + held_names(kp.held) +
                       "; a kill here dies owning the lock, so the chaos "
                       "resume proof cannot replay it");
      }
      if (kp.open_write_file && !fs_atomic) {
        rep.report("killpoint-safety", fn.file, kp.line,
                   "killpoint fires with a write-mode stream (opened at "
                   "line " +
                       std::to_string(kp.open_line) +
                       ") still in scope; a kill here leaves a torn file "
                       "outside the atomic-writer protocol");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// replicate-write-discipline
// ---------------------------------------------------------------------------

bool on_replication_path(const FunctionInfo& fn) {
  std::string qual = fn.qual;
  std::transform(qual.begin(), qual.end(), qual.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return qual.find("replicat") != std::string::npos ||
         qual.find("promote") != std::string::npos;
}

void rule_replicate_write(const ProjectIndex& index,
                          const std::vector<FnFacts>& facts,
                          FlowReporter& rep) {
  for (std::size_t i = 0; i < facts.size(); ++i) {
    const FunctionInfo& fn = index.functions[i];
    if (!in_src(fn.file) || !on_replication_path(fn)) continue;
    for (const WriteSite& w : facts[i].writes) {
      const bool disciplined =
          std::any_of(w.held.begin(), w.held.end(), [](const HeldLock& h) {
            return h.mutex.find("ckpt_write_mutex") != std::string::npos;
          });
      if (disciplined) continue;
      rep.report(
          "replicate-write-discipline", fn.file, w.line,
          w.desc + " in replication-path function '" + fn.qual +
              "' outside the checkpoint-write discipline (" +
              (w.held.empty() ? "no lock held"
                              : "holding " + held_names(w.held)) +
              ", no 'ckpt_write_mutex'); replicated records race the "
              "primary's checkpoint writers for the same image files");
    }
  }
}

// ---------------------------------------------------------------------------
// framed-write-discipline
// ---------------------------------------------------------------------------

bool in_framing_layer(const FunctionInfo& fn) {
  std::string qual = fn.qual;
  std::transform(qual.begin(), qual.end(), qual.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return qual.find("frame") != std::string::npos;
}

void rule_framed_write(const ProjectIndex& index,
                       const std::vector<FnFacts>& /*facts*/,
                       FlowReporter& rep) {
  for (const FunctionInfo& fn : index.functions) {
    if (!in_src(fn.file)) continue;
    if (!fn.class_name.ends_with("Transport")) continue;
    if (in_framing_layer(fn)) continue;
    for (const Event& ev : fn.events) {
      if (ev.kind != EventKind::Call || ev.callee != "write") continue;
      if (!ev.receiver.empty()) continue;  // `os.write(...)` is a stream
      if (!ev.qual.empty() && ev.qual != "::") continue;  // Foo::write helper
      rep.report("framed-write-discipline", fn.file, ev.line,
                 "raw fd write() in transport function '" + fn.qual +
                     "' bypasses the framing layer; route wire bytes through "
                     "the framing writer so the length prefix, the CRC, and "
                     "the short-write/EINTR loop stay in one place");
    }
  }
}

}  // namespace

void run_flow_rules(const std::vector<SourceFile>& files,
                    const std::vector<Directives>& directives,
                    const ProjectIndex& index,
                    const std::function<bool(const char*)>& rule_on,
                    std::vector<Finding>& findings, std::size_t& suppressed) {
  FlowReporter rep(files, directives, findings, suppressed);
  std::vector<FnFacts> facts;
  facts.reserve(index.functions.size());
  for (const FunctionInfo& fn : index.functions) {
    facts.push_back(simulate(index, fn));
  }
  if (rule_on("lock-graph")) rule_lock_graph(index, facts, rep);
  if (rule_on("blocking-under-lock")) {
    rule_blocking_under_lock(index, facts, rep);
  }
  if (rule_on("rng-stream-discipline")) rule_rng_stream(index, facts, rep);
  if (rule_on("killpoint-safety")) rule_killpoint_safety(index, facts, rep);
  if (rule_on("replicate-write-discipline")) {
    rule_replicate_write(index, facts, rep);
  }
  if (rule_on("framed-write-discipline")) {
    rule_framed_write(index, facts, rep);
  }
}

}  // namespace pwu::lint
