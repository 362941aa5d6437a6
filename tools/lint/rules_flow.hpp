// pwu_lint flow-aware rules — whole-project analyses over the symbol index:
//
//   lock-graph            cycles in the mutex acquisition-order graph
//   blocking-under-lock   filesystem / Transport / checkpoint-write /
//                         parallel_for reachable while a mutex is held
//   rng-stream-discipline every Rng draw resolves to a PWU_RNG_STREAM-
//                         annotated member/parameter (or a fork/copy of one)
//   killpoint-safety      no killpoint under a lock or with an open
//                         write-mode file stream in scope
//   replicate-write-discipline
//                         replication-path functions (replicate /
//                         promote) only write checkpoint images while
//                         holding a ckpt_write_mutex
//   framed-write-discipline
//                         *Transport methods only touch the wire through the
//                         framing layer; raw fd write() outside *frame*
//                         functions is flagged
//
// See rules_flow.cpp for the exact semantics and DESIGN.md §13 for the
// suppression policy.

#pragma once

#include "index.hpp"
#include "lint.hpp"
#include "tokenizer.hpp"

#include <functional>
#include <vector>

namespace pwu::lint {

/// Runs the six flow rules over the project index, appending findings.
/// `rule_on` gates each rule by name; suppression uses each file's parsed
/// directives (same allow grammar as the line rules, plus `blocking-ok`).
void run_flow_rules(const std::vector<SourceFile>& files,
                    const std::vector<Directives>& directives,
                    const ProjectIndex& index,
                    const std::function<bool(const char*)>& rule_on,
                    std::vector<Finding>& findings, std::size_t& suppressed);

}  // namespace pwu::lint
