#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "index.hpp"
#include "rules_flow.hpp"
#include "tokenizer.hpp"

namespace pwu::lint {

namespace fs = std::filesystem;

namespace {

/// Finds `token` in `line` with identifier boundaries on both sides. The
/// token itself may contain non-identifier characters (e.g. "operator new");
/// boundaries are only enforced against identifier characters adjacent to
/// the match. Used by the rules that are inherently line-shaped (scope
/// heuristics, preprocessor scans); statement-shaped rules match on the
/// token stream instead so multi-line statements cannot hide.
bool has_token(const std::string& line, const std::string& token,
               bool require_call = false) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    std::size_t after = pos + token.size();
    const bool right_ok = after >= line.size() || !is_ident_char(line[after]);
    if (left_ok && right_ok) {
      if (!require_call) return true;
      while (after < line.size() &&
             std::isspace(static_cast<unsigned char>(line[after])) != 0) {
        ++after;
      }
      if (after < line.size() && line[after] == '(') return true;
    }
    pos += 1;
  }
  return false;
}

bool path_in(const std::string& rel, const char* prefix) {
  return starts_with(rel, prefix);
}

bool is_header(const std::string& rel) {
  return rel.ends_with(".hpp") || rel.ends_with(".h");
}

class Context {
 public:
  Context(const SourceFile& file, const Directives& directives,
          std::vector<Finding>& findings, std::size_t& suppressed)
      : file_(file),
        directives_(directives),
        findings_(findings),
        suppressed_(suppressed) {}

  /// Records a finding unless an allow-comment covers it.
  void report(const char* rule, std::size_t line, std::string message) {
    if (directives_.allowed_file.count(rule) != 0) {
      ++suppressed_;
      return;
    }
    const auto it = directives_.allowed.find(line);
    if (it != directives_.allowed.end() && it->second.count(rule) != 0) {
      ++suppressed_;
      return;
    }
    Finding f;
    f.rule = rule;
    f.file = file_.rel_path;
    f.line = line;
    f.message = std::move(message);
    f.excerpt = line >= 1 && line <= file_.raw.size()
                    ? trim(file_.raw[line - 1])
                    : std::string();
    findings_.push_back(std::move(f));
  }

  const SourceFile& file() const { return file_; }
  const Directives& directives() const { return directives_; }

 private:
  const SourceFile& file_;
  const Directives& directives_;
  std::vector<Finding>& findings_;
  std::size_t& suppressed_;
};

// ---------------------------------------------------------------------------
// Token-stream rules (statement-shaped: a statement split across lines is
// still one token sequence, so `std::` + newline + `rand()` cannot hide)
// ---------------------------------------------------------------------------

struct SeqSpec {
  std::vector<const char*> seq;  // consecutive token texts
  bool require_call = false;     // next token after the match must be '('
};

std::string spec_label(const SeqSpec& spec) {
  std::string out;
  for (const char* t : spec.seq) out += t;
  return out;
}

/// Scans the token stream for any of `specs`; reports at most one finding
/// per source line per rule (at the line of the match's first token).
void run_token_rule(Context& ctx, const std::vector<Token>& tokens,
                    const char* rule, const std::vector<SeqSpec>& specs,
                    const char* prefix, const char* suffix) {
  std::set<std::size_t> reported;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    for (const SeqSpec& spec : specs) {
      std::size_t k = i;
      bool ok = true;
      for (const char* want : spec.seq) {
        if (k >= tokens.size() || tokens[k].text != want) {
          ok = false;
          break;
        }
        ++k;
      }
      if (!ok) continue;
      if (spec.require_call &&
          (k >= tokens.size() || tokens[k].text != "(")) {
        continue;
      }
      if (reported.insert(tokens[i].line).second) {
        ctx.report(rule, tokens[i].line,
                   std::string(prefix) + spec_label(spec) + suffix);
      }
      break;
    }
  }
}

// ---- no-raw-rand -----------------------------------------------------------

void rule_no_raw_rand(Context& ctx, const std::vector<Token>& tokens) {
  static const std::vector<SeqSpec> kSpecs = {
      {{"std", "::", "rand"}},
      {{"srand"}},
      {{"rand"}, true},
      {{"random_device"}},
      {{"mt19937"}},
      {{"mt19937_64"}},
      {{"minstd_rand"}},
      {{"minstd_rand0"}},
      {{"default_random_engine"}},
      {{"ranlux24"}},
      {{"ranlux48"}},
      {{"knuth_b"}},
      {{"random_shuffle"}},
  };
  // util/rng is the one sanctioned home of raw generator machinery.
  if (path_in(ctx.file().rel_path, "src/util/rng.")) return;
  run_token_rule(ctx, tokens, "no-raw-rand", kSpecs, "raw RNG '",
                 "' outside util/rng breaks seed-threaded determinism");
}

// ---- no-wallclock ----------------------------------------------------------

void rule_no_wallclock(Context& ctx, const std::vector<Token>& tokens) {
  static const std::vector<SeqSpec> kSpecs = {
      {{"system_clock"}},  {{"steady_clock"}}, {{"high_resolution_clock"}},
      {{"gettimeofday"}},  {{"clock_gettime"}}, {{"time"}, true},
      {{"clock"}, true},   {{"localtime"}},     {{"gmtime"}},
  };
  const std::string& rel = ctx.file().rel_path;
  const bool scoped = path_in(rel, "src/core/") || path_in(rel, "src/rf/") ||
                      path_in(rel, "src/service/");
  if (!scoped) return;
  run_token_rule(ctx, tokens, "no-wallclock", kSpecs, "wall-clock read '",
                 "' in checkpointable code breaks bit-identical resume");
}

// ---- no-cout-logging -------------------------------------------------------

void rule_no_cout_logging(Context& ctx, const std::vector<Token>& tokens) {
  static const std::vector<SeqSpec> kSpecs = {
      {{"std", "::", "cout"}}, {{"std", "::", "cerr"}},
      {{"printf"}, true},      {{"fprintf"}, true},
      {{"puts"}, true},
  };
  const std::string& rel = ctx.file().rel_path;
  if (!path_in(rel, "src/")) return;  // tools/bench/tests own their stdout
  if (path_in(rel, "src/util/logging.")) return;  // the sanctioned sink
  run_token_rule(ctx, tokens, "no-cout-logging", kSpecs,
                 "direct console output '",
                 "' in library code; route through util/logging");
}

// ---- no-unchecked-simd -----------------------------------------------------

void rule_no_unchecked_simd(Context& ctx) {
  static constexpr const char* kHeaders[] = {
      "immintrin.h", "emmintrin.h", "xmmintrin.h", "pmmintrin.h",
      "smmintrin.h", "tmmintrin.h", "nmmintrin.h", "wmmintrin.h",
      "x86intrin.h", "arm_neon.h",
  };
  const std::string& rel = ctx.file().rel_path;
  if (!path_in(rel, "src/")) return;  // bench/tools may probe freely
  // simd_eval* is the sanctioned dispatch layer: every intrinsic there sits
  // behind a build-time PWU_SIMD_HAS_* gate and a runtime cpuid check.
  if (path_in(rel, "src/rf/simd_eval")) return;
  for (std::size_t li = 0; li < ctx.file().code.size(); ++li) {
    const std::string line = trim(ctx.file().code[li]);
    if (!starts_with(line, "#") ||
        line.find("include") == std::string::npos) {
      continue;
    }
    for (const char* header : kHeaders) {
      if (line.find(header) != std::string::npos) {
        ctx.report("no-unchecked-simd", li + 1,
                   std::string("raw SIMD intrinsics header '") + header +
                       "' outside src/rf/simd_eval*; go through the "
                       "dispatched kernels so non-SIMD hosts stay on the "
                       "checked path");
        break;
      }
    }
  }
}

// ---- header-hygiene --------------------------------------------------------

void rule_header_hygiene(Context& ctx, const std::vector<Token>& tokens) {
  if (!is_header(ctx.file().rel_path)) return;
  bool pragma_once = false;
  for (const auto& line : ctx.file().code) {
    if (starts_with(trim(line), "#pragma once")) {
      pragma_once = true;
      break;
    }
  }
  if (!pragma_once) {
    ctx.report("header-hygiene", 1, "header is missing '#pragma once'");
  }
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text == "using" && tokens[i + 1].text == "namespace") {
      ctx.report("header-hygiene", tokens[i].line,
                 "'using namespace' in a header pollutes every includer");
    }
  }
}

// ---- no-raw-new ------------------------------------------------------------

void rule_no_raw_new(Context& ctx, const std::vector<Token>& tokens) {
  std::set<std::size_t> reported_new;
  std::set<std::size_t> reported_delete;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& text = tokens[i].text;
    const std::string prev = i > 0 ? tokens[i - 1].text : std::string();
    if (text == "new" && prev != "operator") {
      if (reported_new.insert(tokens[i].line).second) {
        ctx.report("no-raw-new", tokens[i].line,
                   "owning 'new'; use make_unique/make_shared or a container");
      }
    } else if (text == "delete" && prev != "operator" && prev != "=") {
      // "= delete" (deleted special member) is the RAII-friendly use.
      if (reported_delete.insert(tokens[i].line).second) {
        ctx.report("no-raw-new", tokens[i].line,
                   "owning 'delete'; ownership belongs in a RAII type");
      }
    }
  }
}

// ---- atomic-checkpoint -----------------------------------------------------

/// Persistence discipline: code that writes checkpoints or other
/// must-not-be-torn files (src/service, src/core, src/rf, src/sim, tools)
/// must not open a final path with std::ofstream — a crash mid-write leaves
/// a torn file with no fallback. util::atomic_write_file (tmp + CRC footer
/// + fsync + rename) is the one sanctioned final-path writer.
void rule_atomic_checkpoint(Context& ctx) {
  const std::string& rel = ctx.file().rel_path;
  const bool scoped = path_in(rel, "src/service/") ||
                      path_in(rel, "src/core/") || path_in(rel, "src/rf/") ||
                      path_in(rel, "src/sim/") || path_in(rel, "tools/");
  if (!scoped) return;
  for (std::size_t li = 0; li < ctx.file().code.size(); ++li) {
    if (has_token(ctx.file().code[li], "ofstream")) {
      ctx.report("atomic-checkpoint", li + 1,
                 "direct std::ofstream in persistence code; write final "
                 "paths through util::atomic_write_file");
    }
  }
}

// ---- no-unbounded-queue ----------------------------------------------------

/// Backpressure discipline in the serving layer: a std::deque / std::queue
/// member in src/service/ is an unbounded buffer unless a capacity check is
/// visible next to it. Heuristic: the declaration or one of the three lines
/// on either side must mention a bound (max / cap / limit / bound,
/// case-insensitive; comments count — the point is that the cap is
/// discoverable at the declaration, wherever it is enforced). Lines carrying
/// pwu-lint directives are excluded from that scan so an allow-comment for
/// this rule (whose own name contains "bound") cannot satisfy it.
void rule_no_unbounded_queue(Context& ctx) {
  const std::string& rel = ctx.file().rel_path;
  if (!path_in(rel, "src/service/")) return;
  static constexpr const char* kQueueTokens[] = {"std::deque", "std::queue"};
  static constexpr const char* kBoundWords[] = {"max", "cap", "limit",
                                                "bound"};
  const auto bounded_nearby = [&](std::size_t li) {
    const std::size_t begin = li >= 3 ? li - 3 : 0;
    const std::size_t end = std::min(li + 3, ctx.file().raw.size() - 1);
    for (std::size_t i = begin; i <= end; ++i) {
      if (ctx.directives().directive_lines.count(i + 1) != 0) continue;
      std::string low = ctx.file().raw[i];
      std::transform(low.begin(), low.end(), low.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
      });
      for (const char* word : kBoundWords) {
        if (low.find(word) != std::string::npos) return true;
      }
    }
    return false;
  };
  for (std::size_t li = 0; li < ctx.file().code.size(); ++li) {
    for (const char* token : kQueueTokens) {
      if (has_token(ctx.file().code[li], token) && !bounded_nearby(li)) {
        ctx.report("no-unbounded-queue", li + 1,
                   std::string("'") + token +
                       "' in service code with no capacity check in sight "
                       "invites unbounded buffering under overload");
        break;
      }
    }
  }
}

// ---- no-unlocked-mutable ---------------------------------------------------

/// Heuristic lock-discipline check over guarded-by annotated fields.
///
/// A brace-scope tracker classifies each opened scope as function-like (its
/// introducer contains a parameter list and no class/struct/enum/namespace
/// keyword). Acquiring a lock (lock_guard / unique_lock / scoped_lock /
/// shared_lock) marks the current scope; a guarded field mentioned inside a
/// function-like scope with no lock in its scope chain is a finding.
/// Annotations are shared across same-stem files, so a field declared in
/// foo.hpp is checked in foo.cpp too.
void rule_no_unlocked_mutable(Context& ctx,
                              const std::vector<std::string>& guarded) {
  if (guarded.empty()) return;
  static constexpr const char* kLockTokens[] = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};

  struct Scope {
    bool function = false;
    bool lock_held = false;
  };
  std::vector<Scope> stack;
  std::string introducer;

  for (std::size_t li = 0; li < ctx.file().code.size(); ++li) {
    const std::string& line = ctx.file().code[li];

    // Lock acquisitions anywhere on the line cover the line itself and the
    // remainder of the current scope.
    bool locks_here = false;
    for (const char* t : kLockTokens) {
      if (has_token(line, t)) {
        locks_here = true;
        break;
      }
    }

    for (char c : line) {
      if (c == '{') {
        Scope scope;
        scope.lock_held = !stack.empty() && stack.back().lock_held;
        const bool has_params = introducer.find('(') != std::string::npos &&
                                introducer.find(')') != std::string::npos;
        const bool type_scope = has_token(introducer, "class") ||
                                has_token(introducer, "struct") ||
                                has_token(introducer, "union") ||
                                has_token(introducer, "enum") ||
                                has_token(introducer, "namespace");
        scope.function =
            (has_params && !type_scope) ||
            (!stack.empty() && stack.back().function);
        stack.push_back(scope);
        introducer.clear();
      } else if (c == '}') {
        if (!stack.empty()) stack.pop_back();
        introducer.clear();
      } else if (c == ';') {
        introducer.clear();
      } else {
        introducer += c;
      }
    }
    if (locks_here && !stack.empty()) stack.back().lock_held = true;

    if (ctx.directives().directive_lines.count(li + 1) != 0) continue;
    const bool in_function = !stack.empty() && stack.back().function;
    const bool locked = locks_here ||
                        std::any_of(stack.begin(), stack.end(),
                                    [](const Scope& s) { return s.lock_held; });
    if (!in_function || locked) continue;
    for (const auto& field : guarded) {
      if (has_token(line, field)) {
        ctx.report("no-unlocked-mutable", li + 1,
                   "guarded field '" + field +
                       "' accessed without an in-scope lock");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Walking + driving
// ---------------------------------------------------------------------------

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

bool skip_dir(const std::string& name) {
  return name == "data" || starts_with(name, "build") ||
         starts_with(name, ".");
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules = {
      {"no-raw-rand",
       "no std::rand/random_device/mt19937/... outside src/util/rng"},
      {"no-wallclock",
       "no wall-clock reads in src/core, src/rf, src/service"},
      {"no-cout-logging",
       "no direct console output in src/ outside util/logging"},
      {"header-hygiene", "#pragma once required; no 'using namespace' in headers"},
      {"no-raw-new", "no owning new/delete outside RAII types"},
      {"atomic-checkpoint",
       "persistence code writes final paths via util::atomic_write_file, "
       "never a direct std::ofstream"},
      {"no-unbounded-queue",
       "std::deque/std::queue in src/service needs an adjacent capacity "
       "check"},
      {"no-unlocked-mutable",
       "guarded-by annotated fields only touched under a lock"},
      {"no-unchecked-simd",
       "raw SIMD intrinsics headers only inside the src/rf/simd_eval* "
       "dispatch layer"},
      {"lock-graph",
       "no cycles in the whole-project mutex acquisition-order graph "
       "(including re-acquiring a held mutex through a call chain)"},
      {"blocking-under-lock",
       "no filesystem / Transport / checkpoint-write / parallel_for work "
       "reachable while a mutex is held"},
      {"rng-stream-discipline",
       "every Rng draw resolves to a PWU_RNG_STREAM-annotated member or "
       "parameter (or a fork/copy of one)"},
      {"killpoint-safety",
       "no killpoint under a held lock or with an open write-mode stream "
       "in scope"},
      {"replicate-write-discipline",
       "replication-path functions (replicate / promote) only write "
       "checkpoint images under a ckpt_write_mutex"},
      {"framed-write-discipline",
       "*Transport methods only touch the wire through the framing layer; "
       "raw fd write() outside *frame* functions is flagged"},
  };
  return kRules;
}

std::size_t Report::active_count() const {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (!f.baselined) ++n;
  }
  return n;
}

std::string baseline_key(const Finding& finding) {
  std::ostringstream os;
  os << finding.rule << '\t' << finding.file << '\t' << std::hex
     << fnv1a(finding.excerpt);
  return os.str();
}

void write_baseline(std::ostream& os, const Report& report) {
  os << "# pwu_lint baseline — grandfathered findings, one per line:\n"
     << "# <rule>\\t<file>\\t<fnv1a of the trimmed source line>\n"
     << "# Canonically sorted; regenerate with pwu_lint --update-baseline.\n";
  std::set<std::string> keys;  // sorted + deduplicated
  for (const auto& f : report.findings) keys.insert(baseline_key(f));
  for (const auto& key : keys) os << key << '\n';
}

Report run(const std::string& root, const Options& options) {
  const fs::path root_path(root);
  if (!fs::is_directory(root_path)) {
    throw std::runtime_error("pwu_lint: root is not a directory: " + root);
  }
  std::set<std::string> enabled;
  for (const auto& name : options.rules) {
    const bool known =
        std::any_of(rule_catalog().begin(), rule_catalog().end(),
                    [&](const RuleInfo& r) { return name == r.name; });
    if (!known) throw std::runtime_error("pwu_lint: unknown rule: " + name);
    enabled.insert(name);
  }
  const auto rule_on = [&](const char* name) {
    return enabled.empty() || enabled.count(name) != 0;
  };

  // Collect files (sorted for deterministic reports).
  std::vector<fs::path> paths;
  for (const auto& subdir : options.subdirs) {
    const fs::path base = root_path / subdir;
    if (!fs::is_directory(base)) continue;
    auto it = fs::recursive_directory_iterator(base);
    for (const auto& entry : it) {
      if (entry.is_directory() && skip_dir(entry.path().filename().string())) {
        it.disable_recursion_pending();
        continue;
      }
      if (entry.is_regular_file() && scannable(entry.path())) {
        paths.push_back(entry.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  std::vector<Directives> directives;
  std::vector<std::vector<Token>> token_streams;
  std::vector<FileIndex> file_indexes;
  files.reserve(paths.size());
  for (const auto& path : paths) {
    std::string rel = fs::relative(path, root_path).generic_string();
    files.push_back(load_source(path.string(), std::move(rel)));
    directives.push_back(parse_directives(files.back()));
    token_streams.push_back(tokenize(files.back()));
    file_indexes.push_back(index_file(files.back(), token_streams.back()));
  }
  const ProjectIndex index = build_project_index(std::move(file_indexes));

  // Pass 1: guarded-field annotations, shared across same-stem files so a
  // field declared in foo.hpp is enforced in foo.cpp.
  std::map<std::string, std::vector<std::string>> guarded_by_stem;
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const auto& field : directives[i].guarded_fields) {
      guarded_by_stem[file_stem(files[i].rel_path)].push_back(field);
    }
  }

  Report report;
  report.files_scanned = files.size();
  for (std::size_t i = 0; i < files.size(); ++i) {
    Context ctx(files[i], directives[i], report.findings, report.suppressed);
    const std::vector<Token>& tokens = token_streams[i];
    if (rule_on("no-raw-rand")) rule_no_raw_rand(ctx, tokens);
    if (rule_on("no-wallclock")) rule_no_wallclock(ctx, tokens);
    if (rule_on("no-cout-logging")) rule_no_cout_logging(ctx, tokens);
    if (rule_on("header-hygiene")) rule_header_hygiene(ctx, tokens);
    if (rule_on("no-raw-new")) rule_no_raw_new(ctx, tokens);
    if (rule_on("atomic-checkpoint")) rule_atomic_checkpoint(ctx);
    if (rule_on("no-unbounded-queue")) rule_no_unbounded_queue(ctx);
    if (rule_on("no-unchecked-simd")) rule_no_unchecked_simd(ctx);
    if (rule_on("no-unlocked-mutable")) {
      const auto it = guarded_by_stem.find(file_stem(files[i].rel_path));
      if (it != guarded_by_stem.end()) {
        rule_no_unlocked_mutable(ctx, it->second);
      }
    }
  }

  // Pass 2: whole-project flow rules over the symbol index.
  run_flow_rules(files, directives, index, rule_on, report.findings,
                 report.suppressed);

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  // Baseline pass.
  if (!options.baseline_path.empty()) {
    std::set<std::string> baseline;
    std::ifstream is(options.baseline_path);
    std::string line;
    while (is && std::getline(is, line)) {
      line = trim(line);
      if (line.empty() || line[0] == '#') continue;
      baseline.insert(line);
    }
    for (auto& f : report.findings) {
      if (baseline.count(baseline_key(f)) != 0) {
        f.baselined = true;
        ++report.baselined;
      }
    }
  }
  return report;
}

void print_text(std::ostream& os, const Report& report) {
  for (const auto& f : report.findings) {
    os << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message;
    if (f.baselined) os << " (baselined)";
    os << "\n    " << f.excerpt << '\n';
  }
  os << "pwu_lint: " << report.files_scanned << " files, "
     << report.active_count() << " finding(s), " << report.baselined
     << " baselined, " << report.suppressed << " suppressed\n";
}

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void print_json(std::ostream& os, const Report& report) {
  os << "{\"files_scanned\":" << report.files_scanned
     << ",\"active\":" << report.active_count()
     << ",\"baselined\":" << report.baselined
     << ",\"suppressed\":" << report.suppressed << ",\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i != 0) os << ',';
    os << "{\"rule\":";
    json_string(os, f.rule);
    os << ",\"file\":";
    json_string(os, f.file);
    os << ",\"line\":" << f.line << ",\"message\":";
    json_string(os, f.message);
    os << ",\"excerpt\":";
    json_string(os, f.excerpt);
    os << ",\"baselined\":" << (f.baselined ? "true" : "false") << '}';
  }
  os << "]}\n";
}

void print_sarif(std::ostream& os, const Report& report) {
  os << "{\"$schema\":"
        "\"https://json.schemastore.org/sarif-2.1.0.json\","
        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
        "\"name\":\"pwu_lint\",\"rules\":[";
  const auto& catalog = rule_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"id\":";
    json_string(os, catalog[i].name);
    os << ",\"shortDescription\":{\"text\":";
    json_string(os, catalog[i].description);
    os << "}}";
  }
  os << "]}},\"results\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i != 0) os << ',';
    os << "{\"ruleId\":";
    json_string(os, f.rule);
    os << ",\"level\":" << (f.baselined ? "\"note\"" : "\"warning\"")
       << ",\"message\":{\"text\":";
    json_string(os, f.message);
    os << "},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{"
          "\"uri\":";
    json_string(os, f.file);
    os << "},\"region\":{\"startLine\":" << f.line << "}}}]}";
  }
  os << "]}]}\n";
}

}  // namespace pwu::lint
