#include "tokenizer.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pwu::lint {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string file_stem(const std::string& rel) {
  const std::size_t slash = rel.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? rel : rel.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

void strip_source(SourceFile& file) {
  enum class State { Code, LineComment, BlockComment, String, Char, Raw };
  State state = State::Code;
  std::string raw_delim;  // raw-string delimiter, e.g. )foo"

  file.code.resize(file.raw.size());
  file.comment.resize(file.raw.size());
  for (std::size_t li = 0; li < file.raw.size(); ++li) {
    const std::string& in = file.raw[li];
    std::string& out = file.code[li];
    std::string& com = file.comment[li];
    out.reserve(in.size());
    if (state == State::LineComment) state = State::Code;

    for (std::size_t i = 0; i < in.size(); ++i) {
      const char c = in[i];
      const char next = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (state) {
        case State::Code:
          if (c == '/' && next == '/') {
            state = State::LineComment;
            com.append(in, i + 2, std::string::npos);
            i = in.size();
          } else if (c == '/' && next == '*') {
            state = State::BlockComment;
            out += ' ';
            ++i;
          } else if (c == '"') {
            // Raw string? Look back for R (possibly u8R/LR/uR/UR).
            bool raw = false;
            if (i > 0 && in[i - 1] == 'R' &&
                (i == 1 || !is_ident_char(in[i - 2]) || in[i - 2] == '8' ||
                 in[i - 2] == 'u' || in[i - 2] == 'U' || in[i - 2] == 'L')) {
              raw = true;
            }
            out += '"';
            if (raw) {
              std::size_t paren = in.find('(', i + 1);
              if (paren == std::string::npos) {
                state = State::Raw;  // malformed; swallow the rest
                raw_delim = ")\"";
                i = in.size();
              } else {
                std::string delim(1, ')');
                delim.append(in, i + 1, paren - i - 1).push_back('"');
                raw_delim = std::move(delim);
                state = State::Raw;
                i = paren;
              }
            } else {
              state = State::String;
            }
          } else if (c == '\'') {
            out += '\'';
            state = State::Char;
          } else {
            out += c;
          }
          break;
        case State::LineComment:
          break;  // unreachable: handled by the line reset above
        case State::BlockComment:
          if (c == '*' && next == '/') {
            state = State::Code;
            ++i;
          } else {
            com += c;
          }
          break;
        case State::String:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            out += '"';
            state = State::Code;
          }
          break;
        case State::Char:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            out += '\'';
            state = State::Code;
          }
          break;
        case State::Raw: {
          const std::size_t end = in.find(raw_delim, i);
          if (end == std::string::npos) {
            i = in.size();
          } else {
            out += '"';
            i = end + raw_delim.size() - 1;
            state = State::Code;
          }
          break;
        }
      }
    }
  }
}

SourceFile load_source(const std::string& path, std::string rel) {
  SourceFile file;
  file.rel_path = std::move(rel);
  std::ifstream is(path);
  if (!is) throw std::runtime_error("pwu_lint: cannot read " + path);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    file.raw.push_back(std::move(line));
  }
  strip_source(file);
  return file;
}

SourceFile source_from_string(std::string rel, const std::string& text) {
  SourceFile file;
  file.rel_path = std::move(rel);
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    file.raw.push_back(std::move(line));
  }
  strip_source(file);
  return file;
}

namespace {

std::vector<std::string> parse_rule_list(const std::string& args) {
  std::vector<std::string> rules;
  std::string current;
  for (char c : args) {
    if (c == ',' || std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!current.empty()) rules.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) rules.push_back(current);
  return rules;
}

}  // namespace

std::string declared_field_name(const std::string& code_line) {
  const std::size_t semi = code_line.rfind(';');
  if (semi == std::string::npos) return {};
  std::size_t end = semi;
  while (end > 0 && !is_ident_char(code_line[end - 1])) {
    // Skip default member initializers like "= 0" backwards.
    --end;
  }
  // Walk back over a possible initializer: find the identifier immediately
  // left of '=' when one is present between it and ';'.
  const std::size_t eq = code_line.rfind('=', semi);
  if (eq != std::string::npos) end = eq;
  while (end > 0 && !is_ident_char(code_line[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(code_line[begin - 1])) --begin;
  return code_line.substr(begin, end - begin);
}

Directives parse_directives(const SourceFile& file) {
  Directives d;
  for (std::size_t li = 0; li < file.comment.size(); ++li) {
    const std::string& com = file.comment[li];
    std::size_t pos = com.find("pwu-lint:");
    if (pos == std::string::npos) continue;
    d.directive_lines.insert(li + 1);
    std::string rest = trim(com.substr(pos + 9));
    if (starts_with(rest, "blocking-ok")) {
      // Escape hatch for blocking-under-lock; the argument is a free-text
      // justification, not a rule list. On a trailing comment it covers
      // its own line; as a full-line comment it covers the next line.
      const bool full_line_comment = trim(file.code[li]).empty();
      d.allowed[li + 1 + (full_line_comment ? 1 : 0)]
          .insert("blocking-under-lock");
      continue;
    }
    const std::size_t open = rest.find('(');
    const std::size_t close = rest.find(')', open == std::string::npos
                                                    ? std::string::npos
                                                    : open + 1);
    if (open == std::string::npos || close == std::string::npos) continue;
    const std::string verb = trim(rest.substr(0, open));
    const std::string args = rest.substr(open + 1, close - open - 1);
    if (verb == "allow") {
      for (auto& rule : parse_rule_list(args)) d.allowed[li + 1].insert(rule);
    } else if (verb == "allow-next-line") {
      for (auto& rule : parse_rule_list(args)) d.allowed[li + 2].insert(rule);
    } else if (verb == "allow-file") {
      for (auto& rule : parse_rule_list(args)) d.allowed_file.insert(rule);
    } else if (verb == "guarded-by") {
      const std::string field = declared_field_name(file.code[li]);
      if (!field.empty()) d.guarded_fields.push_back(field);
    }
  }
  // Macro-form annotations: `Type field PWU_GUARDED_BY(mutex);` marks the
  // declared field exactly like the comment form.
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::size_t macro = file.code[li].find("PWU_GUARDED_BY");
    if (macro == std::string::npos) continue;
    if (file.code[li].compare(macro, 15, "PWU_GUARDED_BY(") != 0) continue;
    const std::string trimmed = trim(file.code[li]);
    if (!trimmed.empty() && trimmed.front() == '#') continue;  // the #define
    const std::string field =
        declared_field_name(file.code[li].substr(0, macro) + ";");
    if (!field.empty()) d.guarded_fields.push_back(field);
  }
  return d;
}

std::vector<Token> tokenize(const SourceFile& file) {
  std::vector<Token> tokens;
  bool in_directive = false;  // spans continuation lines
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    const std::string trimmed = trim(line);
    const bool continues = !trimmed.empty() && trimmed.back() == '\\';
    if (in_directive) {
      in_directive = continues;
      continue;
    }
    if (!trimmed.empty() && trimmed.front() == '#') {
      in_directive = continues;
      continue;
    }

    for (std::size_t i = 0; i < line.size();) {
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      Token tok;
      tok.line = li + 1;
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t j = i;
        while (j < line.size() &&
               (is_ident_char(line[j]) || line[j] == '.')) {
          ++j;
        }
        tok.kind = TokKind::Number;
        tok.text = line.substr(i, j - i);
        i = j;
      } else if (is_ident_char(c)) {
        std::size_t j = i;
        while (j < line.size() && is_ident_char(line[j])) ++j;
        tok.kind = TokKind::Ident;
        tok.text = line.substr(i, j - i);
        i = j;
      } else if (c == '"' || c == '\'') {
        // Literals are blanked by the stripper, so the close quote is the
        // next matching character (or end of line for unterminated input).
        const std::size_t close = line.find(c, i + 1);
        tok.kind = TokKind::Literal;
        tok.text = std::string(2, c);
        i = close == std::string::npos ? line.size() : close + 1;
      } else if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        tok.kind = TokKind::Punct;
        tok.text = "::";
        i += 2;
      } else if (c == '-' && i + 1 < line.size() && line[i + 1] == '>') {
        tok.kind = TokKind::Punct;
        tok.text = "->";
        i += 2;
      } else {
        tok.kind = TokKind::Punct;
        tok.text = std::string(1, c);
        ++i;
      }
      tokens.push_back(std::move(tok));
    }
  }
  return tokens;
}

bool match_tokens(const std::vector<Token>& tokens, std::size_t i,
                  std::initializer_list<const char*> seq) {
  std::size_t k = i;
  for (const char* want : seq) {
    if (k >= tokens.size() || tokens[k].text != want) return false;
    ++k;
  }
  return true;
}

}  // namespace pwu::lint
