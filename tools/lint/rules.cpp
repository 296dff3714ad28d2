// Token-level implementations of the nocsched-lint rules (see lint.hpp
// for the rule catalogue).  Token-level analysis is deliberately
// conservative: every pattern here is precise enough that a finding is
// actionable, and the libclang backend (ast_backend.cpp) adds the
// type-aware coverage tokens cannot give (members declared in another
// file, inferred types).

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "lint.hpp"

namespace nocsched::lint {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

// ---------------------------------------------------------------------------
// Rule scoping.  Paths are repo-relative with '/' separators.

const std::set<std::string_view> kD2Exempt = {
    // The seeded RNG implementation itself is the sanctioned source of
    // randomness; everything else must draw from it.
    "src/common/rng.hpp",
    "src/common/rng.cpp",
    // The observability clock is the sanctioned wall-time source: the
    // one steady_clock read in src/, feeding only the "wall." metrics
    // namespace and span traces (never control flow — see D6).
    "src/obs/clock.hpp",
    "src/obs/clock.cpp",
};

// D4's protected types and the files allowed to take them any way they
// like (their own implementation + the declaring header).
struct SharedType {
  std::string_view name;
  std::string_view owner_prefix;  // rel-path prefix, e.g. "src/core/pair_table."
};
constexpr SharedType kSharedTypes[] = {
    {"PairTable", "src/core/pair_table."},
    {"EvalContext", "src/search/eval_context."},
    {"SystemModel", "src/core/system_model."},
    {"PlanContext", "src/engine/context_cache."},
};

}  // namespace

bool rule_applies(std::string_view rule, std::string_view rel_path) {
  if (rule == "D1") return starts_with(rel_path, "src/");
  if (rule == "D2") return starts_with(rel_path, "src/") && !kD2Exempt.count(rel_path);
  if (rule == "D3") return starts_with(rel_path, "src/search/");
  if (rule == "D4") return starts_with(rel_path, "src/");
  if (rule == "D5") return starts_with(rel_path, "src/itc02/");
  if (rule == "D6") {
    return starts_with(rel_path, "src/core/") || starts_with(rel_path, "src/search/");
  }
  if (rule == "P1") return starts_with(rel_path, "src/");
  if (rule == "P2") return starts_with(rel_path, "src/engine/");
  if (rule == "S1") {
    return starts_with(rel_path, "src/core/") || starts_with(rel_path, "src/search/") ||
           starts_with(rel_path, "src/engine/");
  }
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Suppressions: `nocsched-lint: allow(D1)` / `allow(D1, D4)` inside any
// comment.  A trailing comment covers its own line; a comment that
// stands alone on a line covers the following line as well.

struct Suppression {
  int line = 0;
  int col = 0;
  std::set<std::string> rules;
  bool own_line = false;
  int end_line = 0;
};

std::vector<Suppression> parse_suppressions(const std::vector<Comment>& comments) {
  std::vector<Suppression> out;
  for (const Comment& c : comments) {
    const std::string_view t = c.text;
    const std::size_t key = t.find("nocsched-lint:");
    if (key == std::string_view::npos) continue;
    const std::size_t open = t.find("allow(", key);
    if (open == std::string_view::npos) continue;
    const std::size_t close = t.find(')', open);
    if (close == std::string_view::npos) continue;
    Suppression s;
    s.line = c.line;
    s.col = c.col;
    s.own_line = c.own_line;
    s.end_line = c.end_line;
    std::string_view list = t.substr(open + 6, close - open - 6);
    while (!list.empty()) {
      const std::size_t comma = list.find(',');
      std::string_view id = list.substr(0, comma);
      while (!id.empty() && (id.front() == ' ' || id.front() == '\t')) id.remove_prefix(1);
      while (!id.empty() && (id.back() == ' ' || id.back() == '\t')) id.remove_suffix(1);
      if (!id.empty()) s.rules.insert(std::string(id));
      if (comma == std::string_view::npos) break;
      list.remove_prefix(comma + 1);
    }
    if (!s.rules.empty()) out.push_back(std::move(s));
  }
  return out;
}

// line -> rule-ids silenced there.
std::map<int, std::set<std::string>> suppression_map(const std::vector<Suppression>& sups) {
  std::map<int, std::set<std::string>> by_line;
  for (const Suppression& s : sups) {
    for (int l = s.line; l <= s.end_line; ++l) {
      by_line[l].insert(s.rules.begin(), s.rules.end());
    }
    if (s.own_line) by_line[s.end_line + 1].insert(s.rules.begin(), s.rules.end());
  }
  return by_line;
}

// ---------------------------------------------------------------------------
// Token-stream helpers.  All rule passes work on the non-preprocessor
// token stream; `npos` marks scan failure.

constexpr std::size_t npos = static_cast<std::size_t>(-1);

class Stream {
 public:
  explicit Stream(std::vector<Token> tokens) : t_(std::move(tokens)) {}

  [[nodiscard]] std::size_t size() const { return t_.size(); }
  [[nodiscard]] const Token& at(std::size_t i) const { return t_[i]; }

  [[nodiscard]] bool is(std::size_t i, std::string_view text) const {
    return i < t_.size() && t_[i].text == text;
  }
  [[nodiscard]] bool ident(std::size_t i) const {
    return i < t_.size() && t_[i].kind == TokKind::kIdent;
  }
  [[nodiscard]] bool ident(std::size_t i, std::string_view text) const {
    return ident(i) && t_[i].text == text;
  }

  /// Index of the closer matching the (, [ or { at `i`, or npos.
  [[nodiscard]] std::size_t match(std::size_t i) const {
    const std::string_view open = t_[i].text;
    const std::string_view close = open == "(" ? ")" : open == "[" ? "]" : "}";
    int depth = 0;
    for (std::size_t j = i; j < t_.size(); ++j) {
      if (t_[j].text == open) ++depth;
      if (t_[j].text == close && --depth == 0) return j;
    }
    return npos;
  }

  /// `i` points at '<': index just past the matching '>', or npos when
  /// this is not a template argument list (statement punctuation hit).
  [[nodiscard]] std::size_t skip_angles(std::size_t i) const {
    int depth = 0;
    for (std::size_t j = i; j < t_.size(); ++j) {
      const std::string_view x = t_[j].text;
      if (x == "<") ++depth;
      else if (x == ">") {
        if (--depth == 0) return j + 1;
      } else if (x == ">>") {
        depth -= 2;
        if (depth <= 0) return j + 1;
      } else if (x == "(" || x == "[") {
        const std::size_t m = match(j);
        if (m == npos) return npos;
        j = m;
      } else if (x == ";" || x == "{" || x == "}") {
        return npos;
      }
    }
    return npos;
  }

 private:
  std::vector<Token> t_;
};

struct Sink {
  std::string_view rel;
  std::vector<Diagnostic>* out;
  void add(const Token& at, std::string_view rule, std::string message) const {
    out->push_back({std::string(rel), at.line, at.col, std::string(rule), std::move(message)});
  }
  void add(int line, int col, std::string_view rule, std::string message) const {
    out->push_back({std::string(rel), line, col, std::string(rule), std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// D1 — no iteration over unordered containers.

const std::set<std::string_view> kUnordered = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
// Only traversal *starts* are flagged: find()/count()/at() point
// lookups — and the idiomatic `it != m.end()` guard — are order-free.
const std::set<std::string_view> kIterFns = {"begin", "cbegin", "rbegin", "crbegin"};

void rule_d1(const Stream& s, const Sink& sink) {
  // Names declared (in this file) with an unordered container type,
  // including through a local `using X = std::unordered_map<...>;`.
  std::set<std::string_view> aliases;
  for (std::size_t i = 0; i + 2 < s.size(); ++i) {
    if (!s.ident(i, "using") || !s.ident(i + 1) || !s.is(i + 2, "=")) continue;
    for (std::size_t j = i + 3; j < s.size() && !s.is(j, ";"); ++j) {
      if (s.ident(j) && kUnordered.count(s.at(j).text)) {
        aliases.insert(s.at(i + 1).text);
        break;
      }
    }
  }
  std::set<std::string_view> vars;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!s.ident(i)) continue;
    const bool builtin = kUnordered.count(s.at(i).text) != 0;
    const bool alias = aliases.count(s.at(i).text) != 0;
    if (!builtin && !alias) continue;
    std::size_t j = i + 1;
    if (s.is(j, "<")) {
      j = s.skip_angles(j);
      if (j == npos) continue;
    } else if (builtin) {
      continue;  // unordered_map without arguments: qualifier or alias RHS
    }
    while (s.is(j, "&") || s.is(j, "*") || s.ident(j, "const")) ++j;
    if (s.ident(j) && !s.ident(j, "const")) vars.insert(s.at(j).text);
  }

  for (std::size_t i = 0; i < s.size(); ++i) {
    // Range-for whose range expression mentions an unordered name.
    if (s.ident(i, "for") && s.is(i + 1, "(")) {
      const std::size_t close = s.match(i + 1);
      if (close == npos) continue;
      std::size_t colon = npos;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (s.is(j, "(") || s.is(j, "[") || s.is(j, "{")) {
          const std::size_t m = s.match(j);
          if (m == npos || m > close) break;
          j = m;
          continue;
        }
        if (s.is(j, ":")) {
          colon = j;
          break;
        }
      }
      if (colon == npos) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (!s.ident(j)) continue;
        const std::string_view name = s.at(j).text;
        if (kUnordered.count(name) || aliases.count(name) || vars.count(name)) {
          sink.add(s.at(i), "D1",
                   "range-for over unordered container '" + std::string(name) +
                       "': hash-table iteration order is nondeterministic; copy into a "
                       "sorted container first");
          break;
        }
      }
    }
    // explicit iterator walk: x.begin() / x.cbegin() on a tracked name.
    if (s.ident(i) && vars.count(s.at(i).text) && (s.is(i + 1, ".") || s.is(i + 1, "->")) &&
        s.ident(i + 2) && kIterFns.count(s.at(i + 2).text) && s.is(i + 3, "(")) {
      sink.add(s.at(i), "D1",
               "iterator traversal of unordered container '" + std::string(s.at(i).text) +
                   "': hash-table iteration order is nondeterministic");
    }
  }
}

// ---------------------------------------------------------------------------
// D2 — banned nondeterminism sources.

const std::set<std::string_view> kBannedCalls = {"rand",    "srand",   "rand_r", "drand48",
                                                 "lrand48", "random",  "time",   "clock",
                                                 "getrandom", "getentropy"};
const std::set<std::string_view> kBannedNames = {"random_device", "steady_clock",
                                                 "system_clock", "high_resolution_clock"};
const std::set<std::string_view> kPointerOrder = {"hash", "less", "greater"};

// Keywords after which an identifier is still in call (not declarator)
// position.
const std::set<std::string_view> kCallContext = {"return",    "throw",    "case",
                                                 "co_return", "co_yield", "co_await"};

void rule_d2(const Stream& s, const Sink& sink) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!s.ident(i)) continue;
    const std::string_view name = s.at(i).text;
    const bool member_access = i > 0 && (s.is(i - 1, ".") || s.is(i - 1, "->"));
    if (kBannedNames.count(name)) {
      sink.add(s.at(i), "D2",
               "'" + std::string(name) +
                   "' is a nondeterminism source: draw from the seeded nocsched::Rng "
                   "((seed, chain) streams) instead");
      continue;
    }
    // `long time(int);` declares a member named `time`; a *call* can
    // never directly follow another identifier (only keywords like
    // `return` / `throw` may precede one).
    const bool after_ident = i > 0 && s.ident(i - 1) && !kCallContext.count(s.at(i - 1).text);
    if (kBannedCalls.count(name) && s.is(i + 1, "(") && !member_access && !after_ident) {
      sink.add(s.at(i), "D2",
               "call to '" + std::string(name) +
                   "' is nondeterministic across runs: all randomness and timing in "
                   "planner/search/sim code must come from the seeded nocsched::Rng");
      continue;
    }
    if (kPointerOrder.count(name) && s.is(i + 1, "<") && !member_access) {
      const std::size_t end = s.skip_angles(i + 1);
      if (end == npos) continue;
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (s.is(j, "*")) {
          sink.add(s.at(i), "D2",
                   "std::" + std::string(name) +
                       " over a pointer type hashes/orders by address, which varies "
                       "run to run: key by a stable id instead");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// D3 — Strategy subclasses must be stateless; no `mutable` in search/.

const std::set<std::string_view> kAccess = {"public", "private", "protected"};
const std::set<std::string_view> kSkipDecl = {"using", "typedef", "friend", "static_assert"};

void rule_d3(const Stream& s, const Sink& sink) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.ident(i, "mutable")) {
      sink.add(s.at(i), "D3",
               "'mutable' in src/search/ breaks the shared-across-threads contract: "
               "per-chain state belongs in search::ChainState");
    }
  }

  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!(s.ident(i, "class") || s.ident(i, "struct"))) continue;
    if (i > 0 && s.ident(i - 1, "enum")) continue;
    std::size_t j = i + 1;
    if (!s.ident(j)) continue;
    const std::string_view class_name = s.at(j).text;
    ++j;
    if (s.ident(j, "final")) ++j;
    bool derives_strategy = false;
    if (s.is(j, ":")) {
      ++j;
      while (j < s.size() && !s.is(j, "{") && !s.is(j, ";")) {
        if (s.ident(j, "Strategy")) derives_strategy = true;
        if (s.is(j, "<")) {
          const std::size_t end = s.skip_angles(j);
          if (end == npos) break;
          j = end;
          continue;
        }
        ++j;
      }
    }
    if (!derives_strategy || !s.is(j, "{")) continue;
    const std::size_t close = s.match(j);
    if (close == npos) continue;

    // Walk the direct members between { and }.
    std::size_t k = j + 1;
    while (k < close) {
      if (s.ident(k) && kAccess.count(s.at(k).text) && s.is(k + 1, ":")) {
        k += 2;
        continue;
      }
      if (s.is(k, ";")) {
        ++k;
        continue;
      }
      // One member declaration.
      bool skip_stmt = false;
      bool saw_params = false;
      std::vector<std::size_t> top;  // top-level token indices
      bool ended_as_function = false;
      while (k < close) {
        const std::string_view x = s.at(k).text;
        if (s.ident(k) && kSkipDecl.count(x)) skip_stmt = true;
        if (top.empty() && (s.ident(k, "class") || s.ident(k, "struct") ||
                            s.ident(k, "enum") || s.ident(k, "union"))) {
          skip_stmt = true;  // nested type definition
        }
        if (s.ident(k, "template") && s.is(k + 1, "<")) {
          skip_stmt = true;
          const std::size_t end = s.skip_angles(k + 1);
          if (end == npos) break;
          k = end;
          continue;
        }
        if (x == "(") {
          const std::size_t m = s.match(k);
          if (m == npos || m > close) {
            k = close;
            break;
          }
          saw_params = true;
          k = m + 1;
          continue;
        }
        if (x == "[") {
          const std::size_t m = s.match(k);
          if (m == npos || m > close) {
            k = close;
            break;
          }
          k = m + 1;
          continue;
        }
        if (x == "<" && k > 0 && s.ident(k - 1)) {
          const std::size_t end = s.skip_angles(k);
          if (end != npos) {
            k = end;
            continue;
          }
        }
        if (x == "{") {
          const std::size_t m = s.match(k);
          if (m == npos || m > close) {
            k = close;
            break;
          }
          k = m + 1;
          if (saw_params || skip_stmt) {  // function (or nested type) body
            if (s.is(k, ";")) ++k;
            ended_as_function = true;
            break;
          }
          continue;  // brace initializer of a data member
        }
        if (x == ";") {
          ++k;
          break;
        }
        top.push_back(k);
        ++k;
      }
      if (skip_stmt || saw_params || ended_as_function || top.empty()) continue;
      bool exempt = false;
      std::size_t name_idx = npos;
      for (const std::size_t idx : top) {
        const std::string_view x = s.at(idx).text;
        if (x == "static" || x == "constexpr" || x == "const") exempt = true;
        if (x == "mutable") exempt = true;  // already flagged by the mutable check
        if (x == "=") break;
        if (s.ident(idx) && x != "static" && x != "constexpr" && x != "const") name_idx = idx;
      }
      if (exempt || name_idx == npos) continue;
      sink.add(s.at(name_idx), "D3",
               "non-const data member '" + std::string(s.at(name_idx).text) +
                   "' in Strategy subclass '" + std::string(class_name) +
                   "': strategies are shared across threads and must be stateless "
                   "(per-chain state belongs in search::ChainState)");
    }
  }
}

// ---------------------------------------------------------------------------
// D4 — shared immutable types pass by const& (or && / const*).

const std::set<std::string_view> kNotDeclarator = {
    "if",     "while",  "for",    "switch",   "return", "sizeof",         "alignof",
    "typeid", "catch",  "assert", "decltype", "co_await", "NOCSCHED_ASSERT", "throw"};

void rule_d4(const Stream& s, std::string_view rel, const Sink& sink) {
  // Paren stack: is each open paren plausibly a function declarator,
  // and at what brace depth was it opened?  A type name only reads as a
  // parameter when no `{` intervenes — otherwise it is a statement
  // inside a body (e.g. a local declaration in a lambda passed to a
  // call), not a parameter list.
  struct Paren {
    bool decl = false;
    int brace_depth = 0;
  };
  std::vector<Paren> decl_stack;
  int brace_depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::string_view x = s.at(i).text;
    if (x == "{") ++brace_depth;
    if (x == "}") --brace_depth;
    if (x == "(") {
      bool decl = false;
      if (i > 0) {
        const Token& p = s.at(i - 1);
        if (p.kind == TokKind::kIdent && !kNotDeclarator.count(p.text)) decl = true;
        if (p.text == "]") decl = true;  // lambda parameter list
        // `operator()(params)`: opener preceded by the () of the name.
        if (p.text == ")" && i >= 3 && s.is(i - 2, "(") && s.ident(i - 3, "operator")) {
          decl = true;
        }
      }
      decl_stack.push_back({decl, brace_depth});
      continue;
    }
    if (x == ")") {
      if (!decl_stack.empty()) decl_stack.pop_back();
      continue;
    }
    if (!s.ident(i) || decl_stack.empty() || !decl_stack.back().decl ||
        decl_stack.back().brace_depth != brace_depth) {
      continue;
    }

    for (const SharedType& ty : kSharedTypes) {
      if (x != ty.name) continue;
      if (starts_with(rel, ty.owner_prefix)) continue;
      std::size_t n = i + 1;
      if (s.is(n, "(") || s.is(n, "{")) break;  // constructor / functional cast
      // east-const (`PairTable const&`) and leading const both count.
      bool has_const = s.ident(n, "const");
      if (has_const) ++n;
      for (std::size_t back = 1; back <= 6 && back <= i; ++back) {
        const std::string_view b = s.at(i - back).text;
        if (b == "," || b == "(") break;
        if (b == "const") has_const = true;
      }
      const std::string tyname(ty.name);
      if (s.is(n, "&&")) break;  // rvalue-ref sink: fine
      if (s.is(n, "&")) {
        if (!has_const) {
          sink.add(s.at(i), "D4",
                   tyname +
                       " parameter by non-const reference: shared planning state is "
                       "immutable by contract, take const " +
                       tyname + "&");
        }
        break;
      }
      if (s.is(n, "*")) {
        if (!has_const) {
          sink.add(s.at(i), "D4",
                   tyname + " parameter by pointer to non-const: take const " + tyname +
                       "& (or const*)");
        }
        break;
      }
      const bool unnamed_value = s.is(n, ",") || s.is(n, ")");
      const bool named_value =
          s.ident(n) && (s.is(n + 1, ",") || s.is(n + 1, ")") || s.is(n + 1, "="));
      if (unnamed_value || named_value) {
        sink.add(s.at(i), "D4",
                 tyname +
                     " parameter by value copies a shared table on every call: take "
                     "const " +
                     tyname + "& (or " + tyname + "&& for an owning sink)");
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// D5 — itc02 parser code: float ==/!= and unchecked narrowing casts.

const std::set<std::string_view> kNarrowTargets = {
    "int",    "short",   "unsigned", "char",     "int8_t",  "int16_t",   "int32_t",
    "uint8_t", "uint16_t", "uint32_t", "char16_t", "char32_t", "signed"};
const std::set<std::string_view> kCheckedHelpers = {"checked_u64", "require_u64",
                                                    "checked_narrow"};

void rule_d5(const Stream& s, const Sink& sink) {
  // Names declared floating in this file (double/float decls and
  // `auto x = <float literal>`).
  std::set<std::string_view> float_vars;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.ident(i, "double") || s.ident(i, "float")) {
      std::size_t j = i + 1;
      while (s.is(j, "&") || s.is(j, "*") || s.ident(j, "const")) ++j;
      if (s.ident(j)) float_vars.insert(s.at(j).text);
    }
    if (s.ident(i, "auto") && s.ident(i + 1) && s.is(i + 2, "=") && i + 3 < s.size() &&
        s.at(i + 3).kind == TokKind::kNumber && s.at(i + 3).is_float) {
      float_vars.insert(s.at(i + 1).text);
    }
  }

  auto operand_is_float = [&](std::size_t from, int dir) {
    // Scan one small expression window away from the comparison.
    int paren = 0;
    for (std::size_t steps = 0; steps < 24; ++steps) {
      const std::size_t j = from + static_cast<std::size_t>(dir) * steps;
      if (j >= s.size()) break;
      const Token& t = s.at(j);
      if (t.text == "(" ) paren += dir;
      if (t.text == ")") paren -= dir;
      if (paren < 0) break;  // left the operand's expression
      if (paren == 0 && (t.text == ";" || t.text == "," || t.text == "{" || t.text == "}" ||
                         t.text == "&&" || t.text == "||" || t.text == "==" ||
                         t.text == "!=" || t.text == "?" || t.text == ":" || t.text == "=")) {
        break;
      }
      if (t.kind == TokKind::kNumber && t.is_float) return true;
      if (t.kind == TokKind::kIdent && float_vars.count(t.text)) return true;
      if (t.kind == TokKind::kIdent && (t.text == "double" || t.text == "float")) {
        return true;  // static_cast<double>(...) or similar
      }
      if (t.kind == TokKind::kIdent && (t.text == "stod" || t.text == "stof")) return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < s.size(); ++i) {
    if ((s.is(i, "==") || s.is(i, "!=")) && i > 0) {
      if (operand_is_float(i - 1, -1) || operand_is_float(i + 1, +1)) {
        sink.add(s.at(i), "D5",
                 "floating-point '" + std::string(s.at(i).text) +
                     "' in parser code: exact float comparison is representation-"
                     "dependent; compare integers or use an explicit tolerance");
      }
    }
    if (s.ident(i, "static_cast") && s.is(i + 1, "<")) {
      const std::size_t end = s.skip_angles(i + 1);
      if (end == npos || !s.is(end, "(")) continue;
      bool narrow = false;
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (s.ident(j) && kNarrowTargets.count(s.at(j).text)) narrow = true;
        if (s.ident(j, "long")) narrow = false;  // long / long long are not narrow here
      }
      if (!narrow) continue;
      std::size_t j = end + 1;
      while (s.ident(j, "std") || s.is(j, "::")) ++j;
      if (s.ident(j) && kCheckedHelpers.count(s.at(j).text) && s.is(j + 1, "(")) continue;
      sink.add(s.at(i), "D5",
               "unchecked narrowing static_cast in parser code: absurd counts must fail "
               "loudly — route through checked_u64/require_u64 or nocsched::checked_narrow");
    }
  }
}

// ---------------------------------------------------------------------------
// D6 — no timing-dependent control flow in the deterministic zones.
// obs::Span and the "wall." metrics may *record* time in src/core/ and
// src/search/, but a branch or loop that reads a clock value decides
// differently run to run — exactly the nondeterminism the planner and
// search driver promise away.

bool timing_ident(std::string_view name) {
  if (name == "now" || name == "now_ms") return true;
  if (starts_with(name, "wall_")) return true;
  return name.find("elapsed") != std::string_view::npos ||
         name.find("deadline") != std::string_view::npos;
}

void rule_d6(const Stream& s, const Sink& sink) {
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    if (!(s.ident(i, "if") || s.ident(i, "while") || s.ident(i, "for"))) continue;
    std::size_t open = i + 1;
    if (s.ident(i, "if") && s.ident(open, "constexpr")) ++open;
    if (!s.is(open, "(")) continue;
    const std::size_t close = s.match(open);
    if (close == npos) continue;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (!s.ident(j) || !timing_ident(s.at(j).text)) continue;
      sink.add(s.at(j), "D6",
               "timing-dependent control flow: '" + std::string(s.at(j).text) +
                   "' in a condition makes this branch vary run to run — wall time may "
                   "be recorded (obs::Span, \"wall.\" metrics) but never decided on in "
                   "src/core/ or src/search/");
      break;  // one finding per statement
    }
  }
}

// ---------------------------------------------------------------------------
// P1 — no string building in ensure(...) message arguments.
// nocsched::ensure is a function, so every message argument is evaluated
// before the condition is tested: a `.name()`, `cat(...)` or
// `describe()` there allocates and formats a string on every passing
// call of a hot precondition.  Only the message arguments (after the
// first top-level comma) count; the condition is evaluated anyway.

void rule_p1(const Stream& s, const Sink& sink) {
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    if (!s.ident(i, "ensure") || !s.is(i + 1, "(")) continue;
    if (i > 0 && (s.is(i - 1, ".") || s.is(i - 1, "->"))) continue;
    const std::size_t close = s.match(i + 1);
    if (close == npos) continue;
    std::size_t message = npos;  // first token after the top-level comma
    for (std::size_t j = i + 2; j < close; ++j) {
      if (s.is(j, "(") || s.is(j, "[") || s.is(j, "{")) {
        const std::size_t m = s.match(j);
        if (m == npos || m > close) break;
        j = m;
        continue;
      }
      if (s.is(j, ",")) {
        message = j + 1;
        break;
      }
    }
    if (message == npos) continue;
    for (std::size_t j = message; j < close; ++j) {
      if (!s.ident(j) || !s.is(j + 1, "(")) continue;
      const std::string_view name = s.at(j).text;
      const bool member = s.is(j - 1, ".") || s.is(j - 1, "->");
      if ((member && name == "name") || (!member && name == "cat") || name == "describe") {
        sink.add(s.at(j), "P1",
                 "'" + std::string(name) +
                     "(...)' in an ensure() message is evaluated even when the condition "
                     "holds: build the message only on failure, "
                     "`if (!cond) fail(...)`");
        break;  // one finding per ensure call
      }
    }
  }
}

// ---------------------------------------------------------------------------
// P2 — src/engine/ formats through a stream only on failure.
// Every served request runs the engine's parse → cache → serialize path,
// so `cat(...)` and std::ostringstream may appear there only inside the
// argument list of a fail(...), die(...) or Error(...) call — text that
// is built only when the request is already failing.  Success-path text
// is built with appends and std::to_chars.

const std::set<std::string_view> kFailureCalls = {"fail", "die", "Error"};

void rule_p2(const Stream& s, const Sink& sink) {
  // One entry per open bracket: whether it opens a failure call's
  // argument list.  `inside` counts the true entries.
  std::vector<bool> open;
  int inside = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::string_view t = s.at(i).text;
    if (t == "(" || t == "[" || t == "{") {
      const bool failure = t == "(" && i > 0 && s.ident(i - 1) &&
                           kFailureCalls.count(s.at(i - 1).text) != 0;
      open.push_back(failure);
      inside += failure ? 1 : 0;
      continue;
    }
    if (t == ")" || t == "]" || t == "}") {
      if (!open.empty()) {
        inside -= open.back() ? 1 : 0;
        open.pop_back();
      }
      continue;
    }
    if (inside > 0 || !s.ident(i)) continue;
    const bool stream = t == "ostringstream";
    const bool concat = t == "cat" && s.is(i + 1, "(") && !s.is(i - 1, ".") && !s.is(i - 1, "->");
    if (!stream && !concat) continue;
    sink.add(s.at(i), "P2",
             "'" + std::string(t) + (concat ? "(...)" : "") +
                 "' formats through a stream on the engine's request path: build the text "
                 "with appends and std::to_chars, or format only inside fail(...), "
                 "die(...) or Error(...)");
  }
}

}  // namespace

// ---------------------------------------------------------------------------

std::vector<Diagnostic> lint_source(std::string_view rel_path, std::string_view text) {
  LexResult lexed = lex(text);
  std::vector<Token> code;
  code.reserve(lexed.tokens.size());
  for (const Token& t : lexed.tokens) {
    if (!t.preproc) code.push_back(t);
  }
  const Stream s(std::move(code));

  std::vector<Diagnostic> diags;
  const Sink sink{rel_path, &diags};
  if (rule_applies("D1", rel_path)) rule_d1(s, sink);
  if (rule_applies("D2", rel_path)) rule_d2(s, sink);
  if (rule_applies("D3", rel_path)) rule_d3(s, sink);
  if (rule_applies("D4", rel_path)) rule_d4(s, rel_path, sink);
  if (rule_applies("D5", rel_path)) rule_d5(s, sink);
  if (rule_applies("D6", rel_path)) rule_d6(s, sink);
  if (rule_applies("P1", rel_path)) rule_p1(s, sink);
  if (rule_applies("P2", rel_path)) rule_p2(s, sink);

  const std::vector<Suppression> sups = parse_suppressions(lexed.comments);
  const auto by_line = suppression_map(sups);
  std::vector<Diagnostic> kept;
  for (Diagnostic& d : diags) {
    const auto it = by_line.find(d.line);
    const bool suppressed = it != by_line.end() && it->second.count(d.rule) != 0;
    if (!suppressed) kept.push_back(std::move(d));
  }
  if (rule_applies("S1", rel_path)) {
    for (const Suppression& sup : sups) {
      kept.push_back({std::string(rel_path), sup.line, sup.col, "S1",
                      "suppression comments are not permitted in src/core/, src/search/, or "
                      "src/engine/ (determinism-critical zones): fix the finding instead"});
    }
  }
  std::sort(kept.begin(), kept.end(), diag_less);
  return kept;
}

std::vector<Diagnostic> apply_suppressions(std::string_view text, std::string_view rel_path,
                                           std::vector<Diagnostic> diags) {
  const LexResult lexed = lex(text);
  const auto by_line = suppression_map(parse_suppressions(lexed.comments));
  std::vector<Diagnostic> kept;
  for (Diagnostic& d : diags) {
    if (d.rule == "S1") {
      kept.push_back(std::move(d));
      continue;
    }
    const auto it = by_line.find(d.line);
    const bool suppressed = it != by_line.end() && it->second.count(d.rule) != 0;
    if (!suppressed) kept.push_back(std::move(d));
  }
  (void)rel_path;
  return kept;
}

}  // namespace nocsched::lint
