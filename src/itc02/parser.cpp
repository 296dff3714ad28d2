#include "itc02/parser.hpp"

#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace nocsched::itc02 {

namespace {

// One logical line with its 1-based number for error messages.
// Diagnostics name the line and the field, never the line's bytes: a
// served request can point soc_file at any file the server can read.
struct Line {
  int number = 0;
  std::vector<std::string_view> tokens;
};

[[noreturn]] void syntax_error(const Line& line, const std::string& why) {
  fail("line ", line.number, ": ", why);
}

// Tokenize one line, keeping a single-quoted name as one token
// (without the quotes).
std::vector<std::string_view> tokenize(std::string_view s, int line_no) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    if (i >= s.size()) break;
    if (s[i] == '\'') {
      const std::size_t close = s.find('\'', i + 1);
      ensure(close != std::string_view::npos, "line ", line_no, ": unterminated quoted name");
      out.push_back(s.substr(i + 1, close - i - 1));
      i = close + 1;
    } else {
      std::size_t b = i;
      while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
      out.push_back(s.substr(b, i - b));
    }
  }
  return out;
}

// Fetch the value following keyword `key` in a `key value key value`
// token list starting at `from`.
std::optional<std::string_view> find_value(const Line& line, std::size_t from,
                                           std::string_view key) {
  for (std::size_t i = from; i + 1 < line.tokens.size(); i += 2) {
    if (line.tokens[i] == key) return line.tokens[i + 1];
  }
  return std::nullopt;
}

// Parse a non-negative integer no larger than `max`, reporting junk,
// sign, and overflow with the line number and field name.  Every count
// in a .soc file goes through here: the model stores 32-bit counts, so
// an unchecked static_cast would silently truncate absurd inputs into
// plausible small numbers.
std::uint64_t checked_u64(const Line& line, std::string_view value, std::string_view what,
                          std::uint64_t max) {
  std::uint64_t v = 0;
  try {
    v = parse_u64(value, what);
  } catch (const Error&) {
    syntax_error(line, cat("expected a non-negative integer for ", std::string(what)));
  }
  if (v > max) {
    syntax_error(line, cat(std::string(what), " value ", v, " is out of range (max ", max, ")"));
  }
  return v;
}

std::uint64_t require_u64(const Line& line, std::size_t from, std::string_view key,
                          std::uint64_t max) {
  const auto v = find_value(line, from, key);
  if (!v) syntax_error(line, cat("missing '", std::string(key), "' field"));
  return checked_u64(line, *v, key, max);
}

constexpr std::uint64_t kMaxU32 = 0xFFFFFFFFULL;
constexpr std::uint64_t kMaxModuleId = 1'000'000;  // sanity cap, also fits int
constexpr std::uint64_t kMaxScanChains = 100'000;  // one line must list them all

}  // namespace

Soc parse(std::string_view text) {
  // Pass 1: strip comments/blank lines into logical lines.
  std::vector<Line> lines;
  {
    int number = 0;
    for (std::string_view raw : split(text, '\n')) {
      ++number;
      const std::size_t hash = raw.find('#');
      if (hash != std::string_view::npos) raw = raw.substr(0, hash);
      if (trim(raw).empty()) continue;
      Line line;
      line.number = number;
      line.tokens = tokenize(raw, number);
      lines.push_back(std::move(line));
    }
  }
  ensure(!lines.empty(), "empty .soc document");

  Soc soc;
  std::size_t declared_modules = 0;
  bool saw_total = false;
  std::size_t i = 0;

  // Header.
  {
    const Line& l = lines[i];
    if (l.tokens.size() != 2 || l.tokens[0] != "SocName") {
      syntax_error(l, "expected 'SocName <name>' as the first statement");
    }
    soc.name = std::string(l.tokens[1]);
    ++i;
  }
  if (i < lines.size() && lines[i].tokens[0] == "TotalModules") {
    const Line& l = lines[i];
    if (l.tokens.size() != 2) syntax_error(l, "expected 'TotalModules <N>'");
    declared_modules = checked_u64(l, l.tokens[1], "TotalModules", kMaxModuleId);
    saw_total = true;
    ++i;
  }

  // Module blocks.
  std::set<int> seen_ids;
  while (i < lines.size()) {
    const Line& header = lines[i];
    if (header.tokens[0] != "Module") {
      syntax_error(header, "expected a 'Module' header");
    }
    if (header.tokens.size() < 2) syntax_error(header, "missing module id");
    Module m;
    m.id = static_cast<int>(checked_u64(header, header.tokens[1], "module id", kMaxModuleId));
    if (m.id < 1) syntax_error(header, "module ids start at 1");
    if (!seen_ids.insert(m.id).second) {
      syntax_error(header, cat("duplicate module id ", m.id));
    }
    if (header.tokens.size() < 3) syntax_error(header, "missing module name");
    m.name = std::string(header.tokens[2]);
    m.inputs = static_cast<std::uint32_t>(require_u64(header, 3, "Inputs", kMaxU32));
    m.outputs = static_cast<std::uint32_t>(require_u64(header, 3, "Outputs", kMaxU32));
    m.bidirs = static_cast<std::uint32_t>(require_u64(header, 3, "Bidirs", kMaxU32));
    const auto power = find_value(header, 3, "TestPower");
    if (!power) syntax_error(header, "missing 'TestPower' field");
    try {
      m.test_power = parse_double(*power, "TestPower");
    } catch (const Error&) {
      syntax_error(header, "expected a number for TestPower");
    }
    if (const auto proc = find_value(header, 3, "Processor")) {
      m.is_processor = checked_u64(header, *proc, "Processor", kMaxU32) != 0;
    }
    ++i;

    // ScanChains line.
    ensure(i < lines.size(), "module ", m.id, ": unexpected end of file before ScanChains");
    {
      const Line& l = lines[i];
      if (l.tokens[0] != "ScanChains") syntax_error(l, "expected 'ScanChains'");
      if (l.tokens.size() < 2) syntax_error(l, "missing scan chain count");
      // The count is bounded before any arithmetic: a huge count would
      // overflow `count + 3` below and index out of the token vector.
      const auto count = checked_u64(l, l.tokens[1], "ScanChains count", kMaxScanChains);
      if (count > 0) {
        if (l.tokens.size() != count + 3 || l.tokens[2] != ":") {
          syntax_error(l, cat("expected 'ScanChains ", count, " : <", count, " lengths>'"));
        }
        for (std::size_t k = 0; k < count; ++k) {
          m.scan_chains.push_back(static_cast<std::uint32_t>(
              checked_u64(l, l.tokens[3 + k], "scan chain length", kMaxU32)));
        }
      } else if (l.tokens.size() != 2) {
        syntax_error(l, "'ScanChains 0' takes no lengths");
      }
      ++i;
    }

    // Test lines.
    while (i < lines.size() && lines[i].tokens[0] == "Test") {
      const Line& l = lines[i];
      CoreTest t;
      t.patterns = static_cast<std::uint32_t>(require_u64(l, 2, "Patterns", kMaxU32));
      t.uses_scan = require_u64(l, 2, "ScanUse", kMaxU32) != 0;
      m.tests.push_back(t);
      ++i;
    }
    if (m.tests.empty()) {
      syntax_error(header, cat("module ", m.id, " has no 'Test' lines"));
    }
    soc.modules.push_back(std::move(m));
  }

  if (saw_total) {
    ensure(declared_modules == soc.modules.size(), "TotalModules says ", declared_modules,
           " but the file defines ", soc.modules.size(), " modules");
  }
  validate(soc);
  return soc;
}

Soc load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ensure(in.good(), "cannot open .soc file '", path, "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse(buffer.str());
  } catch (const Error& e) {
    fail(path, ": ", e.what());
  }
}

}  // namespace nocsched::itc02
