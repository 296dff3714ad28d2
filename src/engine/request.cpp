#include "engine/request.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "itc02/builtin.hpp"
#include "report/json_util.hpp"

namespace nocsched::engine {

namespace {

void append_rates(std::string& key, const core::CpuRates& r) {
  key += report::json_number(r.per_stimulus_flit);
  key += ',';
  key += report::json_number(r.per_response_flit);
  key += ',';
  key += report::json_number(r.per_pattern_overhead);
  key += ',';
  key += report::json_number(r.setup_cycles);
  key += ',';
  key += report::json_number(r.active_power);
  key += ',';
  key += cat(r.program_bytes, ',', r.memory_bytes);
}

/// One or more decimal digits and nothing else.
bool all_digits(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

std::string SystemSpec::cache_key() const {
  // The source spec first (a file path may contain any character, so it
  // goes last in its segment, length-prefixed by the '|' structure
  // being unambiguous: every other field is enum/number-valued).
  std::string key = soc_file.empty() ? cat("soc=", soc) : cat("file=", soc_file);
  key += cat("|cpu=", to_string(cpu), "|procs=", procs, "|mesh=", mesh_cols, "x", mesh_rows);
  key += cat("|wrap=", params.wrapper_chains,
             "|prio=", static_cast<int>(params.priority),
             "|choice=", static_cast<int>(params.resource_choice),
             "|pair=", static_cast<int>(params.pair_order),
             "|chan=", static_cast<int>(params.channel_model),
             "|pfirst=", params.processors_first ? 1 : 0,
             "|cross=", params.allow_cross_pairing ? 1 : 0);
  key += cat("|noc=", params.noc.flit_width_bits, ",", params.noc.routing_latency, ",",
             params.noc.flow_control_latency, ",", report::json_number(params.noc.hop_power));
  key += "|leon=";
  append_rates(key, params.leon);
  key += "|plasma=";
  append_rates(key, params.plasma);
  return key;
}

void SystemSpec::set_mesh(std::string_view cxr, std::string_view what) {
  const auto parts = split(cxr, 'x');
  ensure(parts.size() == 2 && all_digits(parts[0]) && all_digits(parts[1]), what,
         " expects CxR, e.g. 4x4, got '", cxr, "'");
  // Range checks run on the 64-bit values, before any narrowing; a
  // value too long for 64 bits saturates (and fails the cap).
  const auto dim = [](std::string_view p) {
    std::uint64_t v = 0;
    return std::from_chars(p.data(), p.data() + p.size(), v).ec == std::errc()
               ? v
               : std::numeric_limits<std::uint64_t>::max();
  };
  const std::uint64_t cols = dim(parts[0]);
  const std::uint64_t rows = dim(parts[1]);
  ensure(cols > 0 && rows > 0, what, " dimensions must be positive, got '", cxr, "'");
  ensure(cols <= kMaxMeshRouters && rows <= kMaxMeshRouters && cols * rows <= kMaxMeshRouters,
         what, " '", cxr, "' has more than ", kMaxMeshRouters, " routers");
  mesh_cols = static_cast<int>(cols);
  mesh_rows = static_cast<int>(rows);
}

noc::FaultSet FaultSpec::resolve(const core::SystemModel& sys, std::string_view where) const {
  const auto router_count = static_cast<std::uint64_t>(sys.mesh().router_count());
  // Range checks run on the parsed 64-bit value, before any narrowing —
  // a huge id must be rejected, never truncated into a plausible one.
  noc::FaultSet faults;
  for (const std::string& link : links) {
    const auto ends = split(link, ':');
    ensure(ends.size() == 2, where, "links: expected a FROM:TO router pair, got '", link, "'");
    noc::RouterId ids[2] = {0, 0};
    for (std::size_t i = 0; i < 2; ++i) {
      const std::string_view end = ends[i];
      std::uint64_t r = 0;
      const auto [ptr, ec] = std::from_chars(end.data(), end.data() + end.size(), r);
      ensure(ec != std::errc::invalid_argument && ptr == end.data() + end.size(), where,
             "links: bad router id '", end, "' in '", link, "'");
      ensure(ec == std::errc() && r < router_count, where, "links: no router ", end, " in '",
             link, "' (mesh has ", router_count, " routers)");
      ids[i] = static_cast<noc::RouterId>(r);
    }
    ensure(sys.mesh().hop_count(ids[0], ids[1]) == 1, where, "links: '", link,
           "' joins routers ", ids[0], " and ", ids[1],
           ", which are not adjacent (channels join mesh neighbours only)");
    faults.fail_channel(sys.mesh().channel_between(ids[0], ids[1]));
  }
  for (const std::uint64_t r : routers) {
    ensure(r < router_count, where, "routers: no router ", r, " (mesh has ", router_count,
           " routers)");
    faults.fail_router(static_cast<noc::RouterId>(r));
  }
  for (const std::uint64_t raw : procs) {
    ensure(raw >= 1 && raw <= sys.soc().modules.size(), where, "procs: no module ", raw);
    const int id = static_cast<int>(raw);
    ensure(sys.soc().module(id).is_processor, where, "procs: module ", id, " ('",
           sys.soc().module(id).name, "') is not a processor");
    faults.fail_processor(id);
  }
  return faults;
}

search::SearchOptions PlanRequest::search_options() const {
  search::SearchOptions opts;
  opts.strategy = strategy.value_or(search::StrategyKind::kRestart);
  opts.iters = searching() ? iters.value_or(256) : 0;
  opts.seed = seed;
  opts.jobs = search_jobs;
  return opts;
}

void PlanRequest::set_power(double pct, std::string_view what) {
  ensure(pct > 0.0 && pct <= 100.0, what, " must be in (0, 100], got ", pct);
  power_pct = pct;
}

power::PowerBudget PlanRequest::budget(const core::SystemModel& sys) const {
  return power_pct ? power::PowerBudget::fraction_of_total(sys.soc(), *power_pct / 100.0)
                   : power::PowerBudget::unconstrained();
}

namespace {

/// Strict scanner over one JSONL line of either wire format (a request
/// or a fault-stream event): flat objects of known keys, unsigned
/// integers and decimal numbers, escape-free strings, true/false
/// literals.  Every diagnostic is prefixed "<source>:<line>: " so a
/// malformed line is fixable from the message alone.
class Scanner {
 public:
  Scanner(std::string_view text, std::string_view source, std::size_t line)
      : text_(text), source_(source), line_(line) {}

  template <typename... Parts>
  [[noreturn]] void die(Parts&&... parts) const {
    fail(source_, ":", line_, ": ", std::forward<Parts>(parts)...);
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
  }

  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Consume `c` or die with "expected 'c' " followed by `where` —
  /// formatted only on that failure, never on a clean parse.
  template <typename... Where>
  void expect(char c, const Where&... where) {
    if (!eat(c)) die("expected '", c, "' ", where...);
  }

  [[nodiscard]] std::string_view parse_string(std::string_view what) {
    expect('"', "to open ", what);
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') die("escape sequences are not supported in ", what);
      ++pos_;
    }
    if (pos_ == text_.size()) die("unterminated string in ", what);
    return text_.substr(begin, pos_++ - begin);
  }

  [[nodiscard]] std::uint64_t parse_uint(std::string_view what) {
    skip_ws();
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ == begin) {
      die("expected an unsigned integer for ", what, ", got '",
          text_.substr(begin, std::min<std::size_t>(text_.size() - begin, 12)), "'");
    }
    std::uint64_t v = 0;
    for (std::size_t i = begin; i < pos_; ++i) {
      const std::uint64_t digit = static_cast<std::uint64_t>(text_[i] - '0');
      if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        die(what, " value '", text_.substr(begin, pos_ - begin), "' is out of range");
      }
      v = v * 10 + digit;
    }
    return v;
  }

  /// Non-negative decimal number: digits with an optional ".digits"
  /// fraction (no sign, no exponent — nothing in a request needs them).
  [[nodiscard]] double parse_number(std::string_view what) {
    const std::uint64_t whole = parse_uint(what);
    double v = static_cast<double>(whole);
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const std::size_t begin = pos_;
      double scale = 1.0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        scale /= 10.0;
        v += static_cast<double>(text_[pos_] - '0') * scale;
        ++pos_;
      }
      if (pos_ == begin) die("expected digits after '.' in ", what);
    }
    return v;
  }

  [[nodiscard]] bool parse_bool(std::string_view what) {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    die("expected true or false for ", what);
  }

  void expect_end(std::string_view object) {
    skip_ws();
    if (pos_ != text_.size()) {
      die("trailing content '", text_.substr(pos_), "' after the ", object, " object");
    }
  }

  /// f(), with a nocsched::Error it throws re-raised under the prefix.
  template <typename F>
  decltype(auto) prefixed(F&& f) const {
    try {
      return f();
    } catch (const Error& e) {
      die(e.what());
    }
  }

 private:
  std::string_view text_;
  std::string_view source_;
  std::size_t line_;
  std::size_t pos_ = 0;
};

/// "d695" | "p22810" | "p93791" | "rand:<seed>".
void check_soc_name(Scanner& sc, std::string_view name) {
  for (const std::string& builtin : itc02::builtin_names()) {
    if (name == builtin) return;
  }
  if (starts_with(name, "rand:")) {
    if (all_digits(name.substr(5))) return;
    sc.die("bad \"soc\" random seed in '", name, "' (expected rand:<seed>)");
  }
  sc.die("unknown \"soc\" '", name, "' (expected d695|p22810|p93791 or rand:<seed>)");
}

/// The value of a "links" / "routers" / "procs" key, appended to
/// `faults`; false when `key` is none of the three.  Both wire formats
/// read their fault lists here: a request's "faults" object and a
/// fault-stream event line.
bool parse_fault_list(Scanner& sc, std::string_view key, FaultSpec& faults) {
  auto list = [&](auto&& item) {
    sc.expect('[', "to open \"", key, "\"");
    if (sc.eat(']')) return;
    do {
      item();
    } while (sc.eat(','));
    sc.expect(']', "to close \"", key, "\"");
  };
  if (key == "links") {
    list([&] { faults.links.emplace_back(sc.parse_string("a link")); });
  } else if (key == "routers") {
    list([&] { faults.routers.push_back(sc.parse_uint("a router id")); });
  } else if (key == "procs") {
    list([&] { faults.procs.push_back(sc.parse_uint("a processor module id")); });
  } else {
    return false;
  }
  return true;
}

/// {"links": [...], "routers": [...], "procs": [...]} — the one nested
/// object the request grammar admits.
void parse_faults(Scanner& sc, FaultSpec& faults) {
  sc.expect('{', "to open \"faults\"");
  if (sc.eat('}')) return;
  do {
    const std::string_view key = sc.parse_string("a faults key");
    sc.expect(':', "after key \"", key, "\"");
    if (!parse_fault_list(sc, key, faults)) {
      sc.die("unknown faults key \"", key, "\" (expected links|routers|procs)");
    }
  } while (sc.eat(','));
  sc.expect('}', "to close \"faults\"");
}

/// One fault-stream line: {"cycle": N, "links": [..], "routers": [..],
/// "procs": [..]}.
search::FaultEvent parse_event(std::string_view text, const core::SystemModel& sys,
                               std::string_view name, std::size_t line) {
  Scanner sc(text, name, line);
  search::FaultEvent event;
  FaultSpec spec;
  bool saw_cycle = false;
  sc.expect('{', "to open the event object");
  if (!sc.eat('}')) {
    do {
      const std::string_view key = sc.parse_string("a key");
      sc.expect(':', "after key \"", key, "\"");
      if (key == "cycle") {
        if (saw_cycle) sc.die("duplicate \"cycle\" key");
        saw_cycle = true;
        event.cycle = sc.parse_uint("\"cycle\"");
        if (event.cycle > search::kMaxEventCycle) {
          sc.die("\"cycle\" ", event.cycle, " exceeds the maximum ", search::kMaxEventCycle);
        }
      } else if (!parse_fault_list(sc, key, spec)) {
        sc.die("unknown key \"", key, "\" (expected cycle|links|routers|procs)");
      }
    } while (sc.eat(','));
    sc.expect('}', "to close the event object");
  }
  sc.expect_end("event");
  if (!saw_cycle) sc.die("event has no \"cycle\"");
  if (spec.empty()) sc.die("event breaks nothing (need at least one link, router, or proc)");
  event.increment = sc.prefixed([&] { return spec.resolve(sys, ""); });
  return event;
}

}  // namespace

PlanRequest parse_request(std::string_view text, std::string_view source, std::size_t line) {
  Scanner sc(text, source, line);
  PlanRequest req;
  req.id = cat("line-", line);
  req.origin = cat(source, ":", line);
  std::vector<std::string> seen;
  auto once = [&](std::string_view key) {
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      sc.die("duplicate \"", key, "\" key");
    }
    seen.emplace_back(key);
  };
  sc.expect('{', "to open the request object");
  if (!sc.eat('}')) {
    do {
      const std::string key(sc.parse_string("a key"));
      sc.expect(':', "after key \"", key, "\"");
      once(key);
      if (key == "id") {
        req.id = std::string(sc.parse_string("\"id\""));
      } else if (key == "soc") {
        const std::string_view name = sc.parse_string("\"soc\"");
        check_soc_name(sc, name);
        req.system.soc = std::string(name);
      } else if (key == "soc_file") {
        const std::string_view path = sc.parse_string("\"soc_file\"");
        if (path.empty()) sc.die("\"soc_file\" must not be empty");
        req.system.soc_file = std::string(path);
      } else if (key == "cpu") {
        const std::string_view cpu = sc.parse_string("\"cpu\"");
        if (cpu == "leon") {
          req.system.cpu = itc02::ProcessorKind::kLeon;
        } else if (cpu == "plasma") {
          req.system.cpu = itc02::ProcessorKind::kPlasma;
        } else {
          sc.die("unknown \"cpu\" '", cpu, "' (expected leon|plasma)");
        }
      } else if (key == "procs") {
        const std::uint64_t procs = sc.parse_uint("\"procs\"");
        if (procs > kMaxProcs) {
          sc.die("\"procs\" ", procs, " is out of range (at most ", kMaxProcs, ")");
        }
        req.system.procs = static_cast<int>(procs);
      } else if (key == "wrapper") {
        const std::uint64_t w = sc.parse_uint("\"wrapper\"");
        if (w == 0 || w > kMaxWrapperChains) {
          sc.die("\"wrapper\" must be in [1, ", kMaxWrapperChains, "], got ", w);
        }
        req.system.params.wrapper_chains = static_cast<std::uint32_t>(w);
      } else if (key == "policy") {
        const std::string_view p = sc.parse_string("\"policy\"");
        if (p == "longest") {
          req.system.params.priority = core::PriorityPolicy::kLongestTestFirst;
        } else if (p == "distance") {
          req.system.params.priority = core::PriorityPolicy::kDistanceFirst;
        } else if (p == "shortest") {
          req.system.params.priority = core::PriorityPolicy::kShortestTestFirst;
        } else {
          sc.die("unknown \"policy\" '", p, "' (expected longest|distance|shortest)");
        }
      } else if (key == "choice") {
        const std::string_view c = sc.parse_string("\"choice\"");
        if (c == "greedy") {
          req.system.params.resource_choice = core::ResourceChoice::kFirstAvailable;
        } else if (c == "earliest") {
          req.system.params.resource_choice = core::ResourceChoice::kEarliestCompletion;
        } else {
          sc.die("unknown \"choice\" '", c, "' (expected greedy|earliest)");
        }
      } else if (key == "mesh") {
        const std::string_view mesh = sc.parse_string("\"mesh\"");
        sc.prefixed([&] { req.system.set_mesh(mesh, "\"mesh\""); });
      } else if (key == "power") {
        const double pct = sc.parse_number("\"power\"");
        sc.prefixed([&] { req.set_power(pct, "\"power\""); });
      } else if (key == "search") {
        const std::string_view s = sc.parse_string("\"search\"");
        req.strategy = sc.prefixed([&] { return search::parse_strategy(s); });
      } else if (key == "iters") {
        req.iters = sc.parse_uint("\"iters\"");
      } else if (key == "seed") {
        req.seed = sc.parse_uint("\"seed\"");
      } else if (key == "simulate") {
        req.simulate = sc.parse_bool("\"simulate\"");
      } else if (key == "faults") {
        parse_faults(sc, req.faults);
      } else {
        sc.die("unknown key \"", key,
               "\" (expected id|soc|soc_file|cpu|procs|wrapper|policy|choice|mesh|"
               "power|search|iters|seed|simulate|faults)");
      }
    } while (sc.eat(','));
    sc.expect('}', "to close the request object");
  }
  sc.expect_end("request");
  if (req.simulate && !req.faults.empty()) {
    sc.die("\"simulate\" cannot be combined with \"faults\" (fault requests already "
           "classify the degraded plan)");
  }
  return req;
}

search::FaultStream parse_fault_stream(std::istream& in, const core::SystemModel& sys,
                                       std::string_view name) {
  search::FaultStream stream;
  std::string raw;
  std::size_t line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::string_view text = trim(raw);
    if (text.empty()) continue;
    search::FaultEvent event = parse_event(text, sys, name, line);
    if (!stream.events.empty() && event.cycle <= stream.events.back().cycle) {
      fail(name, ":", line, ": event cycle ", event.cycle,
           " is not after the previous event's cycle ", stream.events.back().cycle,
           " (events must be strictly increasing in time)");
    }
    stream.events.push_back(std::move(event));
  }
  ensure(!stream.events.empty(), name, ": fault stream has no events");
  return stream;
}

search::FaultStream load_fault_stream(const std::string& path, const core::SystemModel& sys) {
  std::ifstream in(path);
  ensure(in.good(), "cannot open fault stream file '", path, "'");
  return parse_fault_stream(in, sys, path);
}

}  // namespace nocsched::engine
