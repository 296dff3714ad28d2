// nocsched-lint CLI.
//
//   nocsched-lint [--root DIR] [--compile-commands DIR]
//                 [--backend auto|token|ast] [--format text|json]
//                 [--json-out FILE] [--list-rules] [targets...]
//
// Targets are files or directories relative to --root (default: src).
// Exit status: 0 clean, 1 findings, 2 usage or I/O error.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "lint.hpp"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: nocsched-lint [--root DIR] [--compile-commands DIR]\n"
        "                     [--backend auto|token|ast] [--format text|json]\n"
        "                     [--json-out FILE] [--list-rules] [targets...]\n"
        "Checks the nocsched determinism & concurrency invariants (rules D1-D6, P1-P2, S1).\n"
        "Targets default to src/ under --root.  Exit: 0 clean, 1 findings, 2 error.\n";
  return code;
}

void list_rules(std::ostream& os) {
  os << "D1  no iteration over std::unordered_{map,set,...} in src/ (nondeterministic "
        "order)\n"
        "D2  no nondeterminism sources in src/: rand/random_device/time/clock/chrono "
        "clocks, pointer hashing or ordering (allowlist: src/common/rng.*)\n"
        "D3  search::Strategy subclasses stateless; no 'mutable' in src/search/\n"
        "D4  PairTable/EvalContext/SystemModel/PlanContext parameters by const& "
        "(or &&/const*) outside their owning files\n"
        "D5  src/itc02/: no floating ==/!=, no unchecked narrowing static_cast "
        "(use checked_u64/require_u64/checked_narrow)\n"
        "D6  no timing-dependent control flow in src/core/ or src/search/: no "
        "wall-clock identifiers (now/now_ms/*elapsed*/*deadline*/wall_*) in "
        "if/while/for conditions (allowlist for the clock itself: src/obs/clock.*)\n"
        "P1  no .name()/cat(...)/describe() in ensure(...) message arguments in "
        "src/: they are formatted even when the condition holds\n"
        "P2  src/engine/: cat(...) and std::ostringstream only inside the arguments "
        "of a fail(...)/die(...)/Error(...) call, so the request path formats only on "
        "failure\n"
        "S1  'nocsched-lint: allow(...)' suppressions banned in src/core/, "
        "src/search/ and src/engine/ (cannot itself be suppressed)\n"
        "Suppress elsewhere with: // nocsched-lint: allow(D1) or allow(D1, D4)\n";
}

// Used by the AST merge path only; harmless otherwise.
[[maybe_unused]] std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using nocsched::lint::Diagnostic;

  std::filesystem::path root = ".";
  std::filesystem::path compile_commands;
  std::string backend = "auto";
  std::string format = "text";
  std::string json_out;
  std::vector<std::string> targets;

  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "nocsched-lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") return usage(std::cout, 0);
    if (a == "--list-rules") {
      list_rules(std::cout);
      return 0;
    }
    if (a == "--root") {
      root = value("--root");
    } else if (a == "--compile-commands") {
      compile_commands = value("--compile-commands");
    } else if (a == "--backend") {
      backend = value("--backend");
    } else if (a == "--format") {
      format = value("--format");
    } else if (a == "--json-out") {
      json_out = value("--json-out");
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "nocsched-lint: unknown option '" << a << "'\n";
      return usage(std::cerr, 2);
    } else {
      targets.emplace_back(a);
    }
  }
  if ((backend != "auto" && backend != "token" && backend != "ast") ||
      (format != "text" && format != "json")) {
    return usage(std::cerr, 2);
  }
  if (targets.empty()) targets.emplace_back("src");
  if (!std::filesystem::is_directory(root)) {
    std::cerr << "nocsched-lint: --root " << root << " is not a directory\n";
    return 2;
  }

  std::vector<Diagnostic> diags = nocsched::lint::lint_tree(root, targets);
  std::string backend_used = "token";

#if defined(NOCSCHED_LINT_HAVE_LIBCLANG)
  if (backend != "token") {
    std::filesystem::path db_dir = compile_commands;
    if (db_dir.empty() && std::filesystem::exists(root / "build" / "compile_commands.json")) {
      db_dir = root / "build";
    }
    std::vector<Diagnostic> ast;
    std::string error;
    if (!db_dir.empty() && nocsched::lint::lint_ast(root, db_dir, ast, error)) {
      // AST findings honour the same inline suppressions.
      std::vector<Diagnostic> kept;
      std::string cached_file, cached_text;
      for (Diagnostic& d : ast) {
        if (d.file != cached_file) {
          cached_file = d.file;
          cached_text = slurp(root / d.file);
        }
        std::vector<Diagnostic> one;
        one.push_back(std::move(d));
        one = nocsched::lint::apply_suppressions(cached_text, cached_file, std::move(one));
        for (Diagnostic& k : one) kept.push_back(std::move(k));
      }
      diags.insert(diags.end(), std::make_move_iterator(kept.begin()),
                   std::make_move_iterator(kept.end()));
      backend_used = "token+ast";
    } else if (backend == "ast") {
      std::cerr << "nocsched-lint: AST backend unavailable ("
                << (error.empty() ? "no compilation database" : error)
                << "); falling back to token analysis\n";
    }
  }
#else
  if (backend == "ast") {
    std::cerr << "nocsched-lint: built without libclang; using token analysis\n";
  }
#endif

  // One finding per (file, line, rule): the token and AST passes may
  // both report the same defect at slightly different columns.
  std::sort(diags.begin(), diags.end(), nocsched::lint::diag_less);
  diags.erase(std::unique(diags.begin(), diags.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return a.file == b.file && a.line == b.line && a.rule == b.rule;
                          }),
              diags.end());

  const std::string json = nocsched::lint::format_json(diags, backend_used);
  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary);
    if (!out) {
      std::cerr << "nocsched-lint: cannot write " << json_out << '\n';
      return 2;
    }
    out << json;
  }
  if (format == "json") {
    std::cout << json;
  } else {
    std::cout << nocsched::lint::format_text(diags);
    std::cerr << "nocsched-lint: " << diags.size() << " finding"
              << (diags.size() == 1 ? "" : "s") << " (" << backend_used << " backend)\n";
  }
  return diags.empty() ? 0 : 1;
}
