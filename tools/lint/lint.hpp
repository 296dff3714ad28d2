#pragma once
// nocsched-lint: project-specific static analysis for the scheduler's
// determinism and concurrency invariants.
//
// The repo's contract — bit-identical schedules at any --jobs count,
// byte-reproducible fault detours — rests on coding invariants that no
// compiler flag checks.  This library encodes them as rules over a
// token stream (always available) and, when libclang is present, a
// clang AST pass with real type information (see ast_backend.cpp):
//
//   D1  no iteration over std::unordered_{map,set,multimap,multiset}
//       in src/ — hash-table order is nondeterministic and must never
//       feed schedules, reports, or reductions
//   D2  no nondeterminism sources in src/: std::rand/srand,
//       std::random_device, time()/clock()/chrono clocks, or
//       hashing/ordering by pointer value (std::hash<T*>, std::less<T*>)
//       — all randomness flows through the seeded nocsched::Rng
//   D3  search::Strategy subclasses are stateless: no non-const
//       non-static data members, and no `mutable` anywhere in
//       src/search/ — one strategy instance is shared by all threads
//   D4  core::PairTable / search::EvalContext / core::SystemModel /
//       engine::PlanContext are passed by const& (or &&/const*)
//       outside their owning files — they are shared immutable by
//       design; a by-value copy on a hot path or a mutable ref aliasing
//       a shared table breaks the model
//   D5  src/itc02/ parser code: no floating ==/!= and no unchecked
//       narrowing static_casts (counts must flow through checked_u64 /
//       require_u64 / nocsched::checked_narrow)
//   D6  no timing-dependent control flow in src/core/ or src/search/:
//       if/while/for conditions must not read wall-clock values
//       (`now`, `now_ms`, `*elapsed*`, `*deadline*`, `wall_*`) — time
//       may be recorded (obs::Span, "wall." metrics, via src/obs/'s
//       sanctioned clock) but never branched on in the deterministic
//       zones
//   P1  no string building (`.name()`, `cat(...)`, `describe()`) in
//       the message arguments of nocsched::ensure in src/ — they are
//       evaluated even when the condition holds; hot preconditions
//       format only on failure (`if (!cond) fail(...)`)
//   P2  in src/engine/, `cat(...)` and std::ostringstream appear only
//       inside the argument list of a fail(...), die(...) or Error(...)
//       call — every served request runs the engine's parse, cache and
//       serialize path, which builds its text with appends and
//       std::to_chars and formats through a stream only on failure
//   S1  `nocsched-lint: allow(...)` suppressions are banned in
//       src/core/, src/search/ and src/engine/ (the determinism-critical
//       zones); S1 itself cannot be suppressed
//
// Inline suppression: `// nocsched-lint: allow(D1)` (or a comma list)
// silences matching findings on its own line, or on the next line when
// the comment stands alone on a line.

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace nocsched::lint {

struct Diagnostic {
  std::string file;  ///< repo-relative path with '/' separators
  int line = 0;
  int col = 0;
  std::string rule;     ///< "D1".."D6", "P1", "P2", "S1"
  std::string message;  ///< human-readable explanation
};

/// Deterministic ordering: (file, line, col, rule).
[[nodiscard]] bool diag_less(const Diagnostic& a, const Diagnostic& b);

/// All token-level findings for one file.  `rel_path` is the
/// repo-relative path ('/'-separated) used for rule scoping; `text` is
/// the file's contents.  Suppressions are already applied.
[[nodiscard]] std::vector<Diagnostic> lint_source(std::string_view rel_path,
                                                  std::string_view text);

/// Rule-ids suppressible at `rel_path` whose allow(...) comments were
/// honoured; exposed for the linter's own tests.
[[nodiscard]] bool rule_applies(std::string_view rule, std::string_view rel_path);

/// Lint one on-disk file under `root` (token backend).
[[nodiscard]] std::vector<Diagnostic> lint_file(const std::filesystem::path& root,
                                                const std::filesystem::path& file);

/// Recursively collect the C++ sources under root/<target> for every
/// target (default: {"src"}), lint each, and return the merged,
/// deterministically sorted findings.
[[nodiscard]] std::vector<Diagnostic> lint_tree(const std::filesystem::path& root,
                                                const std::vector<std::string>& targets);

/// `file:line:col: [rule] message` lines, one per finding.
[[nodiscard]] std::string format_text(const std::vector<Diagnostic>& diags);

/// {"findings": [...], "count": N} with stable field order.
[[nodiscard]] std::string format_json(const std::vector<Diagnostic>& diags,
                                      std::string_view backend);

#if defined(NOCSCHED_LINT_HAVE_LIBCLANG)
/// AST-backend findings (rules D1/D4) for every translation unit in the
/// compilation database at `build_dir`, restricted to files under
/// root/src.  Returns false (and leaves `out` untouched) when the
/// database cannot be loaded.  Suppressions are NOT yet applied.
[[nodiscard]] bool lint_ast(const std::filesystem::path& root,
                            const std::filesystem::path& build_dir,
                            std::vector<Diagnostic>& out, std::string& error);
#endif

/// Apply inline suppressions from `text` to externally produced
/// findings for the same file (used to filter AST-backend output).
[[nodiscard]] std::vector<Diagnostic> apply_suppressions(std::string_view text,
                                                         std::string_view rel_path,
                                                         std::vector<Diagnostic> diags);

}  // namespace nocsched::lint
