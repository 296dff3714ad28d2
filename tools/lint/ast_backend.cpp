// libclang (clang-c) backend: type-aware passes for the rules token
// analysis cannot fully cover — D1 (range-for over a container whose
// unordered type was declared in another file or deduced) and D4
// (parameter types resolved through typedefs/elaborated specifiers).
//
// This file is compiled only when CMake finds clang-c/Index.h and a
// libclang to link (NOCSCHED_LINT_HAVE_LIBCLANG); the token backend is
// always available as the fallback, so the linter degrades gracefully
// on machines without clang.  Translation units and flags come from the
// compilation database (compile_commands.json) exported by the root
// CMakeLists.

#if defined(NOCSCHED_LINT_HAVE_LIBCLANG)

#include <clang-c/CXCompilationDatabase.h>
#include <clang-c/Index.h>

#include <algorithm>
#include <string>

#include "lint.hpp"

namespace nocsched::lint {

namespace {

std::string to_str(CXString s) {
  const char* c = clang_getCString(s);
  std::string out = c ? c : "";
  clang_disposeString(s);
  return out;
}

bool contains(const std::string& hay, std::string_view needle) {
  return hay.find(needle) != std::string::npos;
}

struct VisitCtx {
  std::filesystem::path root;
  std::vector<Diagnostic>* out = nullptr;
};

// Repo-relative '/'-separated path for the cursor, or "" when the
// location is outside the repo (system headers, other projects).
std::string rel_path_of(const VisitCtx& ctx, CXSourceLocation loc, int* line, int* col) {
  CXFile file;
  unsigned l = 0, c = 0;
  clang_getExpansionLocation(loc, &file, &l, &c, nullptr);
  if (!file) return "";
  *line = static_cast<int>(l);
  *col = static_cast<int>(c);
  std::error_code ec;
  const std::filesystem::path p =
      std::filesystem::weakly_canonical(to_str(clang_getFileName(file)), ec);
  if (ec) return "";
  const std::filesystem::path rel = p.lexically_relative(ctx.root);
  const std::string out = rel.generic_string();
  if (out.empty() || out[0] == '.') return "";  // outside the repo
  return out;
}

std::string type_spelling(CXType t) { return to_str(clang_getTypeSpelling(clang_getCanonicalType(t))); }

bool is_unordered(const std::string& spelling) {
  return contains(spelling, "unordered_map") || contains(spelling, "unordered_set") ||
         contains(spelling, "unordered_multimap") || contains(spelling, "unordered_multiset");
}

// The shared immutable types D4 protects, keyed by canonical-spelling
// fragment; owner prefixes mirror rules.cpp.
struct SharedType {
  const char* fragment;
  const char* display;
  const char* owner_prefix;
};
constexpr SharedType kSharedTypes[] = {
    {"core::PairTable", "PairTable", "src/core/pair_table."},
    {"search::EvalContext", "EvalContext", "src/search/eval_context."},
    {"core::SystemModel", "SystemModel", "src/core/system_model."},
    {"engine::PlanContext", "PlanContext", "src/engine/context_cache."},
};

// First child expression of a cursor (used to find a range-for's range
// initializer).
CXChildVisitResult first_expr_visitor(CXCursor c, CXCursor, CXClientData data) {
  if (clang_isExpression(clang_getCursorKind(c))) {
    *static_cast<CXCursor*>(data) = c;
    return CXChildVisit_Break;
  }
  return CXChildVisit_Continue;
}

void check_range_for(const VisitCtx& ctx, CXCursor c) {
  const CXSourceLocation loc = clang_getCursorLocation(c);
  if (clang_Location_isInSystemHeader(loc)) return;
  int line = 0, col = 0;
  const std::string rel = rel_path_of(ctx, loc, &line, &col);
  if (rel.empty() || !rule_applies("D1", rel)) return;

  CXCursor range = clang_getNullCursor();
  clang_visitChildren(c, first_expr_visitor, &range);
  if (clang_Cursor_isNull(range)) return;
  CXType t = clang_getCanonicalType(clang_getCursorType(range));
  if (t.kind == CXType_LValueReference || t.kind == CXType_RValueReference) {
    t = clang_getPointeeType(t);
  }
  const std::string spelling = type_spelling(t);
  if (!is_unordered(spelling)) return;
  ctx.out->push_back({rel, line, col, "D1",
                      "range-for over unordered container (" + spelling +
                          "): hash-table iteration order is nondeterministic; copy into a "
                          "sorted container first"});
}

void check_param(const VisitCtx& ctx, CXCursor c) {
  const CXSourceLocation loc = clang_getCursorLocation(c);
  if (clang_Location_isInSystemHeader(loc)) return;
  int line = 0, col = 0;
  const std::string rel = rel_path_of(ctx, loc, &line, &col);
  if (rel.empty() || !rule_applies("D4", rel)) return;

  const CXType canonical = clang_getCanonicalType(clang_getCursorType(c));
  for (const SharedType& ty : kSharedTypes) {
    if (rel.rfind(ty.owner_prefix, 0) == 0) continue;
    const std::string name(ty.display);
    if (canonical.kind == CXType_LValueReference || canonical.kind == CXType_Pointer) {
      const CXType pointee = clang_getPointeeType(canonical);
      if (!contains(type_spelling(pointee), ty.fragment)) continue;
      if (clang_isConstQualifiedType(pointee)) return;
      ctx.out->push_back({rel, line, col, "D4",
                          name + " parameter by non-const reference/pointer: shared planning "
                                 "state is immutable by contract, take const " +
                              name + "&"});
      return;
    }
    if (canonical.kind == CXType_RValueReference) return;
    if (contains(type_spelling(canonical), ty.fragment)) {
      ctx.out->push_back({rel, line, col, "D4",
                          name + " parameter by value copies a shared table on every call: "
                                 "take const " +
                              name + "& (or " + name + "&& for an owning sink)"});
      return;
    }
  }
}

CXChildVisitResult visitor(CXCursor c, CXCursor, CXClientData data) {
  const VisitCtx& ctx = *static_cast<const VisitCtx*>(data);
  const CXCursorKind kind = clang_getCursorKind(c);
  if (kind == CXCursor_CXXForRangeStmt) check_range_for(ctx, c);
  if (kind == CXCursor_ParmDecl) check_param(ctx, c);
  return CXChildVisit_Recurse;
}

}  // namespace

bool lint_ast(const std::filesystem::path& root, const std::filesystem::path& build_dir,
              std::vector<Diagnostic>& out, std::string& error) {
  CXCompilationDatabase_Error db_err = CXCompilationDatabase_NoError;
  CXCompilationDatabase db =
      clang_CompilationDatabase_fromDirectory(build_dir.string().c_str(), &db_err);
  if (db_err != CXCompilationDatabase_NoError) {
    error = "no compilation database under " + build_dir.string();
    return false;
  }

  std::error_code ec;
  VisitCtx ctx;
  ctx.root = std::filesystem::weakly_canonical(root, ec);
  std::vector<Diagnostic> found;
  ctx.out = &found;

  CXIndex index = clang_createIndex(/*excludeDeclarationsFromPCH=*/0,
                                    /*displayDiagnostics=*/0);
  CXCompileCommands cmds = clang_CompilationDatabase_getAllCompileCommands(db);
  const unsigned n = clang_CompileCommands_getSize(cmds);
  unsigned parsed = 0;
  for (unsigned i = 0; i < n; ++i) {
    CXCompileCommand cmd = clang_CompileCommands_getCommand(cmds, i);
    const std::string file = to_str(clang_CompileCommand_getFilename(cmd));
    // Only TUs inside the repo's src/ tree matter for the D-rules; the
    // lint tool itself and the test suites are out of scope.
    const std::filesystem::path frel =
        std::filesystem::weakly_canonical(file, ec).lexically_relative(ctx.root);
    if (frel.generic_string().rfind("src/", 0) != 0) continue;

    std::vector<std::string> args;
    const unsigned nargs = clang_CompileCommand_getNumArgs(cmd);
    for (unsigned a = 0; a < nargs; ++a) {
      args.push_back(to_str(clang_CompileCommand_getArg(cmd, a)));
    }
    std::vector<const char*> argv;
    argv.reserve(args.size());
    for (const std::string& a : args) argv.push_back(a.c_str());

    CXTranslationUnit tu = nullptr;
    const CXErrorCode code = clang_parseTranslationUnit2FullArgv(
        index, nullptr, argv.data(), static_cast<int>(argv.size()), nullptr, 0,
        CXTranslationUnit_None, &tu);
    if (code != CXError_Success || tu == nullptr) continue;
    ++parsed;
    clang_visitChildren(clang_getTranslationUnitCursor(tu), visitor, &ctx);
    clang_disposeTranslationUnit(tu);
  }
  clang_CompileCommands_dispose(cmds);
  clang_disposeIndex(index);
  clang_CompilationDatabase_dispose(db);

  if (parsed == 0) {
    error = "compilation database had no parsable src/ translation units";
    return false;
  }
  std::sort(found.begin(), found.end(), diag_less);
  found.erase(std::unique(found.begin(), found.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return a.file == b.file && a.line == b.line && a.rule == b.rule;
                          }),
              found.end());
  out.insert(out.end(), found.begin(), found.end());
  return true;
}

}  // namespace nocsched::lint

#endif  // NOCSCHED_LINT_HAVE_LIBCLANG
