#pragma once
// The plan server: a long-lived loop reading JSONL PlanRequests and
// emitting JSONL PlanResults, one object per line, in input order.
//
// Malformed lines become per-request error objects ({"id": ...,
// "ok": false, "error": "<source>:<line>: ..."}) — the process never
// dies on bad input.  Requests are executed in batches through
// Engine::run_batch, so result bytes are independent of batch size,
// cache state, and worker count (the engine's determinism contract).
// Instrumented through the obs layer under serve.* (requests, results,
// errors, batches, cache hits/misses/evictions/promotions) with wall time in the
// wall.serve.* namespace, which the byte-stable outputs drop.

#include <cstddef>
#include <iosfwd>
#include <string>

#include "engine/engine.hpp"

namespace nocsched::engine {

struct ServeOptions {
  std::size_t batch = 64;           ///< requests executed per engine batch
  std::size_t cache_capacity = 32;  ///< resident PlanContexts, 2Q-evicted beyond that
  unsigned jobs = 0;                ///< batch workers (0 = hardware threads)
  std::string source = "stdin";     ///< name in diagnostics ("<source>:<line>: ...")
};

/// One result line (no trailing newline): the ok object or the error
/// object, depending on result.ok.  Deterministic fields only — cache
/// and timing activity never reaches result bytes.
[[nodiscard]] std::string result_json(const PlanResult& result);

/// The error-object form for a line that failed before reaching the
/// engine (parse errors).
[[nodiscard]] std::string error_json(const std::string& id, const std::string& message);

/// Serve until EOF on `in`.  Returns 0; per-request failures are
/// reported in-band as error objects.
int serve(std::istream& in, std::ostream& out, const ServeOptions& options);

}  // namespace nocsched::engine
