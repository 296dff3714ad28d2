// Traced layer replay for the plan-server benchmark (perfbench/run.py).
//
// Replays a JSONL request file through the public function of every
// layer the plan server's Engine::execute calls, in the same order and
// with the same arguments, and times each call with steady_clock.  The
// spans live here, around the calls, not inside src/.
//
//   perfbench_layers --requests FILE [--results FILE] [--seconds S]
//   perfbench_layers --results-only --requests FILE --results FILE
//   perfbench_layers --cores N
//
// The traced mode prints one JSON object: per metric its value, unit,
// sample count and quartiles, the layer shares of request time, the
// layers it had to probe, and the serve batch and cache it used.  The
// cache capacity and batch size are engine::ServeOptions' defaults and
// the batch workers are kJobs, the stream phase's --jobs, so the replay
// runs the server's own configuration.  Each pass over the file also
// runs every request through Engine::run (and, per batch,
// Engine::run_batch); the results of the first pass are written to
// --results, one result_json line per request, for run.py to
// byte-compare against the server's replies.  A layer result that
// differs from Engine::run's exits 1.
//
// A layer the workload's requests never call (search on greedy_hot, the
// DES everywhere but simulate_replay, ...) is timed on a probe: a few
// default calls on the workload's own systems, so every per-call figure
// is measured on every workload.  Probe calls count toward no share.
//
// --results-only runs Engine::run over one pass and writes the results.
// --cores times a fixed integer loop on 1 thread and on N threads at
// once and prints N x t(1) / t(N), the effective core count.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/scheduler.hpp"
#include "des/replay.hpp"
#include "engine/context_cache.hpp"
#include "engine/engine.hpp"
#include "engine/request.hpp"
#include "engine/serve.hpp"
#include "noc/fault.hpp"
#include "obs/metrics.hpp"
#include "power/budget.hpp"
#include "search/driver.hpp"
#include "search/eval_context.hpp"
#include "search/replan.hpp"
#include "sim/cross_check.hpp"
#include "sim/validate.hpp"

namespace {

using namespace nocsched;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Time one call in microseconds, keeping its result.
template <typename F>
auto timed(double& us, F&& f) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    us = us_since(t0);
  } else {
    auto out = f();
    us = us_since(t0);
    return out;
  }
}

struct Summary {
  std::size_t n = 0;
  double q1 = 0, median = 0, q3 = 0;
};

/// Quartiles by linear interpolation between order statistics.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  s.q1 = at(0.25);
  s.median = at(0.5);
  s.q3 = at(0.75);
  return s;
}

/// A registry counter's current total (the registry never drops one).
std::uint64_t counter(const char* name) { return obs::registry().counter(name).value(); }

/// Per-call samples and running totals of one traced run.
struct Trace {
  std::map<std::string, std::vector<double>> samples;  ///< per-call values
  std::map<std::string, double> sums;                  ///< ratio numerators/denominators
  std::map<std::string, double> group_us;              ///< request time by layer group
  std::vector<std::string> probed;
  bool probing = false;

  /// A timed layer call: a per-call sample, and (outside probes) time
  /// charged to its group.
  void call(const std::string& metric, const std::string& group, double us) {
    samples[metric].push_back(us);
    if (!probing) group_us[group] += us;
  }
  void sample(const std::string& metric, double value) { samples[metric].push_back(value); }
  void add(const std::string& key, double value) { sums[key] += value; }
  [[nodiscard]] bool called(const std::string& metric) const {
    const auto it = samples.find(metric);
    return it != samples.end() && !it->second.empty();
  }
};

/// The faults a request names, resolved as Engine::execute resolves them
/// (the generator only emits valid references).
noc::FaultSet resolve_faults(const engine::FaultSpec& spec, const core::SystemModel& sys) {
  noc::FaultSet faults;
  for (const std::string& link : spec.links) {
    const auto ends = split(link, ':');
    ensure(ends.size() == 2, "bad link '", link, "'");
    faults.fail_channel(sys.mesh().channel_between(
        static_cast<noc::RouterId>(parse_u64(ends[0], "link")),
        static_cast<noc::RouterId>(parse_u64(ends[1], "link"))));
  }
  for (const std::uint64_t r : spec.routers) faults.fail_router(static_cast<noc::RouterId>(r));
  for (const std::uint64_t p : spec.procs) faults.fail_processor(static_cast<int>(p));
  return faults;
}

search::SearchOptions search_options(const engine::PlanRequest& request) {
  search::SearchOptions opts;
  opts.strategy = request.strategy.value_or(search::StrategyKind::kRestart);
  opts.iters = request.searching() ? request.iters.value_or(256) : 0;
  opts.seed = request.seed;
  opts.jobs = request.search_jobs;
  return opts;
}

power::PowerBudget budget_of(const engine::PlanRequest& request, const core::SystemModel& sys) {
  return request.power_pct
             ? power::PowerBudget::fraction_of_total(sys.soc(), *request.power_pct / 100.0)
             : power::PowerBudget::unconstrained();
}

void record_search(Trace& t, const obs::MetricsSnapshot& m, double search_us) {
  const auto evals = static_cast<double>(m.counter_or("search.evaluations"));
  t.add("search.evaluations", evals);
  t.add("search.seconds", search_us / 1e6);
  t.add("search.improvements", static_cast<double>(m.counter_or("search.improvements")));
  t.add("delta.repriced", static_cast<double>(m.counter_or("delta.repriced_commits")));
  t.add("delta.commits", static_cast<double>(m.counter_or("delta.reused_commits") +
                                             m.counter_or("delta.replayed_commits") +
                                             m.counter_or("delta.repriced_commits")));
}

void record_replay(Trace& t, const des::SimTrace& trace, double replay_us) {
  t.call("des.replay_us", "des", replay_us);
  t.sample("des.events_per_replay", static_cast<double>(trace.events_processed));
  t.add("des.ns", replay_us * 1e3);
  t.add("des.events", static_cast<double>(trace.events_processed));
  if (trace.planned_makespan > 0) {
    t.sample("des.observed_over_planned", static_cast<double>(trace.observed_makespan) /
                                              static_cast<double>(trace.planned_makespan));
  }
}

/// The greedy path's plan, timed, with the planner probes it made.
core::Schedule time_plan(Trace& t, const engine::PlanContext& ctx,
                         const power::PowerBudget& budget) {
  double us = 0;
  const std::uint64_t probes = counter("planner.probes");
  core::Schedule plan = timed(us, [&] {
    return core::plan_tests_with_order(ctx.system(), budget, ctx.scaffold().base_order(),
                                       ctx.pristine_pairs());
  });
  t.call("core.plan_us", "plan", us);
  t.sample("core.planner.probes_per_plan",
           static_cast<double>(counter("planner.probes") - probes));
  return plan;
}

/// The two steps of a context build as the cache runs them: the system
/// (SoC, wrappers, mesh), then the unconstrained EvalContext that prices
/// the pristine PairTable.
void time_build(Trace& t, const engine::SystemSpec& spec) {
  double us = 0;
  const core::SystemModel sys = timed(us, [&] { return engine::build_system(spec); });
  t.call("itc02.build_system_us", "build", us);
  const std::uint64_t pairs = counter("pair_table.pairs_built");
  timed(us, [&] {
    const search::EvalContext scaffold(sys, power::PowerBudget::unconstrained());
    static_cast<void>(scaffold);
  });
  t.call("core.pair_table_build_us", "build", us);
  t.sample("core.pairs_built", static_cast<double>(counter("pair_table.pairs_built") - pairs));
}

/// Engine::execute, one layer call at a time.  `ctx` is the cached
/// context (already acquired and timed by the caller).
engine::PlanResult run_layers(Trace& t, const engine::PlanRequest& request,
                              const engine::ContextCache::Handle& ctx) {
  engine::PlanResult res;
  res.id = request.id;
  const core::SystemModel& sys = ctx->system();
  const power::PowerBudget budget = budget_of(request, sys);
  const search::SearchOptions sopts = search_options(request);
  double us = 0;
  if (!request.faults.empty()) {
    const noc::FaultSet faults = resolve_faults(request.faults, sys);
    search::ReplanResult replanned = timed(
        us, [&] { return search::replan(sys, budget, faults, sopts, ctx->pristine_pairs()); });
    t.call("search.replan_us", "replan", us);
    t.sample("search.pairs_rebuilt", static_cast<double>(replanned.pairs_rebuilt));
    timed(us, [&] { sim::validate_or_throw(sys, replanned.schedule, faults); });
    t.call("sim.validate_us", "validate", us);
    res.schedule = std::move(replanned.schedule);
    res.faulted = true;
    res.dead_modules = std::move(replanned.dead_modules);
    res.untestable_modules = std::move(replanned.untestable_modules);
    res.pairs_rebuilt = replanned.pairs_rebuilt;
    if (request.searching()) res.search_metrics = std::move(replanned.metrics);
  } else if (request.searching()) {
    std::optional<search::EvalContext> own;
    if (budget.is_constrained()) {
      timed(us, [&] { own.emplace(sys, budget, core::PairTable(ctx->pristine_pairs())); });
      t.call("search.context_us", "search", us);
    }
    search::SearchResult result =
        timed(us, [&] { return search::search_orders(own ? *own : ctx->scaffold(), sopts); });
    t.call("search.search_us", "search", us);
    record_search(t, result.metrics, us);
    timed(us, [&] { sim::validate_or_throw(sys, result.best); });
    t.call("sim.validate_us", "validate", us);
    res.schedule = std::move(result.best);
    res.search_metrics = std::move(result.metrics);
  } else {
    res.schedule = time_plan(t, *ctx, budget);
    timed(us, [&] { sim::validate_or_throw(sys, res.schedule); });
    t.call("sim.validate_us", "validate", us);
  }
  if (request.simulate) {
    res.trace = timed(us, [&] { return des::replay(sys, res.schedule); });
    record_replay(t, *res.trace, us);
    res.cross_check = timed(us, [&] { return sim::cross_check(sys, res.schedule, *res.trace); });
    t.call("sim.cross_check_us", "cross_check", us);
  }
  res.context = ctx;
  res.ok = true;
  return res;
}

/// Acquire a request's context through a ContextCache, timing a hit as
/// the cache call and a miss as its two build steps (the cache then
/// builds its own copy, untimed).
engine::ContextCache::Handle acquire(Trace& t, engine::ContextCache& cache,
                                     const engine::SystemSpec& spec) {
  const std::vector<std::string> keys = cache.keys_by_recency();
  if (std::find(keys.begin(), keys.end(), spec.cache_key()) != keys.end()) {
    double us = 0;
    engine::ContextCache::Handle h = timed(us, [&] { return cache.acquire(spec); });
    t.call("engine.cache_hit_us", "engine", us);
    return h;
  }
  time_build(t, spec);
  return cache.acquire(spec);
}

/// Per-call timings for layers the workload's requests never reached:
/// default calls on the workload's first systems.  Kept out of shares.
/// (Every workload builds each of its systems once on the first pass,
/// so the build layer never needs a probe.)
void probe_missing(Trace& t, engine::ContextCache& cache,
                   const std::vector<engine::SystemSpec>& systems) {
  const std::size_t n = std::min<std::size_t>(systems.size(), 8);
  const int rounds = 4;
  t.probing = true;
  auto each = [&](const char* metric, auto&& fn) {
    if (t.called(metric)) return;
    t.probed.emplace_back(metric);
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < n; ++i) fn(i, r);
    }
  };
  auto ctx_of = [&](std::size_t i) { return cache.acquire(systems[i]); };
  double us = 0;
  each("engine.cache_hit_us", [&](std::size_t i, int) {
    static_cast<void>(cache.acquire(systems[i]));
    static_cast<void>(timed(us, [&] { return cache.acquire(systems[i]); }));
    t.call("engine.cache_hit_us", "engine", us);
  });
  each("core.plan_us", [&](std::size_t i, int) {
    static_cast<void>(time_plan(t, *ctx_of(i), power::PowerBudget::unconstrained()));
  });
  each("search.search_us", [&](std::size_t i, int r) {
    const auto ctx = ctx_of(i);
    const core::SystemModel& sys = ctx->system();
    std::optional<search::EvalContext> own;
    timed(us, [&] {
      own.emplace(sys, power::PowerBudget::fraction_of_total(sys.soc(), 0.9),
                  core::PairTable(ctx->pristine_pairs()));
    });
    t.call("search.context_us", "search", us);
    search::SearchOptions opts;
    opts.strategy = search::StrategyKind::kAnneal;
    opts.iters = 32;
    opts.seed = static_cast<std::uint64_t>(r) + 1;
    const search::SearchResult result = timed(us, [&] { return search::search_orders(*own, opts); });
    t.call("search.search_us", "search", us);
    record_search(t, result.metrics, us);
  });
  each("search.replan_us", [&](std::size_t i, int) {
    const auto ctx = ctx_of(i);
    const core::SystemModel& sys = ctx->system();
    noc::FaultSet faults;
    faults.fail_channel(sys.mesh().channel_between(0, 1));
    const search::ReplanResult replanned = timed(us, [&] {
      return search::replan(sys, power::PowerBudget::unconstrained(), faults,
                            search::SearchOptions{}, ctx->pristine_pairs());
    });
    t.call("search.replan_us", "replan", us);
    t.sample("search.pairs_rebuilt", static_cast<double>(replanned.pairs_rebuilt));
  });
  each("des.replay_us", [&](std::size_t i, int) {
    const auto ctx = ctx_of(i);
    const core::Schedule plan =
        core::plan_tests_with_order(ctx->system(), power::PowerBudget::unconstrained(),
                                    ctx->scaffold().base_order(), ctx->pristine_pairs());
    const des::SimTrace trace = timed(us, [&] { return des::replay(ctx->system(), plan); });
    record_replay(t, trace, us);
    static_cast<void>(timed(us, [&] { return sim::cross_check(ctx->system(), plan, trace); }));
    t.call("sim.cross_check_us", "cross_check", us);
  });
  t.probing = false;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  ensure(in.good(), "cannot read ", path);
  std::vector<std::string> lines;
  std::string raw;
  while (std::getline(in, raw)) {
    if (!trim(raw).empty()) lines.emplace_back(trim(raw));
  }
  return lines;
}

std::vector<engine::PlanRequest> parse_all(const std::vector<std::string>& lines) {
  std::vector<engine::PlanRequest> requests;
  requests.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    requests.push_back(engine::parse_request(lines[i], "stdin", i + 1));
  }
  return requests;
}

void write_results(const std::string& path, const std::vector<std::string>& results) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const std::string& r : results) out << r << "\n";
  ensure(out.good(), "cannot write ", path);
}

/// Batch workers of the replay's Engine::run_batch: run.py's STREAM_JOBS.
constexpr unsigned kJobs = 2;

struct Options {
  std::string requests;
  std::string results;
  double seconds = 1.0;
  bool results_only = false;
  unsigned cores = 0;
};

int results_only(const Options& opt) {
  const std::vector<engine::PlanRequest> requests = parse_all(read_lines(opt.requests));
  engine::Engine eng(engine::EngineOptions{engine::ServeOptions{}.cache_capacity, 1});
  std::vector<std::string> results;
  for (const engine::PlanRequest& r : requests) results.push_back(engine::result_json(eng.run(r)));
  write_results(opt.results, results);
  return 0;
}

/// A fixed integer loop (xorshift), the same work on every thread.
constexpr std::uint64_t kSpinWork = 20'000'000;
std::uint64_t spin(std::uint64_t work) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t i = 0; i < work; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

int cores(const Options& opt) {
  std::vector<std::uint64_t> sink(opt.cores + 1);
  const Clock::time_point t0 = Clock::now();
  sink[opt.cores] = spin(kSpinWork);
  const double one = us_since(t0);
  const Clock::time_point t1 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < opt.cores; ++i) {
      threads.emplace_back([&sink, i] { sink[i] = spin(kSpinWork); });
    }
    for (std::thread& th : threads) th.join();
  }
  const double all = us_since(t1);
  std::uint64_t check = 0;
  for (const std::uint64_t s : sink) check ^= s;
  std::printf("{\"threads\": %u, \"one_thread_us\": %.3f, \"all_threads_us\": %.3f, "
              "\"effective_cores\": %.4f, \"check\": %llu}\n",
              opt.cores, one, all, opt.cores * one / all,
              static_cast<unsigned long long>(check & 1));
  return 0;
}

int traced(const Options& opt) {
  obs::registry().set_enabled(true);
  const std::vector<std::string> lines = read_lines(opt.requests);
  ensure(!lines.empty(), opt.requests, " holds no requests");

  const engine::ServeOptions serve;
  Trace t;
  engine::ContextCache cache(serve.cache_capacity);
  engine::Engine eng(engine::EngineOptions{serve.cache_capacity, 1});
  engine::Engine serial(engine::EngineOptions{serve.cache_capacity, 1});
  engine::Engine batched(engine::EngineOptions{serve.cache_capacity, kJobs});
  std::vector<engine::SystemSpec> systems;
  std::vector<std::string> first_results;
  double run_us_total = 0, inside_us_total = 0, serial_us = 0, batch_us = 0;
  std::uint64_t hits = 0, misses = 0;
  int passes = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      double us = 0;
      const engine::PlanRequest request =
          timed(us, [&] { return engine::parse_request(lines[i], "stdin", i + 1); });
      t.call("engine.parse_us", "engine", us);
      if (passes == 0) {
        const std::string key = request.system.cache_key();
        if (std::none_of(systems.begin(), systems.end(),
                         [&](const engine::SystemSpec& s) { return s.cache_key() == key; })) {
          systems.push_back(request.system);
        }
      }
      // Layers inside Engine::run, then the serializer outside it.
      auto layers = [&] {
        const auto before = t.group_us;
        const engine::ContextCache::Stats s0 = cache.stats();
        const engine::ContextCache::Handle ctx = acquire(t, cache, request.system);
        const engine::ContextCache::Stats s1 = cache.stats();
        if (passes == 0) {
          hits += s1.hits - s0.hits;
          misses += s1.misses - s0.misses;
        }
        const engine::PlanResult layered = run_layers(t, request, ctx);
        for (const auto& [group, total] : t.group_us) {
          const auto it = before.find(group);
          inside_us_total += total - (it == before.end() ? 0.0 : it->second);
        }
        std::string out = timed(us, [&] { return engine::result_json(layered); });
        t.call("engine.serialize_us", "engine", us);
        return out;
      };
      auto whole = [&] {
        const engine::PlanResult reference = timed(us, [&] { return eng.run(request); });
        run_us_total += us;
        return engine::result_json(reference);
      };
      // Alternate which side runs first, so neither always finds the
      // request's data warm in the CPU caches.
      std::string layered_json, json;
      if (passes % 2 == 0) {
        layered_json = layers();
        json = whole();
      } else {
        json = whole();
        layered_json = layers();
      }
      if (json != layered_json) {
        std::cerr << "perfbench_layers: layer replay differs from Engine::run on line " << i + 1
                  << "\n  layers: " << layered_json << "\n  engine: " << json << "\n";
        return 1;
      }
      if (passes == 0) first_results.push_back(json);
    }
    // Serial Engine::run against Engine::run_batch, batch by batch.
    const std::vector<engine::PlanRequest> requests = parse_all(lines);
    for (std::size_t b = 0; b < requests.size(); b += serve.batch) {
      const std::vector<engine::PlanRequest> part(
          requests.begin() + static_cast<std::ptrdiff_t>(b),
          requests.begin() +
              static_cast<std::ptrdiff_t>(std::min(b + serve.batch, requests.size())));
      for (const engine::PlanRequest& r : part) {
        double us = 0;
        static_cast<void>(timed(us, [&] { return serial.run(r); }));
        serial_us += us;
      }
      double us = 0;
      static_cast<void>(timed(us, [&] { return batched.run_batch(part); }));
      batch_us += us;
    }
    ++passes;
  } while (us_since(start) < opt.seconds * 1e6);
  write_results(opt.results, first_results);

  double groups_total = 0;
  for (const auto& [group, total] : t.group_us) groups_total += total;
  probe_missing(t, cache, systems);

  struct Metric {
    double value;
    const char* unit;
    Summary s;
  };
  std::map<std::string, Metric> out;
  const std::map<std::string, const char*> units = {
      {"engine.parse_us", "us"},         {"engine.cache_hit_us", "us"},
      {"engine.serialize_us", "us"},     {"itc02.build_system_us", "us"},
      {"core.pair_table_build_us", "us"}, {"core.pairs_built", "count"},
      {"core.plan_us", "us"},            {"core.planner.probes_per_plan", "count"},
      {"sim.validate_us", "us"},         {"sim.cross_check_us", "us"},
      {"search.context_us", "us"},       {"search.search_us", "us"},
      {"search.replan_us", "us"},        {"search.pairs_rebuilt", "count"},
      {"des.replay_us", "us"},           {"des.events_per_replay", "count"},
      {"des.observed_over_planned", "ratio"}};
  for (const auto& [name, unit] : units) {
    const Summary s = summarize(t.samples[name]);
    out[name] = Metric{s.median, unit, s};
  }
  auto ratio = [&](const char* num, const char* den) {
    const double d = t.sums[den];
    return d > 0 ? t.sums[num] / d : 0.0;
  };
  out["search.evals_per_s"] = {ratio("search.evaluations", "search.seconds"), "1/s", {}};
  out["search.improve_share"] = {ratio("search.improvements", "search.evaluations"), "ratio", {}};
  out["search.delta_reprice_share"] = {ratio("delta.repriced", "delta.commits"), "ratio", {}};
  out["des.ns_per_event"] = {ratio("des.ns", "des.events"), "ns", {}};
  out["engine.cache_hit_ratio"] = {
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
      "ratio",
      {}};
  out["engine.batch_speedup"] = {batch_us > 0 ? serial_us / batch_us : 0.0, "x", {}};
  out["engine.unattributed_share"] = {run_us_total > 0 ? 1.0 - inside_us_total / run_us_total : 0.0,
                                      "ratio",
                                      {}};

  std::printf("{\"passes\": %d, \"requests\": %zu, \"systems\": %zu, \"jobs\": %u, "
              "\"batch\": %zu, \"cache\": %zu, \"metrics\": {",
              passes, lines.size(), systems.size(), kJobs, serve.batch, serve.cache_capacity);
  const char* sep = "";
  for (const auto& [name, m] : out) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\", \"n\": %zu, \"q1\": %.9g, "
                "\"median\": %.9g, \"q3\": %.9g}",
                sep, name.c_str(), m.value, m.unit, m.s.n, m.s.q1, m.s.median, m.s.q3);
    sep = ", ";
  }
  std::printf("}, \"shares\": {");
  sep = "";
  for (const auto& [group, total] : t.group_us) {
    std::printf("%s\"%s\": %.6f", sep, group.c_str(), groups_total > 0 ? total / groups_total : 0.0);
    sep = ", ";
  }
  std::printf("}, \"probed\": [");
  sep = "";
  for (const std::string& p : t.probed) {
    std::printf("%s\"%s\"", sep, p.c_str());
    sep = ", ";
  }
  std::printf("]}\n");
  return 0;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      ensure(i + 1 < argc, arg, " needs a value");
      return argv[++i];
    };
    if (arg == "--requests") {
      opt.requests = value();
    } else if (arg == "--results") {
      opt.results = value();
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--results-only") {
      opt.results_only = true;
    } else if (arg == "--cores") {
      opt.cores = static_cast<unsigned>(parse_u64(value(), "--cores"));
    } else {
      fail("unknown argument ", arg);
    }
  }
  ensure(opt.cores > 0 || !opt.requests.empty(), "--requests FILE is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    if (opt.cores > 0) return cores(opt);
    if (opt.results_only) return results_only(opt);
    return traced(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << e.what() << "\n";
    return 2;
  }
}
