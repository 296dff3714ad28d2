// The planning kernel: the paper's greedy commit rules over the
// planner's scheduling state, file-local behind scheduler.hpp.
//
// Every production plan runs on one per-thread Planner that init()
// re-targets at each call's system, budget, and pair table while
// keeping every buffer's capacity.  plan() prices an order;
// materialize() turns the plan into a Schedule only when a caller wants
// one (the order search prices every candidate by makespan alone and
// materializes just the winner).  A plan is bit-identical — same
// commits, same floating-point comparisons, same Schedule — to the
// independent reference planner that tests/support keeps as the oracle
// (tests/core/kernel_oracle_test.cpp).
//
// The first-available invariant.  Under kFirstAvailable every committed
// session starts at or before the current pass time `t` and is
// non-empty (plan_session enforces duration > 0), so "free throughout
// [t, t + dur)" is a check at `t` alone: an endpoint or circuit channel
// conflicts iff its free-from frontier (the end of its latest session)
// lies past `t`, and a load or power envelope's max over the window is
// its level at `t` (every breakpoint after `t` is a session end, so the
// level only falls).  Each such check gives the identical answer, down
// to the same floating-point comparison, as the general interval check
// earliest-completion probing has to use.  Both kinds of planning share
// one power::StepFunction for power and one per multiplexed channel:
// earliest completion asks its window fits and next breakpoints, first
// available asks fits_at, whose floor folds away the past since `t`
// never decreases.

#include "core/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>

#include "common/error.hpp"
#include "common/interval_set.hpp"
#include "obs/metrics.hpp"
#include "power/step_function.hpp"

namespace nocsched::core {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kNoResource = static_cast<std::size_t>(-1);

std::size_t channel_index(noc::ChannelId c) { return static_cast<std::size_t>(c); }

/// Work tallies of the last plan, flushed to the obs `planner.*`
/// counters.  Plain counters: one kernel lives on one thread.
struct PlannerStats {
  std::uint64_t probes = 0;         ///< pair feasibility probes
  std::uint64_t time_advances = 0;  ///< first-available passes after the first
};

/// The kernel and the scheduling state it mutates.  The state is
/// structure-of-arrays: one flat vector per concern, indexed by endpoint
/// (SystemModel::endpoints(): 0 = ATE in, 1 = ATE out, then processors
/// ascending) or by mesh channel id, so re-targeting is a handful of
/// vector assignments that reuse their capacity — no node churn.
class Planner {
 public:
  /// (Re-)target the kernel at `sys` under `budget` from `table` and
  /// reset the state: processors unavailable until their own test ends
  /// (pretested ones from instant 0), ATE ports free from 0, nothing
  /// committed.  Only the structures `sys.params()` needs are sized: the
  /// channel bookkeeping of its channel model, and the busy-window
  /// interval sets only under kEarliestCompletion.  `table` (and `sys`)
  /// must outlive the kernel's use; `pretested` follows
  /// plan_tests_subset semantics.
  void init(const SystemModel& sys, const power::PowerBudget& budget, const PairTable& table,
            std::span<const int> pretested) {
    sys_ = &sys;
    budget_ = budget;
    table_ = &table;
    const PlannerParams& p = sys.params();
    first_available_ = p.resource_choice == ResourceChoice::kFirstAvailable;
    power_limited_ = budget.is_constrained();
    fastest_ = p.pair_order == PairOrder::kFastestFirst;
    circuit_ = p.channel_model == ChannelModel::kCircuit;
    const std::vector<Endpoint>& eps = sys.endpoints();
    mask_filter_ = eps.size() <= 64;

    proc_resource_.assign(sys.soc().modules.size() + 1, kNoResource);
    available_from_.assign(eps.size(), 0);
    for (std::size_t r = 0; r < eps.size(); ++r) {
      if (!eps[r].is_processor()) continue;
      const int id = eps[r].processor_module;
      proc_resource_[static_cast<std::size_t>(id)] = r;
      if (std::find(pretested.begin(), pretested.end(), id) == pretested.end()) {
        available_from_[r] = kNever;
      }
    }
    free_from_ = available_from_;
    busy_.resize(first_available_ ? 0 : eps.size());
    for (IntervalSet& b : busy_) b.clear();
    const auto channels = static_cast<std::size_t>(sys.mesh().channel_count());
    if (circuit_) {
      channel_busy_.resize(first_available_ ? 0 : channels);
      for (IntervalSet& c : channel_busy_) c.clear();
      channel_free_from_.assign(channels, 0);
    } else {
      channel_load_.resize(channels);
      for (power::StepFunction& c : channel_load_) c.clear();
    }
    profile_.clear();
    ends_.clear();
    commits_.clear();
    stats_ = PlannerStats{};
  }

  /// Plan `order` on the state init() left.  Runs the feasibility
  /// precheck first (every module needs a pair whose power fits the
  /// budget in isolation) and throws on an infeasible module or a stuck
  /// plan.  Orders are not validated here: core::plan_tests* and
  /// core::plan_makespan check them first.
  void plan(const std::vector<int>& order) {
    precheck(order);
    if (first_available_) {
      pending_.assign(order.begin(), order.end());
      if (!pending_.empty()) run_first_available();
    } else {
      run_earliest_completion(order);
    }
    makespan_ = ends_.empty() ? 0 : ends_.back();
    peak_power_ = profile_.peak();
  }

  [[nodiscard]] std::uint64_t makespan() const { return makespan_; }

  [[nodiscard]] const PlannerStats& stats() const { return stats_; }

  /// The last plan as a full Schedule.
  [[nodiscard]] Schedule materialize() const {
    Schedule out;
    out.sessions.reserve(commits_.size());
    for (const CommitRec& rec : commits_) {
      Session s;
      s.module_id = rec.module_id;
      s.source_resource = static_cast<int>(rec.source);
      s.sink_resource = static_cast<int>(rec.sink);
      s.start = rec.start;
      s.end = rec.end;
      s.power = rec.plan->power;
      s.path_in = rec.plan->path_in;
      s.path_out = rec.plan->path_out;
      s.bandwidth_in = rec.plan->bandwidth_in;
      s.bandwidth_out = rec.plan->bandwidth_out;
      out.sessions.push_back(std::move(s));
    }
    std::sort(out.sessions.begin(), out.sessions.end(), [](const Session& a, const Session& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.module_id < b.module_id;
    });
    out.makespan = makespan_;
    out.peak_power = peak_power_;
    out.power_limit = budget_.limit;
    return out;
  }

 private:
  /// One committed session, in execution order.
  struct CommitRec {
    int module_id = 0;
    std::uint32_t source = 0;
    std::uint32_t sink = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    const SessionPlan* plan = nullptr;  ///< into *table_
  };

  struct Candidate {
    std::size_t source = 0;
    std::size_t sink = 0;
    std::uint64_t start = 0;
    const SessionPlan* plan = nullptr;
  };

  void precheck(const std::vector<int>& order) const {
    // Every module offered for planning must have at least one pair
    // whose session power fits the budget in isolation.  (Iterating the
    // order — not the SoC — is what lets the fault-aware replanner plan
    // a surviving subset; for a full order they agree.)
    for (const int id : order) {
      const double cheapest = table_->cheapest_power(id);
      // Negated so a NaN limit fails too; the message (and its module
      // name lookup) is formatted only on failure.
      if (!(cheapest <= budget_.limit)) {
        fail("infeasible: module ", id, " ('", sys_->soc().module(id).name, "') needs at least ",
             cheapest, " power but the budget is ", budget_.limit);
      }
    }
  }

  [[noreturn]] void diagnose_stuck(int module_id, std::uint64_t t) const {
    const itc02::Module& m = sys_->soc().module(module_id);
    fail("planner stuck at t=", t, ": module ", module_id, " ('", m.name,
         "') cannot start any session — the power budget ", budget_.limit,
         " is too tight for the concurrent set, or no interface can reach the core");
  }

  /// Visits the channels of the stimulus leg, then of the response leg,
  /// as visit(channel index, leg bandwidth) while `visit` returns true;
  /// true when it never returned false.
  template <class Visit>
  static bool every_leg_channel(const SessionPlan& plan, Visit visit) {
    for (const noc::ChannelId c : plan.path_in) {
      if (!visit(channel_index(c), plan.bandwidth_in)) return false;
    }
    for (const noc::ChannelId c : plan.path_out) {
      if (!visit(channel_index(c), plan.bandwidth_out)) return false;
    }
    return true;
  }

  /// Book one session: both endpoints, both paths, the power slice, the
  /// end event, and — for a processor's own test — that processor
  /// becoming available at the session's end ("a processor is reused
  /// for test just after it has been successfully tested").
  void commit(int module_id, const Candidate& c) {
    const SessionPlan& plan = *c.plan;
    const Interval iv{c.start, c.start + plan.duration};
    if (!first_available_) {
      busy_[c.source].insert(iv);
      if (c.sink != c.source) busy_[c.sink].insert(iv);
    }
    free_from_[c.source] = std::max(free_from_[c.source], iv.end);
    free_from_[c.sink] = std::max(free_from_[c.sink], iv.end);
    every_leg_channel(plan, [&](std::size_t ch, double bandwidth) {
      if (!circuit_) {
        channel_load_[ch].add(iv, bandwidth);
      } else {
        if (!first_available_) channel_busy_[ch].insert(iv);
        channel_free_from_[ch] = std::max(channel_free_from_[ch], iv.end);
      }
      return true;
    });
    profile_.add(iv, plan.power);
    ends_.insert(std::upper_bound(ends_.begin(), ends_.end(), iv.end), iv.end);
    const std::size_t proc = proc_resource_[static_cast<std::size_t>(module_id)];
    if (proc != kNoResource) {
      // The processor had no sessions of its own yet (its frontier was
      // kNever), so its frontier is its fresh availability.
      available_from_[proc] = iv.end;
      free_from_[proc] = iv.end;
    }
    commits_.push_back(CommitRec{module_id, static_cast<std::uint32_t>(c.source),
                                 static_cast<std::uint32_t>(c.sink), iv.start, iv.end, c.plan});
  }

  /// Both legs of `plan` can start at `t` under the first-available
  /// invariant: no circuit channel is held past `t`, or every channel's
  /// load level at `t` leaves room for the leg's bandwidth.
  [[nodiscard]] bool paths_free_at(const SessionPlan& plan, std::uint64_t t) {
    if (circuit_) {
      return every_leg_channel(
          plan, [&](std::size_t ch, double) { return channel_free_from_[ch] <= t; });
    }
    return every_leg_channel(plan, [&](std::size_t ch, double bandwidth) {
      return channel_load_[ch].fits_at(t, bandwidth, 1.0);
    });
  }

  [[nodiscard]] std::optional<Candidate> probe_first_available(int module_id, std::uint64_t t) {
    // Consider only pairs free *right now*: what makes this the paper's
    // greedy is that it never waits — a busy-but-faster interface that
    // frees moments later loses to a free-but-slower processor, which is
    // the anomaly the paper reports on p22810.  Among simultaneously
    // free pairs, PairOrder decides (nearest hops, the paper's locality
    // emphasis, or shortest session).
    //
    // Every check is a frontier or level check at `t` (the
    // first-available invariant), and the cheap rejects (the endpoint
    // frontiers, which fold in availability, then the duration
    // comparison against the running best) run before any envelope
    // lookup, the one power envelope before the many channel loads.
    //
    // Every pair draws at least the module's cheapest session power, and
    // `level + power` only grows with `power`, so a module whose cheapest
    // session overflows the power envelope at `t` has no pair to probe.
    if (power_limited_ &&
        !profile_.fits_at(t, table_->cheapest_power(module_id), budget_.limit)) {
      return std::nullopt;
    }
    std::optional<Candidate> best;
    int best_hops = 0;
    const bool fastest = fastest_;
    for (const PairChoice& pc : table_->pairs(module_id)) {
      ++stats_.probes;
      if (free_from_[pc.source] > t || (pc.sink != pc.source && free_from_[pc.sink] > t)) {
        continue;
      }
      if (best) {
        // The table is already nearest-first, so under kNearestFirst the
        // first feasible hit is final; under kFastestFirst keep scanning
        // for a shorter session.
        if (!fastest) break;
        if (pc.plan.duration > best->plan->duration) continue;
        if (pc.plan.duration == best->plan->duration && pc.hops >= best_hops) continue;
      }
      if (power_limited_ && !profile_.fits_at(t, pc.plan.power, budget_.limit)) continue;
      if (!paths_free_at(pc.plan, t)) continue;
      best = Candidate{pc.source, pc.sink, t, &pc.plan};
      best_hops = pc.hops;
    }
    return best;
  }

  /// True unless no pair of `module_id` has both endpoint bits set in
  /// `mask` — a sound, state-free screen run before a real probe.
  [[nodiscard]] bool module_maybe_startable(int module_id, std::uint64_t mask) const {
    for (const std::uint64_t m : table_->endpoint_masks(module_id)) {
      if ((m & ~mask) == 0) return true;
    }
    return false;
  }

  /// The paper's greedy: offer every pending module at each time step.
  void run_first_available() {
    // One pass in priority order per instant; starting a session never
    // frees capacity, so a single pass is exhaustive, and the next pass
    // runs at the next session end.
    std::uint64_t t = 0;
    for (;;) {
      // Bit r: endpoint r is free at t (only kept while every endpoint
      // fits the mask).
      std::uint64_t mask = 0;
      if (mask_filter_) {
        for (std::size_t r = 0; r < free_from_.size(); ++r) {
          if (free_from_[r] <= t) mask |= std::uint64_t{1} << r;
        }
      }
      auto it = pending_.begin();
      while (it != pending_.end()) {
        const int module_id = *it;
        // The per-pass mask screens whole modules before their pair loop
        // runs; commits only make endpoints busier within a pass (every
        // session has end > t), so the mask never wrongly rejects.
        if (mask_filter_ && !module_maybe_startable(module_id, mask)) {
          ++it;
          continue;
        }
        if (const auto c = probe_first_available(module_id, t)) {
          commit(module_id, *c);
          it = pending_.erase(it);
          if (mask_filter_) {
            mask &= ~((std::uint64_t{1} << c->source) | (std::uint64_t{1} << c->sink));
            // No endpoint left free: every pair needs one, so no module
            // later in the pass can start.
            if (mask == 0) break;
          }
        } else {
          ++it;
        }
      }
      if (pending_.empty()) break;
      const auto next = std::upper_bound(ends_.begin(), ends_.end(), t);
      if (next == ends_.end()) diagnose_stuck(pending_.front(), t);
      t = *next;
      ++stats_.time_advances;
    }
  }

  /// Earliest start >= `from` of a `len`-cycle window no channel of
  /// `path` has a circuit reservation in: a fixed point that bumps past
  /// any overlapping reservation until no channel moves it.
  [[nodiscard]] std::uint64_t circuit_earliest_path_fit(std::span<const noc::ChannelId> path,
                                                        std::uint64_t from,
                                                        std::uint64_t len) const {
    std::uint64_t t = from;
    bool moved = true;
    while (moved) {
      moved = false;
      for (const noc::ChannelId c : path) {
        const std::uint64_t fit = channel_busy_[channel_index(c)].earliest_fit(t, len);
        if (fit != t) {
          t = fit;
          moved = true;
        }
      }
    }
    return t;
  }

  [[nodiscard]] std::uint64_t earliest_feasible_start(const PairChoice& pc) {
    // Fixed point over the three constraint classes (endpoints, channels,
    // power).  Terminates: t is nondecreasing and each constraint has
    // finitely many busy windows.
    const SessionPlan& plan = pc.plan;
    const std::uint64_t dur = plan.duration;
    std::uint64_t t = std::max(available_from_[pc.source], available_from_[pc.sink]);
    for (;;) {
      const std::uint64_t before = t;
      t = busy_[pc.source].earliest_fit(t, dur);
      if (pc.sink != pc.source) t = busy_[pc.sink].earliest_fit(t, dur);
      if (circuit_) {
        t = circuit_earliest_path_fit(plan.path_in, t, dur);
        t = circuit_earliest_path_fit(plan.path_out, t, dur);
      } else {
        // Bandwidth constraint: advance to the next load breakpoint on
        // either path until the whole window fits on every channel.
        const auto window_fits = [&](std::size_t ch, double bandwidth) {
          return channel_load_[ch].fits(Interval{t, t + dur}, bandwidth, 1.0);
        };
        while (!every_leg_channel(plan, window_fits)) {
          std::optional<std::uint64_t> bump;
          every_leg_channel(plan, [&](std::size_t ch, double) {
            const auto n = channel_load_[ch].next_change_after(t);
            if (n && (!bump || *n < *bump)) bump = n;
            return true;
          });
          NOCSCHED_ASSERT(bump.has_value());  // loads end, so a fit exists
          t = *bump;
        }
      }
      if (!profile_.fits(Interval{t, t + dur}, plan.power, budget_.limit)) {
        const auto bump = profile_.next_change_after(t);
        NOCSCHED_ASSERT(bump.has_value());  // precheck guarantees the tail fits
        t = *bump;
        continue;
      }
      if (t == before) return t;
    }
  }

  void run_earliest_completion(const std::vector<int>& order) {
    // Ablation A1: book each module, in order, into the (pair, start)
    // combination that finishes earliest.
    for (const int module_id : order) {
      std::optional<Candidate> best;
      for (const PairChoice& pc : table_->pairs(module_id)) {
        ++stats_.probes;
        // Unenabled processors have available_from == kNever and are
        // skipped; processors appear earlier in the priority order, so
        // their availability is known by the time plain cores plan.
        if (available_from_[pc.source] == kNever) continue;
        if (pc.sink != pc.source && available_from_[pc.sink] == kNever) continue;
        if (pc.plan.power > budget_.limit) continue;
        const std::uint64_t start = earliest_feasible_start(pc);
        if (!best || start + pc.plan.duration < best->start + best->plan->duration) {
          best = Candidate{pc.source, pc.sink, start, &pc.plan};
        }
      }
      ensure(best.has_value(), "planner: no feasible interface pair for module ", module_id);
      commit(module_id, *best);
    }
  }

  const SystemModel* sys_ = nullptr;
  power::PowerBudget budget_;
  const PairTable* table_ = nullptr;
  bool first_available_ = true;
  bool fastest_ = false;
  bool circuit_ = false;
  /// A finite limit: with none, every (finite) level fits and the
  /// first-available probe skips the power check.
  bool power_limited_ = false;
  bool mask_filter_ = false;  ///< endpoint count fits the 64-bit availability mask

  /// Module id -> its own processor endpoint index (kNoResource for
  /// plain cores): the commit-time availability update.
  std::vector<std::size_t> proc_resource_;

  /// Per endpoint: earliest instant it may serve a session (kNever
  /// until a processor's own test is committed).
  std::vector<std::uint64_t> available_from_;
  /// Per endpoint: max(available_from, end of its latest session) — the
  /// first-available frontier.  Exact only for non-decreasing `t`,
  /// which first-available time is.
  std::vector<std::uint64_t> free_from_;
  std::vector<IntervalSet> busy_;                  // per endpoint (kEarliestCompletion)
  std::vector<IntervalSet> channel_busy_;          // per channel (kCircuit, kEarliestCompletion)
  std::vector<std::uint64_t> channel_free_from_;   // per channel (kCircuit)
  std::vector<power::StepFunction> channel_load_;  // per channel (kMultiplexed)
  power::StepFunction profile_;                    // summed power
  std::vector<std::uint64_t> ends_;                // sorted session ends (multiset semantics)

  std::vector<CommitRec> commits_;
  std::uint64_t makespan_ = 0;
  double peak_power_ = 0.0;
  /// Modules not yet committed, in order (first-available scratch).
  std::vector<int> pending_;

  PlannerStats stats_;
};

/// The one planning entry behind plan_tests* and plan_makespan (inputs
/// already checked): plans `order` on a per-thread kernel that init()
/// re-targets per call and returns the kernel holding the plan.  Its
/// buffers keep their capacity, so a warm thread plans without
/// allocating, and the result stays a pure function of the arguments —
/// init() discards everything the previous plan left behind, even a
/// plan that threw.
const Planner& run_planner(const SystemModel& sys, const power::PowerBudget& budget,
                           const std::vector<int>& order, const PairTable& pairs,
                           std::span<const int> pretested) {
  thread_local Planner kernel;
  kernel.init(sys, budget, pairs, pretested);
  kernel.plan(order);

  // Single flush per plan: the kernel's hot loops touch only its plain
  // tallies, so the disabled path costs one branch here.  The Counter&
  // caches are safe because the registry never destroys a metric, only
  // zeroes it on reset().
  obs::MetricsRegistry& reg = obs::registry();
  if (reg.enabled()) {
    static obs::Counter& runs = reg.counter("planner.runs");
    static obs::Counter& probes = reg.counter("planner.probes");
    static obs::Counter& prechecks = reg.counter("planner.prechecks");
    static obs::Counter& commits = reg.counter("planner.commits");
    static obs::Counter& advances = reg.counter("planner.time_advances");
    runs.inc();
    probes.add(kernel.stats().probes);
    // A plan that returns has checked and committed every module once.
    prechecks.add(order.size());
    commits.add(order.size());
    advances.add(kernel.stats().time_advances);
  }
  return kernel;
}

/// Marks the ids of `order` in per-thread scratch over module ids 1..N
/// (`modules` = N) and returns the marks, or nullptr when some id is
/// unknown or repeats.  The order checks run on every search
/// evaluation, so the happy path neither sorts nor allocates once warm;
/// only a failing order pays for the sort that names its first fault.
const std::vector<std::uint8_t>* mark_distinct_ids(const std::vector<int>& order,
                                                   std::size_t modules) {
  thread_local std::vector<std::uint8_t> seen;
  seen.assign(modules + 1, 0);
  for (const int id : order) {
    if (id < 1 || static_cast<std::size_t>(id) > modules || seen[static_cast<std::size_t>(id)]) {
      return nullptr;
    }
    seen[static_cast<std::size_t>(id)] = 1;
  }
  return &seen;
}

/// plan_tests_with_order's order check: every module exactly once (the
/// SystemModel validated its ids as 1..N).
void check_permutation(const SystemModel& sys, const std::vector<int>& order) {
  const std::size_t modules = sys.soc().modules.size();
  if (order.size() != modules || mark_distinct_ids(order, modules) == nullptr) {
    fail("plan_tests_with_order: order must be a permutation of all module ids");
  }
}

/// check_subset's diagnosis of an order with an unknown or repeated id:
/// the smallest offending id, as the sorted scan meets it.
[[noreturn]] void diagnose_subset_order(const SystemModel& sys, const std::vector<int>& order) {
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ensure(sorted[i] >= 1 && static_cast<std::size_t>(sorted[i]) <= sys.soc().modules.size(),
           "plan_tests_subset: unknown module id ", sorted[i]);
    ensure(i == 0 || sorted[i] != sorted[i - 1], "plan_tests_subset: module ", sorted[i],
           " appears twice in the order");
  }
  NOCSCHED_ASSERT(false);  // mark_distinct_ids rejected the order
}

/// plan_tests_subset's order and pretested checks.
void check_subset(const SystemModel& sys, const std::vector<int>& order,
                  std::span<const int> pretested) {
  const std::size_t modules = sys.soc().modules.size();
  const std::vector<std::uint8_t>* seen = mark_distinct_ids(order, modules);
  if (seen == nullptr) diagnose_subset_order(sys, order);
  for (std::size_t i = 0; i < pretested.size(); ++i) {
    const int id = pretested[i];
    ensure(id >= 1 && static_cast<std::size_t>(id) <= modules && sys.soc().module(id).is_processor,
           "plan_tests_subset: pretested id ", id, " is not a processor module");
    ensure(i == 0 || pretested[i - 1] < id, "plan_tests_subset: pretested ids must be "
           "ascending and unique, got ", id);
    ensure((*seen)[static_cast<std::size_t>(id)] == 0, "plan_tests_subset: pretested processor ",
           id, " also appears in the order");
  }
}

}  // namespace

std::vector<bool> cpu_eligible_modules(const SystemModel& sys, const noc::FaultSet& faults) {
  std::vector<bool> eligible(sys.soc().modules.size(), false);
  for (const itc02::Module& m : sys.soc().modules) {
    for (const Endpoint& ep : sys.endpoints()) {
      if (!ep.is_processor() || ep.processor_module == m.id) continue;
      if (faults.processor_failed(ep.processor_module)) continue;
      if (fits_processor_memory(sys, m.id, ep.cpu)) {
        eligible[static_cast<std::size_t>(m.id - 1)] = true;  // ids are 1..N
        break;
      }
    }
  }
  return eligible;
}

std::vector<int> priority_order(const SystemModel& sys, const std::vector<bool>& eligible,
                                const std::vector<bool>& include) {
  ensure(eligible.size() == sys.soc().modules.size() &&
             include.size() == sys.soc().modules.size(),
         "priority_order: bitmap sizes must match the module count");
  std::vector<int> ids;
  ids.reserve(sys.soc().modules.size());
  for (const itc02::Module& m : sys.soc().modules) {
    if (include[static_cast<std::size_t>(m.id - 1)]) ids.push_back(m.id);
  }

  const PlannerParams& p = sys.params();
  auto key_less = [&](int a, int b) {
    const itc02::Module& ma = sys.soc().module(a);
    const itc02::Module& mb = sys.soc().module(b);
    if (p.processors_first && ma.is_processor != mb.is_processor) {
      return ma.is_processor;  // processors first (cheap bootstrap)
    }
    const bool ea = eligible[static_cast<std::size_t>(a - 1)];
    const bool eb = eligible[static_cast<std::size_t>(b - 1)];
    if (ea != eb) return !ea;  // ATE-only cores ahead of flexible ones
    switch (p.priority) {
      case PriorityPolicy::kDistanceFirst: {
        const int da = sys.distance_to_nearest_endpoint(a);
        const int db = sys.distance_to_nearest_endpoint(b);
        if (da != db) return da < db;
        const std::uint64_t ca = sys.base_test_cycles(a);
        const std::uint64_t cb = sys.base_test_cycles(b);
        if (ca != cb) return ca > cb;  // longer first on ties
        break;
      }
      case PriorityPolicy::kLongestTestFirst: {
        const std::uint64_t ca = sys.base_test_cycles(a);
        const std::uint64_t cb = sys.base_test_cycles(b);
        if (ca != cb) return ca > cb;
        break;
      }
      case PriorityPolicy::kShortestTestFirst: {
        const std::uint64_t ca = sys.base_test_cycles(a);
        const std::uint64_t cb = sys.base_test_cycles(b);
        if (ca != cb) return ca < cb;
        break;
      }
    }
    return a < b;
  };
  std::sort(ids.begin(), ids.end(), key_less);
  return ids;
}

std::vector<int> priority_order(const SystemModel& sys) {
  // A core is "flexible" if at least one processor in the system has
  // the memory to test it; inflexible cores can only use the external
  // tester, so they get the ATE first (machine-eligibility list
  // scheduling: the constrained jobs seed the constrained machine).
  // Computed once as a bitmap: the comparator runs O(n log n) times and
  // must not rescan every endpoint (and every wrapper phase) per call.
  return priority_order(sys, cpu_eligible_modules(sys),
                        std::vector<bool>(sys.soc().modules.size(), true));
}

Schedule plan_tests(const SystemModel& sys, const power::PowerBudget& budget) {
  const PairTable pairs(sys);
  return run_planner(sys, budget, priority_order(sys), pairs, {}).materialize();
}

Schedule plan_tests_with_order(const SystemModel& sys, const power::PowerBudget& budget,
                               const std::vector<int>& order, const PairTable& pairs) {
  check_permutation(sys, order);
  return run_planner(sys, budget, order, pairs, {}).materialize();
}

Schedule plan_tests_subset(const SystemModel& sys, const power::PowerBudget& budget,
                           const std::vector<int>& order, const PairTable& pairs,
                           std::span<const int> pretested) {
  check_subset(sys, order, pretested);
  return run_planner(sys, budget, order, pairs, pretested).materialize();
}

std::uint64_t plan_makespan(const SystemModel& sys, const power::PowerBudget& budget,
                            const std::vector<int>& order, const PairTable& pairs, bool subset,
                            std::span<const int> pretested) {
  if (!subset) {
    check_permutation(sys, order);
    return run_planner(sys, budget, order, pairs, {}).makespan();
  }
  check_subset(sys, order, pretested);
  return run_planner(sys, budget, order, pairs, pretested).makespan();
}

}  // namespace nocsched::core
