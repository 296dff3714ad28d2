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
// One channel state.  Every leg books a draw on its channels' loads
// (capacity 1.0) under either ChannelModel: its bandwidth when streams
// are multiplexed, the whole 1.0 when it holds a circuit.  Circuit
// levels are then whole numbers, so a load that fits one more full draw
// is a channel no circuit holds; PairTable never offers a circuit pair
// whose two legs cross one channel, so a session never blocks itself.
//
// The first-available invariant.  Under kFirstAvailable every session
// starts at the current pass time `t` and is non-empty (plan_session
// enforces duration > 0), so "free throughout [t, t + dur)" is a check at
// `t` alone: an endpoint conflicts iff its free-from frontier (the end of
// its latest session) lies past `t`, and a load or power envelope's max
// over the window is its level at `t` (every breakpoint after `t` is a
// session end, so the level only falls).  Each such check gives the
// identical answer, down to the same floating-point comparison, as the
// general interval check earliest-completion probing has to use.
//
// The pass ledger.  Every commit starts at `t`, and every session end
// becomes a later pass time (time advances to the next end) unless the
// plan finishes first, so every breakpoint of the power envelope and of
// each channel load lies at a pass time.  Each envelope is
// therefore a PassLane, not a step function: a folded `level` and the
// `step` of the pass it was last booked at, that instant's deltas summed
// in call order.  A commit adds +value to the power step and to the step
// of each leg channel; a check reads level + step; a time advance
// applies, as -value, the ends landing on the new `t` in commit order,
// read from the sorted (end, commit index) log that also gives the
// makespan and the residual bound.  A lane folds its step into its level
// (and its peak) when it is first booked at a later pass; a lane left
// alone holds level + step at every pass in between.
//
// Why the doubles are identical.  A step function (and the map-based
// reference planner in tests/support) sums the deltas landing at one
// instant in call order, then left-folds those sums in time order.  At a
// pass time those deltas are first the ends of sessions committed
// earlier, in commit order (each end was booked at its commit), then
// this pass's starts: the ledger makes the same additions in the same
// order.  The peak power matches because every breakpoint after the last
// pass is an end, which can only lower the level (rounding is monotone).
// Earliest-completion planning (ablation A1) books sessions anywhere on
// the timeline and keeps power::StepFunction envelopes for its window
// fits instead.
//
// The residual bound.  Given a cutoff, a first-available plan stops at
// the start of the first pass whose lower bound on the final makespan
// reaches it.  Every session still to come starts at or after the pass
// time `t`, and an endpoint serves one session at a time, so each
// endpoint r must still run, one after another and no earlier than
// max(t, its free-from frontier), every pending module that uses r on
// all of its pairs, each for at least its shortest session.  The bound
// is the latest of those finishes and the latest committed end; it
// never exceeds the makespan the full plan would reach.

#include "core/scheduler.hpp"

#include <algorithm>
#include <bit>
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
  bool pruned = false;              ///< the plan stopped at its cutoff
};

/// One envelope of the first-available pass ledger (see the file
/// comment): power, or one channel's load.
struct PassLane {
  std::uint64_t at = 0;  ///< the pass time `step` sums the deltas of
  double step = 0.0;
  double level = 0.0;  ///< the left fold of every step before `at`
  double peak = 0.0;   ///< max(0, every folded level)

  /// The level at the current pass time (`at` or later).
  [[nodiscard]] double now() const { return level + step; }

  /// Books `delta` at pass time `t`, never before `at`.
  void add(std::uint64_t t, double delta) {
    if (at != t) {
      level += step;
      if (level > peak) peak = level;
      step = 0.0;
      at = t;
    }
    step += delta;
  }
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
  /// committed.  Only the structures `sys.params()` needs are sized:
  /// the envelopes of its resource choice, and the busy-window interval
  /// sets only under kEarliestCompletion.  `table` (and `sys`)
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
    if (first_available_) {
      channel_lane_.assign(channels, PassLane{});
    } else {
      channel_load_.resize(channels);
      for (power::StepFunction& c : channel_load_) c.clear();
    }
    power_lane_ = PassLane{};
    profile_.clear();
    t_ = 0;
    next_end_ = 0;
    end_log_.clear();
    commits_.clear();
    stats_ = PlannerStats{};
  }

  /// Plan `order` on the state init() left.  Runs the feasibility
  /// precheck first (every module needs a pair whose power fits the
  /// budget in isolation) and throws on an infeasible module or a stuck
  /// plan.  Orders are not validated here: core::plan_tests* and
  /// core::plan_makespan check them first.  A first-available plan
  /// given a `cutoff` stops once the residual bound reaches it; the
  /// makespan is then that bound and the plan is not materializable.
  void plan(const std::vector<int>& order, std::uint64_t cutoff) {
    precheck(order);
    if (first_available_) {
      pending_.assign(order.begin(), order.end());
      if (!pending_.empty()) {
        if (cutoff == kNoCutoff) {
          run_first_available<false>(cutoff);
        } else {
          run_first_available<true>(cutoff);
        }
      }
    } else {
      run_earliest_completion(order);
    }
    if (!stats_.pruned) makespan_ = end_log_.empty() ? 0 : end_log_.back().end;
    // A first-available plan's last pass is the last level that can
    // rise; every breakpoint after it is an end.
    peak_power_ =
        first_available_ ? std::max(power_lane_.peak, power_lane_.now()) : profile_.peak();
  }

  [[nodiscard]] std::uint64_t makespan() const { return makespan_; }

  [[nodiscard]] std::size_t commits() const { return commits_.size(); }

  [[nodiscard]] const PlannerStats& stats() const { return stats_; }

  /// The last plan as a full Schedule (never a pruned one).
  [[nodiscard]] Schedule materialize() const {
    NOCSCHED_ASSERT(!stats_.pruned);
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

  /// A session end, in the (end, commit index) order of end_log_.
  struct EndRec {
    std::uint64_t end = 0;
    std::uint32_t commit = 0;  ///< into commits_
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
    // a surviving subset; for a full order they agree.)  Modules are
    // named by id only: a served error never quotes `.soc` text.
    for (const int id : order) {
      const double cheapest = table_->cheapest_power(id);
      // Negated so a NaN limit fails too; the message is formatted only
      // on failure.
      if (!(cheapest <= budget_.limit)) {
        fail("infeasible: module ", id, " needs at least ", cheapest,
             " power but the budget is ", budget_.limit);
      }
    }
  }

  [[noreturn]] void diagnose_stuck(int module_id, std::uint64_t t) const {
    fail("planner stuck at t=", t, ": module ", module_id,
         " cannot start any session — the power budget ", budget_.limit,
         " is too tight for the concurrent set, or no interface can reach the core");
  }

  /// Visits the channels of the stimulus leg, then of the response leg,
  /// as visit(channel index, the leg's draw on it) while `visit` returns
  /// true; true when it never returned false.  A multiplexed leg draws
  /// its bandwidth, a circuit leg the whole capacity (see the file
  /// comment).
  template <class Visit>
  bool every_leg_channel(const SessionPlan& plan, Visit visit) const {
    const double in = circuit_ ? 1.0 : plan.bandwidth_in;
    const double out = circuit_ ? 1.0 : plan.bandwidth_out;
    for (const noc::ChannelId c : plan.path_in) {
      if (!visit(channel_index(c), in)) return false;
    }
    for (const noc::ChannelId c : plan.path_out) {
      if (!visit(channel_index(c), out)) return false;
    }
    return true;
  }

  /// Books `plan` at the pass time on the first-available state: as the
  /// session starts (its draws), or (`Start` false) as it ends (its
  /// draws taken back).  Zero draws are no-ops, as they are for a step
  /// function.
  template <bool Start>
  void book_at_pass(const SessionPlan& plan) {
    const auto book = [this](PassLane& lane, double value) {
      if constexpr (Start) power::require_valid_draw(value);
      if (value != 0.0) lane.add(t_, Start ? value : -value);
    };
    every_leg_channel(plan, [&](std::size_t ch, double draw) {
      book(channel_lane_[ch], draw);
      return true;
    });
    book(power_lane_, plan.power);
  }

  /// Book one session: both endpoints, both paths, the power slice, the
  /// end event, and — for a processor's own test — that processor
  /// becoming available at the session's end ("a processor is reused
  /// for test just after it has been successfully tested").
  void commit(int module_id, const Candidate& c) {
    const SessionPlan& plan = *c.plan;
    const Interval iv{c.start, c.start + plan.duration};
    free_from_[c.source] = std::max(free_from_[c.source], iv.end);
    free_from_[c.sink] = std::max(free_from_[c.sink], iv.end);
    if (first_available_) {
      NOCSCHED_ASSERT(c.start == t_);  // the invariant the pass ledger rests on
      book_at_pass<true>(plan);
    } else {
      busy_[c.source].insert(iv);
      if (c.sink != c.source) busy_[c.sink].insert(iv);
      every_leg_channel(plan, [&](std::size_t ch, double draw) {
        channel_load_[ch].add(iv, draw);
        return true;
      });
      profile_.add(iv, plan.power);
    }
    // Past every end at or before iv.end: same-end entries stay in
    // commit order.
    const auto at = std::upper_bound(
        end_log_.begin(), end_log_.end(), iv.end,
        [](std::uint64_t end, const EndRec& rec) { return end < rec.end; });
    end_log_.insert(at, EndRec{iv.end, static_cast<std::uint32_t>(commits_.size())});
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

  /// Both legs of `plan` can start at the pass time under the
  /// first-available invariant: every channel's load level there leaves
  /// room for the leg's draw.
  [[nodiscard]] bool paths_free_now(const SessionPlan& plan) const {
    return every_leg_channel(plan, [&](std::size_t ch, double draw) {
      return power::within_budget(channel_lane_[ch].now() + draw, 1.0);
    });
  }

  /// Would a draw of `power` more keep the power level at the pass time
  /// within the budget?
  [[nodiscard]] bool power_fits_now(double power) const {
    return power::within_budget(power_lane_.now() + power, budget_.limit);
  }

  /// Moves the pass time to the next session end and books every end
  /// landing there, in commit order.  Every end at or before the old
  /// pass time is already booked, so the next one is end_log_[next_end_]
  /// (a commit logs an end past the pass time, so after them all).
  void advance_to_next_end() {
    t_ = end_log_[next_end_].end;
    for (; next_end_ < end_log_.size() && end_log_[next_end_].end == t_; ++next_end_) {
      book_at_pass<false>(*commits_[end_log_[next_end_].commit].plan);
    }
  }

  [[nodiscard]] std::optional<Candidate> probe_first_available(int module_id) {
    // Consider only pairs free *right now*: what makes this the paper's
    // greedy is that it never waits — a busy-but-faster interface that
    // frees moments later loses to a free-but-slower processor, which is
    // the anomaly the paper reports on p22810.  Among simultaneously
    // free pairs, PairOrder decides (nearest hops, the paper's locality
    // emphasis, or shortest session).
    //
    // Every check is a frontier or level check at the pass time `t_`
    // (the first-available invariant), and the cheap rejects (the
    // endpoint frontiers, which fold in availability, then the duration
    // comparison against the running best) run before any envelope
    // lookup, the one power envelope before the many channel loads.
    //
    // Every pair draws at least the module's cheapest session power, and
    // `level + power` only grows with `power`, so a module whose cheapest
    // session overflows the power envelope now has no pair to probe.
    const std::uint64_t t = t_;
    if (power_limited_ && !power_fits_now(table_->cheapest_power(module_id))) {
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
      if (power_limited_ && !power_fits_now(pc.plan.power)) continue;
      if (!paths_free_now(pc.plan)) continue;
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

  /// Adds (`sign` +1) or retires (-1) `module_id`'s shortest session
  /// on each endpoint all of its pairs use.
  void count_mandatory(int module_id, int sign) {
    const std::uint64_t work = table_->min_duration(module_id);
    for (std::uint64_t m = table_->mandatory_endpoints(module_id); m != 0; m &= m - 1) {
      std::uint64_t& w = mandatory_work_[static_cast<std::size_t>(std::countr_zero(m))];
      w = sign > 0 ? w + work : w - work;
    }
  }

  /// The residual lower bound on the final makespan at pass time `t`
  /// (see the file comment).  A processor not yet available serves no
  /// earlier than `t` either.
  [[nodiscard]] std::uint64_t residual_bound(std::uint64_t t) const {
    std::uint64_t bound = end_log_.empty() ? 0 : end_log_.back().end;
    for (std::size_t r = 0; r < mandatory_work_.size(); ++r) {
      if (mandatory_work_[r] == 0) continue;
      const std::uint64_t from = free_from_[r] == kNever ? t : std::max(t, free_from_[r]);
      bound = std::max(bound, from + mandatory_work_[r]);
    }
    return bound;
  }

  /// The paper's greedy: offer every pending module at each time step.
  /// `Bounded` plans check the residual bound against `cutoff` at the
  /// start of every pass; unbounded ones carry no bound code at all.
  ///
  /// A pruned plan cannot hide a "planner stuck" throw.  Stuck is
  /// diagnosed only at an idle instant: no session running, so every
  /// endpoint and channel is free and the power envelope is zero.  In a
  /// context whose modules are all testable (PairTable::
  /// testable_modules; the fault-aware search context plans only
  /// those), such a pass always has a startable module — the first
  /// pending one in the fixpoint's growth order, whose in-budget pair
  /// needs only the ATE ports and processors already tested — so no
  /// order gets stuck.  Otherwise the untestable modules never commit in
  /// any order, so every order gets stuck, and the search's
  /// deterministic pass, planned in full without a cutoff before any
  /// candidate is priced, throws first.
  template <bool Bounded>
  void run_first_available(std::uint64_t cutoff) {
    // One pass in priority order per instant; starting a session never
    // frees capacity, so a single pass is exhaustive, and the next pass
    // runs at the next session end.
    if constexpr (Bounded) {
      mandatory_work_.assign(std::min<std::size_t>(free_from_.size(), 64), 0);
      for (const int module_id : pending_) count_mandatory(module_id, +1);
    }
    for (;;) {
      const std::uint64_t t = t_;
      if constexpr (Bounded) {
        const std::uint64_t bound = residual_bound(t);
        if (bound >= cutoff) {
          makespan_ = bound;
          stats_.pruned = true;
          return;
        }
      }
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
        if (const auto c = probe_first_available(module_id)) {
          commit(module_id, *c);
          if constexpr (Bounded) count_mandatory(module_id, -1);
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
      if (next_end_ == end_log_.size()) diagnose_stuck(pending_.front(), t);
      advance_to_next_end();
      ++stats_.time_advances;
    }
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
      // Channel constraint: advance to the next load breakpoint on either
      // path until the whole window fits on every channel (the least
      // fitting start is `t` or a breakpoint, so none is skipped).
      const auto window_fits = [&](std::size_t ch, double draw) {
        return channel_load_[ch].fits(Interval{t, t + dur}, draw, 1.0);
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
  std::vector<IntervalSet> busy_;  // per endpoint (kEarliestCompletion)
  /// Earliest-completion envelopes: per channel load and summed power.
  std::vector<power::StepFunction> channel_load_;
  power::StepFunction profile_;
  /// The pass ledger (kFirstAvailable): the pass time, summed power, and
  /// per channel load.
  std::uint64_t t_ = 0;
  PassLane power_lane_;
  std::vector<PassLane> channel_lane_;
  /// Every session end, sorted by (end, commit index); the ends of
  /// end_log_[0..next_end_) lie at or before the pass time and are booked.
  std::vector<EndRec> end_log_;
  std::size_t next_end_ = 0;

  std::vector<CommitRec> commits_;
  std::uint64_t makespan_ = 0;
  double peak_power_ = 0.0;
  /// Modules not yet committed, in order (first-available scratch).
  std::vector<int> pending_;
  /// Per endpoint (< 64): summed shortest sessions of the pending
  /// modules that need it on every pair (bounded plans only).
  std::vector<std::uint64_t> mandatory_work_;

  PlannerStats stats_;
};

/// The one planning entry behind plan_tests* and plan_makespan (inputs
/// already checked): plans `order` on a per-thread kernel that init()
/// re-targets per call, stopping at `cutoff` (plan_makespan only), and
/// returns the kernel holding the plan.  Its buffers keep their
/// capacity, so a warm thread plans without allocating, and the result
/// stays a pure function of the arguments — init() discards everything
/// the previous plan left behind, even a plan that threw.
const Planner& run_planner(const SystemModel& sys, const power::PowerBudget& budget,
                           const std::vector<int>& order, const PairTable& pairs,
                           std::span<const int> pretested, std::uint64_t cutoff = kNoCutoff) {
  thread_local Planner kernel;
  kernel.init(sys, budget, pairs, pretested);
  kernel.plan(order, cutoff);

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
    static obs::Counter& pruned = reg.counter("planner.pruned");
    runs.inc();
    probes.add(kernel.stats().probes);
    // A plan that returns has checked every module once; a pruned one
    // committed only some of them.
    prechecks.add(order.size());
    commits.add(kernel.commits());
    advances.add(kernel.stats().time_advances);
    if (kernel.stats().pruned) pruned.inc();
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
                            std::span<const int> pretested, std::uint64_t cutoff) {
  if (!subset) {
    check_permutation(sys, order);
    return run_planner(sys, budget, order, pairs, {}, cutoff).makespan();
  }
  check_subset(sys, order, pretested);
  return run_planner(sys, budget, order, pairs, pretested, cutoff).makespan();
}

}  // namespace nocsched::core
