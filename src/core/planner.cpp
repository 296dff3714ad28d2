#include "core/planner.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace nocsched::core {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

}  // namespace

void Planner::init(const SystemModel& sys, const power::PowerBudget& budget,
                   const PairTable& table, std::span<const int> pretested) {
  sys_ = &sys;
  budget_ = budget;
  table_ = &table;
  first_available_ = sys.params().resource_choice == ResourceChoice::kFirstAvailable;
  fastest_ = sys.params().pair_order == PairOrder::kFastestFirst;
  const std::vector<Endpoint>& eps = sys.endpoints();
  mask_filter_ = eps.size() <= 64;

  proc_resource_.assign(sys.soc().modules.size() + 1, PlannerState::npos);
  pretested_resources_.clear();
  for (std::size_t r = 0; r < eps.size(); ++r) {
    if (!eps[r].is_processor()) continue;
    proc_resource_[static_cast<std::size_t>(eps[r].processor_module)] = r;
    if (std::find(pretested.begin(), pretested.end(), eps[r].processor_module) !=
        pretested.end()) {
      pretested_resources_.push_back(r);
    }
  }
}

void Planner::precheck(const std::vector<int>& order) const {
  // Every module offered for planning must have at least one pair whose
  // session power fits the budget in isolation.  (Iterating the order —
  // not the SoC — is what lets the fault-aware replanner plan a
  // surviving subset; for a full order they agree.)
  for (const int id : order) {
    const double cheapest = table_->cheapest_power(id);
    ensure(cheapest <= budget_.limit, "infeasible: module ", id, " ('",
           sys_->soc().module(id).name, "') needs at least ", cheapest,
           " power but the budget is ", budget_.limit);
  }
}

void Planner::diagnose_stuck(int module_id, std::uint64_t t) const {
  const itc02::Module& m = sys_->soc().module(module_id);
  fail("planner stuck at t=", t, ": module ", module_id, " ('", m.name,
       "') cannot start any session — the power budget ", budget_.limit,
       " is too tight for the concurrent set, or no interface can reach the core");
}

void Planner::commit(int module_id, const Candidate& c) {
  const SessionPlan& plan = *c.plan;
  const Interval iv{c.start, c.start + plan.duration};
  work_.commit_session(c.source, c.sink, iv, plan,
                       proc_resource_[static_cast<std::size_t>(module_id)]);
  commits_.push_back(CommitRec{module_id, static_cast<std::uint32_t>(c.source),
                               static_cast<std::uint32_t>(c.sink), iv.start, iv.end, c.plan});
}

std::optional<Planner::Candidate> Planner::probe_first_available(int module_id,
                                                                 std::uint64_t t) {
  // Consider only pairs free *right now*: what makes this the paper's
  // greedy is that it never waits — a busy-but-faster interface that
  // frees moments later loses to a free-but-slower processor, which is
  // the anomaly the paper reports on p22810.  Among simultaneously free
  // pairs, PairOrder decides (nearest hops, the paper's locality
  // emphasis, or shortest session).
  //
  // Every committed session starts at or before `t` and is non-empty
  // (plan_session enforces duration > 0), so "free throughout
  // [t, t + dur)" collapses to PlannerState's first-available fast
  // paths: scalar frontier compares for endpoints and circuit channels,
  // the level at `t` for the load and power envelopes.  The cheap
  // rejects (availability, then the duration comparison against the
  // running best) run before any envelope lookup.
  std::optional<Candidate> best;
  int best_hops = 0;
  const bool fastest = fastest_;
  for (const PairChoice& pc : table_->pairs(module_id)) {
    ++stats_.probes;
    if (!work_.pair_free_at(pc.source, pc.sink, t)) continue;
    if (best) {
      // The table is already nearest-first, so under kNearestFirst the
      // first feasible hit is final; under kFastestFirst keep scanning
      // for a shorter session.
      if (!fastest) break;
      if (pc.plan.duration > best->plan->duration) continue;
      if (pc.plan.duration == best->plan->duration && pc.hops >= best_hops) continue;
    }
    if (!work_.paths_free_at(pc.plan, t)) continue;
    if (!work_.power_fits_at(t, pc.plan.power, budget_.limit)) continue;
    best = Candidate{pc.source, pc.sink, t, &pc.plan};
    best_hops = pc.hops;
  }
  return best;
}

bool Planner::module_maybe_startable(int module_id, std::uint64_t mask) const {
  // Sound reject only: a module none of whose pairs has both endpoints
  // free cannot pass any probe.  (Callers skip this when mask_filter_
  // is off.)
  for (const std::uint64_t m : table_->endpoint_masks(module_id)) {
    if ((m & ~mask) == 0) return true;
  }
  return false;
}

void Planner::run_first_available() {
  // One pass in priority order per instant; starting a session never
  // frees capacity, so a single pass is exhaustive, and the next pass
  // runs at the next session end.
  std::uint64_t t = 0;
  for (;;) {
    std::uint64_t mask = work_.avail_mask(t);
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
        if (mask_filter_) {
          mask &= ~((std::uint64_t{1} << c->source) | (std::uint64_t{1} << c->sink));
        }
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    if (pending_.empty()) break;
    const auto next = work_.next_end_after(t);
    if (!next) diagnose_stuck(pending_.front(), t);
    t = *next;
    ++stats_.time_advances;
  }
}

std::uint64_t Planner::earliest_feasible_start(const PairChoice& pc) const {
  // Fixed point over the three constraint classes (endpoints, channels,
  // power).  Terminates: t is nondecreasing and each constraint has
  // finitely many busy windows.
  const SessionPlan& plan = pc.plan;
  const std::uint64_t dur = plan.duration;
  std::uint64_t t = std::max(work_.available_from(pc.source), work_.available_from(pc.sink));
  const bool circuit = sys_->params().channel_model == ChannelModel::kCircuit;
  for (;;) {
    const std::uint64_t before = t;
    t = work_.busy_earliest_fit(pc.source, t, dur);
    if (pc.sink != pc.source) t = work_.busy_earliest_fit(pc.sink, t, dur);
    if (circuit) {
      t = work_.circuit_earliest_path_fit(plan.path_in, t, dur);
      t = work_.circuit_earliest_path_fit(plan.path_out, t, dur);
    } else {
      // Bandwidth constraint: advance past load breakpoints until the
      // whole window fits on every channel.
      while (!work_.paths_free(plan, Interval{t, t + dur})) {
        auto bump = work_.load_next_change_after(plan.path_in, t);
        const auto bump_out = work_.load_next_change_after(plan.path_out, t);
        if (!bump || (bump_out && *bump_out < *bump)) bump = bump_out;
        NOCSCHED_ASSERT(bump.has_value());  // loads end, so a fit exists
        t = *bump;
      }
    }
    if (!work_.power_fits(Interval{t, t + dur}, plan.power, budget_.limit)) {
      const auto bump = work_.power_next_change_after(t);
      NOCSCHED_ASSERT(bump.has_value());  // precheck guarantees the tail fits
      t = *bump;
      continue;
    }
    if (t == before) return t;
  }
}

void Planner::run_earliest_completion(const std::vector<int>& order) {
  // Ablation A1: book each module, in order, into the (pair, start)
  // combination that finishes earliest.
  for (const int module_id : order) {
    std::optional<Candidate> best;
    for (const PairChoice& pc : table_->pairs(module_id)) {
      ++stats_.probes;
      // Unenabled processors have available_from == kNever and are
      // skipped; processors appear earlier in the priority order, so
      // their availability is known by the time plain cores plan.
      if (work_.available_from(pc.source) == kNever) continue;
      if (pc.sink != pc.source && work_.available_from(pc.sink) == kNever) continue;
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

void Planner::plan_full(const std::vector<int>& order) {
  precheck(order);
  stats_ = PlannerStats{};
  commits_.clear();
  work_.init(*sys_);
  for (const std::size_t r : pretested_resources_) work_.set_available_from(r, 0);
  if (first_available_) {
    pending_.assign(order.begin(), order.end());
    if (!pending_.empty()) run_first_available();
  } else {
    run_earliest_completion(order);
  }
  makespan_ = work_.last_end();
  peak_power_ = work_.profile_peak();
}

Schedule Planner::materialize() const {
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

}  // namespace nocsched::core
