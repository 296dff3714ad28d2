#include "search/strategy.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace nocsched::search {

namespace {

/// Independent random restarts: chain c's single evaluation is the
/// (seed, c)-shuffled order, which is exactly what PR 3's multistart
/// explored for restart index c — the pre-refactor behaviour, kept
/// bit-identical (asserted by search property tests).
class RestartStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "restart"; }

  [[nodiscard]] std::uint64_t chains(std::uint64_t iters) const override { return iters; }

  bool init_chain(ChainState& state, const EvalContext& ctx,
                  const std::vector<int>& /*warm_order*/, std::uint64_t /*chain*/,
                  Rng& rng) const override {
    state.order = ctx.shuffled_order(rng);
    return false;
  }

  [[nodiscard]] std::optional<Proposal> propose(ChainState& /*state*/,
                                                const EvalContext& /*ctx*/,
                                                Rng& /*rng*/) const override {
    return std::nullopt;  // one evaluation per chain; nothing to iterate
  }

  [[nodiscard]] bool accept(const ChainState& /*state*/, std::uint64_t /*proposed*/,
                            Rng& /*rng*/) const override {
    return false;  // never reached: propose() ends the chain first
  }
};

/// Simulated annealing over within-tier swaps.  Each chain is an
/// independent walker: chain 0 starts from the driver's warm order (the
/// deterministic priority order, or an injected warm start — either way
/// already decent), the rest from seeded tier-shuffles.  Temperature starts at a fixed fraction
/// of the chain's starting makespan and cools geometrically so it lands
/// at the end fraction exactly when the chain's budget runs out; when a
/// walker is stuck (a run of rejected proposals) it reheats to a
/// seeded random fraction of the starting temperature, which lets it
/// climb out of the local basin without forgetting the incumbent.
class AnnealStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "anneal"; }

  [[nodiscard]] std::uint64_t chains(std::uint64_t iters) const override {
    // Enough steps per walker to actually anneal; a few walkers for
    // start diversity once the budget allows it.
    return std::clamp<std::uint64_t>(iters / 128, 1, 8);
  }

  bool init_chain(ChainState& state, const EvalContext& ctx,
                  const std::vector<int>& warm_order, std::uint64_t chain,
                  Rng& rng) const override {
    state.order = chain == 0 ? warm_order : ctx.shuffled_order(rng);
    return chain == 0;
  }

  [[nodiscard]] std::optional<Proposal> propose(ChainState& state, const EvalContext& ctx,
                                                Rng& rng) const override {
    const auto& swappable = ctx.swappable_positions();
    if (swappable.empty()) return std::nullopt;  // every tier is a singleton

    if (state.step == 0) {
      // Scales depend on the starting makespan, known only after the
      // driver evaluated the initial order — so set them lazily here.
      state.t0 = kStartFraction * static_cast<double>(state.makespan);
      state.temperature = state.t0;
      const double steps = static_cast<double>(std::max<std::uint64_t>(state.budget, 2) - 1);
      state.cool = std::pow(kEndFraction / kStartFraction, 1.0 / steps);
    }
    state.temperature *= state.cool;
    if (state.since_accept >= kStuckAfter) {
      state.temperature = state.t0 * (0.5 + 0.5 * rng.uniform01());
      state.since_accept = 0;  // one reheat per stuck run, not one per step
    }

    const std::size_t a = swappable[rng.below(swappable.size())];
    const EvalContext::Segment& seg = ctx.segment_of(a);
    std::size_t b = seg.begin + rng.below(seg.size() - 1);
    if (b >= a) ++b;

    Proposal p;
    p.order = state.order;
    std::swap(p.order[a], p.order[b]);
    return p;
  }

  [[nodiscard]] bool accept(const ChainState& state, std::uint64_t proposed,
                            Rng& rng) const override {
    if (proposed <= state.makespan) return true;
    const double delta = static_cast<double>(proposed - state.makespan);
    if (state.temperature <= 0.0) return false;
    return rng.uniform01() < std::exp(-delta / state.temperature);
  }

 private:
  static constexpr double kStartFraction = 0.02;  ///< T0 / starting makespan
  static constexpr double kEndFraction = 0.0005;  ///< final T / starting makespan
  static constexpr std::uint64_t kStuckAfter = 32;  ///< rejects before a reheat
};

/// Greedy first-improvement descent over the within-tier swap pairs.
/// Chain 0 descends from the driver's warm order, the rest from seeded
/// tier-shuffles.  The sweep cursor walks the pair list
/// cyclically; a swap that improves is kept and the sweep continues
/// from the next pair.  Once a full cycle passes with no improvement
/// the incumbent is a pairwise-swap local optimum, and the chain
/// restarts the descent from a fresh shuffled order (budget allowing).
class LocalStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "local"; }

  [[nodiscard]] std::uint64_t chains(std::uint64_t iters) const override {
    return std::clamp<std::uint64_t>(iters / 64, 1, 8);
  }

  bool init_chain(ChainState& state, const EvalContext& ctx,
                  const std::vector<int>& warm_order, std::uint64_t chain,
                  Rng& rng) const override {
    state.order = chain == 0 ? warm_order : ctx.shuffled_order(rng);
    return chain == 0;
  }

  [[nodiscard]] std::optional<Proposal> propose(ChainState& state, const EvalContext& ctx,
                                                Rng& rng) const override {
    const auto& pairs = ctx.swap_pairs();
    if (pairs.empty()) return std::nullopt;

    if (state.since_accept >= pairs.size()) {
      // Pairwise-swap local optimum: every swap was tried against this
      // incumbent and none improved.  Restart the descent elsewhere.
      Proposal p;
      p.order = ctx.shuffled_order(rng);
      p.reset = true;
      return p;
    }

    const auto [i, j] = pairs[state.cursor];
    state.cursor = (state.cursor + 1) % pairs.size();
    Proposal p;
    p.order = state.order;
    std::swap(p.order[i], p.order[j]);
    return p;
  }

  [[nodiscard]] bool accept(const ChainState& state, std::uint64_t proposed,
                            Rng& /*rng*/) const override {
    return proposed < state.makespan;  // strict descent only
  }

  [[nodiscard]] std::uint64_t cutoff(const ChainState& state) const override {
    return state.makespan;  // a swap that does not descend is rejected
  }
};

}  // namespace

std::string_view to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kRestart:
      return "restart";
    case StrategyKind::kAnneal:
      return "anneal";
    case StrategyKind::kLocal:
      return "local";
  }
  return "?";
}

StrategyKind parse_strategy(std::string_view name) {
  if (name == "restart") return StrategyKind::kRestart;
  if (name == "anneal") return StrategyKind::kAnneal;
  if (name == "local") return StrategyKind::kLocal;
  fail("unknown search strategy '", name, "' (expected restart|anneal|local)");
}

const Strategy& strategy_for(StrategyKind kind) {
  static const RestartStrategy restart;
  static const AnnealStrategy anneal;
  static const LocalStrategy local;
  switch (kind) {
    case StrategyKind::kRestart:
      return restart;
    case StrategyKind::kAnneal:
      return anneal;
    case StrategyKind::kLocal:
      return local;
  }
  fail("unknown StrategyKind ", static_cast<int>(kind));
}

}  // namespace nocsched::search
