#include "support/random_system.hpp"

#include <utility>

#include "core/placement.hpp"
#include "itc02/random_soc.hpp"

namespace nocsched::support {

core::SystemModel random_system(Rng& rng, const core::PlannerParams& params) {
  itc02::RandomSocSpec spec;
  spec.min_cores = 3;
  spec.max_cores = 12;
  spec.max_scan_flops = 1200;
  spec.max_patterns = 100;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  const int procs = static_cast<int>(1 + rng.below(3));
  for (int i = 1; i <= procs; ++i) {
    const auto kind =
        rng.chance(0.5) ? itc02::ProcessorKind::kLeon : itc02::ProcessorKind::kPlasma;
    soc.modules.push_back(
        itc02::processor_module(kind, static_cast<int>(soc.modules.size()) + 1, i));
  }
  itc02::validate(soc);
  const int cols = static_cast<int>(2 + rng.below(4));
  const int rows = static_cast<int>(2 + rng.below(4));
  noc::Mesh mesh(cols, rows);
  auto placement = core::default_placement(soc, mesh);
  const noc::RouterId in = core::default_ate_input(mesh);
  const noc::RouterId out = core::default_ate_output(mesh);
  return core::SystemModel(std::move(soc), std::move(mesh), std::move(placement), in, out, params);
}

core::PlannerParams params_variant(std::uint64_t v) {
  core::PlannerParams p = core::PlannerParams::paper();
  if (v & 1) p.resource_choice = core::ResourceChoice::kEarliestCompletion;
  if (v & 2) p.pair_order = core::PairOrder::kFastestFirst;
  if (v & 4) p.channel_model = core::ChannelModel::kCircuit;
  if (v & 8) p.allow_cross_pairing = true;
  return p;
}

}  // namespace nocsched::support
