#include "support/random_system.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/placement.hpp"
#include "itc02/random_soc.hpp"

namespace nocsched::support {

namespace {

itc02::ProcessorKind random_kind(Rng& rng) {
  return rng.chance(0.5) ? itc02::ProcessorKind::kLeon : itc02::ProcessorKind::kPlasma;
}

void append_processor(itc02::Soc& soc, itc02::ProcessorKind kind, int index) {
  soc.modules.push_back(
      itc02::processor_module(kind, static_cast<int>(soc.modules.size()) + 1, index));
}

/// Validates `soc` and places it, default placement and ATE corners, on
/// a mesh whose sides are each drawn from [min_side, min_side + sides).
core::SystemModel place(Rng& rng, itc02::Soc soc, std::uint64_t min_side, std::uint64_t sides,
                        const core::PlannerParams& params) {
  itc02::validate(soc);
  const int cols = static_cast<int>(min_side + rng.below(sides));
  const int rows = static_cast<int>(min_side + rng.below(sides));
  noc::Mesh mesh(cols, rows);
  auto placement = core::default_placement(soc, mesh);
  const noc::RouterId in = core::default_ate_input(mesh);
  const noc::RouterId out = core::default_ate_output(mesh);
  return core::SystemModel(std::move(soc), std::move(mesh), std::move(placement), in, out, params);
}

}  // namespace

core::SystemModel random_system(Rng& rng, const core::PlannerParams& params) {
  itc02::RandomSocSpec spec;
  spec.min_cores = 3;
  spec.max_cores = 12;
  spec.max_scan_flops = 1200;
  spec.max_patterns = 100;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  const int procs = static_cast<int>(1 + rng.below(3));
  for (int i = 1; i <= procs; ++i) append_processor(soc, random_kind(rng), i);
  return place(rng, std::move(soc), 2, 4, params);
}

core::SystemModel coincident_system(Rng& rng, const core::PlannerParams& params) {
  itc02::RandomSocSpec spec;
  spec.min_cores = 1;
  spec.max_cores = 2;
  spec.max_scan_flops = 600;
  spec.max_patterns = 60;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  // Twins test alike but draw their own power, so the ends landing on
  // one instant sum differently in another order.
  const std::size_t originals = soc.modules.size();
  for (std::size_t i = 0; i < originals; ++i) {
    for (std::uint64_t k = 3 + rng.below(5); k > 0; --k) {
      itc02::Module twin = soc.modules[i];
      twin.id = static_cast<int>(soc.modules.size()) + 1;
      twin.name = cat(twin.name, "_twin", k);
      twin.test_power = 1.0 + rng.uniform01() * 999.0;
      soc.modules.push_back(std::move(twin));
    }
  }
  const itc02::ProcessorKind kind = random_kind(rng);
  const int procs = static_cast<int>(4 + rng.below(3));
  for (int i = 1; i <= procs; ++i) append_processor(soc, kind, i);
  return place(rng, std::move(soc), 1, 2, params);
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
