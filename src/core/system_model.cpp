#include "core/system_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace nocsched::core {

namespace {

itc02::ProcessorKind deduce_kind(const itc02::Module& m) {
  if (starts_with(m.name, "leon")) return itc02::ProcessorKind::kLeon;
  if (starts_with(m.name, "plasma")) return itc02::ProcessorKind::kPlasma;
  fail("cannot deduce processor kind of module '", m.name,
       "' (expected a name starting with 'leon' or 'plasma')");
}

}  // namespace

std::string Endpoint::name() const {
  switch (kind) {
    case EndpointKind::kAteInput:
      return "ATE-in";
    case EndpointKind::kAteOutput:
      return "ATE-out";
    case EndpointKind::kProcessor:
      return cat(to_string(cpu), "#", processor_module);
  }
  return "?";
}

SystemModel::SystemModel(itc02::Soc soc, noc::Mesh mesh, std::vector<CorePlacement> placement,
                         noc::RouterId ate_input, noc::RouterId ate_output,
                         PlannerParams params)
    : soc_(std::move(soc)),
      mesh_(std::move(mesh)),
      params_(params),
      ate_input_(ate_input),
      ate_output_(ate_output) {
  itc02::validate(soc_);
  core::validate(params_);
  static_cast<void>(mesh_.coord_of(ate_input_));  // range checks
  static_cast<void>(mesh_.coord_of(ate_output_));
  ensure(ate_input_ != ate_output_ || mesh_.router_count() == 1,
         "SystemModel: ATE input and output should attach to distinct routers");

  // Placement: exactly one router per module.
  router_by_index_.assign(soc_.modules.size(), -1);
  ensure(placement.size() == soc_.modules.size(), "SystemModel: placement has ",
         placement.size(), " entries for ", soc_.modules.size(), " modules");
  for (const CorePlacement& p : placement) {
    const std::size_t idx = module_index(p.module_id);
    ensure(router_by_index_[idx] == -1, "SystemModel: module ", p.module_id, " placed twice");
    static_cast<void>(mesh_.coord_of(p.router));
    router_by_index_[idx] = p.router;
  }

  // Resource table.
  endpoints_.push_back(Endpoint{EndpointKind::kAteInput, ate_input_, -1, {}});
  endpoints_.push_back(Endpoint{EndpointKind::kAteOutput, ate_output_, -1, {}});
  for (const itc02::Module& m : soc_.modules) {
    if (!m.is_processor) continue;
    endpoints_.push_back(Endpoint{EndpointKind::kProcessor, router_of(m.id), m.id,
                                  deduce_kind(m)});
  }

  // Per-module characterization.
  phases_by_index_.reserve(soc_.modules.size());
  base_cycles_by_index_.reserve(soc_.modules.size());
  distance_by_index_.reserve(soc_.modules.size());
  for (const itc02::Module& m : soc_.modules) {
    phases_by_index_.push_back(wrapper::plan_module_test(m, params_.wrapper_chains));
    std::uint64_t base_cycles = 0;
    for (const wrapper::TestPhase& phase : phases_by_index_.back()) {
      base_cycles += phase.core_cycles();
    }
    base_cycles_by_index_.push_back(base_cycles);
    const noc::RouterId at = router_of(m.id);
    int best = mesh_.hop_count(at, ate_input_);
    best = std::min(best, mesh_.hop_count(at, ate_output_));
    for (const Endpoint& ep : endpoints_) {
      if (ep.is_processor() && ep.processor_module != m.id) {
        best = std::min(best, mesh_.hop_count(at, ep.router));
      }
    }
    distance_by_index_.push_back(best);
  }
}

SystemModel SystemModel::paper_system(std::string_view soc_name, itc02::ProcessorKind kind,
                                      int processors, const PlannerParams& params) {
  ensure(processors >= 0, "paper_system: negative processor count");
  itc02::Soc soc = itc02::with_processors(itc02::builtin_by_name(soc_name), kind, processors);
  noc::Mesh mesh = paper_mesh(soc_name);
  std::vector<CorePlacement> placement = default_placement(soc, mesh);
  const noc::RouterId in = default_ate_input(mesh);
  const noc::RouterId out = default_ate_output(mesh);
  return SystemModel(std::move(soc), std::move(mesh), std::move(placement), in, out, params);
}

std::size_t SystemModel::module_index(int module_id) const {
  ensure(module_id >= 1 && static_cast<std::size_t>(module_id) <= soc_.modules.size(),
         "SystemModel: no module with id ", module_id);
  return static_cast<std::size_t>(module_id - 1);
}

noc::RouterId SystemModel::router_of(int module_id) const {
  return router_by_index_[module_index(module_id)];
}

const std::vector<wrapper::TestPhase>& SystemModel::phases(int module_id) const {
  return phases_by_index_[module_index(module_id)];
}

int SystemModel::distance_to_nearest_endpoint(int module_id) const {
  return distance_by_index_[module_index(module_id)];
}

std::uint64_t SystemModel::base_test_cycles(int module_id) const {
  return base_cycles_by_index_[module_index(module_id)];
}

}  // namespace nocsched::core
