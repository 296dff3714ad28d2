#include "core/session_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace nocsched::core {

namespace {

SessionPlan plan_over_paths(const SystemModel& sys, int module_id, const Endpoint& source,
                            const Endpoint& sink, std::vector<noc::ChannelId> path_in,
                            std::vector<noc::ChannelId> path_out) {
  ensure(source.can_source(), "plan_session: ", source.name(), " cannot act as a source");
  ensure(sink.can_sink(), "plan_session: ", sink.name(), " cannot act as a sink");
  const itc02::Module& module = sys.soc().module(module_id);
  ensure(!source.is_processor() || source.processor_module != module_id,
         "plan_session: processor ", module_id, " cannot source its own test");
  ensure(!sink.is_processor() || sink.processor_module != module_id,
         "plan_session: processor ", module_id, " cannot sink its own test");

  const noc::Characterization& nc = sys.params().noc;
  const bool same_cpu = source.is_processor() && sink.is_processor() &&
                        source.processor_module == sink.processor_module;

  SessionPlan plan;
  plan.path_in = std::move(path_in);
  plan.path_out = std::move(path_out);
  const int h_in = static_cast<int>(plan.path_in.size());
  const int h_out = static_cast<int>(plan.path_out.size());

  double duration = static_cast<double>(nc.path_setup_cycles(h_in)) +
                    static_cast<double>(nc.path_setup_cycles(h_out));

  // BIST program prologue: both endpoints start their kernels in
  // parallel, so the slower prologue gates the stream.
  double prologue = 0.0;
  if (source.is_processor()) {
    prologue = std::max(prologue, sys.params().rates(source.cpu).setup_cycles);
  }
  if (sink.is_processor()) {
    prologue = std::max(prologue, sys.params().rates(sink.cpu).setup_cycles);
  }
  duration += prologue;

  const double fc = static_cast<double>(nc.flow_control_latency);
  for (const wrapper::TestPhase& phase : sys.phases(module_id)) {
    const double fi = static_cast<double>(nc.flits_for_bits(phase.stimulus_bits));
    const double fo = static_cast<double>(nc.flits_for_bits(phase.response_bits));
    const double shift = 1.0 + std::max(phase.scan_in_length, phase.scan_out_length);

    double per_pattern = shift;
    if (same_cpu) {
      const CpuRates& r = sys.params().rates(source.cpu);
      const double cpu_cost = r.per_pattern_overhead + fi * std::max(fc, r.per_stimulus_flit) +
                              fo * std::max(fc, r.per_response_flit);
      per_pattern = std::max(per_pattern, cpu_cost);
    } else {
      double src_cost = fi * fc;
      if (source.is_processor()) {
        const CpuRates& r = sys.params().rates(source.cpu);
        src_cost = r.per_pattern_overhead + fi * std::max(fc, r.per_stimulus_flit);
      }
      double snk_cost = fo * fc;
      if (sink.is_processor()) {
        const CpuRates& r = sys.params().rates(sink.cpu);
        snk_cost = r.per_pattern_overhead + fo * std::max(fc, r.per_response_flit);
      }
      per_pattern = std::max({per_pattern, src_cost, snk_cost});
    }
    duration += std::ceil(per_pattern) * static_cast<double>(phase.patterns) +
                std::min(phase.scan_in_length, phase.scan_out_length);

    // Channel occupancy of the steady-state stream: flit-cycles pushed
    // per pattern over the pattern period (worst phase governs).
    if (per_pattern > 0.0) {
      plan.bandwidth_in = std::min(1.0, std::max(plan.bandwidth_in, fi * fc / per_pattern));
      plan.bandwidth_out = std::min(1.0, std::max(plan.bandwidth_out, fo * fc / per_pattern));
    }
  }

  plan.duration = static_cast<std::uint64_t>(std::llround(std::ceil(duration)));
  ensure(plan.duration > 0, "plan_session: zero-length session for module ", module_id);

  plan.power = module.test_power + nc.transport_power(h_in, h_out);
  if (source.is_processor()) plan.power += sys.params().rates(source.cpu).active_power;
  if (sink.is_processor() && !same_cpu) plan.power += sys.params().rates(sink.cpu).active_power;
  return plan;
}

}  // namespace

std::optional<SessionPlan> plan_session(const SystemModel& sys, int module_id,
                                        const Endpoint& source, const Endpoint& sink,
                                        const noc::FaultSet& faults) {
  if (faults.processor_failed(module_id) && sys.soc().module(module_id).is_processor) {
    return std::nullopt;  // the module itself is dead — nothing to test
  }
  for (const Endpoint* ep : {&source, &sink}) {
    if (ep->is_processor() && faults.processor_failed(ep->processor_module)) {
      return std::nullopt;
    }
  }
  const noc::RouterId at = sys.router_of(module_id);
  auto path_in = noc::fault_route(sys.mesh(), faults, source.router, at);
  if (!path_in) return std::nullopt;
  auto path_out = noc::fault_route(sys.mesh(), faults, at, sink.router);
  if (!path_out) return std::nullopt;
  return plan_over_paths(sys, module_id, source, sink, std::move(*path_in),
                         std::move(*path_out));
}

std::uint64_t bist_memory_bytes(const SystemModel& sys, int module_id,
                                itc02::ProcessorKind kind) {
  const CpuRates& rates = sys.params().rates(kind);
  std::uint64_t bytes = rates.program_bytes + 64;  // kernel + parameter block
  for (const wrapper::TestPhase& phase : sys.phases(module_id)) {
    // One mask/expected byte-row per pattern over the response slice.
    bytes += phase.patterns * ((phase.response_bits + 7) / 8);
  }
  return bytes;
}

bool fits_processor_memory(const SystemModel& sys, int module_id, itc02::ProcessorKind kind) {
  return bist_memory_bytes(sys, module_id, kind) <= sys.params().rates(kind).memory_bytes;
}

}  // namespace nocsched::core
