#include "report/timeline_report.hpp"

#include <iomanip>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "report/json_util.hpp"

namespace nocsched::report {

namespace {

/// The increment that opened epoch `e`: the empty set for epoch 0,
/// which opens fault-free (every stream event breaks something).
const noc::FaultSet& increment_of(const search::FaultStream& stream, std::size_t e) {
  static const noc::FaultSet kPristine;
  return e == 0 || e > stream.events.size() ? kPristine : stream.events[e - 1].increment;
}

}  // namespace

std::string timeline_table(const core::SystemModel& sys, const search::FaultStream& stream,
                           const sim::TimelineResult& result) {
  std::ostringstream out;
  out << "fault timeline for " << sys.soc().name << ": " << stream.events.size()
      << " events, " << result.epochs.size() << " epochs\n";

  out << std::right << std::setw(6) << "epoch" << std::setw(14) << "origin" << std::setw(14)
      << "event" << std::setw(9) << "planned" << std::setw(9) << "done" << std::setw(9)
      << "drain" << std::setw(9) << "lost" << std::setw(9) << "cancel" << std::setw(9)
      << "rebuilt" << std::setw(14) << "makespan" << "  increment\n";
  for (const sim::EpochRecord& epoch : result.epochs) {
    const noc::FaultSet& inc = increment_of(stream, epoch.index);
    out << std::setw(6) << epoch.index << std::setw(14) << with_commas(epoch.start_cycle)
        << std::setw(14)
        << (epoch.index < stream.events.size()
                ? with_commas(stream.events[epoch.index].cycle)
                : std::string("-"))
        << std::setw(9) << epoch.replan.planned_modules.size() << std::setw(9)
        << epoch.completed << std::setw(9) << epoch.drained << std::setw(9) << epoch.lost
        << std::setw(9) << epoch.cancelled << std::setw(9) << epoch.pairs_rebuilt
        << std::setw(14) << with_commas(epoch.replan.schedule.makespan) << "  "
        << (inc.empty() ? std::string("(pristine)") : inc.describe()) << "\n";
  }

  out << "coverage: " << result.covered_modules.size() << "/"
      << result.covered_modules.size() + result.uncovered_modules.size() << " modules ("
      << std::fixed << std::setprecision(3) << result.coverage_retained() << ")";
  out.unsetf(std::ios::fixed);
  if (!result.uncovered_modules.empty()) {
    out << "; uncovered:";
    for (const int id : result.uncovered_modules) out << " " << id;
  }
  out << "\n";
  out << "makespan: pristine " << with_commas(result.pristine_makespan) << " -> final "
      << with_commas(result.final_makespan);
  if (result.pristine_makespan > 0) {
    out << " (stretch " << std::fixed << std::setprecision(3) << result.makespan_stretch()
        << "x)";
    out.unsetf(std::ios::fixed);
  }
  out << "; wasted " << with_commas(result.wasted_cycles) << " cycles over "
      << result.lost.size() << " lost sessions\n";
  for (const sim::LostWork& l : result.lost) {
    out << "  lost module " << l.module_id << " ('" << sys.soc().module(l.module_id).name
        << "') at cycle " << with_commas(l.at_cycle) << " after "
        << with_commas(l.wasted_cycles) << " cycles: " << l.reason << "\n";
  }
  return out.str();
}

std::string timeline_csv(const core::SystemModel& sys, const search::FaultStream& stream,
                         const sim::TimelineResult& result) {
  (void)sys;
  std::ostringstream out;
  CsvWriter csv(out, {"epoch", "start_cycle", "event_cycle", "links", "routers", "procs",
                      "planned", "completed", "drained", "lost", "cancelled",
                      "pairs_rebuilt", "plan_makespan"});
  for (const sim::EpochRecord& epoch : result.epochs) {
    const noc::FaultSet& inc = increment_of(stream, epoch.index);
    std::string links;
    std::string routers;
    std::string procs;
    for (const noc::ChannelId c : inc.failed_channels()) {
      links += links.empty() ? cat(c) : cat(" ", c);
    }
    for (const noc::RouterId r : inc.failed_routers()) {
      routers += routers.empty() ? cat(r) : cat(" ", r);
    }
    for (const int p : inc.failed_processors()) {
      procs += procs.empty() ? cat(p) : cat(" ", p);
    }
    csv.row_of(epoch.index, epoch.start_cycle,
               epoch.index < stream.events.size()
                   ? cat(stream.events[epoch.index].cycle)
                   : std::string(),
               links, routers, procs, epoch.replan.planned_modules.size(), epoch.completed,
               epoch.drained, epoch.lost, epoch.cancelled, epoch.pairs_rebuilt,
               epoch.replan.schedule.makespan);
  }
  return out.str();
}

std::string timeline_json(const core::SystemModel& sys, const search::FaultStream& stream,
                          const sim::TimelineResult& result) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"soc\": " << json_string(sys.soc().name) << ",\n";
  out << "  \"events\": [\n";
  for (std::size_t i = 0; i < stream.events.size(); ++i) {
    const search::FaultEvent& e = stream.events[i];
    out << "    {\"cycle\": " << e.cycle
        << ", \"links\": " << json_int_array(e.increment.failed_channels())
        << ", \"routers\": " << json_int_array(e.increment.failed_routers())
        << ", \"processors\": " << json_int_array(e.increment.failed_processors()) << "}"
        << (i + 1 < stream.events.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"epochs\": [\n";
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    const sim::EpochRecord& epoch = result.epochs[i];
    out << "    {\"epoch\": " << epoch.index << ", \"start_cycle\": " << epoch.start_cycle
        << ", \"planned\": " << epoch.replan.planned_modules.size()
        << ", \"completed\": " << epoch.completed << ", \"drained\": " << epoch.drained
        << ", \"lost\": " << epoch.lost << ", \"cancelled\": " << epoch.cancelled
        << ", \"pairs_rebuilt\": " << epoch.pairs_rebuilt
        << ", \"plan_makespan\": " << epoch.replan.schedule.makespan
        << ", \"observed_makespan\": " << epoch.trace.observed_makespan
        << ", \"pretested\": " << json_int_array(epoch.pretested)
        << ", \"search_evaluations\": "
        << epoch.replan.metrics.counter_or("search.evaluations") << "}"
        << (i + 1 < result.epochs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"completed\": [\n";
  for (std::size_t i = 0; i < result.completed.size(); ++i) {
    const sim::TimelineSession& s = result.completed[i];
    out << "    {\"module\": " << s.module_id << ", \"name\": "
        << json_string(sys.soc().module(s.module_id).name) << ", \"epoch\": " << s.epoch
        << ", \"start\": " << s.abs_start << ", \"end\": " << s.abs_end << "}"
        << (i + 1 < result.completed.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"lost\": [\n";
  for (std::size_t i = 0; i < result.lost.size(); ++i) {
    const sim::LostWork& l = result.lost[i];
    out << "    {\"module\": " << l.module_id << ", \"epoch\": " << l.epoch
        << ", \"at_cycle\": " << l.at_cycle << ", \"wasted_cycles\": " << l.wasted_cycles
        << ", \"reason\": " << json_string(l.reason) << "}"
        << (i + 1 < result.lost.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"covered_modules\": " << json_int_array(result.covered_modules) << ",\n";
  out << "  \"uncovered_modules\": " << json_int_array(result.uncovered_modules) << ",\n";
  out << "  \"coverage_retained\": " << json_number(result.coverage_retained()) << ",\n";
  out << "  \"pristine_makespan\": " << result.pristine_makespan << ",\n";
  out << "  \"final_makespan\": " << result.final_makespan << ",\n";
  out << "  \"makespan_stretch\": " << json_number(result.makespan_stretch()) << ",\n";
  out << "  \"wasted_cycles\": " << result.wasted_cycles << "\n";
  out << "}\n";
  return out.str();
}

}  // namespace nocsched::report
