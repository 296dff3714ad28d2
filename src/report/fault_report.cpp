#include "report/fault_report.hpp"

#include <iomanip>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "report/json_util.hpp"

namespace nocsched::report {

std::string robustness_table(const core::SystemModel& sys, const noc::FaultSet& faults,
                             const sim::RobustnessReport& robustness,
                             const search::ReplanResult* replan) {
  std::ostringstream out;
  out << "fault scenario for " << sys.soc().name << ": " << faults.describe() << "\n";
  out << "replayed plan: " << robustness.unaffected << " unaffected, " << robustness.delayed
      << " delayed, " << robustness.lost << " lost; observed makespan "
      << with_commas(robustness.baseline_makespan) << " -> "
      << with_commas(robustness.degraded_makespan);
  if (robustness.baseline_makespan > 0) {
    out << " (stretch " << std::fixed << std::setprecision(3) << robustness.makespan_stretch
        << "x)";
    out.unsetf(std::ios::fixed);
  }
  out << "\n";

  out << std::left << std::setw(22) << "module" << std::setw(12) << "fate" << std::right
      << std::setw(12) << "base end" << std::setw(12) << "degr end" << std::setw(10) << "delay"
      << "  reason\n";
  for (const sim::SessionRobustness& s : robustness.sessions) {
    const itc02::Module& m = sys.soc().module(s.module_id);
    out << std::left << std::setw(22) << cat(m.id, ":", m.name) << std::setw(12)
        << to_string(s.fate) << std::right << std::setw(12) << s.baseline_end << std::setw(12);
    if (s.fate == sim::SessionFate::kUnroutable) {
      out << "-" << std::setw(10) << "-" << "  " << s.reason;
    } else {
      out << s.degraded_end << std::setw(10) << s.delay << "  ";
    }
    out << "\n";
  }

  if (replan != nullptr) {
    out << "replanned degraded system: makespan " << with_commas(replan->schedule.makespan)
        << " over " << replan->planned_modules.size() << " modules";
    if (!replan->dead_modules.empty()) {
      out << "; dead:";
      for (int id : replan->dead_modules) out << " " << id;
    }
    if (!replan->untestable_modules.empty()) {
      out << "; untestable:";
      for (int id : replan->untestable_modules) out << " " << id;
    }
    out << " (search " << replan->metrics.info_or("search.strategy") << ", "
        << replan->metrics.counter_or("search.evaluations") << " evaluations, "
        << replan->pairs_rebuilt << " pair lists rebuilt)\n";
  }
  return out.str();
}

std::string robustness_csv(const core::SystemModel& sys,
                           const sim::RobustnessReport& robustness) {
  std::ostringstream out;
  CsvWriter csv(out, {"module", "name", "fate", "baseline_start", "baseline_end",
                      "degraded_start", "degraded_end", "delay", "reason"});
  for (const sim::SessionRobustness& s : robustness.sessions) {
    csv.row_of(s.module_id, sys.soc().module(s.module_id).name,
               std::string(to_string(s.fate)),
               s.baseline_start, s.baseline_end, s.degraded_start, s.degraded_end, s.delay,
               s.reason);
  }
  return out.str();
}

std::string robustness_json(const core::SystemModel& sys, const noc::FaultSet& faults,
                            const sim::RobustnessReport& robustness,
                            const search::ReplanResult* replan) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"soc\": " << json_string(sys.soc().name) << ",\n";
  out << "  \"faults\": {\"links\": " << json_int_array(faults.failed_channels())
      << ", \"routers\": " << json_int_array(faults.failed_routers())
      << ", \"processors\": " << json_int_array(faults.failed_processors()) << "},\n";

  out << "  \"robustness\": {\n";
  out << "    \"planned_makespan\": " << robustness.planned_makespan << ",\n";
  out << "    \"baseline_makespan\": " << robustness.baseline_makespan << ",\n";
  out << "    \"degraded_makespan\": " << robustness.degraded_makespan << ",\n";
  out << "    \"makespan_stretch\": " << json_number(robustness.makespan_stretch) << ",\n";
  out << "    \"unaffected\": " << robustness.unaffected << ",\n";
  out << "    \"delayed\": " << robustness.delayed << ",\n";
  out << "    \"sessions_lost\": " << robustness.lost << ",\n";
  out << "    \"sessions\": [\n";
  for (std::size_t i = 0; i < robustness.sessions.size(); ++i) {
    const sim::SessionRobustness& s = robustness.sessions[i];
    out << "      {\"module\": " << s.module_id << ", \"name\": "
        << json_string(sys.soc().module(s.module_id).name) << ", \"fate\": \""
        << to_string(s.fate) << "\", \"baseline_start\": " << s.baseline_start
        << ", \"baseline_end\": " << s.baseline_end
        << ", \"degraded_start\": " << s.degraded_start
        << ", \"degraded_end\": " << s.degraded_end << ", \"delay\": " << s.delay
        << ", \"reason\": " << json_string(s.reason) << "}"
        << (i + 1 < robustness.sessions.size() ? "," : "") << "\n";
  }
  out << "    ]\n  }";

  if (replan != nullptr) {
    out << ",\n  \"replan\": {\n";
    out << "    \"makespan\": " << replan->schedule.makespan << ",\n";
    out << "    \"planned_modules\": " << replan->planned_modules.size() << ",\n";
    out << "    \"dead_modules\": " << json_int_array(replan->dead_modules) << ",\n";
    out << "    \"untestable_modules\": " << json_int_array(replan->untestable_modules)
        << ",\n";
    out << "    \"pairs_rebuilt\": " << replan->pairs_rebuilt << ",\n";
    out << "    \"strategy\": " << json_string(replan->metrics.info_or("search.strategy"))
        << ",\n";
    out << "    \"evaluations\": " << replan->metrics.counter_or("search.evaluations") << "\n";
    out << "  }";
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace nocsched::report
