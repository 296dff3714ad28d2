#include "itc02/soc.hpp"

#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace nocsched::itc02 {

std::uint64_t Module::scan_flops() const {
  return std::accumulate(scan_chains.begin(), scan_chains.end(), std::uint64_t{0});
}

std::uint64_t Module::total_patterns() const {
  std::uint64_t total = 0;
  for (const CoreTest& t : tests) total += t.patterns;
  return total;
}

std::uint64_t Module::stimulus_bits_per_pattern() const {
  return scan_flops() + inputs + bidirs;
}

std::uint64_t Module::response_bits_per_pattern() const {
  return scan_flops() + outputs + bidirs;
}

bool Module::uses_scan() const {
  for (const CoreTest& t : tests) {
    if (t.uses_scan) return true;
  }
  return false;
}

const Module* Soc::find(int id) const {
  // Every validated SoC lists ids 1..N in order, so the slot is direct;
  // anything else (a SoC still being assembled) falls back to the scan.
  if (id >= 1 && static_cast<std::size_t>(id) <= modules.size()) {
    const Module& m = modules[static_cast<std::size_t>(id) - 1];
    if (m.id == id) return &m;
  }
  for (const Module& m : modules) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

const Module& Soc::module(int id) const {
  const Module* m = find(id);
  if (m == nullptr) fail("Soc '", name, "' has no module with id ", id);
  return *m;
}

double Soc::total_test_power() const {
  double total = 0.0;
  for (const Module& m : modules) total += m.test_power;
  return total;
}

std::vector<int> Soc::processor_ids() const {
  std::vector<int> ids;
  for (const Module& m : modules) {
    if (m.is_processor) ids.push_back(m.id);
  }
  return ids;
}

void validate(const Soc& soc) {
  // Diagnostics name modules by id only: a .soc file may be any file a
  // served request points at, and its names are its own bytes.
  ensure(!soc.name.empty(), "SoC has no name");
  ensure(!soc.modules.empty(), "SoC has no modules");
  int expected_id = 1;
  for (const Module& m : soc.modules) {
    ensure(m.id == expected_id, "module ids must be 1..N ascending; got ", m.id, " where ",
           expected_id, " was expected");
    ++expected_id;
    ensure(!m.name.empty(), "module ", m.id, " has no name");
    ensure(!m.tests.empty(), "module ", m.id, " has no tests");
    for (const CoreTest& t : m.tests) {
      ensure(t.patterns > 0, "module ", m.id, " has a test with 0 patterns");
      ensure(!t.uses_scan || !m.scan_chains.empty(), "module ", m.id,
             " has a scan test but no scan chains");
    }
    for (std::uint32_t len : m.scan_chains) {
      ensure(len > 0, "module ", m.id, " has a zero-length scan chain");
    }
    ensure(std::isfinite(m.test_power) && m.test_power >= 0.0, "module ", m.id,
           " has invalid test power");
    ensure(m.inputs + m.outputs + m.bidirs + m.scan_flops() > 0, "module ", m.id,
           " has no terminals and no scan — untestable");
  }
}

}  // namespace nocsched::itc02
