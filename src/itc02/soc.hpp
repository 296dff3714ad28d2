#pragma once
// Data model for ITC'02-style SoC test benchmark descriptions.
//
// The ITC'02 SoC Test Benchmarks (Marinissen et al., ITC 2002) describe a
// system-on-chip as a set of modules ("cores"), each with functional I/O
// terminal counts, internal scan chains, and one or more tests with a
// pattern count.  This model captures the subset the DATE'05 planner
// consumes, plus the per-core peak test power that the power-aware
// scheduling literature attached to these benchmarks.

#include <cstdint>
#include <string>
#include <vector>

namespace nocsched::itc02 {

/// One test of a module (ITC'02 allows several per module, e.g. a scan
/// test plus a BIST test; the planner runs them back-to-back).
struct CoreTest {
  std::uint32_t patterns = 0;  ///< number of test patterns
  bool uses_scan = true;       ///< false for purely functional/BIST tests

  friend bool operator==(const CoreTest&, const CoreTest&) = default;
};

/// A core (or the embedded-processor cores this reproduction appends).
struct Module {
  int id = 0;                ///< 1-based, unique within the SoC
  std::string name;          ///< e.g. "s38584"
  std::uint32_t inputs = 0;  ///< functional input terminals
  std::uint32_t outputs = 0;
  std::uint32_t bidirs = 0;
  std::vector<std::uint32_t> scan_chains;  ///< internal scan chain lengths
  std::vector<CoreTest> tests;
  double test_power = 0.0;    ///< peak power while under test (model units)
  bool is_processor = false;  ///< true for the appended Leon/Plasma cores

  /// Total internal scan flip-flops.
  [[nodiscard]] std::uint64_t scan_flops() const;

  /// Patterns summed over all tests.
  [[nodiscard]] std::uint64_t total_patterns() const;

  /// Bits that must reach the core per pattern (scan load + input and
  /// bidir wrapper cells).
  [[nodiscard]] std::uint64_t stimulus_bits_per_pattern() const;

  /// Bits produced per pattern (scan unload + output and bidir cells).
  [[nodiscard]] std::uint64_t response_bits_per_pattern() const;

  /// True if any test uses the scan chains.
  [[nodiscard]] bool uses_scan() const;

  friend bool operator==(const Module&, const Module&) = default;
};

/// A whole benchmark system.
struct Soc {
  std::string name;
  std::vector<Module> modules;  ///< ids 1..N in ascending order

  /// The module with `id`, or nullptr if absent.  O(1) when the ids are
  /// 1..N in order (every validated SoC), a scan otherwise.
  [[nodiscard]] const Module* find(int id) const;

  /// find(id), throwing nocsched::Error if absent.
  [[nodiscard]] const Module& module(int id) const;

  /// Number of modules.
  [[nodiscard]] std::size_t size() const { return modules.size(); }

  /// Sum of per-module peak test power — the paper's power limits are
  /// expressed as a percentage of this value.
  [[nodiscard]] double total_test_power() const;

  /// Ids of processor modules (in ascending order).
  [[nodiscard]] std::vector<int> processor_ids() const;

  friend bool operator==(const Soc&, const Soc&) = default;
};

/// Structural validation: ids are 1..N ascending and unique, names
/// non-empty, every module has at least one test with patterns > 0,
/// scan-using tests have scan chains, power is non-negative and finite.
/// Throws nocsched::Error describing the first violation.
void validate(const Soc& soc);

}  // namespace nocsched::itc02
