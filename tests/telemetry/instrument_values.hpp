// Test helper: every instrument in a registry flattened to name -> value
// (counters by value, latencies by sample count and mean), so two runs
// can be checked for identical telemetry in one assertion.
#pragma once

#include <map>
#include <string>

#include "telemetry/registry.hpp"

namespace idseval::telemetry {

inline std::map<std::string, double> instrument_values(const Registry& reg) {
  std::map<std::string, double> values;
  for (const auto& [name, counter] : reg.counters()) {
    values[name] = static_cast<double>(counter.value());
  }
  for (const auto& [name, latency] : reg.latencies()) {
    values[name + ".count"] = static_cast<double>(latency.stats().count());
    values[name + ".mean"] = latency.stats().mean();
  }
  return values;
}

}  // namespace idseval::telemetry
