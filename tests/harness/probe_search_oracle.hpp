// Reference load-probe searches: the one-probe-at-a-time zero-loss and
// lethal-dose searches the speculative ProbeScheduler walks must
// reproduce. Each runs a probe callable in sequence and records the rate
// scales it visited, so a test can compare both the value and the path.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "harness/probe_search.hpp"

namespace idseval::harness::oracle {

using ScaleProbe = std::function<LoadPoint(double rate_scale)>;

struct ZeroLossResult {
  double pps = 0.0;
  std::vector<double> path;
};

inline ZeroLossResult sequential_zero_loss(const ScaleProbe& probe,
                                           double max_scale,
                                           double loss_epsilon,
                                           int iterations) {
  ZeroLossResult out;
  const auto visit = [&](double scale) {
    out.path.push_back(scale);
    return probe(scale);
  };
  // Establish a bracket: grow until loss appears (or max_scale reached).
  double lo = 0.0;  // highest scale with zero loss
  double lo_pps = 0.0;
  double hi = 0.0;  // lowest scale with loss (0 = none found)
  double scale = 1.0;
  while (scale <= max_scale) {
    const LoadPoint p = visit(scale);
    if (p.loss_ratio <= loss_epsilon && p.failures == 0) {
      lo = scale;
      lo_pps = p.offered_pps;
      scale *= 2.0;
    } else {
      hi = scale;
      break;
    }
  }
  if (hi == 0.0 && lo < max_scale) {
    // The doubling bracket stopped short of max_scale; probe it directly.
    const LoadPoint p = visit(max_scale);
    if (p.loss_ratio <= loss_epsilon && p.failures == 0) {
      out.pps = p.offered_pps;
      return out;
    }
    hi = max_scale;
  }
  if (hi == 0.0) {  // never lost anything up to max_scale
    out.pps = lo_pps;
    return out;
  }
  // Bisection refines the knee.
  for (int i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    const LoadPoint p = visit(mid);
    if (p.loss_ratio <= loss_epsilon && p.failures == 0) {
      lo = mid;
      lo_pps = p.offered_pps;
    } else {
      hi = mid;
    }
  }
  out.pps = lo_pps;
  return out;
}

struct LethalDoseResult {
  std::optional<double> pps;
  std::vector<double> path;
};

inline LethalDoseResult sequential_lethal_dose(const ScaleProbe& probe,
                                               double max_scale) {
  LethalDoseResult out;
  for (double scale = 2.0; scale <= max_scale; scale *= 1.6) {
    out.path.push_back(scale);
    const LoadPoint p = probe(scale);
    if (p.failures > 0) {
      out.pps = p.offered_pps;
      return out;
    }
  }
  return out;
}

}  // namespace idseval::harness::oracle
