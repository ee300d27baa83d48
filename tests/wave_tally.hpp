#pragma once
// Test helper for IncrementalFdistRun (sched/sampler.hpp): the run emits
// per-wave id-keyed deltas only, so a test that wants partial f-dists
// owns the running tally, as the sequential estimator does, and reads it
// through the run's perception table.

#include <cstdint>
#include <functional>
#include <vector>

#include "measure/disc.hpp"
#include "sched/sampler.hpp"

namespace cdse::testing {

using WaveObserver = std::function<bool(
    const IncrementalFdistRun::WaveReport&, const Disc<Perception, double>&)>;

/// Steps `run` (whose ids come from `table`) until done, adding every
/// wave_delta() to a running tally. After each wave, `on_wave` (when
/// set) gets the report and the tally normalized over the terminal
/// trials; returning false stops the run early. Returns the normalized
/// tally (empty when nothing went terminal).
inline Disc<Perception, double> drive_waves(
    IncrementalFdistRun& run, PerceptionTable& table,
    const WaveObserver& on_wave = nullptr) {
  std::vector<double> tally;
  const auto normalized = [&run, &table, &tally] {
    const std::uint64_t terminal = run.trials_terminal();
    if (terminal == 0) return Disc<Perception, double>{};
    const double n = static_cast<double>(terminal);
    return table.to_disc(tally, [n](double count) { return count / n; });
  };
  while (!run.done()) {
    const IncrementalFdistRun::WaveReport& rep = run.step_wave();
    add_counts(tally, run.wave_delta());
    if (on_wave != nullptr && !on_wave(rep, normalized())) break;
  }
  return normalized();
}

}  // namespace cdse::testing
