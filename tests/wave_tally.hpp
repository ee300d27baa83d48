#pragma once
// Test helper for IncrementalFdistRun (sched/sampler.hpp): the run emits
// per-wave deltas only, so a test that wants partial f-dists owns the
// running tally, as the sequential estimator does.

#include <cstdint>
#include <functional>

#include "measure/disc.hpp"
#include "sched/sampler.hpp"

namespace cdse::testing {

using WaveObserver = std::function<bool(
    const IncrementalFdistRun::WaveReport&, const Disc<Perception, double>&)>;

/// Steps `run` until done, merging every wave_delta() into a running
/// tally. After each wave, `on_wave` (when set) gets the report and the
/// tally normalized over the terminal trials; returning false stops the
/// run early. Returns the normalized tally (empty when nothing went
/// terminal).
inline Disc<Perception, double> drive_waves(
    IncrementalFdistRun& run, const WaveObserver& on_wave = nullptr) {
  Disc<Perception, double> tally;
  const auto normalized = [&run, &tally] {
    Disc<Perception, double> out;
    const std::uint64_t terminal = run.trials_terminal();
    if (terminal == 0) return out;
    const double n = static_cast<double>(terminal);
    out.merge(tally, [n](double count) { return count / n; });
    return out;
  };
  while (!run.done()) {
    const IncrementalFdistRun::WaveReport& rep = run.step_wave();
    tally.merge(run.wave_delta());
    if (on_wave != nullptr && !on_wave(rep, normalized())) break;
  }
  return normalized();
}

}  // namespace cdse::testing
