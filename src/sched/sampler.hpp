#pragma once
// Monte-Carlo execution sampling, serial and parallel.
//
// The exact enumerator is the ground truth for small systems; sampling
// covers the ones whose execution trees are too large (the family sweeps
// of experiment E8 at larger k, the throughput experiment E10). The
// sampling hot path is compiled: schedulers serve ChoiceRow double-CDFs
// and memoized automata (MemoPsioa) serve CompiledRow transition CDFs,
// so steady-state sampling performs no Rational arithmetic and never
// re-derives a composed signature. Both compilations preserve the
// historical partial-sum walk, so sampled results are draw-for-draw
// identical at fixed seed.
//
// ParallelSampler warms one instance, freezes its compiled tables and
// fans trials over thin read-only views of the shared snapshot, each
// chunk on its own RNG stream: serially (kSerial), or as the chunks of
// an IncrementalFdistRun, the one batched fan-out (a one-shot batched
// f-dist is a single wave that runs every chunk to completion). A
// serial run can carry a SampleGuard -- per-chunk wall-clock deadlines
// checked between trials, retry-with-seed-rotation when a chunk throws
// -- and degrade to a partial, still-normalized estimate plus a
// SampleReport instead of tearing the experiment down (fault sweeps,
// foreign automata).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "psioa/snapshot.hpp"
#include "sched/batch_sampler.hpp"
#include "sched/insight.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cdse {

/// Which stepping engine ParallelSampler::sample_fdist drives per chunk.
///   kSerial  -- one execution at a time, the draw-for-draw reproducible
///               walk.
///   kBatched -- lockstep trajectory-class batches, each class divided
///               over a row by an exact multinomial split
///               (sched/batch_sampler.hpp). Distribution-equivalent to
///               kSerial at the same seed and trial count, but not
///               draw-for-draw aligned; the chi-square harness
///               (tests/stat_util.hpp) pins the equivalence.
/// kSerial stays for one reason: batched rounds hand schedulers synthetic
/// fragments, so a scheduler that reads the history, such as
/// ObliviousFnScheduler (sched/schedulers.hpp), can only run serially.
enum class SamplingMode { kSerial, kBatched };

/// Samples one execution under the scheduler, halting when the scheduler
/// halts or at max_depth.
ExecFragment sample_execution(Psioa& automaton, Scheduler& sched,
                              Xoshiro256& rng, std::size_t max_depth);

/// Serial estimate of f-dist from `trials` samples.
Disc<Perception, double> sample_fdist(Psioa& automaton, Scheduler& sched,
                                      const InsightFunction& f,
                                      std::size_t trials, std::uint64_t seed,
                                      std::size_t max_depth);

/// Failure policy for a serial ParallelSampler::sample_fdist run. The
/// default guard is disarmed: no deadline, no retries.
struct SampleGuard {
  /// Wall-clock budget per chunk, checked between trials (each trial is
  /// already depth-bounded, so checks are reached). zero() = unlimited.
  std::chrono::milliseconds deadline{0};
  /// How many times a chunk that throws is restarted on a rotated seed
  /// stream before being written off.
  std::size_t max_retries = 0;
};

/// What actually happened during a sample_fdist run.
struct SampleReport {
  bool complete = true;          ///< every requested trial ran
  bool deadline_hit = false;     ///< at least one chunk ran out of time
  std::size_t trials_requested = 0;
  std::size_t trials_done = 0;   ///< trials contributing to the estimate
  std::size_t retries_used = 0;  ///< seed rotations consumed across chunks
  std::string error;             ///< first chunk failure message, "" if none

  explicit operator bool() const { return complete; }
};

// -- shared frozen snapshots ------------------------------------------------

/// How to warm an instance before freezing it. Both phases are
/// deterministic: episodes draw from a dedicated stream of `seed`, and
/// the reachable walk expands states in BFS order over sorted action
/// sets -- so two instances warmed with the same plan intern states in
/// the same order and end up with draw-for-draw identical compiled rows.
struct WarmupPlan {
  /// Sampling-driven warm-up episodes run before the exhaustive walk
  /// (they also warm path-dependent scheduler rows).
  std::size_t episodes = 32;
  /// Exhaustive reachable-state walk depth: every (state, action) row
  /// within this horizon is compiled. 0 skips the walk (episodes-only
  /// warm-up; unseen states overflow at sampling time). Set it to the
  /// experiment's max_depth for a fully covered, overflow-free snapshot.
  std::size_t horizon = 0;
  /// Safety cap on the number of states the walk visits.
  std::size_t max_states = std::size_t{1} << 20;
  /// Seed for the warm-up episode stream.
  std::uint64_t seed = 0x5eedULL;
  /// Interning pre-size hint: warm_automaton calls
  /// reserve_interning(min(reserve_states, max_states)) before the first
  /// episode so BFS discovery proceeds without mid-walk rehashes.
  /// Advisory only -- tables still grow past it on demand.
  std::size_t reserve_states = 256;
};

/// Runs `plan` against one instance: episodes first, then the reachable
/// walk (signatures at every visited state, compiled rows and scheduler
/// choice rows below the horizon). Returns the number of states the walk
/// visited (0 when plan.horizon == 0).
std::size_t warm_automaton(MemoPsioa& automaton, Scheduler& sched,
                           const WarmupPlan& plan, std::size_t max_depth);

/// Parallel Monte-Carlo estimation over one shared frozen snapshot:
/// prepare() builds a single warm instance from the factories, runs the
/// warm-up plan, and freezes its compiled tables (and the scheduler's
/// per-state choice rows); sample_fdist() then fans trials over thin
/// SnapshotPsioa views -- no per-worker clone, no per-worker warm-up,
/// one copy of the compiled tables regardless of worker count. In
/// kSerial mode chunk c of the pool's static partition draws from
/// stream c of `seed`, so a prepared sampler reproduces, draw for draw,
/// one warmed clone per worker driven over the same chunks and streams
/// (tests/snapshot_test.cpp builds that reference and pins this).
class ParallelSampler {
 public:
  ParallelSampler(PsioaFactory make_automaton, SchedulerFactory make_sched);

  /// Warms and freezes. `max_depth` bounds the warm-up episodes (use the
  /// depth you will sample at). Subsequent calls re-warm and re-freeze
  /// from scratch. The automaton factory runs here and nowhere else, so
  /// what it throws propagates from prepare().
  void prepare(const WarmupPlan& plan, std::size_t max_depth);
  bool prepared() const { return snapshot_ != nullptr; }

  /// Normalized f-dist estimate from `trials` executions. kBatched runs
  /// one IncrementalFdistRun wave that takes every chunk to completion
  /// and divides its counts by `trials`.
  ///
  /// kSerial honours `guard`: each attempt of a chunk builds a fresh
  /// view and scheduler and draws from stream c of
  /// seed + attempt * golden-gamma (attempt 0 is stream c of `seed`);
  /// the deadline is checked between trials; an attempt that throws
  /// (scheduler factory, insight function, overflow row) has its trials
  /// discarded and is retried up to guard.max_retries times. The
  /// estimate is normalized over the trials that survived, and
  /// last_stats() sums the surviving attempts. An incomplete run fills
  /// `report` and returns the partial estimate; without a report it
  /// throws instead -- the exception of the first chunk that exhausted
  /// its retries, else std::runtime_error for a deadline cut. A batched
  /// chunk has no trial boundary to stop or retry at, so kBatched
  /// rejects an armed guard with std::invalid_argument (a report comes
  /// back complete).
  Disc<Perception, double> sample_fdist(const InsightFunction& f,
                                        std::size_t trials,
                                        std::uint64_t seed,
                                        std::size_t max_depth,
                                        ThreadPool& pool,
                                        SamplingMode mode =
                                            SamplingMode::kSerial,
                                        const SampleGuard& guard = {},
                                        SampleReport* report = nullptr);

  /// A fresh thin worker view / scheduler, as handed to each chunk.
  /// Exposed for the differential tests and for callers integrating the
  /// snapshot into their own fan-out. Requires prepared().
  std::shared_ptr<SnapshotPsioa> worker_view() const;
  SchedulerPtr worker_scheduler() const;

  std::shared_ptr<const CompiledSnapshot> snapshot() const {
    return snapshot_;
  }

  /// Counters summed over the workers of the most recent sample_fdist.
  const SnapshotStats& last_stats() const { return last_stats_; }

  /// Batch counters summed over the workers of the most recent
  /// sample_fdist in kBatched mode (zeroed by kSerial runs).
  const BatchStats& last_batch_stats() const { return last_batch_stats_; }

  /// Interning counters of the warm instance (the handle authority all
  /// views share). Zero-valued before prepare(). Read by the E10 bench
  /// to attribute warm-up memory to the handle store.
  InternStats residue_intern_stats() const;

 private:
  PsioaFactory make_automaton_;
  SchedulerFactory make_sched_;
  std::shared_ptr<MemoPsioa> warm_;
  std::shared_ptr<const CompiledSnapshot> snapshot_;
  std::shared_ptr<SnapshotResidue> residue_;
  std::shared_ptr<const FrozenChoiceTable> choice_rows_;
  SnapshotStats last_stats_;
  BatchStats last_batch_stats_;
};

/// The batched fan-out: `trials` executions over a prepared sampler's
/// snapshot, split into one persistent BatchSampler chunk per worker
/// (at most one per trial) and advanced in waves. A wave steps every
/// unfinished chunk `rounds_per_wave` lockstep rounds, each chunk on
/// its own pool task (inline when there is one chunk), then takes the
/// per-perception counts of the classes that went terminal during the
/// wave (BatchSampler::take_counts) and merges the chunks' counts into
/// wave_delta(). The run keeps no running tally: a caller that wants one
/// merges each wave's delta itself. Integer class counts sum exactly in
/// doubles, so such a tally is independent of wave boundaries and of
/// merge order. Several runs can be interleaved wave by wave -- the
/// paired-consumption shape the sequential epsilon estimator needs (one
/// look compares the LEFT and RIGHT tallies at matching trial counts).
class IncrementalFdistRun {
 public:
  /// Progress of one wave.
  struct WaveReport {
    std::size_t wave = 0;            ///< 1-based wave index
    std::size_t rounds_per_wave = 0; ///< lockstep rounds each chunk stepped
    std::size_t trials_done = 0;     ///< executions terminal so far
    std::size_t trials_requested = 0;
    bool done = false;               ///< every chunk finished
    /// Entries of the chunks' counts merged into wave_delta() THIS wave.
    /// Each chunk folds only the classes that went terminal this wave,
    /// so sum(merge_entries) over a whole run is bounded by the run's
    /// distinct_executions (BatchStats).
    std::size_t merge_entries = 0;
  };

  /// Requires sampler.prepared(); holds references to `f` and `pool`
  /// for its lifetime.
  ///
  /// rounds_per_wave contract: 0 auto-tunes the wave size to
  /// max(1, 2048 / per_chunk_trials): chunks carrying >= 2048 trials
  /// report after every round, small chunks batch several rounds per
  /// wave. Waves are where the sequential driver looks, so this rule
  /// fixes the look schedule -- and with it the stopping time of every
  /// seeded sequential verdict. The auto-tuned value is surfaced in
  /// WaveReport::rounds_per_wave. Any nonzero value is used as given;
  /// SIZE_MAX finishes the run in one wave.
  IncrementalFdistRun(const ParallelSampler& sampler,
                      const InsightFunction& f, std::size_t trials,
                      std::uint64_t seed, std::size_t max_depth,
                      ThreadPool& pool, std::size_t rounds_per_wave = 0);
  ~IncrementalFdistRun();
  IncrementalFdistRun(const IncrementalFdistRun&) = delete;
  IncrementalFdistRun& operator=(const IncrementalFdistRun&) = delete;

  bool done() const { return done_; }
  /// Advances every unfinished chunk by one wave of rounds, merges the
  /// chunks' fresh counts into wave_delta(), and returns the report.
  /// No-op once done(). An exception from a chunk (the insight function
  /// included) propagates after every chunk task has finished; the run
  /// must not be stepped again.
  const WaveReport& step_wave();
  const WaveReport& report() const { return report_; }
  /// The wave size in effect (auto-tuned when 0 was requested).
  std::size_t rounds_per_wave() const { return rounds_per_wave_; }

  std::size_t trials_requested() const { return trials_; }
  std::uint64_t trials_terminal() const;
  /// The unnormalized per-perception counts (integer-valued) of the
  /// executions that went terminal during the most recent wave.
  const Disc<Perception, double>& wave_delta() const { return wave_delta_; }

  /// Counters summed over the chunks (valid between waves).
  BatchStats batch_stats() const;
  SnapshotStats snapshot_stats() const;

 private:
  struct Chunk;

  const InsightFunction& f_;
  std::size_t trials_;
  ThreadPool& pool_;
  std::size_t rounds_per_wave_ = 1;
  std::vector<Chunk> chunks_;
  Disc<Perception, double> wave_delta_;
  WaveReport report_;
  std::size_t wave_ = 0;
  bool done_ = false;
};

}  // namespace cdse
