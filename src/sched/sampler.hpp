#pragma once
// Monte-Carlo f-dist estimation over one shared frozen snapshot, and
// the owner of that snapshot for the exact engines too.
//
// The exact enumerator is the ground truth for small systems; sampling
// covers the ones whose execution trees are too large (the family sweeps
// of experiment E8 at larger k, the throughput experiment E10). There is
// one sampling engine, the batched lockstep sampler
// (sched/batch_sampler.hpp), run here as an IncrementalFdistRun: one
// thin view of the snapshot, one scheduler and one RNG stream at every
// pool size. Schedulers serve compiled ChoiceRows and memoized automata
// compiled CompiledRows, so steady-state sampling performs no Rational
// arithmetic. A one-shot f-dist can carry a SampleGuard, which acts at
// round boundaries (ParallelSampler::sample_fdist). sample_execution,
// the one-execution walk, stays for warm_automaton's episodes; the
// serial estimators built on it are test-side references
// (tests/reference_engines.hpp).
//
// Every compiled table has one owner: the frozen snapshot takes the warm
// instance's rows, the instance stays behind only as the residue that
// computes what the snapshot lacks, and reduce() swaps all of it for the
// bisimulation quotient, the one table a reduced exact engine keeps.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "psioa/snapshot.hpp"
#include "sched/batch_sampler.hpp"
#include "sched/insight.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cdse {

/// Batched lockstep sampling is the only engine; the enum and the
/// parameters taking it remain for existing callers.
enum class SamplingMode { kBatched };

/// Samples one execution under the scheduler, halting when the scheduler
/// halts or at max_depth: one uniform per pick from the scheduler's and
/// the automaton's compiled rows. warm_automaton's episodes walk it.
ExecFragment sample_execution(MemoPsioa& automaton, Scheduler& sched,
                              Xoshiro256& rng, std::size_t max_depth);

/// Failure policy for ParallelSampler::sample_fdist. The default guard
/// is disarmed: no deadline, no retries.
struct SampleGuard {
  /// Wall-clock budget per attempt, checked after every lockstep round.
  /// zero() = unlimited.
  std::chrono::milliseconds deadline{0};
  /// How many times a run that throws is restarted, on a fresh view and
  /// scheduler and a rotated seed, before being written off.
  std::size_t max_retries = 0;
};

/// What actually happened during a sample_fdist run.
struct SampleReport {
  bool complete = true;          ///< every requested trial finished
  bool deadline_hit = false;     ///< the deadline cut the run short
  std::size_t trials_requested = 0;
  /// Executions that finished and carry mass in the estimate; the
  /// estimate's total mass is trials_done / trials_requested.
  std::size_t trials_done = 0;
  std::size_t retries_used = 0;  ///< seed rotations consumed
  std::string error;             ///< first attempt's failure, "" if none

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
/// walk (signatures at every visited state, compiled rows and -- for a
/// MarkovScheduler -- choice rows below the horizon). Returns the number
/// of states the walk visited (0 when plan.horizon == 0).
std::size_t warm_automaton(MemoPsioa& automaton, Scheduler& sched,
                           const WarmupPlan& plan, std::size_t max_depth);

/// The covering rule of every reduction: a warm-up under `plan` whose
/// walk visited `visited` states compiled every state an enumeration to
/// `max_depth` can expand when the walk ran, reached max_depth and did
/// not stop at plan.max_states. Only such a snapshot may be quotiented.
bool warmup_covers(const WarmupPlan& plan, std::size_t visited,
                   std::size_t max_depth);

/// One minimized system, ready for any exact engine: `view` is a
/// frozen-only SnapshotPsioa over the quotient that the caller can hand
/// to enumerate_cone / ConeFrontierCache exactly like the original
/// automaton, and `snapshot` backs additional per-worker views for
/// parallel fan-out.
struct ReducedSystem {
  std::shared_ptr<const CompiledSnapshot> snapshot;  ///< the quotient
  std::shared_ptr<SnapshotPsioa> view;  ///< frozen-only view over it
  std::size_t states = 0;  ///< snapshot states before reduction
  std::size_t blocks = 0;  ///< blocks after reduction
};

/// Partitions a snapshot that covers the enumeration depth by
/// probabilistic bisimulation (impl/bisim.hpp) and quotients it.
ReducedSystem reduce_snapshot(const CompiledSnapshot& snapshot);

/// Monte-Carlo estimation over one shared frozen snapshot: prepare()
/// builds a single warm instance from the factories, runs the warm-up
/// plan, and hands its compiled tables (and the scheduler's per-state
/// choice rows) over to the frozen snapshot; every run then samples
/// through a thin SnapshotPsioa view -- no per-run clone, no per-run
/// warm-up, one copy of the compiled tables however many views sample
/// at once.
class ParallelSampler {
 public:
  ParallelSampler(PsioaFactory make_automaton, SchedulerFactory make_sched);

  /// Warms and freezes. `max_depth` bounds the warm-up episodes (use the
  /// depth you will sample at). Subsequent calls re-warm and re-freeze
  /// from scratch. The automaton factory runs here and nowhere else, so
  /// what it throws propagates from prepare().
  void prepare(const WarmupPlan& plan, std::size_t max_depth);
  bool prepared() const { return snapshot_ != nullptr; }

  /// Swaps the prepared tables for their bisimulation quotient
  /// (reduce_snapshot): the quotient becomes the snapshot, and the warm
  /// instance, the raw snapshot, the residue and the frozen choice rows
  /// are released. Worker views are then frozen-only and worker
  /// schedulers start empty, because frozen choice rows are keyed by
  /// original handles, which a block handle could alias. Returns
  /// nullopt, and changes nothing, when prepare()'s walk did not cover
  /// its max_depth (warmup_covers). Requires prepared().
  std::optional<ReducedSystem> reduce();

  /// f-dist estimate from `trials` executions: one IncrementalFdistRun
  /// on stream 0 of `seed`, its terminal counts divided by `trials`.
  /// `pool` and `mode` are unused: the estimate is the same at every
  /// pool size.
  ///
  /// `guard` acts at round boundaries: the deadline is checked after
  /// every round, and an attempt that throws (scheduler factory,
  /// scheduler, insight function, overflow row) is retried up to
  /// guard.max_retries times on a fresh view and scheduler, on stream 0
  /// of seed + attempt * golden-gamma (attempt 0 is the unguarded
  /// stream, so a guard that never fires changes nothing). A deadline
  /// cut returns the terminal counts so far divided by `trials`, not
  /// renormalized: a lockstep cut keeps only the short executions, so
  /// the missing mass 1 - trials_done / trials stays missing. An
  /// incomplete run fills `report` and returns its partial estimate
  /// (empty when every attempt threw); without a report it throws --
  /// the first attempt's exception, else std::runtime_error for a
  /// deadline cut.
  Disc<Perception, double> sample_fdist(const InsightFunction& f,
                                        std::size_t trials,
                                        std::uint64_t seed,
                                        std::size_t max_depth,
                                        ThreadPool& pool,
                                        SamplingMode mode =
                                            SamplingMode::kBatched,
                                        const SampleGuard& guard = {},
                                        SampleReport* report = nullptr);

  /// A fresh thin worker view / scheduler, as handed to each
  /// IncrementalFdistRun. Exposed for the differential tests and for
  /// callers integrating the snapshot into their own fan-out (views are
  /// safe to use concurrently, one thread per view). Requires
  /// prepared(). After reduce(), views are frozen-only.
  std::shared_ptr<SnapshotPsioa> worker_view() const;
  SchedulerPtr worker_scheduler() const;

  std::shared_ptr<const CompiledSnapshot> snapshot() const {
    return snapshot_;
  }

  /// Snapshot counters of the most recent sample_fdist's run view.
  const SnapshotStats& last_stats() const { return last_stats_; }

  /// Batch counters of the most recent sample_fdist's run.
  const BatchStats& last_batch_stats() const { return last_batch_stats_; }

  /// Interning counters of the warm instance (the handle authority all
  /// views share). Zero-valued before prepare() and after reduce(). Read
  /// by the E10 bench to attribute warm-up memory to the handle store.
  InternStats residue_intern_stats() const;

 private:
  PsioaFactory make_automaton_;
  SchedulerFactory make_sched_;
  std::shared_ptr<const CompiledSnapshot> snapshot_;
  std::shared_ptr<SnapshotResidue> residue_;  // holds the warm instance
  std::shared_ptr<const FrozenChoiceTable> choice_rows_;
  bool covers_ = false;  // prepare()'s walk covered its max_depth
  SnapshotStats last_stats_;
  BatchStats last_batch_stats_;
};

/// The batched run: `trials` executions over a prepared sampler's
/// snapshot, stepped by one persistent BatchSampler on one worker view
/// and one scheduler, drawing from the stream it is given, and advanced
/// in waves. A wave steps the sampler `rounds_per_wave` lockstep rounds,
/// then takes the (perception id, count) pairs of the classes that went
/// terminal during the wave (BatchSampler::take_counts) as
/// wave_delta(); the ids are the run's PerceptionTable's. The run keeps
/// no running tally: a caller that wants one adds each wave's delta to
/// it (add_counts). Integer class counts sum exactly in doubles, so such
/// a tally is independent of wave boundaries. The run uses no pool: its
/// tallies are a pure function of (stream, trials, depth, prefix).
/// Several runs can be interleaved wave by wave -- the paired-
/// consumption shape the sequential epsilon estimator needs (one look
/// compares the LEFT and RIGHT tallies at matching trial counts), with
/// one table shared by both sides so equal perceptions get equal ids --
/// or stepped on separate threads, one thread per run and table.
class IncrementalFdistRun {
 public:
  /// Progress of one wave.
  struct WaveReport {
    std::size_t wave = 0;            ///< 1-based wave index
    std::size_t rounds_per_wave = 0; ///< lockstep rounds per wave
    std::size_t trials_done = 0;     ///< executions terminal so far
    std::size_t trials_requested = 0;
    bool done = false;               ///< the run finished
  };

  /// Requires sampler.prepared(); holds references to `f` and `table`
  /// for its lifetime. The RNG is copied in, as BatchSampler does. A
  /// non-null
  /// `prefix` conditions every execution on it (BatchSampler's
  /// prefix-conditioned constructor; the importance-splitting strata)
  /// and is copied.
  ///
  /// rounds_per_wave contract: 0 auto-tunes the wave size to
  /// max(1, 2048 / trials): runs of >= 2048 trials report after every
  /// round, small runs batch several rounds per wave. Waves are where
  /// the sequential driver looks, so this rule fixes the look schedule
  /// -- and with it the stopping time of every seeded sequential
  /// verdict. The auto-tuned value is surfaced in
  /// WaveReport::rounds_per_wave. Any nonzero value is used as given;
  /// SIZE_MAX finishes the run in one wave.
  IncrementalFdistRun(const ParallelSampler& sampler,
                      const InsightFunction& f, PerceptionTable& table,
                      std::size_t trials, const Xoshiro256& rng,
                      std::size_t max_depth,
                      std::size_t rounds_per_wave = 0,
                      const ExecFragment* prefix = nullptr);
  IncrementalFdistRun(const IncrementalFdistRun&) = delete;
  IncrementalFdistRun& operator=(const IncrementalFdistRun&) = delete;

  bool done() const { return bs_.done(); }
  /// Advances the run by one wave of rounds, takes its fresh counts as
  /// wave_delta(), and returns the report. No-op once done(). An
  /// exception (the insight function's included) propagates; the run
  /// must not be stepped again.
  const WaveReport& step_wave();
  const WaveReport& report() const { return report_; }
  /// The wave size in effect (auto-tuned when 0 was requested).
  std::size_t rounds_per_wave() const { return report_.rounds_per_wave; }

  std::size_t trials_requested() const { return bs_.trials_requested(); }
  std::uint64_t trials_terminal() const { return bs_.trials_terminal(); }
  /// One (perception id, count) pair per class that went terminal
  /// during the most recent wave (ids may repeat).
  const PerceptionCounts& wave_delta() const { return wave_delta_; }

  /// The run's counters (valid between waves).
  const BatchStats& batch_stats() const { return bs_.stats(); }
  const SnapshotStats& snapshot_stats() const {
    return view_->snapshot_stats();
  }

 private:
  const InsightFunction& f_;
  std::shared_ptr<SnapshotPsioa> view_;
  SchedulerPtr sched_;
  BatchSampler bs_;
  PerceptionCounts wave_delta_;
  WaveReport report_;
};

}  // namespace cdse
