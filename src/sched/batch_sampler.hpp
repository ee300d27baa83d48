#pragma once
// Batched lockstep execution sampling with exact multinomial class
// splits, and an incremental-rounds API.
//
// The serial sampler (sched/sampler.hpp) walks one execution at a time:
// every step pays a scheduler row lookup, a linear CDF scan, a compiled
// transition row lookup (two hash probes on the snapshot path), a second
// CDF scan and a fragment append -- per execution. The paper's
// epsilon-emulation checks want millions of Monte-Carlo executions per
// f-dist, and those executions are all walks of the *same* frozen
// snapshot, so the batched mode steps a whole block of executions in
// lockstep instead:
//
//   - Live executions are kept as a structure-of-arrays block of
//     *trajectory classes*: executions sharing their entire history so
//     far collapse to one (state, path-node, count) entry. Grouping by
//     (state, pending action) is maximal by construction -- a class IS
//     such a group -- so each scheduler/transition row is fetched once
//     per class per round instead of once per execution per step.
//   - Histories live in a shared path tree (parent-pointer arena), so
//     extending a class by one step appends one node; nothing is copied
//     until a terminal class is expanded for the insight function, and
//     the insight function itself runs once per *distinct* execution,
//     weighted by its class count.
//   - A class's executions pick independently from the same row, so the
//     counts landing in the row's slots are Multinomial(count, p). The
//     rows' split rows (util/multinomial.hpp) draw that split exactly,
//     one binomial per slot: the cost of a round follows the number of
//     classes and the row widths, not the number of trials. A singleton
//     row (one slot) hands the whole class to its slot without touching
//     the RNG.
//
// Equivalence contract: batched results equal serial results in
// *distribution*, not draw-for-draw -- classes consume the RNG in
// class-sorted order, one binomial per slot where the serial walk spends
// one uniform per pick. The statistical harness
// (tests/stat_util.hpp) pins the pairing with chi-square differential
// tests; the serial path remains the reference (SamplingMode::kSerial).
//
// Scheduler contract: rounds query choice rows through synthetic
// fragments that carry the correct last state and length but dummy
// interior steps, so batched mode supports every scheduler whose choice
// is a function of (lstate, |alpha|) -- uniform, priority, bounded,
// sequence, task. History-reading schedulers (oblivious-fn) would see
// garbage words and are not supported in batched mode.
//
// Determinism: one RNG stream, classes sorted by (state, node id) each
// round, actions split in row order, targets in row order -- the whole
// schedule is a pure function of (seed, trials, max_depth), so batched
// runs are reproducible on one build and host even though they are not
// draw-for-draw aligned with the serial walk (the binomials use libm's
// log and exp; see util/multinomial.hpp). The incremental API below
// preserves this: pausing and resuming at any round boundary replays the
// identical schedule (run_rounds(a); run_rounds(b) == run_rounds(a + b),
// bit-identically).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "psioa/memo.hpp"
#include "sched/insight.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace cdse {

/// Counters of one batched run, for the E20/E21 benches and the tests:
/// how much row-lookup amortization the class grouping bought, and how
/// many binomials the class splits drew (or elided).
struct BatchStats {
  std::size_t rounds = 0;        ///< lockstep rounds executed
  std::size_t classes_peak = 0;  ///< live trajectory classes, maximum
  std::size_t class_steps = 0;   ///< class-rounds (amortized row work)
  std::size_t choice_lookups = 0;  ///< scheduler rows fetched
  std::size_t row_lookups = 0;     ///< transition rows fetched
  std::size_t action_draws = 0;    ///< logical action draws (incl. elided)
  std::size_t target_draws = 0;    ///< logical target draws (incl. elided)
  std::size_t distinct_executions = 0;  ///< terminal classes (f.apply calls)
  std::size_t split_draws = 0;     ///< binomials drawn by class splits
  std::size_t singleton_skips = 0; ///< logical draws elided (1-slot rows)

  BatchStats& operator+=(const BatchStats& o) {
    rounds += o.rounds;
    classes_peak = classes_peak > o.classes_peak ? classes_peak
                                                 : o.classes_peak;
    class_steps += o.class_steps;
    choice_lookups += o.choice_lookups;
    row_lookups += o.row_lookups;
    action_draws += o.action_draws;
    target_draws += o.target_draws;
    distinct_executions += o.distinct_executions;
    split_draws += o.split_draws;
    singleton_skips += o.singleton_skips;
    return *this;
  }
};

/// Stateful lockstep engine: one chunk's worth of executions advanced
/// round by round. IncrementalFdistRun (sched/sampler.hpp) drives one
/// per chunk, wave by wave: run_rounds, then take_counts. The
/// importance-splitting estimator runs one per stratum to completion
/// (impl/balance.hpp). The single-instance helpers below wrap it for the
/// differential tests.
///
/// Lifetime: holds references to the automaton and scheduler; both must
/// outlive the sampler. One sampler per thread (no internal locking).
class BatchSampler {
 public:
  /// Prepares `trials` executions of `automaton` under `sched`. The RNG
  /// is copied in; every class split draws from it.
  BatchSampler(Psioa& automaton, Scheduler& sched, std::size_t trials,
               const Xoshiro256& rng, std::size_t max_depth);

  /// Prefix-conditioned variant for the importance-splitting estimator:
  /// all `trials` executions start from `prefix` (depth counts from
  /// prefix.length(), so the scheduler sees absolute execution lengths
  /// and `max_depth` keeps its absolute meaning) and sample the
  /// CONDITIONAL continuation law given the prefix. Terminal fragments
  /// are the full executions (prefix + sampled suffix), so the insight
  /// function sees exactly what an unconditioned run would feed it.
  /// Correct conditioning relies on the batched scheduler contract
  /// (choice a function of (lstate, |alpha|)): under it the conditional
  /// law given a depth-d prefix depends only on (prefix.lstate(), d).
  BatchSampler(Psioa& automaton, Scheduler& sched, std::size_t trials,
               const Xoshiro256& rng, std::size_t max_depth,
               const ExecFragment& prefix);

  /// Executes up to `n` more lockstep rounds; returns how many actually
  /// ran (0 once done()). When the run completes -- every class halted
  /// or max_depth reached -- surviving classes are flushed to terminal.
  std::size_t run_rounds(std::size_t n);

  /// Runs to completion (the one-shot path).
  void run_to_completion();

  bool done() const { return flushed_; }
  std::size_t rounds_done() const { return stats_.rounds; }
  /// Executions finished so far (sum of terminal class counts).
  std::uint64_t trials_terminal() const { return terminal_trials_; }
  std::size_t trials_requested() const { return trials_; }

  /// The per-perception counts (unnormalized) of the classes that went
  /// terminal since the previous call: f runs once per class, the batch
  /// is sorted once. Empty when nothing new went terminal. Summing every
  /// call's counts gives the tally of the whole run, independent of
  /// where the calls fall: integer counts sum exactly in doubles.
  Disc<Perception, double> take_counts(const InsightFunction& f);

  /// Expands every terminal class back to one fragment per execution,
  /// in deterministic class order. Requires done().
  std::vector<ExecFragment> fragments() const;

  const BatchStats& stats() const { return stats_; }

  /// The RNG state after all rounds so far (the one-shot wrappers hand
  /// it back to their caller's stream).
  const Xoshiro256& rng() const { return rng_; }

 private:
  struct PathNode {
    std::int32_t parent;
    ActionId a;
    State q;
  };
  struct TerminalClass {
    std::int32_t node;
    std::uint64_t count;
  };

  void one_round();
  void flush_survivors();
  void push_terminal(std::int32_t node, std::uint64_t count);
  /// Splits `count` executions over the slots of `row` into
  /// tally[0..row.size()).
  void tally_draws(const SplitRow& row, std::uint64_t count,
                   std::vector<std::uint64_t>& tally);
  ExecFragment fragment_of(std::int32_t leaf) const;

  Psioa& automaton_;
  Scheduler& sched_;
  MemoPsioa* memo_ = nullptr;
  std::size_t trials_ = 0;
  std::size_t max_depth_ = 0;
  Xoshiro256 rng_;

  /// Conditioning prefix (importance splitting); node 0 stands in for
  /// its last state, and fragment_of grafts expansions onto a copy.
  std::optional<ExecFragment> prefix_;

  std::vector<PathNode> nodes_;
  std::vector<TerminalClass> terminal_;
  std::uint64_t terminal_trials_ = 0;
  std::size_t depth_ = 0;
  bool flushed_ = false;

  // Live classes, structure-of-arrays (lockstep invariant: every class
  // has walked exactly depth_ steps).
  std::vector<State> cls_state_;
  std::vector<std::int32_t> cls_node_;
  std::vector<std::uint64_t> cls_count_;
  std::vector<State> nxt_state_;
  std::vector<std::int32_t> nxt_node_;
  std::vector<std::uint64_t> nxt_count_;
  std::vector<std::size_t> order_;
  std::vector<std::uint64_t> act_tally_;
  std::vector<std::uint64_t> tgt_tally_;

  // terminal_[0, counted_) has been handed out by take_counts.
  std::size_t counted_ = 0;

  BatchStats stats_;
};

/// Samples `n` executions in lockstep and returns them materialized
/// (classes expanded back to one fragment per execution, in a
/// deterministic class order). The batched twin of calling
/// sample_execution n times; used by the differential tests. The
/// caller's rng is advanced by however much the run's splits consumed.
std::vector<ExecFragment> sample_executions(
    Psioa& automaton, Scheduler& sched, Xoshiro256& rng, std::size_t n,
    std::size_t max_depth, BatchStats* stats = nullptr);

/// Normalized batched f-dist estimate: the batched counterpart of
/// sample_fdist (sched/sampler.hpp), distribution-equivalent to it at
/// the same trial count but not draw-for-draw aligned.
Disc<Perception, double> sample_fdist_batched(
    Psioa& automaton, Scheduler& sched, const InsightFunction& f,
    std::size_t trials, std::uint64_t seed, std::size_t max_depth,
    BatchStats* stats = nullptr);

}  // namespace cdse
