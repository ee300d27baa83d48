#pragma once
// Batched lockstep execution sampling over compiled alias rows, with a
// vectorized block draw kernel and an incremental-rounds API.
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
//   - Draws go through the rows' Walker alias tables (util/alias.hpp):
//     O(1) per draw regardless of support width.
//
// Draw kernel: a XoshiroBlock derived from the chunk's scalar stream
// resolves a class's draws in bulk -- one fill_below for the slot
// indices, one fill_uniform for the thresholds, one
// AliasTable::pick_block gather, then a scalar tally -- with singleton
// rows (one slot, one target) resolved algebraically without touching
// the RNG at all. The block fills and the gather dispatch between a
// portable scalar loop and an AVX2 body at runtime (util/rng.hpp); both
// produce bit-identical tallies, which tests/batch_sampler_test.cpp pins
// end to end at every worker count.
//
// Equivalence contract: batched results equal serial results in
// *distribution*, not draw-for-draw -- classes consume the RNG in
// class-sorted order and alias picks spend two uniforms where a CDF scan
// spends one. The statistical harness (tests/stat_util.hpp) pins the
// pairing with chi-square differential tests; the serial path remains
// the reference (SamplingMode::kSerial).
//
// Scheduler contract: rounds query choice rows through synthetic
// fragments that carry the correct last state and length but dummy
// interior steps, so batched mode supports every scheduler whose choice
// is a function of (lstate, |alpha|) -- uniform, priority, bounded,
// sequence, task. History-reading schedulers (oblivious-fn) would see
// garbage words and are not supported in batched mode.
//
// Determinism: one RNG stream (the block kernel's lane block is derived
// from it by one scalar draw, a pinned pure function), classes sorted by
// (state, node id) each round, actions drawn in row order, targets in
// row order -- the whole schedule is a pure function of (seed, trials,
// max_depth), so batched runs are reproducible even though they are not
// draw-for-draw aligned with the serial walk. The
// incremental API below preserves this: pausing and resuming at any
// round boundary replays the identical schedule
// (run_rounds(a); run_rounds(b) == run_rounds(a + b), bit-identically).

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
/// the block kernel spent (or elided) its RNG traffic.
struct BatchStats {
  std::size_t rounds = 0;        ///< lockstep rounds executed
  std::size_t classes_peak = 0;  ///< live trajectory classes, maximum
  std::size_t class_steps = 0;   ///< class-rounds (amortized row work)
  std::size_t choice_lookups = 0;  ///< scheduler rows fetched
  std::size_t row_lookups = 0;     ///< transition rows fetched
  std::size_t action_draws = 0;    ///< logical action draws (incl. elided)
  std::size_t target_draws = 0;    ///< logical target draws (incl. elided)
  std::size_t distinct_executions = 0;  ///< terminal classes (f.apply calls)
  // Block-kernel accounting:
  std::size_t blocks_filled = 0;   ///< bulk fill operations issued
  std::size_t block_draws = 0;     ///< RNG values produced by bulk fills
  std::size_t singleton_skips = 0; ///< logical draws elided (1-slot rows)
  std::size_t rejection_redraws = 0;  ///< fill_below debias re-draws

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
    blocks_filled += o.blocks_filled;
    block_draws += o.block_draws;
    singleton_skips += o.singleton_skips;
    rejection_redraws += o.rejection_redraws;
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
  /// is copied in; one scalar draw seeds the lane block (the pinned
  /// derivation).
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

  /// The scalar RNG state after construction and all rounds so far (the
  /// one-shot wrappers hand it back to their caller's stream).
  const Xoshiro256& scalar_rng() const { return rng_; }

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
  /// Tallies `count` draws from `alias` into tally[0..alias.size()).
  void tally_draws(const AliasTable& alias, std::uint64_t count,
                   std::vector<std::uint64_t>& tally);
  ExecFragment fragment_of(std::int32_t leaf) const;

  Psioa& automaton_;
  Scheduler& sched_;
  MemoPsioa* memo_ = nullptr;
  std::size_t trials_ = 0;
  std::size_t max_depth_ = 0;
  Xoshiro256 rng_;
  XoshiroBlock block_;  // seeded by one draw from rng_

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
  // Block-kernel scratch.
  std::vector<std::uint32_t> idx_buf_;
  std::vector<double> u_buf_;
  std::vector<std::uint32_t> out_buf_;

  // terminal_[0, counted_) has been handed out by take_counts.
  std::size_t counted_ = 0;

  BatchStats stats_;
};

/// Samples `n` executions in lockstep and returns them materialized
/// (classes expanded back to one fragment per execution, in a
/// deterministic class order). The batched twin of calling
/// sample_execution n times; used by the differential tests. The
/// caller's rng is advanced by however much the run consumed from the
/// scalar stream (the one derivation draw).
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
