#pragma once
// Batched lockstep execution sampling with exact multinomial class
// splits, and an incremental-rounds API: the one sampling engine behind
// every sampled f-dist and epsilon.
//
// Walking one execution at a time (sample_execution, sched/sampler.hpp)
// pays, per execution and step, a scheduler row lookup, a linear CDF
// scan, a compiled transition row lookup (two hash probes on the
// snapshot path), a second CDF scan and a fragment append. The paper's
// epsilon-emulation checks want millions of Monte-Carlo executions per
// f-dist, and those executions are all walks of the *same* frozen
// snapshot, so this engine steps a whole block of executions in
// lockstep instead:
//
//   - Live executions are kept as a structure-of-arrays block of
//     *trajectory classes*: executions sharing their entire history so
//     far collapse to one (state, path-node, count) entry. Grouping by
//     (state, pending action) is maximal by construction -- a class IS
//     such a group -- so each transition row is fetched once per class
//     per round instead of once per execution per step.
//   - Histories live in a shared path tree (parent-pointer arena), so
//     extending a class by one step appends one node; nothing is copied
//     until a terminal class is expanded for the insight function, and
//     the insight function itself runs once per *distinct* execution,
//     weighted by its class count.
//   - Each path node also carries its node in a PerceptionTable's trace
//     trie (sched/insight.hpp): a step extends it only when its action
//     is external at the step's source state. A TraceFunction is
//     therefore evaluated once per distinct *trace* per table, and no
//     fragment is built for it; any other insight function is applied
//     to the fragment of every terminal class and its result interned.
//   - A class's executions pick independently from the same row, so the
//     counts landing in the row's slots are Multinomial(count, p). The
//     rows' split rows (util/multinomial.hpp) draw that split exactly,
//     one binomial per slot: the cost of a round follows the number of
//     classes and the row widths, not the number of trials. A singleton
//     row (one slot) hands the whole class to its slot without touching
//     the RNG.
//
// Scheduler contract, detected once at construction: a MarkovScheduler
// (sched/scheduler.hpp) chooses from (lstate, |alpha|) alone, so all
// classes of one state at one depth share one choice_row_at query -- a
// *run*. Any other scheduler (oblivious-fn, bounded, Forward^s) may read
// the history, so each class is its own run, queried with its real
// fragment (grafted onto the prefix in a prefix-conditioned run). Every
// scheduler samples its own law; the Markov type only buys row sharing.
//
// Equivalence contract: batched results equal the one-execution walk in
// *distribution*, not draw-for-draw -- one binomial per slot where the
// walk spends one uniform per pick. Chi-square tests (tests/stat_util.hpp)
// pin it against the exact enumerator and the test-side serial walk
// (tests/reference_engines.hpp).
//
// Determinism: one RNG stream, classes sorted by (state, node id) each
// round, actions split in row order, targets in row order -- the whole
// schedule is a pure function of (seed, trials, max_depth), so batched
// runs are reproducible on one build and host even though they are not
// draw-for-draw aligned with the serial walk (the binomials use libm's
// log and exp; see util/multinomial.hpp). The incremental API below
// preserves this: pausing and resuming at any round boundary replays the
// identical schedule (run_rounds(a); run_rounds(b) == run_rounds(a + b),
// bit-identically). A batched run is one sampler on one stream at every
// pool size (IncrementalFdistRun), so no batched tally depends on the
// worker count.

#include <cstddef>
#include <cstdint>
#include <memory>
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
  std::size_t distinct_executions = 0;  ///< terminal classes
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

/// Stateful lockstep engine: one run's executions advanced round by
/// round. In production it is owned by an IncrementalFdistRun
/// (sched/sampler.hpp), which drives it wave by wave: run_rounds, then
/// take_counts -- one per plain run, and one per importance-splitting
/// stratum (impl/balance.hpp), conditioned on the stratum's prefix. The
/// single-instance helpers below wrap it for the differential tests.
///
/// Lifetime: holds references to the automaton, the scheduler and the
/// perception table; all three must outlive the sampler. One sampler per
/// thread (no internal locking), and a table shared by several samplers
/// is only stepped on by one thread at a time.
class BatchSampler {
 public:
  /// Prepares `trials` executions of `automaton` under `sched`. The RNG
  /// is copied in; every class split draws from it. Trace-trie nodes and
  /// perception ids come from `table`.
  BatchSampler(Psioa& automaton, Scheduler& sched, PerceptionTable& table,
               std::size_t trials, const Xoshiro256& rng,
               std::size_t max_depth);

  /// Prefix-conditioned variant for the importance-splitting estimator:
  /// all `trials` executions start from `prefix` (depth counts from
  /// prefix.length(), so the scheduler sees absolute execution lengths
  /// and `max_depth` keeps its absolute meaning) and sample the
  /// CONDITIONAL continuation law given the prefix. Terminal fragments
  /// are the full executions (prefix + sampled suffix), so the insight
  /// function sees exactly what an unconditioned run would feed it, and
  /// a history-reading scheduler is queried with prefix + suffix too.
  /// The run's trie root is the prefix's trace node.
  BatchSampler(Psioa& automaton, Scheduler& sched, PerceptionTable& table,
               std::size_t trials, const Xoshiro256& rng,
               std::size_t max_depth, const ExecFragment& prefix);

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

  /// Replaces `out` with one (perception id, count) pair per class that
  /// went terminal since the previous call, in terminal order; empty
  /// when nothing new went terminal. A TraceFunction's id comes from the
  /// table's trie memo (of_trace runs once per distinct trace per
  /// table); any other f is applied to the class's fragment and its
  /// result interned, and what it throws propagates. Summing every
  /// call's counts gives the tally of the whole run, independent of
  /// where the calls fall: integer counts sum exactly in doubles.
  void take_counts(const InsightFunction& f, PerceptionCounts& out);

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
    std::int32_t trace;  ///< trie node of the path's trace
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

  /// Whether `a` is external at `q` (trace_of's test).
  bool external_at(State q, ActionId a);

  Psioa& automaton_;
  Scheduler& sched_;
  /// sched_ as a MarkovScheduler, or nullptr: one row per (state, depth)
  /// run when set, one real-fragment query per class otherwise.
  MarkovScheduler* markov_ = nullptr;
  PerceptionTable& table_;
  /// Signatures and rows of automaton_ (memo_rows; hold_ is declared
  /// first so it is set before rows_ binds to it).
  std::shared_ptr<MemoView> hold_;
  MemoPsioa& rows_;
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
  // One state run's transition rows and external flags, by action slot.
  std::vector<const CompiledRow*> run_rows_;
  std::vector<char> external_;

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

/// Normalized batched f-dist estimate from `trials` executions of one
/// automaton instance, on stream `seed`: the single-instance one-shot
/// (ParallelSampler::sample_fdist is the same run over a frozen
/// snapshot).
Disc<Perception, double> sample_fdist_batched(
    Psioa& automaton, Scheduler& sched, const InsightFunction& f,
    std::size_t trials, std::uint64_t seed, std::size_t max_depth,
    BatchStats* stats = nullptr);

}  // namespace cdse
