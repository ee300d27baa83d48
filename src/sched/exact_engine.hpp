#pragma once
// Iterative, parallel, prefix-sharing exact cone-measure engine.
//
// A plain recursive cone enumerator deep-copies the ExecFragment on
// every edge (an O(depth) copy per edge, O(depth * edges) total) and
// re-enumerates the entire shared prefix cone for every word of the
// optimal-distinguisher search and every (environment, scheduler) cell
// of the implementation sweeps. This module replaces it with the
// standard exact-model-checking decomposition (the recursive walk and
// the per-word search stay in tests/reference_engines.hpp as the
// references the exact-engine suite pins these engines against):
//
//   enumerate_cone     -- an explicit pending-edge stack that push/pops
//       ONE in-place path (ExecFragment::truncate + append). The live
//       stack scales with depth x branching, never with cone size, and
//       the visit order is exactly the recursive pre-order.
//   ParallelConeEngine -- deterministic parallel exact f-dists: the cone
//       is expanded breadth-first to a frontier of independent subtrees,
//       subtrees fan out over the existing ThreadPool on thin
//       SnapshotPsioa views (WarmupPlan + freeze(), lock-free compiled
//       rows), and per-worker ExactDisc partials merge in fixed frontier
//       order. Rational addition is associative and commutative and
//       ExactDisc keeps a canonical sorted form, so the merged measure is
//       bit-identical for ANY worker count. Its ParallelSampler owns the
//       tables and hands out the per-thread views, which the parallel
//       word search takes too.
//   ConeFrontierCache  -- prefix sharing for off-line (word) schedulers:
//       the halted frontier of word w is extended by one letter to give
//       the frontier of w^a, so search_best_word explores the word tree
//       by extending its parent's frontier instead of re-enumerating the
//       cone from the root.
//
//   ReductionPolicy    -- opt-in bisimulation minimization: frozen
//       snapshots collapse to their probabilistic-bisimulation quotient
//       in one step, reduce_snapshot, before any cone is enumerated, so
//       every engine above runs over blocks instead of raw states --
//       transparently, with epsilon preserved exactly. Both reduction
//       paths quotient only under one covering rule (warmup_covers), and
//       a reduced system keeps the quotient alone.
//
// enumerate_cone and the engine's breadth-first phase share one node
// expansion step; every engine reads rows through memo_rows. Every path
// is exact (Rational end to end); determinism is an algebraic property
// of the merge, not a scheduling property of the pool.
// ConeStats counters make the claimed work reduction observable.

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"

namespace cdse {

/// Opt-in snapshot minimization for the exact engines: freeze the
/// system, collapse it to its probabilistic-bisimulation quotient
/// (impl/bisim.hpp + CompiledSnapshot::quotient), and enumerate cones
/// over the blocks instead of the raw states. Blocks share signatures
/// and exact per-action block distributions, so every signature-driven
/// scheduler and trace-functional insight sees the quotient identically
/// -- epsilon is preserved exactly, only the enumerated frame count
/// shrinks. Off by default: the unreduced path stays the differential
/// reference, and custom schedulers/insights that read raw state
/// handles (rather than signatures/traces) void the contract.
struct ReductionPolicy {
  enum class Mode {
    kNone,          ///< enumerate the raw state space (the reference)
    kBisimulation,  ///< quotient frozen snapshots before enumerating
  };

  Mode mode = Mode::kNone;

  bool enabled() const { return mode == Mode::kBisimulation; }

  static ReductionPolicy none() { return {}; }
  static ReductionPolicy bisimulation() {
    ReductionPolicy p;
    p.mode = Mode::kBisimulation;
    return p;
  }
};

// ReducedSystem and reduce_snapshot, the one reduction step, live in
// sched/sampler.hpp beside ParallelSampler::reduce.

/// Warms `automaton` to a covering snapshot (horizon = max_depth, so
/// every state the cone can expand is completely frozen), freezes it,
/// partitions it by probabilistic bisimulation, and quotients. Returns
/// nullopt, before freezing, when the policy is off or the walk does not
/// cover max_depth (warmup_covers: depth 0, or a walk that stopped at
/// WarmupPlan::max_states) -- the caller then enumerates the original,
/// so wiring the policy through a checker can never turn a working call
/// into a throwing one. The automaton is warmed through memo_rows, and
/// on success the freeze has taken its memo, so the caller is left with
/// an empty one; the returned view reads only the quotient's own rows.
std::optional<ReducedSystem> reduce_for_enumeration(
    Psioa& automaton, std::size_t max_depth, const ReductionPolicy& policy);

/// Extends for_each_halted_execution's visit contract with a live
/// in-place path: enumerates the cone of the subtree rooted at `path`
/// (whose cone probability is `prefix_prob`) under `sched`, visiting
/// every halt/leaf event in the recursive walk's pre-order. `path`
/// is mutated during the walk and restored to its entry contents before
/// returning (on success); the reference passed to `visit` aliases it,
/// so callers must copy if they retain fragments.
void enumerate_cone(
    Psioa& automaton, Scheduler& sched, std::size_t max_depth,
    ExecFragment& path, const Rational& prefix_prob,
    const std::function<void(const ExecFragment&, const Rational&)>& visit,
    ConeStats* stats = nullptr);

/// The halted frontier of one schedule word w (offline SequenceScheduler
/// semantics, local_only = false): everything the cone of w contributes
/// to an f-dist, split into the part no extension can change and the
/// part an extension re-expands.
struct ConeFrontier {
  struct LiveEntry {
    ExecFragment frag;  ///< consumed the whole word; length == |w|
    Rational prob;      ///< exact cone probability of reaching frag
    Perception perc;    ///< f(frag): its halt contribution under w itself
  };

  /// Contributions settled for every extension of w: depth-capped leaves
  /// and executions that stalled on a disabled mid-word letter.
  ExactDisc<Perception> settled;
  /// Fragments still live at |w|: halted under w, re-expanded under w^a.
  std::vector<LiveEntry> live;
  /// The exact f-dist of w: settled + the live halting mass.
  ExactDisc<Perception> fdist;
  /// Longest |alpha| among settled visit events (pruning bookkeeping).
  std::size_t settled_max_len = 0;
  /// Longest |alpha| over ALL visit events of w's cone -- identical to
  /// the max_reached the per-word enumerator derives, so the search's
  /// stall-pruning rule carries over verbatim.
  std::size_t max_reached = 0;
};

/// Frontier store keyed by schedule word. frontier(w) answers from the
/// cache or builds w's frontier by extending the longest cached prefix
/// one letter at a time (each level touches only the live fragments of
/// its parent -- the shared prefix cone is never re-enumerated). Node
/// storage is a std::map, so returned references stay valid across later
/// insertions and evictions; one thread per cache instance, like the
/// automaton memo layers underneath it.
class ConeFrontierCache {
 public:
  ConeFrontierCache(Psioa& automaton, const InsightFunction& f,
                    std::size_t max_depth);

  /// The frontier of `word` (computed and cached on miss, together with
  /// every missing prefix level on the way down).
  const ConeFrontier& frontier(const std::vector<ActionId>& word);

  /// Drops one cached word (no-op when absent). The searches evict a
  /// child's frontier as soon as its subtree is exhausted, keeping the
  /// cache O(depth) while ancestors of the active word stay shared.
  void evict(const std::vector<ActionId>& word);

  std::size_t size() const { return cache_.size(); }
  const ConeStats& stats() const { return stats_; }

 private:
  const ConeFrontier& insert(const std::vector<ActionId>& word,
                             ConeFrontier fr);
  ConeFrontier root_frontier();
  ConeFrontier extend(const ConeFrontier& parent, ActionId a);

  Psioa& automaton_;
  const InsightFunction& f_;
  std::size_t max_depth_;
  std::shared_ptr<MemoView> hold_;  // set before rows_ binds to it
  MemoPsioa& rows_;                 // memo_rows(automaton_)
  std::map<std::vector<ActionId>, ConeFrontier> cache_;
  ConeStats stats_;
};

// -- exact prefix strata (importance splitting) -----------------------------

/// One live stratum of a depth-capped exact expansion: a prefix the
/// cone can still extend, carrying its exact cone probability. The
/// importance-splitting estimator conditions a BatchSampler on `frag`
/// and reweights the conditional tallies by `prob` (Rao-Blackwell over
/// the prefix partition: the stratified estimate is unbiased for ANY
/// per-stratum sample allocation that touches every stratum).
struct PrefixStratum {
  ExecFragment frag;
  Rational prob;
};

/// A depth-d exact decomposition of a scheduled cone: everything that
/// terminates before depth d is settled exactly (it contributes to the
/// full-depth f-dist verbatim); everything still running at depth d
/// becomes a live stratum. settled_mass + live_mass == 1 exactly.
struct PrefixStrata {
  ExactDisc<Perception> settled;
  std::vector<PrefixStratum> live;
  Rational live_mass;
};

/// Expands the cone of `automaton` under `sched` exactly to
/// `split_depth` (enumerate_cone, deterministic pre-order -- so stratum
/// indices are stable across runs and worker counts): scheduler halts
/// below the cap settle into the f-dist, depth-capped fragments become
/// live strata with their full remaining cone mass. split_depth == 0
/// yields one live stratum (the start fragment) with mass 1.
PrefixStrata expand_prefix_strata(Psioa& automaton, Scheduler& sched,
                                  const InsightFunction& f,
                                  std::size_t split_depth,
                                  ConeStats* stats = nullptr);

/// Deterministic parallel exact f-dists over one frozen snapshot.
/// prepare() warms one instance (WarmupPlan, as ParallelSampler does) and
/// freezes its compiled tables; exact_fdist() expands the cone
/// breadth-first on the calling thread until at least 4x pool size
/// independent subtrees exist, fans the subtrees across the pool on
/// worker views, and merges the exact partials in fixed frontier order.
/// Exactness makes the merge order-insensitive, so the result is
/// bit-identical to the serial enumerator at every worker count.
class ParallelConeEngine {
 public:
  /// With an enabled `policy`, prepare() additionally swaps the frozen
  /// snapshot for its quotient (ParallelSampler::reduce), releasing the
  /// raw system, and exact_fdist() runs the identical expansion/fan-out
  /// over frozen-only views -- same exact result, fewer frames.
  /// Reduction silently keeps the raw snapshot when the warm-up did not
  /// cover the enumeration depth (warmup_covers).
  ParallelConeEngine(PsioaFactory make_automaton, SchedulerFactory make_sched,
                     ReductionPolicy policy = {});

  /// Warms and freezes one instance. Use the depth you will enumerate at.
  void prepare(const WarmupPlan& plan, std::size_t max_depth);
  bool prepared() const { return sampler_.prepared(); }

  /// The minimized system prepare() produced (and exact_fdist() and the
  /// worker views use), or nullptr on the raw snapshot.
  const ReducedSystem* reduced() const {
    return reduced_.has_value() ? &*reduced_ : nullptr;
  }

  /// A fresh view / scheduler for one thread (requires prepared()), the
  /// sampler's: a frozen-only view over the quotient and a new scheduler
  /// when reduced(), else a thin SnapshotPsioa and a scheduler adopting
  /// the frozen choice rows.
  std::shared_ptr<SnapshotPsioa> worker_view() const {
    return sampler_.worker_view();
  }
  SchedulerPtr worker_scheduler() const { return sampler_.worker_scheduler(); }

  /// After a subtree throws, no chunk starts another subtree.
  ExactDisc<Perception> exact_fdist(const InsightFunction& f,
                                    std::size_t max_depth, ThreadPool& pool);

  /// Counters of the most recent exact_fdist, up to the throw if it threw
  /// (splits = subtrees fanned out; frames/leaves/halts summed over the
  /// workers + the expansion; quotient_states/quotient_blocks filled
  /// when reduced()).
  const ConeStats& last_stats() const { return stats_; }

 private:
  ParallelSampler sampler_;
  ReductionPolicy policy_;
  ConeStats stats_;
  std::optional<ReducedSystem> reduced_;
};

}  // namespace cdse
