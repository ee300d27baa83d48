#pragma once
// Optimal-distinguisher search over off-line (word) schedulers.
//
// Def 4.12 quantifies over *all* bounded schedulers of an admissible
// schema; the experiments use hand-written canonical distinguishers.
// This module closes the loop: it exhaustively searches the space of
// deterministic off-line schedulers (action words, the fully oblivious
// schema) up to a length bound and reports the word achieving the
// maximum exact balance epsilon -- certifying that a canonical
// distinguisher is optimal within the schema, or exhibiting a better
// attack when it is not.
//
// The search prunes words whose prefix already stalls on both systems
// (a SequenceScheduler halts at the first disabled letter, so every
// extension of a stalled word induces the same f-dists).
//
// Engines. search_best_word extends each parent word's halted frontier
// (ConeFrontierCache) instead of re-enumerating the shared prefix cone
// per word; search_best_word_parallel additionally freezes both systems
// into shared snapshots (one ParallelConeEngine per side) and fans
// independent word subtrees across a ThreadPool. Both visit exactly the
// words of the plain per-word search (identical pruning, hence
// identical words_evaluated) and resolve
// epsilon ties to the first word in the search pre-order --
// equivalently, the lexicographically smallest word under the
// alphabet's order -- so they return the identical word and epsilon,
// and the parallel result is independent of the worker count. The
// per-word search, which re-enumerates both cones for every word, is
// the test-only reference they are pinned against
// (tests/reference_engines.hpp).

#include <vector>

#include "impl/balance.hpp"
#include "sched/exact_engine.hpp"

namespace cdse {

struct BestDistinguisher {
  std::vector<ActionId> word;   ///< the epsilon-maximizing schedule
  Rational eps;                 ///< its exact balance epsilon
  std::size_t words_evaluated = 0;
  ConeStats stats;              ///< engine counters (prefix hits, frames, ...)

  std::string word_string() const;
};

/// Searches all words over `alphabet` of length <= max_len, evaluating
/// the exact epsilon between lhs and rhs under the same word on both
/// sides (shared vocabulary). `depth` caps the cone enumeration.
/// Prefix-sharing serial engine. With an enabled `policy` each side is
/// minimized to its bisimulation quotient before the frontier caches are
/// built (independently per side, falling back to the raw automaton when
/// its covering warm-up truncates); word, epsilon and words_evaluated
/// are unchanged exactly, and stats gains the quotient counters.
BestDistinguisher search_best_word(Psioa& lhs, Psioa& rhs,
                                   const std::vector<ActionId>& alphabet,
                                   std::size_t max_len,
                                   const InsightFunction& f,
                                   std::size_t depth,
                                   const ReductionPolicy& policy = {});

/// Parallel prefix-sharing search. Prepares one ParallelConeEngine per
/// side (WarmupPlan horizon = depth, so workers hit lock-free compiled
/// rows) and takes every view from them; expands the word tree
/// breadth-first on the calling thread until at least 4x pool size
/// independent subtrees exist, then fans the subtrees across the pool --
/// each worker running the serial prefix-sharing search over its own
/// worker views. Per-task results merge in fixed task order under the
/// deterministic tie-break, so word, epsilon and words_evaluated are
/// identical to the serial engines at every worker count. With an
/// enabled `policy` each engine swaps its side for the quotient, and the
/// workers get frozen-only views over one shared minimized snapshot per
/// side (per side, the raw snapshot when the covering warm-up
/// truncates); the quotient counters equal search_best_word's.
BestDistinguisher search_best_word_parallel(
    const PsioaFactory& make_lhs, const PsioaFactory& make_rhs,
    const std::vector<ActionId>& alphabet, std::size_t max_len,
    const InsightFunction& f, std::size_t depth, ThreadPool& pool,
    const ReductionPolicy& policy = {});

}  // namespace cdse
