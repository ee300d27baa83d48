#pragma once
// Test-only reference engines.
//
// These are the plain, obviously-correct forms of computations the
// library does faster: the recursive cone enumerator (one ExecFragment
// copy per edge) behind the iterative pending-edge engine of
// sched/exact_engine.hpp; the per-word distinguisher search (both cones
// re-enumerated for every word) behind the prefix-sharing and parallel
// searches of impl/optimal.hpp; and the serial sampling walk (one
// execution at a time, one uniform per pick) behind the batched
// lockstep sampler of sched/batch_sampler.hpp. The exact-engine and
// quotient suites pin the production engines against the first two:
// same visit order, Rational-equal f-dists, the same best word, epsilon
// and words_evaluated. The sampling suites pin the batched engine
// against the walk with the chi-square harness (tests/stat_util.hpp),
// and the snapshot suites use the walk's chunked fan-out to compare
// frozen views with warmed clones draw for draw.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "impl/optimal.hpp"
#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "util/thread_pool.hpp"

namespace cdse::testing {

namespace detail {

inline void enumerate_recursive(
    Psioa& automaton, Scheduler& sched, std::size_t max_depth,
    const ExecFragment& alpha, const Rational& prob,
    const std::function<void(const ExecFragment&, const Rational&)>& visit) {
  if (prob.is_zero()) return;
  if (alpha.length() >= max_depth) {
    visit(alpha, prob);
    return;
  }
  const ActionChoice choice = sched.choose(automaton, alpha);
  const Rational halt = scheduled_halt_mass(choice, sched);
  if (!halt.is_zero()) visit(alpha, prob * halt);
  const Signature sig = automaton.signature(alpha.lstate());
  for (const auto& [a, w] : choice.entries()) {
    if (!sig.contains(a)) {
      throw std::logic_error("cone measure: scheduler '" + sched.name() +
                             "' chose action '" +
                             ActionTable::instance().name(a) +
                             "' outside sig(lstate)");
    }
    const StateDist eta = automaton.transition(alpha.lstate(), a);
    for (const auto& [q2, tw] : eta.entries()) {
      ExecFragment next = alpha;
      next.append(a, q2);
      enumerate_recursive(automaton, sched, max_depth, next, prob * w * tw,
                          visit);
    }
  }
}

}  // namespace detail

/// The recursive enumerator: the same visit contract and validation as
/// for_each_halted_execution, in the same pre-order.
inline void for_each_halted_execution_recursive(
    Psioa& automaton, Scheduler& sched, std::size_t max_depth,
    const std::function<void(const ExecFragment&, const Rational&)>& visit) {
  detail::enumerate_recursive(
      automaton, sched, max_depth,
      ExecFragment::starting_at(automaton.start_state()), Rational(1), visit);
}

/// exact_fdist through the recursive enumerator.
inline ExactDisc<Perception> exact_fdist_recursive(Psioa& automaton,
                                                   Scheduler& sched,
                                                   const InsightFunction& f,
                                                   std::size_t max_depth) {
  ExactDisc<Perception> dist;
  for_each_halted_execution_recursive(
      automaton, sched, max_depth,
      [&](const ExecFragment& alpha, const Rational& p) {
        dist.add(f.apply(automaton, alpha), p);
      });
  return dist;
}

namespace detail {

/// One word on one system: the exact f-dist plus the longest schedule
/// length reached anywhere in the support (for pruning).
struct WordEval {
  ExactDisc<Perception> fdist;
  std::size_t max_reached = 0;
};

inline WordEval evaluate_word(Psioa& system,
                              const std::vector<ActionId>& word,
                              const InsightFunction& f, std::size_t depth) {
  // Inputs are schedulable: the word doubles as the environment's
  // injection strategy, exactly as in the production searches.
  SequenceScheduler sched(word, /*local_only=*/false);
  WordEval ev;
  for_each_halted_execution_recursive(
      system, sched, depth,
      [&](const ExecFragment& alpha, const Rational& p) {
        ev.fdist.add(f.apply(system, alpha), p);
        ev.max_reached = std::max(ev.max_reached, alpha.length());
      });
  return ev;
}

inline void search_per_word(Psioa& lhs, Psioa& rhs,
                            const std::vector<ActionId>& alphabet,
                            std::size_t max_len, const InsightFunction& f,
                            std::size_t depth, std::vector<ActionId>& word,
                            BestDistinguisher& best) {
  const WordEval l = evaluate_word(lhs, word, f, depth);
  const WordEval r = evaluate_word(rhs, word, f, depth);
  ++best.words_evaluated;
  const Rational eps = balance_distance(l.fdist, r.fdist);
  if (eps > best.eps) {
    best.eps = eps;
    best.word = word;
  }
  if (word.size() >= max_len) return;
  // Extensions only matter when at least one side can consume the next
  // letter, i.e. the current word did not stall strictly early on both.
  if (!word.empty() && l.max_reached < word.size() &&
      r.max_reached < word.size()) {
    return;
  }
  for (ActionId a : alphabet) {
    word.push_back(a);
    search_per_word(lhs, rhs, alphabet, max_len, f, depth, word, best);
    word.pop_back();
  }
}

}  // namespace detail

/// The per-word distinguisher search: every word of length <= max_len
/// over `alphabet`, both cones re-enumerated through the recursive
/// enumerator, the first strict improvement kept. Fills no ConeStats.
inline BestDistinguisher search_best_word_legacy(
    Psioa& lhs, Psioa& rhs, const std::vector<ActionId>& alphabet,
    std::size_t max_len, const InsightFunction& f, std::size_t depth) {
  BestDistinguisher best;
  std::vector<ActionId> word;
  detail::search_per_word(lhs, rhs, alphabet, max_len, f, depth, word, best);
  return best;
}

/// The serial f-dist estimate: `trials` executions walked one at a time
/// by sample_execution on one stream of `seed`, each weighing
/// 1 / trials. The walk reads rows through memo_rows(automaton); the
/// scheduler and `f` see the automaton the walk runs on.
inline Disc<Perception, double> sample_fdist(Psioa& automaton,
                                             Scheduler& sched,
                                             const InsightFunction& f,
                                             std::size_t trials,
                                             std::uint64_t seed,
                                             std::size_t max_depth) {
  Disc<Perception, double> dist;
  Xoshiro256 rng(seed);
  std::shared_ptr<MemoView> hold;
  MemoPsioa& rows = memo_rows(automaton, hold);
  const double w = 1.0 / static_cast<double>(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    const ExecFragment alpha = sample_execution(rows, sched, rng, max_depth);
    dist.add(f.apply(rows, alpha), w);
  }
  return dist;
}

/// The serial walk fanned over a prepared sampler's views: chunk c of
/// the pool's static partition walks its trials on its own
/// worker_view() and worker_scheduler(), drawing from stream c of
/// `seed`, so the views sample concurrently and fault cold states
/// through the one shared residue. Counts merge in chunk order and are
/// divided by `trials`. `stats` (optional) receives the views' snapshot
/// counters, summed.
inline Disc<Perception, double> sample_fdist_chunked(
    const ParallelSampler& sampler, const InsightFunction& f,
    std::size_t trials, std::uint64_t seed, std::size_t max_depth,
    ThreadPool& pool, SnapshotStats* stats = nullptr) {
  std::vector<Disc<Perception, double>> counts(pool.size());
  std::vector<SnapshotStats> chunk_stats(pool.size());
  parallel_for_chunks(
      pool, trials,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        const std::shared_ptr<SnapshotPsioa> view = sampler.worker_view();
        const SchedulerPtr sched = sampler.worker_scheduler();
        Xoshiro256 rng = Xoshiro256::for_stream(seed, chunk);
        for (std::size_t i = begin; i < end; ++i) {
          const ExecFragment alpha =
              sample_execution(*view, *sched, rng, max_depth);
          counts[chunk].add(f.apply(*view, alpha), 1.0);
        }
        chunk_stats[chunk] = view->snapshot_stats();
      });
  Disc<Perception, double> merged;
  const double n = static_cast<double>(trials);
  for (std::size_t c = 0; c < counts.size(); ++c) {
    merged.merge(counts[c], [n](double count) { return count / n; });
    if (stats != nullptr) *stats += chunk_stats[c];
  }
  return merged;
}

}  // namespace cdse::testing
