#include "impl/optimal.hpp"

#include <deque>
#include <optional>
#include <unordered_map>

#include "sched/schedulers.hpp"

namespace cdse {

namespace {

/// Letter ranks taken from the alphabet vector: the extension loop tries
/// letters in alphabet order, so the search pre-order coincides with
/// lexicographic order under these ranks (a word precedes its
/// extensions, which precede later siblings' subtrees).
class LexRank {
 public:
  explicit LexRank(const std::vector<ActionId>& alphabet) {
    for (std::size_t i = 0; i < alphabet.size(); ++i) {
      rank_.emplace(alphabet[i], i);
    }
  }

  bool before(const std::vector<ActionId>& a,
              const std::vector<ActionId>& b) const {
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) return rank_.at(a[i]) < rank_.at(b[i]);
    }
    return a.size() < b.size();
  }

 private:
  std::unordered_map<ActionId, std::size_t> rank_;
};

/// A (word, epsilon) candidate under the deterministic reduction:
/// maximum epsilon, ties to the lexicographically smallest word. The
/// comparator is order-independent, so merging candidates in any fixed
/// sequence yields the same winner -- the property that makes the
/// parallel reduction bit-identical to the serial first-improvement
/// scan (pre-order evaluation == lex order means "first strict
/// improvement" and "lex-min argmax" pick the same word).
struct Candidate {
  bool set = false;
  std::vector<ActionId> word;
  Rational eps;
};

void offer(Candidate& best, const std::vector<ActionId>& word,
           const Rational& eps, const LexRank& lex) {
  if (!best.set || eps > best.eps ||
      (eps == best.eps && lex.before(word, best.word))) {
    best.set = true;
    best.word = word;
    best.eps = eps;
  }
}

void merge(Candidate& best, const Candidate& other, const LexRank& lex) {
  if (other.set) offer(best, other.word, other.eps, lex);
}

/// Adds one side's reduction to the quotient counters (none: nullptr).
void count_reduction(ConeStats& stats, const ReducedSystem* red) {
  if (red == nullptr) return;
  stats.quotient_states += red->states;
  stats.quotient_blocks += red->blocks;
}

/// The prefix-sharing DFS: identical traversal and pruning to the
/// per-word search, but each word's f-dists come from extending the
/// parent's cached frontier. Child frontiers are evicted once their
/// subtree is exhausted, so the cache holds the ancestors of the active
/// word only.
void search_prefix(ConeFrontierCache& cl, ConeFrontierCache& cr,
                   const std::vector<ActionId>& alphabet, std::size_t max_len,
                   const LexRank& lex, std::vector<ActionId>& word,
                   Candidate& best, std::size_t& words_evaluated) {
  const ConeFrontier& l = cl.frontier(word);
  const ConeFrontier& r = cr.frontier(word);
  ++words_evaluated;
  const Rational eps = balance_distance(l.fdist, r.fdist);
  offer(best, word, eps, lex);
  if (word.size() >= max_len) return;
  if (!word.empty() && l.max_reached < word.size() &&
      r.max_reached < word.size()) {
    return;
  }
  for (ActionId a : alphabet) {
    word.push_back(a);
    search_prefix(cl, cr, alphabet, max_len, lex, word, best,
                  words_evaluated);
    cl.evict(word);
    cr.evict(word);
    word.pop_back();
  }
}

}  // namespace

std::string BestDistinguisher::word_string() const {
  return trace_string(word);
}

BestDistinguisher search_best_word(Psioa& lhs, Psioa& rhs,
                                   const std::vector<ActionId>& alphabet,
                                   std::size_t max_len,
                                   const InsightFunction& f,
                                   std::size_t depth,
                                   const ReductionPolicy& policy) {
  // Minimize each side independently; a side whose covering warm-up
  // truncates stays raw (the frontier extension is exact either way).
  const std::optional<ReducedSystem> red_l =
      reduce_for_enumeration(lhs, depth, policy);
  const std::optional<ReducedSystem> red_r =
      reduce_for_enumeration(rhs, depth, policy);
  ConeFrontierCache cl(red_l ? *red_l->view : lhs, f, depth);
  ConeFrontierCache cr(red_r ? *red_r->view : rhs, f, depth);
  const LexRank lex(alphabet);
  Candidate cand;
  BestDistinguisher best;
  std::vector<ActionId> word;
  search_prefix(cl, cr, alphabet, max_len, lex, word, cand,
                best.words_evaluated);
  if (cand.set) {
    best.word = std::move(cand.word);
    best.eps = cand.eps;
  }
  best.stats = cl.stats();
  best.stats += cr.stats();
  count_reduction(best.stats, red_l ? &*red_l : nullptr);
  count_reduction(best.stats, red_r ? &*red_r : nullptr);
  return best;
}

BestDistinguisher search_best_word_parallel(
    const PsioaFactory& make_lhs, const PsioaFactory& make_rhs,
    const std::vector<ActionId>& alphabet, std::size_t max_len,
    const InsightFunction& f, std::size_t depth, ThreadPool& pool,
    const ReductionPolicy& policy) {
  // One engine per side: a full-horizon warm-up and freeze, which
  // compiles every (state, action) row the search can touch, minimized
  // under an enabled policy. Every view below is the engine's worker
  // view: a thin snapshot view, or a frozen-only view over the shared
  // minimized snapshot.
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = depth;
  auto uniform_factory = [depth]() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(depth);
  };
  ParallelConeEngine left(make_lhs, uniform_factory, policy);
  ParallelConeEngine right(make_rhs, uniform_factory, policy);
  left.prepare(plan, depth);
  right.prepare(plan, depth);

  const LexRank lex(alphabet);
  BestDistinguisher best;
  Candidate cand;
  ConeStats stats;
  count_reduction(stats, left.reduced());
  count_reduction(stats, right.reduced());

  // Phase 1 (calling thread): breadth-first over the word tree until
  // four un-expanded subtrees per worker exist to feed the pool.
  // Expansion uses the same prune-then-extend rule as the DFS, so
  // phase-1 words plus the subtree words partition exactly the per-word
  // evaluation set.
  auto lv = left.worker_view();
  auto rv = right.worker_view();
  ConeFrontierCache cl(*lv, f, depth);
  ConeFrontierCache cr(*rv, f, depth);
  const std::size_t target =
      4 * std::max<std::size_t>(std::size_t{1}, pool.size());
  std::deque<std::vector<ActionId>> queue;
  queue.emplace_back();
  while (!queue.empty() && queue.size() < target) {
    std::vector<ActionId> word = std::move(queue.front());
    queue.pop_front();
    const ConeFrontier& l = cl.frontier(word);
    const ConeFrontier& r = cr.frontier(word);
    ++best.words_evaluated;
    offer(cand, word, balance_distance(l.fdist, r.fdist), lex);
    if (word.size() >= max_len) continue;
    if (!word.empty() && l.max_reached < word.size() &&
        r.max_reached < word.size()) {
      continue;
    }
    for (ActionId a : alphabet) {
      std::vector<ActionId> child = word;
      child.push_back(a);
      queue.push_back(std::move(child));
    }
  }
  std::vector<std::vector<ActionId>> tasks(queue.begin(), queue.end());
  stats += cl.stats();
  stats += cr.stats();
  stats.splits = tasks.size();

  // Phase 2: one DFS per task word, fanned over the pool. Each chunk
  // owns a pair of worker views and frontier caches (kept across the
  // chunk's tasks, so sibling tasks share ancestor frontiers too).
  const std::size_t lanes = std::max<std::size_t>(std::size_t{1}, pool.size());
  std::vector<Candidate> task_best(tasks.size());
  std::vector<std::size_t> task_count(tasks.size(), 0);
  std::vector<ConeStats> lane_stats(lanes);
  parallel_for_chunks(
      pool, tasks.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto lw = left.worker_view();
        auto rw = right.worker_view();
        ConeFrontierCache wl(*lw, f, depth);
        ConeFrontierCache wr(*rw, f, depth);
        for (std::size_t i = begin; i < end; ++i) {
          std::vector<ActionId> word = tasks[i];
          search_prefix(wl, wr, alphabet, max_len, lex, word, task_best[i],
                        task_count[i]);
        }
        lane_stats[chunk] += wl.stats();
        lane_stats[chunk] += wr.stats();
      });

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    merge(cand, task_best[i], lex);
    best.words_evaluated += task_count[i];
  }
  for (const auto& s : lane_stats) stats += s;
  if (cand.set) {
    best.word = std::move(cand.word);
    best.eps = cand.eps;
  }
  best.stats = stats;
  return best;
}

}  // namespace cdse
