#include "sched/exact_engine.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <stdexcept>
#include <utility>

#include "psioa/memo.hpp"
#include "sched/schedulers.hpp"

namespace cdse {

namespace {

[[noreturn]] void throw_outside_sig(const Scheduler& sched, ActionId a) {
  throw std::logic_error("cone measure: scheduler '" + sched.name() +
                         "' chose action '" + ActionTable::instance().name(a) +
                         "' outside sig(lstate)");
}

/// The one expansion step of a cone node, shared by enumerate_cone and
/// the breadth-first phase of ParallelConeEngine::exact_fdist. The
/// scheduler is asked about `automaton`; signatures and rows come from
/// `rows`, its memo_rows.
class ConeStep {
 public:
  ConeStep(Psioa& automaton, MemoPsioa& rows, Scheduler& sched,
           std::size_t max_depth)
      : automaton_(automaton),
        rows_(rows),
        sched_(sched),
        markov_(dynamic_cast<MarkovScheduler*>(&sched)),
        max_depth_(max_depth) {}

  /// Expands the node at `path`, reached with cone probability `prob`: a
  /// depth-capped leaf's mass, or the scheduler's halt mass, goes to
  /// settle(mass), and every (action, target) edge of the choice, in
  /// choice then row order, to edge(a, q2, prob * w * tw) and counts in
  /// frames_pushed. A MarkovScheduler is asked choose_at(lstate, |path|)
  /// directly, one virtual call instead of two.
  template <class Settle, class Edge>
  void expand(const ExecFragment& path, const Rational& prob, ConeStats& cs,
              Settle&& settle, Edge&& edge) const {
    if (path.length() >= max_depth_) {
      settle(prob);
      ++cs.leaves;
      return;
    }
    const State q = path.lstate();
    const ActionChoice choice =
        markov_ != nullptr ? markov_->choose_at(automaton_, q, path.length())
                           : sched_.choose(automaton_, path);
    const Rational halt = scheduled_halt_mass(choice, sched_);
    if (!halt.is_zero()) {
      settle(prob * halt);
      ++cs.halts;
    }
    const Signature& sig = rows_.signature_ref(q);
    for (const auto& [a, w] : choice.entries()) {
      if (!sig.contains(a)) throw_outside_sig(sched_, a);
      for (const auto& [q2, tw] : rows_.transition_dist(q, a).entries()) {
        edge(a, q2, prob * w * tw);
        ++cs.frames_pushed;
      }
    }
  }

 private:
  Psioa& automaton_;
  MemoPsioa& rows_;
  Scheduler& sched_;
  MarkovScheduler* markov_;
  std::size_t max_depth_;
};

}  // namespace

std::optional<ReducedSystem> reduce_for_enumeration(
    Psioa& automaton, std::size_t max_depth, const ReductionPolicy& policy) {
  if (!policy.enabled()) return std::nullopt;
  std::shared_ptr<MemoView> hold;
  MemoPsioa& warm = memo_rows(automaton, hold);
  // Covering walk: horizon = max_depth freezes full rows at every state
  // the cone can expand (depth < max_depth) and signatures at the
  // leaves, so the quotient's frontier singletons are never entered.
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = max_depth;
  UniformScheduler uniform(max_depth);
  const std::size_t visited = warm_automaton(warm, uniform, plan, max_depth);
  if (!warmup_covers(plan, visited, max_depth)) return std::nullopt;
  return reduce_snapshot(*warm.freeze());
}

void enumerate_cone(
    Psioa& automaton, Scheduler& sched, std::size_t max_depth,
    ExecFragment& path, const Rational& prefix_prob,
    const std::function<void(const ExecFragment&, const Rational&)>& visit,
    ConeStats* stats) {
  ConeStats scratch;
  ConeStats& cs = stats != nullptr ? *stats : scratch;
  if (prefix_prob.is_zero()) return;
  std::shared_ptr<MemoView> hold;
  const ConeStep step(automaton, memo_rows(automaton, hold), sched,
                      max_depth);
  const std::size_t base_len = path.length();

  // A pending edge, not a call frame: (absolute) probability of the child
  // it leads to, the step that reaches it, and the parent's depth so the
  // shared path can be truncated back before appending. The live stack
  // holds at most depth x branching edges -- it scales with the longest
  // path, never with the number of cones enumerated.
  struct PendingEdge {
    Rational prob;
    ActionId a;
    State q2;
    std::size_t depth;
  };
  std::vector<PendingEdge> stack;

  auto expand = [&](const Rational& prob) {
    const std::size_t depth = path.length();
    const std::size_t first_child = stack.size();
    step.expand(
        path, prob, cs, [&](const Rational& mass) { visit(path, mass); },
        [&](ActionId a, State q2, Rational p) {
          stack.push_back({std::move(p), a, q2, depth});
        });
    // A recursive walk descends into the first edge first;
    // reversing the freshly pushed run makes the LIFO pops replay that
    // exact pre-order.
    std::reverse(stack.begin() + first_child, stack.end());
    cs.frames_peak = std::max(cs.frames_peak, stack.size());
  };

  expand(prefix_prob);
  while (!stack.empty()) {
    PendingEdge e = std::move(stack.back());
    stack.pop_back();
    if (e.prob.is_zero()) continue;
    path.truncate(e.depth);
    path.append(e.a, e.q2);
    expand(e.prob);
  }
  path.truncate(base_len);
}

// -- exact prefix strata (importance splitting) -----------------------------

PrefixStrata expand_prefix_strata(Psioa& automaton, Scheduler& sched,
                                  const InsightFunction& f,
                                  std::size_t split_depth, ConeStats* stats) {
  PrefixStrata out;
  ExecFragment root = ExecFragment::starting_at(automaton.start_state());
  if (split_depth == 0) {
    out.live.push_back({std::move(root), Rational(1)});
    out.live_mass = Rational(1);
    return out;
  }
  // enumerate_cone capped at split_depth visits each event exactly once:
  // interior halts (length < cap) with their halt mass -- genuinely
  // terminal, hence settled -- and depth-capped fragments (length ==
  // cap) with their FULL remaining cone mass, which is exactly the
  // stratum weight conditioning needs.
  enumerate_cone(
      automaton, sched, split_depth, root, Rational(1),
      [&](const ExecFragment& alpha, const Rational& p) {
        if (alpha.length() >= split_depth) {
          out.live.push_back({alpha, p});  // copy: alpha aliases the path
          out.live_mass = out.live_mass + p;
        } else {
          out.settled.add(f.apply(automaton, alpha), p);
        }
      },
      stats);
  return out;
}

// -- prefix-sharing frontiers ----------------------------------------------

ConeFrontierCache::ConeFrontierCache(Psioa& automaton,
                                     const InsightFunction& f,
                                     std::size_t max_depth)
    : automaton_(automaton),
      f_(f),
      max_depth_(max_depth),
      rows_(memo_rows(automaton, hold_)) {}

const ConeFrontier& ConeFrontierCache::insert(
    const std::vector<ActionId>& word, ConeFrontier fr) {
  return cache_.insert_or_assign(word, std::move(fr)).first->second;
}

ConeFrontier ConeFrontierCache::root_frontier() {
  // The empty word's cone is a single node: the start fragment either
  // hits the depth cap immediately or halts with full mass -- in which
  // case it is live, because an extension re-expands it.
  ConeFrontier fr;
  ExecFragment root = ExecFragment::starting_at(automaton_.start_state());
  const Perception perc = f_.apply(automaton_, root);
  if (root.length() >= max_depth_) {
    fr.settled.add(perc, Rational(1));
    ++stats_.leaves;
  } else {
    fr.live.push_back({std::move(root), Rational(1), perc});
  }
  fr.fdist = fr.settled;
  for (const auto& e : fr.live) fr.fdist.add(e.perc, e.prob);
  return fr;
}

ConeFrontier ConeFrontierCache::extend(const ConeFrontier& parent,
                                       ActionId a) {
  // One letter of SequenceScheduler semantics (local_only = false),
  // applied only to the parent's live fragments: a disabled letter
  // settles the fragment for every further extension; an enabled letter
  // carries unit scheduler mass, so each transition target either
  // settles at the depth cap or joins the child's live frontier.
  ConeFrontier fr;
  fr.settled = parent.settled;
  fr.settled_max_len = parent.settled_max_len;
  ++stats_.prefix_misses;
  for (const auto& e : parent.live) {
    const State q = e.frag.lstate();
    const std::size_t child_len = e.frag.length() + 1;
    if (!rows_.signature_ref(q).contains(a)) {
      fr.settled.add(e.perc, e.prob);
      fr.settled_max_len = std::max(fr.settled_max_len, e.frag.length());
      ++stats_.halts;
      continue;
    }
    // Memo rows stay put until clear_memo(), so the entries can be read
    // across f_.apply, which may fault signatures into the same memo.
    for (const auto& [q2, tw] : rows_.transition_dist(q, a).entries()) {
      ExecFragment child = e.frag;
      child.append(a, q2);
      Rational p = e.prob * tw;
      Perception perc = f_.apply(automaton_, child);
      if (child_len >= max_depth_) {
        fr.settled.add(perc, p);
        fr.settled_max_len = std::max(fr.settled_max_len, child_len);
        ++stats_.leaves;
      } else {
        fr.live.push_back({std::move(child), std::move(p), std::move(perc)});
      }
    }
  }
  fr.max_reached = fr.settled_max_len;
  if (!fr.live.empty()) {
    fr.max_reached = std::max(fr.max_reached, fr.live.front().frag.length());
  }
  fr.fdist = fr.settled;
  for (const auto& e : fr.live) fr.fdist.add(e.perc, e.prob);
  return fr;
}

const ConeFrontier& ConeFrontierCache::frontier(
    const std::vector<ActionId>& word) {
  auto it = cache_.find(word);
  if (it != cache_.end()) {
    ++stats_.prefix_hits;
    return it->second;
  }
  if (word.empty()) return insert(word, root_frontier());
  // Longest cached prefix, then one extension level per missing letter.
  // Every intermediate level is cached too: the searches query words in
  // prefix order, so in steady state this loop runs exactly once.
  std::vector<ActionId> prefix = word;
  prefix.pop_back();
  const ConeFrontier& parent = frontier(prefix);
  return insert(word, extend(parent, word.back()));
}

void ConeFrontierCache::evict(const std::vector<ActionId>& word) {
  cache_.erase(word);
}

// -- deterministic parallel exact f-dists ----------------------------------

ParallelConeEngine::ParallelConeEngine(PsioaFactory make_automaton,
                                       SchedulerFactory make_sched,
                                       ReductionPolicy policy)
    : sampler_(std::move(make_automaton), std::move(make_sched)),
      policy_(policy) {}

void ParallelConeEngine::prepare(const WarmupPlan& plan,
                                 std::size_t max_depth) {
  sampler_.prepare(plan, max_depth);
  reduced_.reset();
  if (policy_.enabled()) reduced_ = sampler_.reduce();
}

ExactDisc<Perception> ParallelConeEngine::exact_fdist(
    const InsightFunction& f, std::size_t max_depth, ThreadPool& pool) {
  if (!prepared()) {
    throw std::logic_error("ParallelConeEngine: prepare() before exact_fdist");
  }
  const std::size_t lanes = std::max<std::size_t>(std::size_t{1}, pool.size());
  const std::size_t target = 4 * lanes;
  ConeStats stats;
  if (reduced()) {
    stats.quotient_states = reduced_->states;
    stats.quotient_blocks = reduced_->blocks;
  }
  std::vector<ExactDisc<Perception>> partial(lanes);
  std::vector<ConeStats> cstats(lanes);
  // The counters of the work done, written on success and before a
  // rethrow alike.
  auto publish = [&] {
    for (const auto& s : cstats) stats += s;
    stats_ = stats;
  };

  ExactDisc<Perception> base;
  try {
    // Phase 1 (calling thread): breadth-first expansion until the
    // frontier holds enough independent subtrees to keep every worker
    // busy. Halt and leaf mass discovered on the way accumulates into
    // `base`. Every child pushed here is an edge enumerate_cone would
    // have pushed, so it counts in frames_pushed and the total is the
    // serial walk's at every frontier size.
    auto main_view = worker_view();
    SchedulerPtr main_sched = worker_scheduler();
    const ConeStep step(*main_view, *main_view, *main_sched, max_depth);
    struct Node {
      ExecFragment frag;
      Rational prob;
    };
    std::deque<Node> frontier;
    frontier.push_back(
        {ExecFragment::starting_at(main_view->start_state()), Rational(1)});
    while (!frontier.empty() && frontier.size() < target) {
      Node n = std::move(frontier.front());
      frontier.pop_front();
      step.expand(
          n.frag, n.prob, stats,
          [&](const Rational& mass) {
            base.add(f.apply(*main_view, n.frag), mass);
          },
          [&](ActionId a, State q2, Rational p) {
            ExecFragment child = n.frag;
            child.append(a, q2);
            frontier.push_back({std::move(child), std::move(p)});
          });
    }
    std::vector<Node> tasks;
    tasks.reserve(frontier.size());
    for (auto& n : frontier) tasks.push_back(std::move(n));
    stats.splits = tasks.size();

    // Phase 2: fan the subtrees over the pool. Each chunk drives its own
    // worker view and scheduler, so the one-thread-per-instance rule
    // holds; frozen rows are read lock-free, cold misses serialize
    // through the shared residue. The fixed (chunk-order) merge of exact
    // partials is order-insensitive, hence bit-identical for any worker
    // count. A subtree that throws raises `stop`, and no chunk starts a
    // subtree after it.
    std::atomic<bool> stop{false};
    parallel_for_chunks(
        pool, tasks.size(),
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          auto view = worker_view();
          SchedulerPtr sched = worker_scheduler();
          ExactDisc<Perception>& out = partial[chunk];
          for (std::size_t i = begin; i < end && !stop; ++i) {
            ExecFragment path = tasks[i].frag;
            try {
              enumerate_cone(
                  *view, *sched, max_depth, path, tasks[i].prob,
                  [&](const ExecFragment& alpha, const Rational& p) {
                    out.add(f.apply(*view, alpha), p);
                  },
                  &cstats[chunk]);
            } catch (...) {
              stop = true;
              throw;
            }
          }
        });
  } catch (...) {
    publish();
    throw;
  }
  publish();

  ExactDisc<Perception> result = std::move(base);
  for (auto& p : partial) result.merge(std::move(p));
  return result;
}

}  // namespace cdse
