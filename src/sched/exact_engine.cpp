#include "sched/exact_engine.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "impl/bisim.hpp"
#include "psioa/memo.hpp"
#include "sched/schedulers.hpp"

namespace cdse {

namespace {

[[noreturn]] void throw_outside_sig(const Scheduler& sched, ActionId a) {
  throw std::logic_error("cone measure: scheduler '" + sched.name() +
                         "' chose action '" + ActionTable::instance().name(a) +
                         "' outside sig(lstate)");
}

}  // namespace

std::optional<ReducedSystem> reduce_for_enumeration(
    Psioa& automaton, std::size_t max_depth, const ReductionPolicy& policy) {
  if (!policy.enabled() || max_depth == 0) return std::nullopt;
  // Warm through the automaton's own memo when it has one; otherwise a
  // non-owning MemoView (the caller keeps ownership of `automaton` and
  // outlives this call, which is all the view needs).
  MemoPsioa* warm = dynamic_cast<MemoPsioa*>(&automaton);
  std::shared_ptr<MemoView> wrapper;
  if (warm == nullptr) {
    wrapper = memoize(PsioaPtr(PsioaPtr{}, &automaton));
    warm = wrapper.get();
  }
  // Covering walk: horizon = max_depth freezes full rows at every state
  // the cone can expand (depth < max_depth) and signatures at the
  // leaves, so the quotient's frontier singletons are never entered.
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = max_depth;
  plan.max_states = policy.max_states;
  UniformScheduler uniform(max_depth);
  const std::size_t visited = warm_automaton(*warm, uniform, plan, max_depth);
  if (visited >= plan.max_states) return std::nullopt;  // truncated: fall back

  auto snap = warm->freeze();
  PartitionStats pstats;
  const SnapshotPartition partition = bisimulation_partition(*snap, &pstats);
  QuotientSnapshot quotient = snap->quotient(partition);

  ReducedSystem out;
  out.snapshot = quotient.reduced;
  out.view = std::make_shared<QuotientPsioa>(quotient.reduced);
  out.states = snap->state_count();
  out.blocks = quotient.blocks;
  return out;
}

void enumerate_cone(
    Psioa& automaton, Scheduler& sched, std::size_t max_depth,
    ExecFragment& path, const Rational& prefix_prob,
    const std::function<void(const ExecFragment&, const Rational&)>& visit,
    ConeStats* stats) {
  ConeStats scratch;
  ConeStats& cs = stats != nullptr ? *stats : scratch;
  if (prefix_prob.is_zero()) return;
  // Memoized instances serve exact rows by reference (no StateDist copy
  // per edge); everything else falls back to the virtual transition().
  MemoPsioa* memo = dynamic_cast<MemoPsioa*>(&automaton);
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
    if (path.length() >= max_depth) {
      visit(path, prob);
      ++cs.leaves;
      return;
    }
    const ActionChoice choice = sched.choose(automaton, path);
    const Rational halt = scheduled_halt_mass(choice, sched);
    if (!halt.is_zero()) {
      visit(path, prob * halt);
      ++cs.halts;
    }
    const State q = path.lstate();
    const std::size_t depth = path.length();
    const std::size_t first_child = stack.size();
    if (memo != nullptr) {
      const Signature& sig = memo->signature_ref(q);
      for (const auto& [a, w] : choice.entries()) {
        if (!sig.contains(a)) throw_outside_sig(sched, a);
        const StateDist& eta = memo->transition_dist(q, a);
        for (const auto& [q2, tw] : eta.entries()) {
          stack.push_back({prob * w * tw, a, q2, depth});
        }
      }
    } else {
      const Signature sig = automaton.signature(q);
      for (const auto& [a, w] : choice.entries()) {
        if (!sig.contains(a)) throw_outside_sig(sched, a);
        const StateDist eta = automaton.transition(q, a);
        for (const auto& [q2, tw] : eta.entries()) {
          stack.push_back({prob * w * tw, a, q2, depth});
        }
      }
    }
    // The recursive enumerator descends into the first edge first;
    // reversing the freshly pushed run makes the LIFO pops replay that
    // exact pre-order.
    std::reverse(stack.begin() + first_child, stack.end());
    cs.frames_pushed += stack.size() - first_child;
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

PrefixStrata strata_from_frontier(const ConeFrontier& frontier) {
  PrefixStrata out;
  out.settled = frontier.settled;
  out.live.reserve(frontier.live.size());
  for (const auto& e : frontier.live) {
    out.live.push_back({e.frag, e.prob});
    out.live_mass = out.live_mass + e.prob;
  }
  return out;
}

// -- prefix-sharing frontiers ----------------------------------------------

ConeFrontierCache::ConeFrontierCache(Psioa& automaton,
                                     const InsightFunction& f,
                                     std::size_t max_depth)
    : automaton_(automaton),
      f_(f),
      max_depth_(max_depth),
      memo_(dynamic_cast<MemoPsioa*>(&automaton)) {}

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
    bool enabled;
    if (memo_ != nullptr) {
      enabled = memo_->signature_ref(q).contains(a);
    } else {
      enabled = automaton_.signature(q).contains(a);
    }
    if (!enabled) {
      fr.settled.add(e.perc, e.prob);
      fr.settled_max_len = std::max(fr.settled_max_len, e.frag.length());
      ++stats_.halts;
      continue;
    }
    auto step = [&](State q2, const Rational& tw) {
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
    };
    if (memo_ != nullptr) {
      // The row reference is only stable until the next compiled_row
      // call, and f_.apply may fault signatures on snapshot views --
      // neither touches the row tables, so reading entries across the
      // step calls is safe; a fresh live fragment never aliases it.
      const StateDist& eta = memo_->transition_dist(q, a);
      for (const auto& [q2, tw] : eta.entries()) step(q2, tw);
    } else {
      const StateDist eta = automaton_.transition(q, a);
      for (const auto& [q2, tw] : eta.entries()) step(q2, tw);
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
    : sampler_(std::move(make_automaton), make_sched),
      make_sched_(std::move(make_sched)),
      policy_(policy) {}

void ParallelConeEngine::prepare(const WarmupPlan& plan,
                                 std::size_t max_depth) {
  sampler_.prepare(plan, max_depth);
  quotient_ = QuotientSnapshot{};
  if (!policy_.enabled()) return;
  // Reduce only when the snapshot covers the cone: the walk must reach
  // the enumeration depth and must not have truncated on the state cap
  // (state_count counts every memoized state, so hitting either cap
  // shows up as state_count >= the cap).
  auto snap = sampler_.snapshot();
  const std::size_t cap = std::min(plan.max_states, policy_.max_states);
  if (plan.horizon < max_depth || snap->state_count() >= cap) return;
  PartitionStats pstats;
  const SnapshotPartition partition = bisimulation_partition(*snap, &pstats);
  quotient_ = snap->quotient(partition);
}

ExactDisc<Perception> ParallelConeEngine::exact_fdist(
    const InsightFunction& f, std::size_t max_depth, ThreadPool& pool,
    std::size_t frontier_target) {
  if (!prepared()) {
    throw std::logic_error("ParallelConeEngine: prepare() before exact_fdist");
  }
  const std::size_t target =
      frontier_target != 0
          ? frontier_target
          : 4 * std::max<std::size_t>(std::size_t{1}, pool.size());
  ConeStats stats;
  if (reduced()) {
    stats.quotient_states = quotient_.original_states;
    stats.quotient_blocks = quotient_.blocks;
  }

  // Views and schedulers: thin snapshot views with frozen choice rows on
  // the raw path; QuotientPsioa views with *fresh* schedulers on the
  // reduced path (frozen choice rows are keyed by original handles,
  // which a block handle could alias -- fresh schedulers re-derive their
  // rows from block signatures, which is exactly the preserved part).
  auto make_view = [&]() -> std::shared_ptr<MemoPsioa> {
    if (reduced()) return std::make_shared<QuotientPsioa>(quotient_.reduced);
    return sampler_.worker_view();
  };
  auto make_worker_sched = [&]() -> SchedulerPtr {
    if (reduced()) return make_sched_();
    return sampler_.worker_scheduler();
  };

  // Phase 1 (calling thread): breadth-first expansion until the frontier
  // holds enough independent subtrees to keep every worker busy. Halt
  // and leaf mass discovered on the way accumulates into `base`.
  auto main_view = make_view();
  SchedulerPtr main_sched = make_worker_sched();
  struct Node {
    ExecFragment frag;
    Rational prob;
  };
  std::deque<Node> frontier;
  ExactDisc<Perception> base;
  frontier.push_back(
      {ExecFragment::starting_at(main_view->start_state()), Rational(1)});
  while (!frontier.empty() && frontier.size() < target) {
    Node n = std::move(frontier.front());
    frontier.pop_front();
    if (n.frag.length() >= max_depth) {
      base.add(f.apply(*main_view, n.frag), n.prob);
      ++stats.leaves;
      continue;
    }
    const ActionChoice choice = main_sched->choose(*main_view, n.frag);
    const Rational halt = scheduled_halt_mass(choice, *main_sched);
    if (!halt.is_zero()) {
      base.add(f.apply(*main_view, n.frag), n.prob * halt);
      ++stats.halts;
    }
    const State q = n.frag.lstate();
    const Signature& sig = main_view->signature_ref(q);
    for (const auto& [a, w] : choice.entries()) {
      if (!sig.contains(a)) throw_outside_sig(*main_sched, a);
      const StateDist& eta = main_view->transition_dist(q, a);
      for (const auto& [q2, tw] : eta.entries()) {
        ExecFragment child = n.frag;
        child.append(a, q2);
        frontier.push_back({std::move(child), n.prob * w * tw});
      }
    }
  }
  std::vector<Node> tasks;
  tasks.reserve(frontier.size());
  for (auto& n : frontier) tasks.push_back(std::move(n));
  stats.splits = tasks.size();

  // Phase 2: fan the subtrees over the pool. Each chunk drives its own
  // thin snapshot view and scheduler instance, so the one-thread-per-
  // instance rule holds; frozen rows are read lock-free, cold misses
  // serialize through the shared residue. The fixed (chunk-order) merge
  // of exact partials is order-insensitive, hence bit-identical for any
  // worker count.
  const std::size_t lanes = std::max<std::size_t>(std::size_t{1}, pool.size());
  std::vector<ExactDisc<Perception>> partial(lanes);
  std::vector<ConeStats> cstats(lanes);
  parallel_for_chunks(
      pool, tasks.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto view = make_view();
        SchedulerPtr sched = make_worker_sched();
        ExactDisc<Perception>& out = partial[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          ExecFragment path = tasks[i].frag;
          enumerate_cone(
              *view, *sched, max_depth, path, tasks[i].prob,
              [&](const ExecFragment& alpha, const Rational& p) {
                out.add(f.apply(*view, alpha), p);
              },
              &cstats[chunk]);
        }
      });

  ExactDisc<Perception> result = std::move(base);
  for (auto& p : partial) result.merge(std::move(p));
  for (const auto& s : cstats) stats += s;
  stats_ = stats;
  return result;
}

}  // namespace cdse
