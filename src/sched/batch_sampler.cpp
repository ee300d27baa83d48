#include "sched/batch_sampler.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

namespace cdse {

BatchSampler::BatchSampler(Psioa& automaton, Scheduler& sched,
                           PerceptionTable& table, std::size_t trials,
                           const Xoshiro256& rng, std::size_t max_depth)
    : automaton_(automaton),
      sched_(sched),
      markov_(dynamic_cast<MarkovScheduler*>(&sched)),
      table_(table),
      rows_(memo_rows(automaton, hold_)),
      trials_(trials),
      max_depth_(max_depth),
      rng_(rng) {
  const State q0 = automaton_.start_state();
  nodes_.push_back(
      PathNode{-1, kInvalidAction, q0, PerceptionTable::kEmptyTrace});
  if (trials_ > 0) {
    cls_state_.push_back(q0);
    cls_node_.push_back(0);
    cls_count_.push_back(static_cast<std::uint64_t>(trials_));
  }
}

BatchSampler::BatchSampler(Psioa& automaton, Scheduler& sched,
                           PerceptionTable& table, std::size_t trials,
                           const Xoshiro256& rng, std::size_t max_depth,
                           const ExecFragment& prefix)
    : automaton_(automaton),
      sched_(sched),
      markov_(dynamic_cast<MarkovScheduler*>(&sched)),
      table_(table),
      rows_(memo_rows(automaton, hold_)),
      trials_(trials),
      max_depth_(max_depth),
      rng_(rng),
      prefix_(prefix) {
  // All trials start as one class at the prefix's last state; depth_
  // counts absolute execution length, so scheduler rows and the
  // max_depth cap behave exactly as in an unconditioned run that
  // happened to walk this prefix.
  depth_ = prefix.length();
  const State q0 = prefix.lstate();
  std::int32_t trace = PerceptionTable::kEmptyTrace;
  for (std::size_t i = 0; i < prefix.length(); ++i) {
    const ActionId a = prefix.actions()[i];
    if (external_at(prefix.states()[i], a)) trace = table_.extend(trace, a);
  }
  nodes_.push_back(PathNode{-1, kInvalidAction, q0, trace});
  if (trials_ > 0) {
    cls_state_.push_back(q0);
    cls_node_.push_back(0);
    cls_count_.push_back(static_cast<std::uint64_t>(trials_));
  }
}

bool BatchSampler::external_at(State q, ActionId a) {
  return rows_.signature_ref(q).is_external(a);
}

void BatchSampler::push_terminal(std::int32_t node, std::uint64_t count) {
  terminal_.push_back(TerminalClass{node, count});
  terminal_trials_ += count;
  ++stats_.distinct_executions;
}

void BatchSampler::flush_survivors() {
  for (std::size_t c = 0; c < cls_state_.size(); ++c) {
    push_terminal(cls_node_[c], cls_count_[c]);
  }
  cls_state_.clear();
  cls_node_.clear();
  cls_count_.clear();
  flushed_ = true;
}

void BatchSampler::tally_draws(const SplitRow& row, std::uint64_t count,
                               std::vector<std::uint64_t>& tally) {
  if (row.size() == 1) {
    // Singleton elision: one slot means the draw is determined; spend no
    // RNG at all. (Deterministic transitions dominate the stack
    // workloads, so this skips most of the logical draw volume.)
    tally[0] += count;
    stats_.singleton_skips += count;
    return;
  }
  stats_.split_draws += row.split(rng_, count, tally.data());
}

void BatchSampler::one_round() {
  ++stats_.rounds;
  stats_.classes_peak = std::max(stats_.classes_peak, cls_state_.size());
  stats_.class_steps += cls_state_.size();

  // Deterministic grouping: classes sorted by (state, node id). Node ids
  // are allocated in deterministic order, so the whole permutation is
  // reproducible; runs of equal state share one row fetch.
  order_.resize(cls_state_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [&](std::size_t x, std::size_t y) {
    if (cls_state_[x] != cls_state_[y]) return cls_state_[x] < cls_state_[y];
    return cls_node_[x] < cls_node_[y];
  });

  nxt_state_.clear();
  nxt_node_.clear();
  nxt_count_.clear();

  std::size_t i = 0;
  while (i < order_.size()) {
    const State q = cls_state_[order_[i]];
    // One scheduler row per run [i, end): every class of state q for a
    // Markov scheduler, the class alone, asked with its real history,
    // for any other (see the scheduler contract in the header).
    std::size_t end = i + 1;
    const ChoiceRow* choice;
    if (markov_ != nullptr) {
      while (end < order_.size() && cls_state_[order_[end]] == q) ++end;
      choice = markov_->choice_row_at(automaton_, q, depth_);
    } else {
      choice =
          sched_.choice_row(automaton_, fragment_of(cls_node_[order_[i]]));
    }
    ++stats_.choice_lookups;

    if (choice->empty()) {
      for (; i < end; ++i) {
        push_terminal(cls_node_[order_[i]], cls_count_[order_[i]]);
      }
      continue;
    }

    const std::size_t n_actions = choice->actions.size();
    const std::size_t n_slots = choice->split.size();
    // Transition rows of this run, resolved on first use together with
    // whether the action is external at q (signatures are
    // state-dependent, so this is once per run and action). Memo rows
    // live in node-stable maps.
    run_rows_.assign(n_actions, nullptr);
    external_.assign(n_actions, 0);

    for (; i < end; ++i) {
      const std::size_t c = order_[i];
      act_tally_.assign(n_slots, 0);
      stats_.action_draws += cls_count_[c];
      tally_draws(choice->split, cls_count_[c], act_tally_);
      // Slots past the action list are the residual-mass halt slot.
      std::uint64_t halted = 0;
      for (std::size_t s = n_actions; s < n_slots; ++s) halted += act_tally_[s];
      if (halted > 0) push_terminal(cls_node_[c], halted);
      for (std::size_t s = 0; s < n_actions; ++s) {
        if (act_tally_[s] == 0) continue;
        const ActionId a = choice->actions[s];
        if (run_rows_[s] == nullptr) {
          ++stats_.row_lookups;
          run_rows_[s] = &rows_.compiled_row(q, a);
          external_[s] = external_at(q, a) ? 1 : 0;
        }
        const CompiledRow& row = *run_rows_[s];
        const std::int32_t parent = cls_node_[c];
        const std::int32_t trace =
            external_[s] != 0 ? table_.extend(nodes_[parent].trace, a)
                              : nodes_[parent].trace;
        const std::size_t n_targets = row.targets.size();
        tgt_tally_.assign(n_targets, 0);
        stats_.target_draws += act_tally_[s];
        tally_draws(row.split, act_tally_[s], tgt_tally_);
        for (std::size_t t = 0; t < n_targets; ++t) {
          if (tgt_tally_[t] == 0) continue;
          const auto child = static_cast<std::int32_t>(nodes_.size());
          nodes_.push_back(PathNode{parent, a, row.targets[t], trace});
          nxt_state_.push_back(row.targets[t]);
          nxt_node_.push_back(child);
          nxt_count_.push_back(tgt_tally_[t]);
        }
      }
    }
  }
  cls_state_.swap(nxt_state_);
  cls_node_.swap(nxt_node_);
  cls_count_.swap(nxt_count_);
  ++depth_;
}

std::size_t BatchSampler::run_rounds(std::size_t n) {
  std::size_t ran = 0;
  while (ran < n && !flushed_) {
    if (cls_state_.empty() || depth_ >= max_depth_) {
      // Halted out, or depth exhausted: survivors finish as terminal.
      flush_survivors();
      break;
    }
    one_round();
    ++ran;
    if (cls_state_.empty() || depth_ >= max_depth_) flush_survivors();
  }
  return ran;
}

void BatchSampler::run_to_completion() {
  while (!flushed_) {
    run_rounds(std::numeric_limits<std::size_t>::max());
  }
}

void BatchSampler::take_counts(const InsightFunction& f,
                               PerceptionCounts& out) {
  out.clear();
  out.reserve(terminal_.size() - counted_);
  const auto* trace_fn = dynamic_cast<const TraceFunction*>(&f);
  for (std::size_t k = counted_; k < terminal_.size(); ++k) {
    const TerminalClass& tc = terminal_[k];
    const PerceptionTable::Id id =
        trace_fn != nullptr
            ? table_.of_node(nodes_[tc.node].trace, *trace_fn)
            : table_.intern(f.apply(automaton_, fragment_of(tc.node)));
    out.emplace_back(id, tc.count);
  }
  counted_ = terminal_.size();
}

std::vector<ExecFragment> BatchSampler::fragments() const {
  std::vector<ExecFragment> out;
  out.reserve(trials_);
  for (const TerminalClass& tc : terminal_) {
    ExecFragment alpha = fragment_of(tc.node);
    for (std::uint64_t k = 0; k + 1 < tc.count; ++k) out.push_back(alpha);
    out.push_back(std::move(alpha));
  }
  return out;
}

ExecFragment BatchSampler::fragment_of(std::int32_t leaf) const {
  std::vector<std::int32_t> chain;
  for (std::int32_t v = leaf; v >= 0; v = nodes_[v].parent) {
    chain.push_back(v);
  }
  // Conditioned runs graft the sampled suffix onto a copy of the prefix
  // (the root node stands in for prefix.lstate(), so the chain skips it
  // either way).
  ExecFragment alpha = prefix_.has_value()
                           ? *prefix_
                           : ExecFragment::starting_at(nodes_[chain.back()].q);
  for (std::size_t k = chain.size() - 1; k-- > 0;) {
    alpha.append(nodes_[chain[k]].a, nodes_[chain[k]].q);
  }
  return alpha;
}

std::vector<ExecFragment> sample_executions(Psioa& automaton,
                                            Scheduler& sched, Xoshiro256& rng,
                                            std::size_t n,
                                            std::size_t max_depth,
                                            BatchStats* stats) {
  PerceptionTable table;
  BatchSampler bs(automaton, sched, table, n, rng, max_depth);
  bs.run_to_completion();
  rng = bs.rng();
  if (stats != nullptr) *stats += bs.stats();
  return bs.fragments();
}

Disc<Perception, double> sample_fdist_batched(
    Psioa& automaton, Scheduler& sched, const InsightFunction& f,
    std::size_t trials, std::uint64_t seed, std::size_t max_depth,
    BatchStats* stats) {
  PerceptionTable table;
  BatchSampler bs(automaton, sched, table, trials, Xoshiro256(seed),
                  max_depth);
  bs.run_to_completion();
  if (stats != nullptr) *stats += bs.stats();
  PerceptionCounts delta;
  bs.take_counts(f, delta);
  std::vector<double> counts;
  add_counts(counts, delta);
  const double n = static_cast<double>(trials);
  return table.to_disc(counts, [n](double count) { return count / n; });
}

}  // namespace cdse
