#include "sched/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "impl/bisim.hpp"
#include "psioa/memo.hpp"

namespace cdse {

ExecFragment sample_execution(MemoPsioa& automaton, Scheduler& sched,
                              Xoshiro256& rng, std::size_t max_depth) {
  ExecFragment alpha = ExecFragment::starting_at(automaton.start_state());
  while (alpha.length() < max_depth) {
    // Draw over {halt} U actions from the scheduler's compiled row.
    const ChoiceRow* choice = sched.choice_row(automaton, alpha);
    if (choice->empty()) break;
    const ActionId chosen = choice->sample(rng.uniform());
    if (chosen == kInvalidAction) break;  // residual mass: halt
    // One cached CDF walk: no Rational arithmetic and no re-derivation of
    // composed signatures or transition products.
    const State next =
        automaton.compiled_row(alpha.lstate(), chosen).sample(rng.uniform());
    alpha.append(chosen, next);
  }
  return alpha;
}

namespace {

// Distinct RNG universe per retry so a rotation cannot collide with the
// stream of a previous attempt.
std::uint64_t rotate_seed(std::uint64_t seed, std::size_t attempt) {
  return seed + static_cast<std::uint64_t>(attempt) * 0x9e3779b97f4a7c15ULL;
}

}  // namespace

// -- shared frozen snapshots ------------------------------------------------

std::size_t warm_automaton(MemoPsioa& automaton, Scheduler& sched,
                           const WarmupPlan& plan, std::size_t max_depth) {
  // Pre-size the interning tables so the BFS below discovers states
  // without mid-walk rehashes (advisory; automata without a handle store
  // ignore it).
  automaton.reserve_interning(std::min(plan.reserve_states, plan.max_states));
  // Phase 1: episodes. Warms the hot region in sampling order and, as a
  // side effect, the scheduler's path-dependent rows. The stream is
  // dedicated so a clone warmed with the same plan replays identically.
  Xoshiro256 rng = Xoshiro256::for_stream(plan.seed, 0);
  for (std::size_t i = 0; i < plan.episodes; ++i) {
    (void)sample_execution(automaton, sched, rng, max_depth);
  }
  if (plan.horizon == 0) return 0;
  // Phase 2: exhaustive reachable walk. BFS over sorted action sets is
  // deterministic, so interning order (and with it the entry order of
  // every compiled CDF) is identical across instances warmed alike.
  std::deque<std::pair<State, std::size_t>> frontier;
  std::unordered_set<State> seen;
  const State q0 = automaton.start_state();
  frontier.emplace_back(q0, 0);
  seen.insert(q0);
  std::size_t visited = 0;
  auto* markov = dynamic_cast<MarkovScheduler*>(&sched);
  while (!frontier.empty()) {
    const auto [q, depth] = frontier.front();
    frontier.pop_front();
    ++visited;
    const Signature& sig = automaton.signature_ref(q);
    if (depth >= plan.horizon) continue;
    // Warm a Markov scheduler's per-state row where it keeps one, at a
    // length-0 fragment: below any depth bound, the regime in which its
    // per-state memo is consulted. Other schedulers read the history,
    // so they have no per-state row to warm. The fragment's one small
    // allocation per state stays on purpose: without it, glibc lays the
    // tables warmed here out so that the freeze and the bisimulation
    // reduction after it take ~15% more last-level cache misses and
    // time less steadily (width-128 fork product, 4-vCPU x86-64).
    if (markov != nullptr) {
      (void)markov->choice_row(automaton, ExecFragment::starting_at(q));
    }
    for (ActionId a : sig.all()) {
      const CompiledRow& row = automaton.compiled_row(q, a);
      for (State q2 : row.targets) {
        if (seen.size() >= plan.max_states) break;
        if (seen.insert(q2).second) frontier.emplace_back(q2, depth + 1);
      }
    }
  }
  return visited;
}

bool warmup_covers(const WarmupPlan& plan, std::size_t visited,
                   std::size_t max_depth) {
  // A walk that ran visited the start state, so visited > 0 says it ran.
  return visited > 0 && plan.horizon >= max_depth &&
         visited < plan.max_states;
}

ReducedSystem reduce_snapshot(const CompiledSnapshot& snapshot) {
  const QuotientSnapshot q = snapshot.quotient(bisimulation_partition(snapshot));
  return {q.reduced, std::make_shared<SnapshotPsioa>(q.reduced),
          q.original_states, q.blocks};
}

ParallelSampler::ParallelSampler(PsioaFactory make_automaton,
                                 SchedulerFactory make_sched)
    : make_automaton_(std::move(make_automaton)),
      make_sched_(std::move(make_sched)) {}

void ParallelSampler::prepare(const WarmupPlan& plan, std::size_t max_depth) {
  PsioaPtr p = make_automaton_();
  auto memo = std::dynamic_pointer_cast<MemoPsioa>(p);
  if (memo == nullptr) memo = memoize(std::move(p));  // leaf: caching view
  SchedulerPtr sched = make_sched_();
  covers_ = warmup_covers(plan, warm_automaton(*memo, *sched, plan, max_depth),
                          max_depth);
  snapshot_ = memo->freeze();
  residue_ = std::make_shared<SnapshotResidue>(std::move(memo));
  choice_rows_ = sched->freeze_choice_rows();
  last_stats_ = SnapshotStats{};
}

std::optional<ReducedSystem> ParallelSampler::reduce() {
  if (!prepared()) {
    throw std::logic_error("ParallelSampler: prepare() before reduce()");
  }
  if (!covers_) return std::nullopt;
  ReducedSystem red = reduce_snapshot(*snapshot_);
  snapshot_ = red.snapshot;
  residue_.reset();
  choice_rows_.reset();
  return red;
}

InternStats ParallelSampler::residue_intern_stats() const {
  if (residue_ == nullptr) return {};
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->intern_stats();
}

std::shared_ptr<SnapshotPsioa> ParallelSampler::worker_view() const {
  if (!prepared()) {
    throw std::logic_error("ParallelSampler: prepare() before worker_view()");
  }
  return std::make_shared<SnapshotPsioa>(snapshot_, residue_);
}

SchedulerPtr ParallelSampler::worker_scheduler() const {
  SchedulerPtr sched = make_sched_();
  if (choice_rows_ != nullptr) sched->adopt_choice_rows(choice_rows_);
  return sched;
}

Disc<Perception, double> ParallelSampler::sample_fdist(
    const InsightFunction& f, std::size_t trials, std::uint64_t seed,
    std::size_t max_depth, ThreadPool& /*pool*/, SamplingMode /*mode*/,
    const SampleGuard& guard, SampleReport* report) {
  if (!prepared()) {
    throw std::logic_error("ParallelSampler: prepare() before sample_fdist()");
  }
  // A deadline is checked between waves, so a timed run steps one round
  // per wave; an untimed one finishes in a single wave. Integer class
  // counts sum exactly, so the estimate does not depend on the cut.
  const bool timed = guard.deadline.count() > 0;
  SampleReport rep;
  rep.trials_requested = trials;
  std::exception_ptr first_error;
  auto note = [&](const char* what) {
    if (first_error != nullptr) return;
    first_error = std::current_exception();
    rep.error = what;
  };
  bool failed = false;  // every attempt threw
  Disc<Perception, double> estimate;
  last_stats_ = SnapshotStats{};
  last_batch_stats_ = BatchStats{};
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      const auto t0 = std::chrono::steady_clock::now();
      PerceptionTable table;
      IncrementalFdistRun run(
          *this, f, table, trials,
          Xoshiro256::for_stream(rotate_seed(seed, attempt), 0), max_depth,
          timed ? 1 : std::numeric_limits<std::size_t>::max());
      std::vector<double> counts;
      while (!run.done()) {
        run.step_wave();
        add_counts(counts, run.wave_delta());
        if (timed && !run.done() &&
            std::chrono::steady_clock::now() - t0 >= guard.deadline) {
          rep.deadline_hit = true;
          break;
        }
      }
      const double n = static_cast<double>(trials);
      estimate = table.to_disc(counts, [n](double count) { return count / n; });
      last_stats_ = run.snapshot_stats();
      last_batch_stats_ = run.batch_stats();
      rep.trials_done = static_cast<std::size_t>(run.trials_terminal());
      rep.complete = run.done();
      break;
    } catch (const std::exception& e) {
      note(e.what());
    } catch (...) {
      note("non-standard exception");
    }
    if (attempt >= guard.max_retries) {
      failed = true;
      rep.complete = false;
      break;
    }
    ++rep.retries_used;
  }
  if (report != nullptr) {
    *report = rep;
  } else if (failed) {
    std::rethrow_exception(first_error);
  } else if (!rep.complete) {
    throw std::runtime_error(
        "ParallelSampler: deadline cut the run short at " +
        std::to_string(rep.trials_done) + "/" + std::to_string(trials) +
        " trials (pass a SampleReport to accept a partial estimate)");
  }
  return estimate;
}

// -- incremental runs -------------------------------------------------------

namespace {

BatchSampler make_batch_sampler(Psioa& view, Scheduler& sched,
                                PerceptionTable& table, std::size_t trials,
                                const Xoshiro256& rng, std::size_t max_depth,
                                const ExecFragment* prefix) {
  if (prefix == nullptr) {
    return BatchSampler(view, sched, table, trials, rng, max_depth);
  }
  return BatchSampler(view, sched, table, trials, rng, max_depth, *prefix);
}

}  // namespace

IncrementalFdistRun::IncrementalFdistRun(const ParallelSampler& sampler,
                                         const InsightFunction& f,
                                         PerceptionTable& table,
                                         std::size_t trials,
                                         const Xoshiro256& rng,
                                         std::size_t max_depth,
                                         std::size_t rounds_per_wave,
                                         const ExecFragment* prefix)
    : f_(f),
      view_(sampler.worker_view()),
      sched_(sampler.worker_scheduler()),
      bs_(make_batch_sampler(*view_, *sched_, table, trials, rng, max_depth,
                             prefix)) {
  if (rounds_per_wave == 0) {
    // Auto-tune (see the header contract). It does not target a draw
    // cost -- class splits cost per class, not per trial -- but waves are
    // the look points, so the rule fixes the look schedule and with it
    // the stopping time of every seeded sequential verdict.
    rounds_per_wave = std::max<std::size_t>(
        1, 2048 / std::max<std::size_t>(1, trials));
  }
  report_.rounds_per_wave = rounds_per_wave;
  report_.trials_requested = trials;
}

const IncrementalFdistRun::WaveReport& IncrementalFdistRun::step_wave() {
  if (done()) return report_;
  bs_.run_rounds(report_.rounds_per_wave);
  bs_.take_counts(f_, wave_delta_);
  ++report_.wave;
  report_.trials_done = static_cast<std::size_t>(bs_.trials_terminal());
  report_.done = bs_.done();
  return report_;
}

}  // namespace cdse
