#include "sched/sampler.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "psioa/memo.hpp"

namespace cdse {

ExecFragment sample_execution(Psioa& automaton, Scheduler& sched,
                              Xoshiro256& rng, std::size_t max_depth) {
  ExecFragment alpha = ExecFragment::starting_at(automaton.start_state());
  // Memoized automata serve compiled double-CDF rows; the detection is
  // hoisted out of the step loop (once per execution, not per step).
  auto* memo = dynamic_cast<MemoPsioa*>(&automaton);
  while (alpha.length() < max_depth) {
    // Draw over {halt} U actions from the scheduler's compiled row.
    const ChoiceRow* choice = sched.choice_row(automaton, alpha);
    if (choice->empty()) break;
    const ActionId chosen = choice->sample(rng.uniform());
    if (chosen == kInvalidAction) break;  // residual mass: halt
    State next;
    if (memo != nullptr) {
      // Fast path: one cached CDF walk, no Rational arithmetic and no
      // re-derivation of composed signatures or transition products.
      next = memo->compiled_row(alpha.lstate(), chosen).sample(rng.uniform());
    } else {
      const StateDist eta = automaton.transition(alpha.lstate(), chosen);
      const double v = rng.uniform();
      double acc = 0.0;
      next = eta.entries().back().first;
      for (const auto& [q2, w] : eta.entries()) {
        acc += w.to_double();
        if (v < acc) {
          next = q2;
          break;
        }
      }
    }
    alpha.append(chosen, next);
  }
  return alpha;
}

Disc<Perception, double> sample_fdist(Psioa& automaton, Scheduler& sched,
                                      const InsightFunction& f,
                                      std::size_t trials, std::uint64_t seed,
                                      std::size_t max_depth) {
  Disc<Perception, double> dist;
  Xoshiro256 rng(seed);
  const double w = 1.0 / static_cast<double>(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    const ExecFragment alpha =
        sample_execution(automaton, sched, rng, max_depth);
    dist.add(f.apply(automaton, alpha), w);
  }
  return dist;
}

namespace {

// Distinct RNG universe per retry so a rotation cannot collide with any
// chunk stream of a previous attempt.
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
  while (!frontier.empty()) {
    const auto [q, depth] = frontier.front();
    frontier.pop_front();
    ++visited;
    const Signature& sig = automaton.signature_ref(q);
    if (depth >= plan.horizon) continue;
    // Warm the scheduler's per-state row where it keeps one. The
    // synthetic fragment has length 0, which any depth-bounded scheduler
    // treats as "below the bound" -- exactly the regime in which its
    // per-state memo is consulted.
    (void)sched.choice_row(automaton, ExecFragment::starting_at(q));
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

ParallelSampler::ParallelSampler(PsioaFactory make_automaton,
                                 SchedulerFactory make_sched)
    : make_automaton_(std::move(make_automaton)),
      make_sched_(std::move(make_sched)) {}

void ParallelSampler::prepare(const WarmupPlan& plan, std::size_t max_depth) {
  PsioaPtr p = make_automaton_();
  auto memo = std::dynamic_pointer_cast<MemoPsioa>(p);
  if (memo == nullptr) memo = memoize(std::move(p));  // leaf: caching view
  SchedulerPtr sched = make_sched_();
  warm_automaton(*memo, *sched, plan, max_depth);
  warm_ = std::move(memo);
  snapshot_ = warm_->freeze();
  residue_ = std::make_shared<SnapshotResidue>(warm_);
  choice_rows_ = sched->freeze_choice_rows();
  last_stats_ = SnapshotStats{};
}

InternStats ParallelSampler::residue_intern_stats() const {
  if (warm_ == nullptr) return {};
  return warm_->intern_stats();
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
    std::size_t max_depth, ThreadPool& pool, SamplingMode mode,
    const SampleGuard& guard, SampleReport* report) {
  if (!prepared()) {
    throw std::logic_error("ParallelSampler: prepare() before sample_fdist()");
  }
  if (mode == SamplingMode::kBatched) {
    if (guard.deadline.count() > 0 || guard.max_retries > 0) {
      throw std::invalid_argument(
          "ParallelSampler: a batched run has no trial boundary to stop "
          "or retry at; guard kSerial runs only");
    }
    PerceptionTable table;
    IncrementalFdistRun run(*this, f, table, trials,
                            Xoshiro256::for_stream(seed, 0), max_depth,
                            std::numeric_limits<std::size_t>::max());
    run.step_wave();
    last_stats_ = run.snapshot_stats();
    last_batch_stats_ = run.batch_stats();
    if (report != nullptr) {
      *report = SampleReport{};
      report->trials_requested = trials;
      report->trials_done = trials;
    }
    std::vector<double> counts;
    add_counts(counts, run.wave_delta());
    const double n = static_cast<double>(trials);
    return table.to_disc(counts, [n](double count) { return count / n; });
  }
  // One chunk per worker over the pool's static partition. An attempt
  // that throws leaves nothing behind: its counts are reset on retry and
  // its view's counters are never read.
  struct ChunkOutcome {
    Disc<Perception, double> counts;
    SnapshotStats stats;
    std::size_t done = 0;
    std::size_t retries = 0;
    bool timed_out = false;
    bool failed = false;           // every attempt threw
    std::exception_ptr first_error;
    std::string error;

    void note(const char* what) {
      if (first_error != nullptr) return;
      first_error = std::current_exception();
      error = what;
    }
  };
  std::vector<ChunkOutcome> outcome(pool.size());
  parallel_for_chunks(
      pool, trials,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ChunkOutcome& out = outcome[chunk];
        for (std::size_t attempt = 0;; ++attempt) {
          out.counts = Disc<Perception, double>{};
          out.done = 0;
          out.timed_out = false;
          try {
            const std::shared_ptr<SnapshotPsioa> view = worker_view();
            const SchedulerPtr sched = worker_scheduler();
            Xoshiro256 rng =
                Xoshiro256::for_stream(rotate_seed(seed, attempt), chunk);
            const auto t0 = std::chrono::steady_clock::now();
            for (std::size_t i = begin; i < end; ++i) {
              if (guard.deadline.count() > 0 &&
                  std::chrono::steady_clock::now() - t0 >= guard.deadline) {
                out.timed_out = true;
                break;
              }
              const ExecFragment alpha =
                  sample_execution(*view, *sched, rng, max_depth);
              out.counts.add(f.apply(*view, alpha), 1.0);
              ++out.done;
            }
            out.stats = view->snapshot_stats();
            return;
          } catch (const std::exception& e) {
            out.note(e.what());
          } catch (...) {
            out.note("non-standard exception");
          }
          if (attempt >= guard.max_retries) {
            out.counts = Disc<Perception, double>{};
            out.done = 0;
            out.failed = true;
            return;
          }
          ++out.retries;
        }
      });

  SampleReport rep;
  rep.trials_requested = trials;
  std::exception_ptr failure;
  last_stats_ = SnapshotStats{};
  last_batch_stats_ = BatchStats{};
  for (const ChunkOutcome& c : outcome) {
    rep.trials_done += c.done;
    rep.retries_used += c.retries;
    rep.deadline_hit = rep.deadline_hit || c.timed_out;
    if (rep.error.empty()) rep.error = c.error;
    if (failure == nullptr && c.failed) failure = c.first_error;
    last_stats_ += c.stats;
  }
  rep.complete = rep.trials_done == trials;
  if (report != nullptr) {
    *report = rep;
  } else if (!rep.complete) {
    if (failure != nullptr) std::rethrow_exception(failure);
    throw std::runtime_error(
        "ParallelSampler: deadline cut the run short at " +
        std::to_string(rep.trials_done) + "/" + std::to_string(trials) +
        " trials (pass a SampleReport to accept a partial estimate)");
  }
  Disc<Perception, double> merged;
  if (rep.trials_done > 0) {
    const double n = static_cast<double>(rep.trials_done);
    for (const ChunkOutcome& c : outcome) {
      merged.merge(c.counts, [n](double count) { return count / n; });
    }
  }
  return merged;
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
