// E17 -- fault tolerance of secure emulation: how does emulation epsilon
// degrade when the real side of a real/ideal pair runs under injected
// faults? The seed repo only ever exercised its protocols on well-behaved
// schedules; this is the first workload where messages drop, parties
// crash-stop (as intrinsic PCA destruction, Def 2.14) and corrupted
// parties lie. Every fault is automaton structure, so every epsilon below
// is exact.
//
// Tables:
//   1. message loss, coin toss   -- drop rate d on the environment's
//      result0 delivery; eps(d) = b + d*(1/2 - b), b = 2^-(k+1).
//   2. message loss, consensus   -- drop rate d on BenOrLite's common-coin
//      round; eps(d) = 1/2 * ((1+d)/2)^r.
//   3. crash-stop, coin toss     -- the real protocol crash-stops after n
//      transitions inside a DynamicPca (destruction transition); eps(n)
//      falls monotonically from 1/2 (nothing delivered) to b (never
//      crashes before completion).
//   4. Byzantine corruption      -- the real protocol lies about its
//      result with probability rho; eps(rho) = b*|1-2*rho|: corruption
//      pushes the biased real coin *toward* the fair ideal, an expected
//      non-monotonicity the closed form pins down.
//
// A final degradation drill exercises the hardened engine, the
// round-boundary SampleGuard of ParallelSampler's batched run: a run cut
// by its deadline must come back partial with its censored mass
// reported (the finished executions keep their weight, the rest is
// missing, not redistributed), and a workload whose every attempt throws
// must burn its seed-rotation retries and report failure instead of
// tearing the harness down. Main table rows run through
// bench::guarded_row, so a genuinely failing row degrades to a partial
// row + non-zero exit, never an abort mid-table.

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "fault/byzantine.hpp"
#include "fault/crash.hpp"
#include "fault/faulty.hpp"
#include "impl/balance.hpp"
#include "pca/check.hpp"
#include "protocols/cointoss.hpp"
#include "protocols/consensus.hpp"
#include "protocols/environment.hpp"
#include "psioa/compose.hpp"
#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"

namespace cdse {
namespace {

constexpr std::uint32_t kK = 2;  // commitment security parameter

SchedulerPtr driver(const std::string& tag, std::size_t depth = 14) {
  return std::make_shared<PriorityScheduler>(
      std::vector<ActionId>{
          act("toss_" + tag), act("commit0_" + tag), act("pickb_" + tag),
          act("announceB0_" + tag), act("announceB1_" + tag),
          act("flipcmd_" + tag), act("reveal_" + tag), act("open0_" + tag),
          act("open1_" + tag), act("result0_" + tag), act("result1_" + tag),
          act("acc_" + tag)},
      depth, /*local_only=*/true);
}

/// Probe that accepts on result0 (the value the biaser steers *away*
/// from): losing its delivery can only widen the gap to the ideal side,
/// which is what makes the loss sweep provably monotone.
PsioaPtr arm0_env(const std::string& tag) {
  return make_probe_env_matching("env_" + tag, {act("toss_" + tag)},
                                 acts({"result1_" + tag}),
                                 act("result0_" + tag), act("acc_" + tag));
}

Rational rational_pow(const Rational& x, std::size_t n) {
  Rational acc(1);
  for (std::size_t i = 0; i < n; ++i) acc *= x;
  return acc;
}

Rational rational_abs(const Rational& x) { return x < Rational(0) ? -x : x; }

const std::vector<Rational>& rate_grid() {
  static const std::vector<Rational> grid{
      Rational(0), Rational(1, 8), Rational(1, 4), Rational(3, 8),
      Rational(1, 2)};
  return grid;
}

bool drop_sweep_cointoss() {
  bench::print_header(
      "E17.1: message loss on the coin-toss pair",
      "eps(d) = b + d*(1/2 - b), b = 2^-(k+1); monotone, eps(0) = base");
  bench::print_row({"drop", "eps_exact", "expected", "eps_sampled", "ok?"});
  const CoinTossPair ct = make_cointoss_pair(kK, "e17a");
  const Rational b = ct.exact_bias;
  bool ok = true;
  Rational prev(-1);
  ThreadPool pool;
  // Each row samples on its own seed pair, so the rows' sampling errors
  // are independent and the 0.02 tolerance is checked once per row.
  std::uint64_t seed = 42;
  for (const Rational& d : rate_grid()) {
    const std::uint64_t real_seed = seed++;
    const std::uint64_t ideal_seed = seed++;
    ok = bench::guarded_row(d.to_string(), [&] {
      const std::string tag = "e17a";
      auto make_real = [&, d]() -> PsioaPtr {
        const CoinTossPair pair = make_cointoss_pair(kK, tag);
        PsioaPtr env = inject_faults(arm0_env(tag), FaultPlan::lossy(d),
                                     ActionSet{act("result0_" + tag)}, tag);
        return compose(env, compose(pair.real.ptr(),
                                    make_biaser_adversary(tag)));
      };
      auto make_ideal = [&]() -> PsioaPtr {
        const CoinTossPair pair = make_cointoss_pair(kK, tag);
        return compose(arm0_env(tag), compose(pair.ideal.ptr(),
                                              make_biaser_adversary(tag)));
      };
      PsioaPtr real_sys = make_real();
      PsioaPtr ideal_sys = make_ideal();
      const SchedulerPtr sr = driver(tag);
      const SchedulerPtr si = driver(tag);
      AcceptInsight f(act("acc_" + tag));
      const auto rd = exact_fdist(*real_sys, *sr, f, 24);
      const auto id = exact_fdist(*ideal_sys, *si, f, 24);
      const Rational eps = balance_distance(rd, id);
      const Rational expected = b + d * (Rational(1, 2) - b);

      // Sampled cross-check through the guarded batched run (generous
      // budget: it must come back complete here).
      SampleGuard guard;
      guard.deadline = std::chrono::milliseconds(10000);
      guard.max_retries = 2;
      const SchedulerFactory drive = [&] { return driver(tag); };
      ParallelSampler real_sampler(make_real, drive);
      ParallelSampler ideal_sampler(make_ideal, drive);
      real_sampler.prepare(WarmupPlan{}, 24);
      ideal_sampler.prepare(WarmupPlan{}, 24);
      SampleReport rep_r, rep_i;
      const auto srd = real_sampler.sample_fdist(
          f, 20000, real_seed, 24, pool, SamplingMode::kBatched, guard,
          &rep_r);
      const auto sid = ideal_sampler.sample_fdist(
          f, 20000, ideal_seed, 24, pool, SamplingMode::kBatched, guard,
          &rep_i);
      const double seps = balance_distance(srd, sid);
      const bool sampled_ok = rep_r.complete && rep_i.complete &&
                              std::abs(seps - eps.to_double()) < 0.02;

      const bool row_ok =
          eps == expected && (d.is_zero() ? eps == b : true) && prev < eps &&
          sampled_ok;
      prev = eps;
      bench::print_row({d.to_string(), eps.to_string(), expected.to_string(),
                        std::to_string(seps), row_ok ? "yes" : "NO"});
      return row_ok;
    }) && ok;
  }
  return ok;
}

bool drop_sweep_consensus() {
  bench::print_header(
      "E17.2: message loss on the consensus pair",
      "dropped common-coin rounds resolve nothing: eps(d) = 1/2*((1+d)/2)^r");
  const std::size_t r = 4;
  bench::print_row({"drop", "P_benor[d0]", "P_ideal[d0]", "eps_exact",
                    "expected", "ok?"});
  bool ok = true;
  Rational prev(-1);
  for (const Rational& d : rate_grid()) {
    ok = bench::guarded_row(d.to_string(), [&] {
      const std::string tag = "e17b";
      PsioaPtr benor =
          inject_faults(make_benor_consensus(tag), FaultPlan::lossy(d),
                        ActionSet{act("round_" + tag)}, tag + d.to_string());
      PsioaPtr ideal = make_ideal_consensus(tag);
      PriorityScheduler wb({act("proposeA0_" + tag), act("proposeB1_" + tag),
                            act("round_" + tag), act("decide0_" + tag)},
                           r + 3);
      PriorityScheduler wi({act("proposeA0_" + tag), act("proposeB1_" + tag),
                            act("pick_" + tag), act("decide0_" + tag)},
                           4);
      AcceptInsight f(act("decide0_" + tag));
      const auto db = exact_fdist(*benor, wb, f, r + 6);
      const auto di = exact_fdist(*ideal, wi, f, r + 6);
      const Rational eps = balance_distance(db, di);
      const Rational expected =
          Rational(1, 2) *
          rational_pow((Rational(1) + d) * Rational(1, 2), r);
      const bool row_ok = eps == expected && prev < eps;
      prev = eps;
      bench::print_row({d.to_string(), db.mass("1").to_string(),
                        di.mass("1").to_string(), eps.to_string(),
                        expected.to_string(), row_ok ? "yes" : "NO"});
      return row_ok;
    }) && ok;
  }
  return ok;
}

bool crash_sweep_cointoss() {
  bench::print_header(
      "E17.3: crash-stop as intrinsic PCA destruction (Def 2.14)",
      "real protocol crashes after n transitions; eps falls 1/2 -> b, "
      "monotonically, and the crash PCA passes Def 2.16 checks");
  const CoinTossPair base = make_cointoss_pair(kK, "e17c");
  const Rational b = base.exact_bias;
  bench::print_row({"crash_after", "P_real[acc]", "eps_exact", "pca_ok",
                    "ok?"});
  bool ok = true;
  Rational prev(2);
  const std::string tag = "e17c";
  PsioaPtr ideal_sys = compose(
      arm0_env(tag), compose(base.ideal.ptr(), make_biaser_adversary(tag)));
  const SchedulerPtr si = driver(tag);
  AcceptInsight f(act("acc_" + tag));
  const auto id = exact_fdist(*ideal_sys, *si, f, 24);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{6}, std::size_t{8},
                              std::size_t{14}}) {
    ok = bench::guarded_row(std::to_string(n), [&] {
      const CoinTossPair pair = make_cointoss_pair(kK, tag);
      auto registry = std::make_shared<AutomatonRegistry>();
      PcaPtr crashed = make_crash_stop_pca(
          "crashpca_" + tag + std::to_string(n), registry,
          compose(pair.real.ptr(), make_biaser_adversary(tag)), n);
      const PcaCheckResult pca_ok = check_pca_constraints(*crashed, 6);
      PsioaPtr real_sys = compose(arm0_env(tag), crashed);
      const SchedulerPtr sr = driver(tag, 16);
      const auto rd = exact_fdist(*real_sys, *sr, f, 26);
      const Rational eps = balance_distance(rd, id);
      const bool final_row = n == 14;
      const bool row_ok = bool(pca_ok) && eps <= prev &&
                          (final_row ? eps == b : true) &&
                          (n == 1 ? eps == Rational(1, 2) : true);
      prev = eps;
      bench::print_row({std::to_string(n), rd.mass("1").to_string(),
                        eps.to_string(), pca_ok ? "yes" : "NO",
                        row_ok ? "yes" : "NO"});
      return row_ok;
    }) && ok;
  }
  return ok;
}

bool byzantine_sweep_cointoss() {
  bench::print_header(
      "E17.4: Byzantine corruption of the real coin-toss party",
      "misreported results: eps(rho) = b*|1-2*rho| -- corruption steers "
      "the biased real coin toward the fair ideal");
  const std::string tag = "e17d";
  const CoinTossPair base = make_cointoss_pair(kK, tag);
  const Rational b = base.exact_bias;
  bench::print_row({"rho", "P_real[acc]", "eps_exact", "expected", "ok?"});
  bool ok = true;
  PsioaPtr ideal_sys = compose(
      arm0_env(tag), compose(base.ideal.ptr(), make_biaser_adversary(tag)));
  const SchedulerPtr si = driver(tag);
  AcceptInsight f(act("acc_" + tag));
  const auto id = exact_fdist(*ideal_sys, *si, f, 24);
  for (const Rational& rho : rate_grid()) {
    ok = bench::guarded_row(rho.to_string(), [&] {
      const CoinTossPair pair = make_cointoss_pair(kK, tag);
      const StructuredPsioa corrupted = corrupt_structured(
          pair.real,
          {{act("result0_" + tag), act("result1_" + tag)}}, rho);
      PsioaPtr real_sys = compose(
          arm0_env(tag),
          compose(corrupted.ptr(), make_biaser_adversary(tag)));
      const SchedulerPtr sr = driver(tag);
      const auto rd = exact_fdist(*real_sys, *sr, f, 24);
      const Rational eps = balance_distance(rd, id);
      const Rational expected =
          b * rational_abs(Rational(1) - Rational(2) * rho);
      const bool row_ok =
          eps == expected && (rho.is_zero() ? eps == b : true);
      bench::print_row({rho.to_string(), rd.mass("1").to_string(),
                        eps.to_string(), expected.to_string(),
                        row_ok ? "yes" : "NO"});
      return row_ok;
    }) && ok;
  }
  return ok;
}

/// An insight function that fails on every execution: the persistent
/// fault the degradation drill injects into every chunk attempt.
class ThrowingInsight : public InsightFunction {
 public:
  Perception apply(Psioa&, const ExecFragment&) const override {
    throw std::runtime_error("injected fault");
  }
  std::string name() const override { return "throwing"; }
};

/// A schedule that pauses once: the first time it is asked at length
/// kStallAt it sleeps kStall, then answers as `inner`. Under the E17.5
/// priority schedule the coin toss halts at lengths 7, 8 and 9 (mass
/// 1/2, 1/8, 3/8), so after round 8 of a batched run 5/8 of the
/// executions have finished and 3/8 are live, and a deadline shorter
/// than the pause cuts the run right there on any host: the cut, and
/// with it trials_done, is deterministic.
class StallingSchedule : public Scheduler {
 public:
  static constexpr std::size_t kStallAt = 8;
  static constexpr std::chrono::milliseconds kStall{250};

  explicit StallingSchedule(SchedulerPtr inner) : inner_(std::move(inner)) {}
  ActionChoice choose(Psioa& automaton, const ExecFragment& alpha) override {
    return inner_->choose(automaton, alpha);
  }
  const ChoiceRow* choice_row(Psioa& automaton,
                              const ExecFragment& alpha) override {
    if (alpha.length() == kStallAt && !stalled_) {
      stalled_ = true;
      std::this_thread::sleep_for(kStall);
    }
    return inner_->choice_row(automaton, alpha);
  }
  std::string name() const override {
    return "stalling(" + inner_->name() + ")";
  }

 private:
  SchedulerPtr inner_;
  bool stalled_ = false;
};

bool degradation_drill() {
  bench::print_header(
      "E17.5: degradation drill (hardened engine)",
      "deadline -> partial estimate, censored mass reported; persistent "
      "throw -> retries burned, clean failure report, no teardown");
  ThreadPool pool;
  bool ok = true;
  const std::string tag = "e17e";
  const PsioaFactory coin_toss = [&]() -> PsioaPtr {
    const CoinTossPair p = make_cointoss_pair(kK, tag);
    return compose(arm0_env(tag),
                   compose(p.real.ptr(), make_biaser_adversary(tag)));
  };

  // Deadline: the stall outlasts the budget, so the run is cut after
  // round kStallAt. The estimate keeps the finished executions at
  // count / trials_requested: its mass is trials_done / trials_requested.
  {
    ParallelSampler sampler(coin_toss, [&]() -> SchedulerPtr {
      return std::make_shared<StallingSchedule>(driver(tag));
    });
    WarmupPlan no_episodes;  // warm-up walks would stall too
    no_episodes.episodes = 0;
    sampler.prepare(no_episodes, 24);
    SampleGuard guard;
    guard.deadline = StallingSchedule::kStall / 5;
    SampleReport rep;
    AcceptInsight f(act("acc_" + tag));
    const auto dist = sampler.sample_fdist(
        f, 50'000'000, 7, 24, pool, SamplingMode::kBatched, guard, &rep);
    double mass = 0.0;
    for (const auto& [perc, w] : dist.entries()) mass += w;
    const double done_share = static_cast<double>(rep.trials_done) /
                              static_cast<double>(rep.trials_requested);
    const bool partial_ok = rep.deadline_hit && !rep.complete &&
                            rep.trials_done > 0 &&
                            rep.trials_done < rep.trials_requested &&
                            std::abs(mass - done_share) < 1e-9;
    bench::print_row({"deadline",
                      std::to_string(rep.trials_done) + "/" +
                          std::to_string(rep.trials_requested),
                      "mass " + std::to_string(mass),
                      partial_ok ? "partial+censored" : "BROKEN"},
                     24);
    ok = ok && partial_ok;
  }

  // Persistent failure: every attempt throws; the guard must rotate
  // seeds max_retries times and report a clean failure.
  {
    ParallelSampler sampler(coin_toss, [&] { return driver(tag); });
    sampler.prepare(WarmupPlan{}, 24);
    SampleGuard guard;
    guard.max_retries = 2;
    SampleReport rep;
    const ThrowingInsight f;
    const auto dist = sampler.sample_fdist(
        f, 1000, 7, 24, pool, SamplingMode::kBatched, guard, &rep);
    const bool fail_ok = !rep.complete && rep.trials_done == 0 &&
                         rep.retries_used > 0 && !rep.error.empty() &&
                         dist.empty();
    bench::print_row({"persistent-throw", "retries=" +
                                              std::to_string(rep.retries_used),
                      fail_ok ? "clean-failure" : "BROKEN"},
                     24);
    ok = ok && fail_ok;
  }
  return ok;
}

int run() {
  bool ok = true;
  ok = drop_sweep_cointoss() && ok;
  ok = drop_sweep_consensus() && ok;
  ok = crash_sweep_cointoss() && ok;
  ok = byzantine_sweep_cointoss() && ok;
  ok = degradation_drill() && ok;
  return bench::verdict(
      ok,
      "E17: epsilon degrades exactly as the closed forms predict under "
      "loss/crash/corruption, and the engine degrades gracefully");
}

}  // namespace
}  // namespace cdse

int main() { return cdse::run(); }
