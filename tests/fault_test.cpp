// Fault-injection adapters (src/fault): FaultPlan validation, the
// loss/duplication/delay wrapper, crash-stop as PCA destruction, the
// Byzantine corruption wrapper, scheduler perturbation, and the guarded
// sampler the fault sweeps run on.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "fault/byzantine.hpp"
#include "fault/crash.hpp"
#include "fault/faulty.hpp"
#include "fault/plan.hpp"
#include "pca/check.hpp"
#include "protocols/channel.hpp"
#include "psioa/explicit_psioa.hpp"
#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"

namespace cdse {
namespace {

// ---------------------------------------------------------------- plan

TEST(FaultPlan, ValidateRejectsBadRates) {
  FaultPlan p;
  p.drop = Rational(3, 2);
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.drop = Rational(-1, 2);
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.drop = Rational(1, 2);
  p.duplicate = Rational(1, 3);
  p.delay = Rational(1, 4);  // sums to 13/12 > 1
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.delay = Rational(1, 6);  // sums exactly to 1: allowed
  EXPECT_NO_THROW(p.validate());
}

TEST(FaultPlan, FaultFreeAndShorthands) {
  EXPECT_TRUE(FaultPlan::none().fault_free());
  EXPECT_FALSE(FaultPlan::lossy(Rational(1, 4)).fault_free());
  EXPECT_TRUE(FaultPlan::lossy(Rational(0)).fault_free());
  EXPECT_FALSE(FaultPlan::fail_stop(3).fault_free());
  EXPECT_TRUE(FaultPlan::fail_stop(3).crashes());
  EXPECT_FALSE(FaultPlan::none().crashes());
}

// -------------------------------------------------------------- faulty

TEST(Faulty, DropZeroIsTraceIdentical) {
  // The fault-free wrapper's f-dist over full traces equals the inner
  // automaton's under the same scheduler.
  auto plain = make_channel("ff");
  auto wrapped = inject_faults(make_channel("ff"), FaultPlan::none(),
                               acts({"send0_ff", "send1_ff"}), "ff");
  UniformScheduler s1(6), s2(6);
  TraceInsight f;
  EXPECT_EQ(exact_fdist(*plain, s1, f, 10), exact_fdist(*wrapped, s2, f, 10));
}

TEST(Faulty, DropMatchesLossyChannel) {
  // Receiver-side drop p on the reliable channel == the seed repo's
  // send-time lossy channel with deliver probability 1 - p.
  const Rational p(1, 3);
  auto faulty = make_faulty_channel("fl", FaultPlan::lossy(p));
  auto lossy = make_lossy_channel("fl", Rational(1) - p);
  UniformScheduler s1(6), s2(6);
  TraceInsight f;
  EXPECT_EQ(exact_fdist(*faulty, s1, f, 10), exact_fdist(*lossy, s2, f, 10));
}

TEST(Faulty, DropLosesTheMessage) {
  auto faulty = make_faulty_channel("fd", FaultPlan::lossy(Rational(1, 4)));
  SequenceScheduler sched({act("send0_fd"), act("recv0_fd")});
  // Delivery requires the inner channel to have advanced: 3/4.
  EXPECT_EQ(exact_action_probability(*faulty, sched, act("recv0_fd"), 10),
            Rational(3, 4));
}

/// Two-increment counter: `inc` stays enabled after the first firing, so
/// duplication is observable (the channel disables `send` after one).
PsioaPtr make_two_counter(const std::string& tag) {
  auto a = std::make_shared<ExplicitPsioa>("counter_" + tag);
  const ActionId inc = act("inc_" + tag);
  const ActionId done = act("done_" + tag);
  const State c0 = a->add_state("c0");
  const State c1 = a->add_state("c1");
  const State c2 = a->add_state("c2");
  a->set_start(c0);
  Signature counting;
  counting.in = ActionSet{inc};
  a->set_signature(c0, counting);
  a->set_signature(c1, counting);
  Signature full;
  full.out = ActionSet{done};
  a->set_signature(c2, full);
  a->add_step(c0, inc, c1);
  a->add_step(c1, inc, c2);
  a->add_step(c2, done, c2);
  a->validate();
  return a;
}

TEST(Faulty, DuplicateAppliesTwiceWhileEnabled) {
  FaultPlan p;
  p.duplicate = Rational(1, 2);
  auto dup = inject_faults(make_two_counter("dp"), p,
                           ActionSet{act("inc_dp")}, "dp");
  // One scheduled inc: duplicated with prob 1/2, so the counter reaches
  // c2 (done enabled) with prob 1/2 after a single firing.
  SequenceScheduler sched({act("inc_dp"), act("done_dp")});
  EXPECT_EQ(exact_action_probability(*dup, sched, act("done_dp"), 10),
            Rational(1, 2));
}

TEST(Faulty, DuplicateDegradesToSingleWhenDisabled) {
  // On the 1-slot channel `send0` is disabled after one firing, so the
  // second application never happens: duplication is unobservable and the
  // wrapper stays trace-identical to the plain channel.
  FaultPlan p;
  p.duplicate = Rational(1, 2);
  auto dup = make_faulty_channel("du", p);
  auto plain = make_channel("du");
  UniformScheduler s1(6), s2(6);
  TraceInsight f;
  EXPECT_EQ(exact_fdist(*dup, s1, f, 10), exact_fdist(*plain, s2, f, 10));
}

TEST(Faulty, DelayHoldsUntilInternalDelivery) {
  FaultPlan p;
  p.delay = Rational(1);
  auto del = inject_faults(make_channel("dl"), p,
                           ActionSet{act("send0_dl")}, "dl");
  const State q0 = del->start_state();
  // send0 moves to the held state whose only action is internal delivery.
  const StateDist eta = del->transition(q0, act("send0_dl"));
  ASSERT_EQ(eta.support_size(), 1u);
  const State held = eta.support().front();
  const Signature sig = del->signature(held);
  EXPECT_TRUE(sig.in.empty());
  EXPECT_TRUE(sig.out.empty());
  EXPECT_EQ(sig.internal, ActionSet{act("faultdeliver_dl")});
  // Delivery applies the held send: recv0 becomes enabled.
  const StateDist after = del->transition(held, act("faultdeliver_dl"));
  ASSERT_EQ(after.support_size(), 1u);
  EXPECT_TRUE(
      del->signature(after.support().front()).contains(act("recv0_dl")));
  // End to end: the message arrives one internal step later.
  SequenceScheduler sched(
      {act("send0_dl"), act("faultdeliver_dl"), act("recv0_dl")});
  EXPECT_EQ(exact_action_probability(*del, sched, act("recv0_dl"), 10),
            Rational(1));
}

TEST(Faulty, RejectsInvalidPlan) {
  FaultPlan bad;
  bad.drop = Rational(2);
  EXPECT_THROW(
      inject_faults(make_channel("iv"), bad, ActionSet{act("send0_iv")},
                    "iv"),
      std::invalid_argument);
}

// --------------------------------------------------------------- crash

TEST(Crash, WrapperForwardsUntilBudgetThenGoesSilent) {
  auto c = make_crashable(make_channel("cr"), 1);
  const State q0 = c->start_state();
  EXPECT_EQ(c->signature(q0), make_channel("cr")->signature(
                                  make_channel("cr")->start_state()));
  const StateDist eta = c->transition(q0, act("send0_cr"));
  ASSERT_EQ(eta.support_size(), 1u);
  // Budget spent: the reached state has the empty signature (the Def 2.12
  // destruction sentinel).
  EXPECT_TRUE(c->signature(eta.support().front()).empty());
}

TEST(Crash, PcaPassesConstraintsAndDestructionEmptiesConfig) {
  auto registry = std::make_shared<AutomatonRegistry>();
  PcaPtr pca = make_crash_stop_pca("crashpca", registry,
                                   make_channel("cp"), 2);
  const PcaCheckResult res = check_pca_constraints(*pca, 6);
  EXPECT_TRUE(bool(res)) << res.violation;

  // Walk two transitions: send0 then recv0 exhausts the budget, and the
  // crash surfaces as an intrinsic destruction -- the configuration
  // reduces to empty, hence the PCA state's signature is empty.
  State q = pca->start_state();
  EXPECT_EQ(pca->config(q).size(), 1u);
  q = pca->transition(q, act("send0_cp")).support().front();
  EXPECT_EQ(pca->config(q).size(), 1u);
  q = pca->transition(q, act("recv0_cp")).support().front();
  EXPECT_TRUE(pca->config(q).is_empty());
  EXPECT_TRUE(pca->signature(q).empty());
}

TEST(Crash, NeverCrashIsTraceIdentical) {
  auto plain = make_channel("cn");
  auto wrapped = make_crashable(make_channel("cn"), FaultPlan::kNeverCrash);
  UniformScheduler s1(6), s2(6);
  TraceInsight f;
  EXPECT_EQ(exact_fdist(*plain, s1, f, 10), exact_fdist(*wrapped, s2, f, 10));
}

TEST(Crash, ImmediateCrashPcaRejected) {
  // crash_after == 0 would make the *initial* configuration unreduced,
  // violating Def 2.16 constraint 1.
  auto registry = std::make_shared<AutomatonRegistry>();
  EXPECT_THROW(
      make_crash_stop_pca("crash0", registry, make_channel("c0"), 0),
      std::invalid_argument);
}

// ----------------------------------------------------------- byzantine

TEST(Byzantine, FlipInvolutionValidated) {
  const ActionBijection g =
      make_flip_involution({{act("x0"), act("x1")}});
  EXPECT_EQ(g.apply(act("x0")), act("x1"));
  EXPECT_EQ(g.apply(act("x1")), act("x0"));
  EXPECT_THROW(make_flip_involution({{act("x0"), act("x0")}}),
               std::invalid_argument);
}

TEST(Byzantine, LiesWithExactlyTheCorruptionRate) {
  // Corrupt the channel's receive side: a held 0 is reported as recv1
  // exactly when the post-send state drew the lying mode -- rate 1/3.
  const Rational rho(1, 3);
  auto byz = std::make_shared<ByzantinePsioa>(
      make_channel("bz"),
      make_flip_involution({{act("recv0_bz"), act("recv1_bz")}}), rho);
  SequenceScheduler honest({act("send0_bz"), act("recv0_bz")});
  SequenceScheduler lying({act("send0_bz"), act("recv1_bz")});
  EXPECT_EQ(exact_action_probability(*byz, honest, act("recv0_bz"), 10),
            Rational(1) - rho);
  EXPECT_EQ(exact_action_probability(*byz, lying, act("recv1_bz"), 10),
            rho);
}

TEST(Byzantine, RateZeroIsTraceIdentical) {
  auto plain = make_channel("bh");
  auto byz = std::make_shared<ByzantinePsioa>(
      make_channel("bh"),
      make_flip_involution({{act("recv0_bh"), act("recv1_bh")}}),
      Rational(0));
  UniformScheduler s1(6), s2(6);
  TraceInsight f;
  EXPECT_EQ(exact_fdist(*plain, s1, f, 10), exact_fdist(*byz, s2, f, 10));
}

TEST(Byzantine, CorruptStructuredKeepsVocabularies) {
  StructuredPsioa chan(make_channel("bs"),
                       acts({"recv0_bs", "recv1_bs"}),
                       acts({"send0_bs", "send1_bs"}), ActionSet{});
  const StructuredPsioa corrupted = corrupt_structured(
      chan, {{act("recv0_bs"), act("recv1_bs")}}, Rational(1, 4));
  EXPECT_EQ(corrupted.env_vocab(), chan.env_vocab());
  EXPECT_EQ(corrupted.adv_in_vocab(), chan.adv_in_vocab());
  EXPECT_EQ(corrupted.adv_out_vocab(), chan.adv_out_vocab());
}

TEST(Byzantine, CorruptStructuredRejectsCrossClassFlips) {
  StructuredPsioa chan(make_channel("bx"),
                       acts({"recv0_bx", "recv1_bx"}),
                       acts({"send0_bx", "send1_bx"}), ActionSet{});
  // send0 is an adversary input, recv0 an environment action: a corrupted
  // party cannot swap actions across the interface partition.
  EXPECT_THROW(
      corrupt_structured(chan, {{act("send0_bx"), act("recv0_bx")}},
                         Rational(1, 4)),
      std::invalid_argument);
}

// ----------------------------------------------------------- scheduler

TEST(Perturbed, RateZeroIsInnerVerbatim) {
  auto inner = std::make_shared<UniformScheduler>(6);
  PerturbedScheduler pert(inner, Rational(0));
  auto c1 = make_channel("p0");
  auto c2 = make_channel("p0");
  UniformScheduler plain(6);
  TraceInsight f;
  EXPECT_EQ(exact_fdist(*c1, pert, f, 10), exact_fdist(*c2, plain, f, 10));
}

TEST(Perturbed, MeasureStaysProbability) {
  auto inner = std::make_shared<UniformScheduler>(6);
  PerturbedScheduler pert(inner, Rational(1, 3), /*local_only=*/false);
  auto chan = make_channel("p1");
  Rational total;
  for_each_halted_execution(*chan, pert, 10,
                            [&](const ExecFragment&, const Rational& w) {
                              total += w;
                            });
  EXPECT_EQ(total, Rational(1));
}

TEST(Perturbed, RejectsRateOutsideUnitInterval) {
  auto inner = std::make_shared<UniformScheduler>(4);
  EXPECT_THROW(PerturbedScheduler(inner, Rational(3, 2)),
               std::invalid_argument);
}

// ------------------------------------------------------ guarded sampler

TEST(GuardedSampler, CompleteRunMatchesUnguarded) {
  // An armed guard that never fires (a deadline no chunk reaches, retries
  // no chunk needs) must not perturb the run: same seed, same chunking,
  // same estimate as the default guard.
  ThreadPool pool(2);
  auto factory = [] { return make_lossy_channel("gs", Rational(1, 2)); };
  auto sched_factory = [] {
    return std::make_shared<UniformScheduler>(6);
  };
  TraceInsight f;
  SampleGuard armed;
  armed.deadline = std::chrono::hours(1);
  armed.max_retries = 3;
  SampleReport rep;
  const auto guarded = guarded_parallel_sample_fdist(
      factory, sched_factory, f, 4000, 11, 10, pool, armed, &rep);
  SampleReport plain_rep;
  const auto plain = guarded_parallel_sample_fdist(
      factory, sched_factory, f, 4000, 11, 10, pool, SampleGuard{},
      &plain_rep);
  EXPECT_TRUE(rep.complete);
  EXPECT_TRUE(bool(rep));
  EXPECT_FALSE(rep.deadline_hit);
  EXPECT_EQ(rep.trials_done, 4000u);
  EXPECT_EQ(rep.retries_used, 0u);
  EXPECT_TRUE(plain_rep.complete);
  EXPECT_EQ(guarded, plain);
}

TEST(GuardedSampler, DeadlineYieldsPartialNormalizedEstimate) {
  ThreadPool pool(2);
  auto factory = [] { return make_lossy_channel("gd", Rational(1, 2)); };
  auto sched_factory = [] {
    return std::make_shared<UniformScheduler>(6);
  };
  TraceInsight f;
  SampleGuard guard;
  guard.deadline = std::chrono::milliseconds(1);
  SampleReport rep;
  const auto dist = guarded_parallel_sample_fdist(
      factory, sched_factory, f, 100'000'000, 11, 10, pool, guard, &rep);
  EXPECT_TRUE(rep.deadline_hit);
  EXPECT_FALSE(rep.complete);
  EXPECT_GT(rep.trials_done, 0u);
  EXPECT_LT(rep.trials_done, rep.trials_requested);
  // Partial but still a probability distribution over perceptions.
  EXPECT_TRUE(dist.is_probability(1e-9));
}

TEST(GuardedSampler, RetryWithSeedRotationRecovers) {
  // Single-worker pool => one chunk: the first attempt throws, the retry
  // (on a rotated seed stream) succeeds, and the run completes.
  ThreadPool pool(1);
  std::atomic<int> calls{0};
  auto factory = [&calls]() -> PsioaPtr {
    if (calls.fetch_add(1) == 0) {
      throw std::runtime_error("transient construction failure");
    }
    return make_lossy_channel("gr", Rational(1, 2));
  };
  auto sched_factory = [] {
    return std::make_shared<UniformScheduler>(6);
  };
  TraceInsight f;
  SampleGuard guard;
  guard.max_retries = 2;
  SampleReport rep;
  const auto dist = guarded_parallel_sample_fdist(
      factory, sched_factory, f, 500, 11, 10, pool, guard, &rep);
  EXPECT_TRUE(rep.complete);
  EXPECT_EQ(rep.trials_done, 500u);
  EXPECT_EQ(rep.retries_used, 1u);
  EXPECT_GE(calls.load(), 2);
  EXPECT_TRUE(dist.is_probability(1e-9));
}

TEST(GuardedSampler, ExhaustedRetriesReportCleanFailure) {
  ThreadPool pool(1);
  auto factory = []() -> PsioaPtr {
    throw std::runtime_error("persistent failure");
  };
  auto sched_factory = [] {
    return std::make_shared<UniformScheduler>(6);
  };
  TraceInsight f;
  SampleGuard guard;
  guard.max_retries = 3;
  SampleReport rep;
  const auto dist = guarded_parallel_sample_fdist(
      factory, sched_factory, f, 500, 11, 10, pool, guard, &rep);
  EXPECT_FALSE(rep.complete);
  EXPECT_EQ(rep.trials_done, 0u);
  EXPECT_EQ(rep.retries_used, 3u);
  EXPECT_NE(rep.error.find("persistent failure"), std::string::npos);
  EXPECT_TRUE(dist.empty());
}

}  // namespace
}  // namespace cdse
