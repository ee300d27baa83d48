// Dummy adversary and the Forward constructions
// (secure/dummy.hpp, secure/forward.hpp; Def 4.27, Lemma 4.29 / D.1).

#include <gtest/gtest.h>

#include "crypto/pairs.hpp"
#include "crypto/relay.hpp"
#include "impl/balance.hpp"
#include "secure/adversary.hpp"
#include "secure/forward.hpp"
#include "protocols/environment.hpp"
#include "sched/batch_sampler.hpp"
#include "sched/schedulers.hpp"
#include "stat_util.hpp"

namespace cdse {
namespace {

TEST(DummyAdversary, StartsIdleWithInputOnlySignature) {
  const RealIdealPair otp = make_otp_pair(2, "df_a");
  const ActionBijection g =
      ActionBijection::with_suffix(otp.real.aact_vocab(), "#r");
  const PsioaPtr dummy = make_dummy_adversary(otp.real, g);
  const State q0 = dummy->start_state();
  const Signature sig = dummy->signature(q0);
  EXPECT_EQ(sig.in, acts({"cipher0_df_a", "cipher1_df_a"}));
  EXPECT_TRUE(sig.out.empty());
  EXPECT_TRUE(sig.internal.empty());
  EXPECT_EQ(dummy->state_label(q0), "idle");
}

TEST(DummyAdversary, ForwardsLeakRenamed) {
  const RealIdealPair otp = make_otp_pair(2, "df_b");
  const ActionBijection g =
      ActionBijection::with_suffix(otp.real.aact_vocab(), "#r");
  const PsioaPtr dummy = make_dummy_adversary(otp.real, g);
  const State q0 = dummy->start_state();
  // Receive the leak cipher0: pending := cipher0.
  const State q1 =
      dummy->transition(q0, act("cipher0_df_b")).support()[0];
  const Signature sig = dummy->signature(q1);
  EXPECT_EQ(sig.out, acts({"cipher0_df_b#r"}));
  // Forward: back to idle.
  const State q2 =
      dummy->transition(q1, act("cipher0_df_b#r")).support()[0];
  EXPECT_EQ(q2, q0);
}

TEST(DummyAdversary, ForwardsCommandUnrenamed) {
  const RealIdealPair mac = make_otmac_pair(2, "df_c");
  const ActionBijection g =
      ActionBijection::with_suffix(mac.real.aact_vocab(), "#r");
  const PsioaPtr dummy = make_dummy_adversary(mac.real, g);
  const State q0 = dummy->start_state();
  EXPECT_EQ(dummy->signature(q0).in, acts({"forge_df_c#r"}));
  const State q1 =
      dummy->transition(q0, act("forge_df_c#r")).support()[0];
  EXPECT_EQ(dummy->signature(q1).out, acts({"forge_df_c"}));
  EXPECT_EQ(dummy->transition(q1, act("forge_df_c")).support()[0], q0);
}

TEST(DummyAdversary, PendingOverwriteKeepsLatest) {
  const RealIdealPair otp = make_otp_pair(2, "df_d");
  const ActionBijection g =
      ActionBijection::with_suffix(otp.real.aact_vocab(), "#r");
  const PsioaPtr dummy = make_dummy_adversary(otp.real, g);
  State q = dummy->start_state();
  q = dummy->transition(q, act("cipher0_df_d")).support()[0];
  q = dummy->transition(q, act("cipher1_df_d")).support()[0];
  EXPECT_EQ(dummy->signature(q).out, acts({"cipher1_df_d#r"}));
}

TEST(DummyAdversary, RejectsNonEnabledAction) {
  const RealIdealPair otp = make_otp_pair(2, "df_e");
  const ActionBijection g =
      ActionBijection::with_suffix(otp.real.aact_vocab(), "#r");
  const PsioaPtr dummy = make_dummy_adversary(otp.real, g);
  EXPECT_THROW(dummy->transition(dummy->start_state(),
                                 act("cipher0_df_e#r")),
               std::logic_error);
}

/// Builds the OTP insertion scenario: env sends 0, a renamed relay tells
/// the env what ciphertext it saw.
struct OtpScenario {
  RealIdealPair pair;
  PsioaPtr env;
  PsioaPtr adv;
  std::unique_ptr<DummyInsertion> ins;

  explicit OtpScenario(const std::string& tag)
      : pair(make_otp_pair(2, tag)) {
    env = make_probe_env_matching(
        "env_" + tag, {act("send0_" + tag)},
        acts({"tell0_" + tag}), act("tell1_" + tag), act("acc_" + tag));
    adv = make_relay_adversary(
        "relay_" + tag,
        {{act("cipher0_" + tag + "#r"), act("tell0_" + tag)},
         {act("cipher1_" + tag + "#r"), act("tell1_" + tag)}});
    ins = std::make_unique<DummyInsertion>(pair.real, env, adv, "#r");
  }
};

TEST(DummyInsertion, ClassifiersAgreeWithPaper) {
  OtpScenario sc("df_f");
  const ActionId cipher0 = act("cipher0_df_f");
  const ActionId cipher0r = act("cipher0_df_f#r");
  EXPECT_TRUE(sc.ins->is_first_half(cipher0));
  EXPECT_FALSE(sc.ins->is_first_half(cipher0r));
  EXPECT_EQ(sc.ins->forward_of(cipher0), cipher0r);
  EXPECT_EQ(sc.ins->left_action_of(cipher0), cipher0r);
  EXPECT_EQ(sc.ins->origin_of(cipher0r), cipher0);
  EXPECT_TRUE(sc.ins->is_left_shared(cipher0r));
  EXPECT_FALSE(sc.ins->is_left_shared(act("send0_df_f")));
}

TEST(DummyInsertion, LemmaD1EpsilonIsExactlyZero) {
  OtpScenario sc("df_g");
  auto sigma = std::make_shared<UniformScheduler>(8, /*local_only=*/true);
  const SchedulerPtr sigma2 = sc.ins->forward_scheduler(sigma);
  TraceInsight f;
  const Rational eps = exact_balance_epsilon(
      sc.ins->left(), *sigma, sc.ins->right(), *sigma2, f, 20);
  EXPECT_EQ(eps, Rational(0));
  // Accept-style perception is also preserved (the bravery conditions).
  AcceptInsight fa(act("acc_df_g"));
  EXPECT_EQ(exact_balance_epsilon(sc.ins->left(), *sigma, sc.ins->right(),
                                  *sigma2, fa, 20),
            Rational(0));
}

TEST(DummyInsertion, LemmaD1CommandDirectionEpsilonZero) {
  // MAC flavor: the adversary *sends* commands through the dummy.
  const std::string tag = "df_h";
  const RealIdealPair mac = make_otmac_pair(2, tag);
  const PsioaPtr env = make_probe_env_matching(
      "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
      act("forged_" + tag), act("acc_" + tag));
  const PsioaPtr adv =
      make_sink_adversary("adv_" + tag, {}, acts({"forge_" + tag + "#r"}));
  DummyInsertion ins(mac.real, env, adv, "#r");
  auto sigma = std::make_shared<UniformScheduler>(8, true);
  const SchedulerPtr sigma2 = ins.forward_scheduler(sigma);
  TraceInsight f;
  EXPECT_EQ(exact_balance_epsilon(ins.left(), *sigma, ins.right(), *sigma2,
                                  f, 20),
            Rational(0));
}

TEST(DummyInsertion, ScheduleLengthAtMostDoubles) {
  OtpScenario sc("df_i");
  auto sigma = std::make_shared<UniformScheduler>(6, true);
  const SchedulerPtr sigma2 = sc.ins->forward_scheduler(sigma);
  const std::size_t q1 = max_schedule_length(sc.ins->left(), *sigma, 30);
  const std::size_t q2 = max_schedule_length(sc.ins->right(), *sigma2, 30);
  EXPECT_LE(q2, 2 * q1);
  EXPECT_GE(q2, q1);  // forwards only add steps
}

TEST(DummyInsertion, LeftFragmentCollapsesForwardPairs) {
  OtpScenario sc("df_j");
  auto sigma = std::make_shared<UniformScheduler>(8, true);
  const SchedulerPtr sigma2 = sc.ins->forward_scheduler(sigma);
  // Every halted right execution maps to a left execution.
  std::size_t mapped = 0;
  for_each_halted_execution(
      sc.ins->right(), *sigma2, 20,
      [&](const ExecFragment& alpha, const Rational& p) {
        (void)p;
        const ExecFragment left = sc.ins->left_fragment_of(alpha);
        EXPECT_TRUE(is_execution(sc.ins->left(), left))
            << alpha.to_string(sc.ins->right());
        EXPECT_LE(left.length(), alpha.length());
        ++mapped;
      });
  EXPECT_GT(mapped, 0u);
}

TEST(DummyInsertion, LeftFragmentRejectsBrokenForward) {
  OtpScenario sc("df_k");
  // A fragment ending mid-forward is rejected.
  ComposedPsioa& right = sc.ins->right();
  ExecFragment alpha(right.start_state());
  // Drive: env outputs send0 (shared with A inside H).
  const StateDist d0 = right.transition(right.start_state(),
                                        act("send0_df_k"));
  alpha.append(act("send0_df_k"), d0.support()[0]);
  // A resolves internally.
  const ActionId rand_a = act("rand_df_k");
  const StateDist d1 = right.transition(alpha.lstate(), rand_a);
  alpha.append(rand_a, d1.support()[0]);
  // Fire the leak (first half) and stop.
  const Signature sig = right.signature(alpha.lstate());
  ActionId leak = kInvalidAction;
  for (ActionId a : sig.all()) {
    if (sc.ins->is_first_half(a)) leak = a;
  }
  ASSERT_NE(leak, kInvalidAction);
  alpha.append(leak, right.transition(alpha.lstate(), leak).support()[0]);
  EXPECT_THROW(sc.ins->left_fragment_of(alpha), std::logic_error);
}

TEST(DummyInsertion, ForwardSchedulerConservesMass) {
  // sigma' mirrors sigma exactly: the right-side cone measure must be a
  // probability measure (no mass lost to unmatched forwards).
  OtpScenario sc("df_m");
  auto sigma = std::make_shared<UniformScheduler>(7, true);
  const SchedulerPtr sigma2 = sc.ins->forward_scheduler(sigma);
  Rational total;
  for_each_halted_execution(sc.ins->right(), *sigma2, 24,
                            [&](const ExecFragment&, const Rational& p) {
                              total += p;
                            });
  EXPECT_EQ(total, Rational(1));
}

TEST(DummyInsertion, ForwardSchedulerBatchedMatchesExact) {
  // Forward^s rebuilds the left fragment from the whole right history,
  // so the batched sampler must hand it each class's real fragment: the
  // one-shot batched f-dist fits the exact one.
  OtpScenario sc("df_o");
  auto sigma = std::make_shared<UniformScheduler>(8, true);
  const SchedulerPtr sigma2 = sc.ins->forward_scheduler(sigma);
  TraceInsight f;
  const auto exact = exact_fdist(sc.ins->right(), *sigma2, f, 20);
  constexpr std::size_t kTrials = 20000;
  const auto sampled =
      sample_fdist_batched(sc.ins->right(), *sigma2, f, kTrials, 53, 20);
  EXPECT_TRUE(cdse::testing::fdist_matches_exact(exact, sampled, kTrials));
}

TEST(DummyInsertion, ForwardMirrorsWordSchedulersToo) {
  // Lemma D.1's construction is scheduler-agnostic: mirror an off-line
  // word scheduler and get epsilon zero as well.
  OtpScenario sc("df_n");
  const std::string tag = "df_n";
  auto sigma = std::make_shared<SequenceScheduler>(
      std::vector<ActionId>{act("send0_" + tag), act("rand_" + tag),
                            act("cipher1_" + tag + "#r"),
                            act("tell1_" + tag), act("acc_" + tag)},
      true);
  const SchedulerPtr sigma2 = sc.ins->forward_scheduler(sigma);
  AcceptInsight f(act("acc_" + tag));
  EXPECT_EQ(exact_balance_epsilon(sc.ins->left(), *sigma, sc.ins->right(),
                                  *sigma2, f, 24),
            Rational(0));
  // And the accept probability itself is the cipher-flip probability of
  // the biased pad: 1/2 + 2^-2.
  const auto dist = exact_fdist(sc.ins->left(), *sigma, f, 24);
  EXPECT_EQ(dist.mass("1"), Rational(1, 2) + Rational(1, 4));
}

TEST(DummyInsertion, DummyIsAdversaryForA) {
  // Sanity: Dummy(A, g) itself satisfies Def 4.24 for A.
  const RealIdealPair otp = make_otp_pair(2, "df_l");
  const ActionBijection g =
      ActionBijection::with_suffix(otp.real.aact_vocab(), "#r");
  const PsioaPtr dummy = make_dummy_adversary(otp.real, g);
  EXPECT_TRUE(check_adversary_for(otp.real, dummy, 8).ok);
}

}  // namespace
}  // namespace cdse
