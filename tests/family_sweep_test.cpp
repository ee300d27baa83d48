// <=_{neg,pt} family sweeps (impl/family_sweep.hpp; Def 4.12).

#include "impl/family_sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "crypto/pairs.hpp"
#include "protocols/environment.hpp"
#include "secure/adversary.hpp"
#include "psioa/compose.hpp"
#include "sched/schedulers.hpp"

namespace cdse {
namespace {

/// E_k || MAC_k with the canonical forgery distinguisher; `real` selects
/// the side.
PsioaFamily mac_side_family(const std::string& base, bool real) {
  return PsioaFamily{
      base + (real ? "_real" : "_ideal"),
      [base, real](std::uint32_t k) -> PsioaPtr {
        const std::string tag = base + std::to_string(k);
        const RealIdealPair pair = make_otmac_pair(k, tag);
        auto env = make_probe_env_matching(
            "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
            act("forged_" + tag), act("acc_" + tag));
        auto adv = make_sink_adversary(tag + "_adv", {},
                                       acts({"forge_" + tag}));
        const StructuredPsioa& side = real ? pair.real : pair.ideal;
        return compose(env, compose(side.ptr(), adv));
      }};
}

SchedulerFamily mac_word_family(const std::string& base) {
  return SchedulerFamily{
      "word", [base](std::uint32_t k) -> SchedulerPtr {
        const std::string tag = base + std::to_string(k);
        return std::make_shared<SequenceScheduler>(
            std::vector<ActionId>{act("auth_" + tag), act("forge_" + tag),
                                  act("forged_" + tag), act("acc_" + tag)},
            /*local_only=*/true);
      }};
}

TEST(FamilySweep, MacEpsilonIsExactlyTwoToMinusKAcrossK) {
  const std::string base = "fs_a";
  ThreadPool pool(2);
  const std::vector<std::uint32_t> ks{1, 2, 3, 4, 5, 6};
  const FamilySweepReport report = family_epsilon_sweep(
      mac_side_family(base, true), mac_side_family(base, false),
      mac_word_family(base), TraceInsight(), ks, 12,
      /*exact_upto=*/6, /*seed=*/1, pool);
  ASSERT_EQ(report.rows.size(), ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    ASSERT_TRUE(report.rows[i].exact.has_value());
    EXPECT_EQ(*report.rows[i].exact,
              Rational(1, static_cast<std::int64_t>(1) << ks[i]))
        << "k=" << ks[i];
  }
  EXPECT_TRUE(report.negligible_looking);
  EXPECT_NEAR(report.fitted_exponent, 1.0, 1e-9);
}

TEST(FamilySweep, SampledRowsCarryErrorRadius) {
  const std::string base = "fs_b";
  ThreadPool pool(2);
  const std::vector<std::uint32_t> ks{1, 2, 3};
  const FamilySweepReport report = family_epsilon_sweep(
      mac_side_family(base, true), mac_side_family(base, false),
      mac_word_family(base), TraceInsight(), ks, 12,
      /*exact_upto=*/1, /*seed=*/7, pool, {},
      SequentialPolicy::fixed(20000));
  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_TRUE(report.rows[0].exact.has_value());
  EXPECT_FALSE(report.rows[1].exact.has_value());
  EXPECT_GT(report.rows[1].radius, 0.0);
  EXPECT_NEAR(report.rows[1].sampled, 0.25, 0.02);
  EXPECT_NEAR(report.rows[2].sampled, 0.125, 0.02);
}

/// E_k || MAC_1 on the `real` side: the advantage stays 1/2 at every k.
PsioaFamily constant_gap_family(const std::string& base, bool real) {
  return PsioaFamily{
      real ? "const_real" : "const_ideal",
      [base, real](std::uint32_t k) -> PsioaPtr {
        const std::string tag = base + std::to_string(k);
        const RealIdealPair pair = make_otmac_pair(1, tag);  // fixed k=1
        auto env = make_probe_env_matching(
            "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
            act("forged_" + tag), act("acc_" + tag));
        auto adv = make_sink_adversary(tag + (real ? "_adv" : "_adv2"), {},
                                       acts({"forge_" + tag}));
        const StructuredPsioa& side = real ? pair.real : pair.ideal;
        return compose(env, compose(side.ptr(), adv));
      }};
}

TEST(FamilySweep, ConstantGapFamilyIsNotNegligible) {
  // A family whose advantage does not decay must be rejected.
  const std::string base = "fs_c";
  ThreadPool pool(2);
  const std::vector<std::uint32_t> ks{1, 2, 3, 4};
  const FamilySweepReport report = family_epsilon_sweep(
      constant_gap_family(base, true), constant_gap_family(base, false),
      mac_word_family(base), TraceInsight(), ks, 12, 4, 1, pool);
  EXPECT_FALSE(report.negligible_looking);
  for (const auto& row : report.rows) {
    ASSERT_TRUE(row.exact.has_value());
    EXPECT_EQ(*row.exact, Rational(1, 2));
  }
}

TEST(FamilySweep, UnsampledRowsAreRejectedNotReadAsZero) {
  // Past exact_upto with no sampling policy the cells would keep
  // sampled = 0, and this non-negligible family would look negligible.
  // The sweep rejects the call before it builds any cell.
  const std::string base = "fs_d";
  const PsioaFamily real = constant_gap_family(base, true);
  auto builds = std::make_shared<std::atomic<int>>(0);
  const PsioaFamily counted{real.name, [real, builds](std::uint32_t k) {
                              builds->fetch_add(1);
                              return real.make(k);
                            }};
  ThreadPool pool(2);
  const std::vector<std::uint32_t> ks{1, 2, 3, 4};
  EXPECT_THROW(family_epsilon_sweep(counted, constant_gap_family(base, false),
                                    mac_word_family(base), TraceInsight(), ks,
                                    12, /*exact_upto=*/1, /*seed=*/1, pool),
               std::invalid_argument);
  EXPECT_EQ(builds->load(), 0);
}

}  // namespace
}  // namespace cdse
