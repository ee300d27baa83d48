// E8 -- Def 4.12 <=_{neg,pt}: the epsilon(k) of the one-time-MAC family
// is exactly 2^-k (exact enumeration for small k, parallel Monte-Carlo
// with Hoeffding radius beyond), the empirical negligibility classifier
// accepts it, and a constant-gap control family is rejected.

#include <cmath>

#include "bench_util.hpp"
#include "crypto/pairs.hpp"
#include "impl/family_sweep.hpp"
#include "protocols/environment.hpp"
#include "psioa/compose.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"

namespace cdse {
namespace {

PsioaFamily mac_family(const std::string& base, bool real,
                       bool constant_gap) {
  return PsioaFamily{
      base + (real ? "_real" : "_ideal"),
      [base, real, constant_gap](std::uint32_t k) -> PsioaPtr {
        const std::string tag = base + std::to_string(k);
        const RealIdealPair pair =
            make_otmac_pair(constant_gap ? 1 : k, tag);
        auto env = make_probe_env_matching(
            "env_" + tag + (real ? "r" : "i"), {act("auth_" + tag)},
            acts({"rejected_" + tag}), act("forged_" + tag),
            act("acc_" + tag));
        auto adv = make_sink_adversary(
            tag + (real ? "_advr" : "_advi"), {},
            acts({"forge_" + tag}));
        const StructuredPsioa& side = real ? pair.real : pair.ideal;
        return compose(env, compose(side.ptr(), adv));
      }};
}

SchedulerFamily mac_sched(const std::string& base) {
  return SchedulerFamily{
      "word", [base](std::uint32_t k) -> SchedulerPtr {
        const std::string tag = base + std::to_string(k);
        return std::make_shared<SequenceScheduler>(
            std::vector<ActionId>{act("auth_" + tag), act("forge_" + tag),
                                  act("forged_" + tag),
                                  act("acc_" + tag)},
            true);
      }};
}

int run() {
  bench::print_header(
      "E8: negligible epsilon(k) over the one-time-MAC family (Def 4.12)",
      "eps(k) == 2^-k exactly; classifier accepts; 1/2-gap control rejected");
  ThreadPool pool;
  const std::vector<std::uint32_t> ks{1, 2, 3, 4, 5, 6, 7, 8, 10, 12};
  const FamilySweepReport report = family_epsilon_sweep(
      mac_family("e8", true, false), mac_family("e8", false, false),
      mac_sched("e8"), TraceInsight(), ks, 14, /*exact_upto=*/8,
      /*seed=*/42, pool, {}, SequentialPolicy::fixed(200000));
  bench::print_row({"k", "exact", "sampled", "radius", "2^-k"}, 16);
  bool ok = true;
  for (const auto& row : report.rows) {
    const double expect = std::pow(2.0, -static_cast<double>(row.k));
    std::string exact = row.exact ? row.exact->to_string() : "-";
    if (row.exact) {
      ok = ok && *row.exact == Rational(1, static_cast<std::int64_t>(1)
                                               << row.k);
    } else {
      ok = ok && std::abs(row.sampled - expect) <= row.radius + 0.01;
    }
    char sampled[32], radius[32], expected[32];
    std::snprintf(sampled, sizeof sampled, "%.6f", row.sampled);
    std::snprintf(radius, sizeof radius, "%.6f", row.radius);
    std::snprintf(expected, sizeof expected, "%.6f", expect);
    bench::print_row({std::to_string(row.k), exact, sampled, radius,
                      expected},
                     16);
  }
  std::printf("negligible-looking: %s, fitted decay exponent c = %.3f "
              "(eps ~ 2^-ck)\n",
              report.negligible_looking ? "yes" : "no",
              report.fitted_exponent);
  ok = ok && report.negligible_looking;
  ok = ok && std::abs(report.fitted_exponent - 1.0) < 0.1;

  // Control: a family whose gap never decays must be rejected.
  const std::vector<std::uint32_t> cks{1, 2, 3, 4};
  const FamilySweepReport control = family_epsilon_sweep(
      mac_family("e8c", true, true), mac_family("e8c", false, true),
      mac_sched("e8c"), TraceInsight(), cks, 14, 4, 1, pool);
  std::printf("constant-gap control classified negligible: %s (want no)\n",
              control.negligible_looking ? "yes" : "no");
  ok = ok && !control.negligible_looking;
  return bench::verdict(ok, "E8: eps(k) = 2^-k, classified negligible");
}

}  // namespace
}  // namespace cdse

int main() { return cdse::run(); }
