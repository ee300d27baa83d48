// E13 -- optimal-distinguisher ablation: is the canonical attack optimal
// within the off-line scheduler schema (Def 4.12's quantifier made
// exhaustive)? For each primitive pair, search every word scheduler up
// to a length bound and compare the optimum against the closed-form
// advantage.
//
// Finding: for the one-time MAC the canonical single-query attack is
// optimal (forge is consumed by the session; re-sending is a no-op).
// For the commitment pair the search *discovers a stronger attack*:
// the functionality accepts repeated equivocation requests. Watching
// open0 after commit0, the real system matches the ideal only when the
// two flips cancel, so two requests distinguish with advantage
// 1 - (p^2 + (1-p)^2) = 2p(1-p), p = 2^-k -- strictly above the
// single-query 2^-k. The harness asserts both facts.

// E13b -- exact-engine ablation on the same search schema: the legacy
// recursive enumerator vs the iterative prefix-sharing engine vs the
// parallel engine at 1/2/4/8 workers, on a faulty-channel pair whose
// probabilistic fault branching gives every word a real cone. All
// engines must return the identical word, epsilon and words_evaluated
// (the determinism contract of sched/exact_engine.hpp); wall-clock rows
// with the ConeStats counters each search fills are written
// machine-readably to BENCH_exact.json.
//
// E13c -- quotient-reduction ablation: an interleaving-heavy composed
// stack (two independent "fork" automata, each branching uniformly into
// mutually bisimilar mid states, so the product's interleavings multiply
// redundant branches) enumerated raw vs under
// ReductionPolicy::bisimulation(). The exact f-dist must be identical;
// the reduced run must push at least 2x fewer frames. Rows (blocks,
// reduction ratio, frame counts, speedup vs unreduced) join
// BENCH_exact.json.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crypto/pairs.hpp"
#include "crypto/relay.hpp"
#include "fault/faulty.hpp"
#include "impl/optimal.hpp"
#include "psioa/compose.hpp"
#include "psioa/explicit_psioa.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "secure/emulation.hpp"
#include "util/thread_pool.hpp"

namespace cdse {
namespace {

int run() {
  bench::print_header(
      "E13: exhaustive off-line distinguisher search (Def 4.12 ablation)",
      "max over word schedulers == closed-form advantage; canonical "
      "attack is optimal");
  bench::print_row({"pair", "k", "closed-form", "search-max", "words",
                    "best word"},
                   14);
  bool ok = true;
  TraceInsight f;
  for (std::uint32_t k : {1u, 2u, 3u}) {
    {
      const std::string tag = "e13m" + std::to_string(k);
      const RealIdealPair p = make_otmac_pair(k, tag);
      auto adv =
          make_sink_adversary(tag + "_adv", {}, acts({"forge_" + tag}));
      PsioaPtr lhs = hidden_adversary_composition(p.real, adv);
      PsioaPtr rhs = hidden_adversary_composition(p.ideal, adv);
      const BestDistinguisher best = search_best_word(
          *lhs, *rhs,
          {act("auth_" + tag), act("forge_" + tag), act("forged_" + tag),
           act("rejected_" + tag)},
          5, f, 10);
      const bool match = best.eps == p.exact_advantage;
      ok = ok && match;
      bench::print_row({"otmac", std::to_string(k),
                        p.exact_advantage.to_string(),
                        best.eps.to_string(),
                        std::to_string(best.words_evaluated),
                        best.word_string()},
                       14);
    }
    {
      const std::string tag = "e13c" + std::to_string(k);
      const RealIdealPair p = make_commitment_pair(k, tag);
      auto adv = make_sink_adversary(tag + "_adv", {},
                                     acts({"flipcmd_" + tag}));
      PsioaPtr lhs = hidden_adversary_composition(p.real, adv);
      PsioaPtr rhs = hidden_adversary_composition(p.ideal, adv);
      const BestDistinguisher best = search_best_word(
          *lhs, *rhs,
          {act("commit0_" + tag), act("flipcmd_" + tag),
           act("reveal_" + tag), act("open0_" + tag),
           act("open1_" + tag)},
          5, f, 10);
      // Two equivocation attempts beat the canonical single query:
      // optimum = 1 - (p^2 + (1-p)^2) with p = 2^-k (the flips must
      // cancel for the real opening to match the ideal one).
      const Rational flip = p.exact_advantage;
      const Rational expected =
          Rational(1) - (flip * flip + (Rational(1) - flip) *
                                           (Rational(1) - flip));
      // Strictly stronger than the single query for k >= 2; at k = 1 the
      // two coincide (2p(1-p) = p at p = 1/2).
      const bool match =
          best.eps == expected && best.eps >= p.exact_advantage;
      ok = ok && match;
      bench::print_row({"commitment", std::to_string(k),
                        p.exact_advantage.to_string(),
                        best.eps.to_string(),
                        std::to_string(best.words_evaluated),
                        best.word_string()},
                       14);
    }
  }
  return bench::verdict(
      ok, "E13: exhaustive search matches the closed-form advantage");
}

struct AblationRow {
  std::string engine;
  std::size_t workers;  // 0 = serial
  double seconds;
  BestDistinguisher best;
};

/// One E13c measurement: the fork-product stack enumerated raw or via
/// the bisimulation quotient, serial or fanned over a pool.
struct QuotientRow {
  std::string mode;     // "unreduced" / "reduced"
  std::size_t workers;  // 0 = serial
  double seconds = 0.0;
  std::size_t frames_pushed = 0;
  std::size_t states = 0;  // snapshot states (reduced rows only)
  std::size_t blocks = 0;  // quotient blocks (reduced rows only)
};

void write_bench_exact_json(const std::vector<AblationRow>& rows,
                            const std::vector<QuotientRow>& qrows) {
  std::FILE* out = std::fopen("BENCH_exact.json", "w");
  if (out == nullptr) return;
  const double legacy_seconds = rows.front().seconds;
  std::FILE* o = out;
  std::fprintf(o, "{\n  \"experiment\": \"E13b/E13c exact-engine ablations\",\n");
  std::fprintf(o,
               "  \"workload\": {\"system\": \"faulty-channel pair\", "
               "\"alphabet\": 5, \"max_len\": 7, \"depth\": 12},\n");
  std::fprintf(o, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AblationRow& r = rows[i];
    const ConeStats& s = r.best.stats;
    // Only the counters a search fills: the legacy search fills no
    // ConeStats, only the parallel search splits subtrees, and the word
    // searches never push frames or reach the leaf cap.
    std::string counters;
    if (i > 0) {
      counters = ", \"halts\": " + std::to_string(s.halts);
      if (r.workers > 0) {
        counters += ", \"splits\": " + std::to_string(s.splits);
      }
      counters += ", \"prefix_hits\": " + std::to_string(s.prefix_hits) +
                  ", \"prefix_misses\": " + std::to_string(s.prefix_misses);
    }
    std::fprintf(
        o,
        "    {\"engine\": \"%s\", \"workers\": %zu, \"seconds\": %.6f, "
        "\"speedup_vs_legacy\": %.2f, \"eps\": \"%s\", "
        "\"words_evaluated\": %zu%s}%s\n",
        r.engine.c_str(), r.workers, r.seconds,
        r.seconds > 0.0 ? legacy_seconds / r.seconds : 0.0,
        r.best.eps.to_string().c_str(), r.best.words_evaluated,
        counters.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(o, "  ],\n");
  std::fprintf(o,
               "  \"e13c_workload\": {\"system\": \"fork-product (2 forks, "
               "width 4)\", \"depth\": 6},\n");
  std::fprintf(o, "  \"e13c_rows\": [\n");
  const double unreduced_seconds =
      qrows.empty() ? 0.0 : qrows.front().seconds;
  for (std::size_t i = 0; i < qrows.size(); ++i) {
    const QuotientRow& r = qrows[i];
    std::fprintf(
        o,
        "    {\"mode\": \"%s\", \"workers\": %zu, \"seconds\": %.6f, "
        "\"speedup_vs_unreduced\": %.2f, \"frames_pushed\": %zu, "
        "\"quotient_states\": %zu, \"quotient_blocks\": %zu, "
        "\"reduction_ratio\": %.2f}%s\n",
        r.mode.c_str(), r.workers, r.seconds,
        r.seconds > 0.0 ? unreduced_seconds / r.seconds : 0.0,
        r.frames_pushed, r.states, r.blocks,
        r.blocks > 0 ? static_cast<double>(r.states) /
                           static_cast<double>(r.blocks)
                     : 1.0,
        i + 1 < qrows.size() ? "," : "");
  }
  std::fprintf(o, "  ]\n}\n");
  std::fclose(out);
}

int run_e13b(std::vector<AblationRow>& out_rows) {
  bench::print_header(
      "E13b: exact-engine ablation (legacy vs prefix-shared vs parallel)",
      "all engines return the identical word/eps/words; prefix sharing "
      "and worker fan-out only change wall-clock");
  const std::string tag = "e13x";
  FaultPlan plan_l;
  plan_l.drop = Rational(1, 8);
  plan_l.duplicate = Rational(1, 8);
  plan_l.delay = Rational(1, 4);
  FaultPlan plan_r;
  plan_r.drop = Rational(1, 4);
  plan_r.duplicate = Rational(1, 8);
  plan_r.delay = Rational(1, 8);
  const PsioaFactory make_lhs = [tag, plan_l]() -> PsioaPtr {
    return make_faulty_channel(tag, plan_l);
  };
  const PsioaFactory make_rhs = [tag, plan_r]() -> PsioaPtr {
    return make_faulty_channel(tag, plan_r);
  };
  const std::vector<ActionId> alphabet{
      act("send0_" + tag), act("send1_" + tag), act("recv0_" + tag),
      act("recv1_" + tag), act("faultdeliver_" + tag)};
  const std::size_t max_len = 7;
  const std::size_t depth = 12;
  TraceInsight f;

  std::vector<AblationRow> rows;
  {
    PsioaPtr lhs = make_lhs();
    PsioaPtr rhs = make_rhs();
    bench::Timer t;
    BestDistinguisher best =
        search_best_word_legacy(*lhs, *rhs, alphabet, max_len, f, depth);
    rows.push_back({"legacy-recursive", 0, t.seconds(), std::move(best)});
  }
  {
    PsioaPtr lhs = make_lhs();
    PsioaPtr rhs = make_rhs();
    bench::Timer t;
    BestDistinguisher best =
        search_best_word(*lhs, *rhs, alphabet, max_len, f, depth);
    rows.push_back({"prefix-shared", 0, t.seconds(), std::move(best)});
  }
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    bench::Timer t;
    BestDistinguisher best = search_best_word_parallel(
        make_lhs, make_rhs, alphabet, max_len, f, depth, pool);
    rows.push_back({"parallel", workers, t.seconds(), std::move(best)});
  }

  const double legacy_seconds = rows.front().seconds;
  const BestDistinguisher& ref = rows.front().best;
  bool ok = true;
  bench::print_row({"engine", "workers", "seconds", "speedup", "eps",
                    "words", "prefix-hits"},
                   17);
  for (const AblationRow& r : rows) {
    const bool same = r.best.word == ref.word && r.best.eps == ref.eps &&
                      r.best.words_evaluated == ref.words_evaluated;
    ok = ok && same;
    char spd[32];
    std::snprintf(spd, sizeof spd, "%.2fx",
                  r.seconds > 0.0 ? legacy_seconds / r.seconds : 0.0);
    char sec[32];
    std::snprintf(sec, sizeof sec, "%.3f", r.seconds);
    bench::print_row({r.engine, std::to_string(r.workers), sec, spd,
                      r.best.eps.to_string(),
                      std::to_string(r.best.words_evaluated),
                      std::to_string(r.best.stats.prefix_hits)},
                     17);
  }
  // Every counter BENCH_exact.json reports must have counted something.
  // Prefix sharing must actually fire -- the speedup claim rests on it --
  // and the parallel search must split subtrees at every worker count.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const ConeStats& s = rows[i].best.stats;
    ok = ok && s.halts > 0 && s.prefix_hits > 0 && s.prefix_misses > 0;
    if (rows[i].workers > 0) ok = ok && s.splits > 0;
  }
  ok = ok && ref.eps > Rational(0);
  out_rows = std::move(rows);
  return bench::verdict(
      ok, "E13b: every engine agrees with the recursive reference");
}

/// One fork: s0 branches uniformly (internal action) into `width` mid
/// states that all emit the same tick output back to s0 -- the mids are
/// mutually bisimilar by construction, so the quotient collapses each
/// fork to 2 blocks and the product of two forks from (1+width)^2
/// states to 4.
PsioaPtr make_fork(const std::string& tag, std::size_t width) {
  auto fork = std::make_shared<ExplicitPsioa>("fork_" + tag);
  const ActionId a_branch = act("branch_" + tag);
  const ActionId a_tick = act("tick_" + tag);
  const State s0 = fork->add_state("idle");
  Signature sig0;
  sig0.internal = {a_branch};
  fork->set_signature(s0, sig0);
  fork->set_start(s0);
  Signature sigm;
  sigm.out = {a_tick};
  StateDist spread;
  for (std::size_t i = 0; i < width; ++i) {
    const State mid = fork->add_state("mid" + std::to_string(i));
    fork->set_signature(mid, sigm);
    fork->add_step(mid, a_tick, s0);
    spread.add(mid, Rational(1, static_cast<std::int64_t>(width)));
  }
  fork->add_transition(s0, a_branch, spread);
  fork->validate();
  return fork;
}

int run_e13c(std::vector<QuotientRow>& out_rows) {
  bench::print_header(
      "E13c: quotient-reduction ablation (raw vs bisimulation quotient)",
      "identical exact f-dist; >= 2x fewer frames on the interleaving-"
      "heavy fork product");
  const std::size_t width = 4;
  const std::size_t depth = 6;
  const PsioaFactory make_sys = [width]() -> PsioaPtr {
    return compose(make_fork("e13q_a", width), make_fork("e13q_b", width));
  };
  TraceInsight f;
  std::vector<QuotientRow> rows;

  ExactDisc<Perception> want;
  {
    PsioaPtr sys = make_sys();
    UniformScheduler sched(depth);
    ConeStats stats;
    bench::Timer t;
    want = exact_fdist(*sys, sched, f, depth, &stats);
    rows.push_back({"unreduced", 0, t.seconds(), stats.frames_pushed, 0, 0});
  }
  bool ok = true;
  {
    PsioaPtr sys = make_sys();
    UniformScheduler sched(depth);
    ConeStats stats;
    bench::Timer t;
    // The reduction cost (freeze + partition + quotient) is inside the
    // timed region: the speedup column is end to end, not best case.
    const auto red = reduce_for_enumeration(*sys, depth,
                                            ReductionPolicy::bisimulation());
    ok = ok && red.has_value();
    if (red.has_value()) {
      const ExactDisc<Perception> got =
          exact_fdist(*red->view, sched, f, depth, &stats);
      ok = ok && got == want;
      rows.push_back({"reduced", 0, t.seconds(), stats.frames_pushed,
                      red->states, red->blocks});
    }
  }
  for (std::size_t workers : {2u, 4u}) {
    ThreadPool pool(workers);
    ParallelConeEngine engine(make_sys, [depth]() -> SchedulerPtr {
      return std::make_shared<UniformScheduler>(depth);
    }, ReductionPolicy::bisimulation());
    WarmupPlan plan;
    plan.episodes = 0;
    plan.horizon = depth;
    bench::Timer t;
    engine.prepare(plan, depth);
    const ExactDisc<Perception> got = engine.exact_fdist(f, depth, pool);
    ok = ok && got == want && engine.reduced();
    const ConeStats& s = engine.last_stats();
    rows.push_back({"reduced", workers, t.seconds(), s.frames_pushed,
                    s.quotient_states, s.quotient_blocks});
  }

  bench::print_row({"mode", "workers", "seconds", "frames", "states",
                    "blocks", "reduction"},
                   12);
  for (const QuotientRow& r : rows) {
    char sec[32];
    std::snprintf(sec, sizeof sec, "%.4f", r.seconds);
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.1fx",
                  r.blocks > 0 ? static_cast<double>(r.states) /
                                     static_cast<double>(r.blocks)
                               : 1.0);
    bench::print_row({r.mode, std::to_string(r.workers), sec,
                      std::to_string(r.frames_pushed),
                      std::to_string(r.states), std::to_string(r.blocks),
                      ratio},
                     12);
  }
  // The acceptance claim: the quotient enumerates at least 2x fewer
  // frames than the raw product, serial row vs serial row.
  ok = ok && rows.size() >= 2 &&
       rows[0].frames_pushed >= 2 * rows[1].frames_pushed &&
       rows[1].blocks > 0 && rows[1].blocks < rows[1].states;
  out_rows = std::move(rows);
  return bench::verdict(
      ok,
      "E13c: quotient preserves the exact f-dist with >= 2x fewer frames");
}

int run_all() {
  const int r1 = run();
  std::vector<AblationRow> rows;
  const int r2 = run_e13b(rows);
  std::vector<QuotientRow> qrows;
  const int r3 = run_e13c(qrows);
  if (!rows.empty()) write_bench_exact_json(rows, qrows);
  std::printf("BENCH_exact.json written\n");
  if (r1 != 0) return r1;
  return r2 != 0 ? r2 : r3;
}

}  // namespace
}  // namespace cdse

int main() { return cdse::run_all(); }
