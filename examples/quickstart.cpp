// Quickstart: build two PSIOA, compose them, hide an action, schedule the
// closed system and look at the resulting trace distribution -- the
// 60-second tour of the framework's core vocabulary (Defs 2.1-2.8, 3.1,
// 3.5).
//
//   $ ./example_quickstart

#include <cstdio>

#include "psioa/compose.hpp"
#include "psioa/explicit_psioa.hpp"
#include "psioa/hide.hpp"
#include "sched/cone_measure.hpp"
#include "sched/batch_sampler.hpp"
#include "sched/schedulers.hpp"

using namespace cdse;

namespace {

// A sender that flips a fair coin and transmits the outcome.
PsioaPtr make_sender() {
  auto s = std::make_shared<ExplicitPsioa>("sender");
  const State idle = s->add_state("idle");
  const State ready0 = s->add_state("ready0");
  const State ready1 = s->add_state("ready1");
  const State done = s->add_state("done");
  s->set_start(idle);

  Signature sig_idle;
  sig_idle.internal = {act("pick")};
  s->set_signature(idle, sig_idle);
  Signature sig_r0;
  sig_r0.out = {act("bit0")};
  s->set_signature(ready0, sig_r0);
  Signature sig_r1;
  sig_r1.out = {act("bit1")};
  s->set_signature(ready1, sig_r1);
  s->set_signature(done, Signature{});

  StateDist pick;
  pick.add(ready0, Rational(1, 2));
  pick.add(ready1, Rational(1, 2));
  s->add_transition(idle, act("pick"), pick);
  s->add_step(ready0, act("bit0"), done);
  s->add_step(ready1, act("bit1"), done);
  s->validate();
  return s;
}

// A receiver that acknowledges whatever bit arrives.
PsioaPtr make_receiver() {
  auto r = std::make_shared<ExplicitPsioa>("receiver");
  const State idle = r->add_state("idle");
  const State got0 = r->add_state("got0");
  const State got1 = r->add_state("got1");
  const State done = r->add_state("done");
  r->set_start(idle);

  Signature sig_idle;
  sig_idle.in = {act("bit0"), act("bit1")};
  r->set_signature(idle, sig_idle);
  Signature sig_g0;
  sig_g0.out = {act("ack0")};
  r->set_signature(got0, sig_g0);
  Signature sig_g1;
  sig_g1.out = {act("ack1")};
  r->set_signature(got1, sig_g1);
  r->set_signature(done, Signature{});

  r->add_step(idle, act("bit0"), got0);
  r->add_step(idle, act("bit1"), got1);
  r->add_step(got0, act("ack0"), done);
  r->add_step(got1, act("ack1"), done);
  r->validate();
  return r;
}

}  // namespace

int main() {
  // 1. Composition (Def 2.18): the bit actions synchronize sender output
  //    with receiver input.
  auto system = compose(make_sender(), make_receiver());
  std::printf("composed system: %s\n", system->name().c_str());
  std::printf("start state:     %s\n",
              system->state_label(system->start_state()).c_str());
  std::printf("start signature: %s\n",
              system->signature(system->start_state()).to_string().c_str());

  // 2. Hiding (Def 2.7): internalize the wire, leaving only the acks.
  auto observed = hide_actions(system, acts({"bit0", "bit1"}));

  // 3. Scheduling (Def 3.1): resolve non-determinism; the closed system
  //    is driven on locally controlled actions only.
  UniformScheduler sched(8, /*local_only=*/true);

  // 4. Exact semantics (Def 3.5): the f-dist under the trace insight.
  TraceInsight f;
  const auto dist = exact_fdist(*observed, sched, f, 10);
  std::printf("\nexact trace distribution:\n");
  for (const auto& [trace, p] : dist.entries()) {
    std::printf("  %-8s %s\n", trace.empty() ? "<empty>" : trace.c_str(),
                p.to_string().c_str());
  }

  // 5. Monte-Carlo agreement: sample the same distribution.
  auto sampler_system = hide_actions(
      compose(make_sender(), make_receiver()), acts({"bit0", "bit1"}));
  const auto sampled = sample_fdist_batched(*sampler_system, sched, f, 100000,
                                            /*seed=*/7, 10);
  std::printf("\nsampled (n=100000):\n");
  for (const auto& [trace, p] : sampled.entries()) {
    std::printf("  %-8s %.4f\n", trace.empty() ? "<empty>" : trace.c_str(),
                p);
  }
  std::printf("\nTV(exact, sampled) = %.5f\n",
              balance_distance(to_double(dist), sampled));
  return 0;
}
