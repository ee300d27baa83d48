// Arena-backed state interning: unit + differential + concurrency suite.
//
// Three layers:
//   units        -- Arena chunk growth / pointer stability / alignment,
//                   StateInterner dense handles (against a std::map
//                   oracle), round-trips, rehash behaviour, and the
//                   length-seeded hash (the retired
//                   ComposedPsioa::TupleHash ignored tuple arity).
//   differential -- handle assignment must not depend on table capacity:
//                   the same automaton stacks with interners grown on
//                   demand and pre-sized by reserve_interning must be
//                   indistinguishable: identical exact f-dists,
//                   draw-for-draw identical fixed-seed executions (handles
//                   included -- both assign dense handles in discovery
//                   order), bitwise-identical sampled f-dists, and
//                   identical results through freeze()/SnapshotPsioa.
//                   Covered stacks: random composed, hidden+renamed,
//                   structured MAC, PCA ledger, faulty channel, crashable,
//                   byzantine.
//   concurrency  -- the ActionTable shared-lock intern fast path hammered
//                   from 8 threads and its lock-free name()/size() reads
//                   racing appends across segment boundaries (run under
//                   TSan by scripts/check.sh --tsan), plus a DynamicPca
//                   regression pinning that transitions stay valid while
//                   interning grows under them (without the defensive
//                   Configuration copy they once made).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/pairs.hpp"
#include "fault/byzantine.hpp"
#include "fault/crash.hpp"
#include "fault/faulty.hpp"
#include "pca/dynamic_pca.hpp"
#include "protocols/channel.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/compose.hpp"
#include "psioa/hide.hpp"
#include "psioa/memo.hpp"
#include "psioa/random.hpp"
#include "psioa/rename.hpp"
#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "util/state_interner.hpp"
#include "util/thread_pool.hpp"

namespace cdse {
namespace {

// ------------------------------------------------------------ arena units

TEST(ArenaTest, PointerStabilityAcrossChunkGrowth) {
  Arena arena(64);  // tiny first chunk: growth is exercised immediately
  std::vector<std::pair<std::uint64_t*, std::uint64_t>> cells;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    auto* p = static_cast<std::uint64_t*>(
        arena.allocate(sizeof(std::uint64_t), alignof(std::uint64_t)));
    *p = i * 0x9e3779b97f4a7c15ULL;
    cells.emplace_back(p, *p);
  }
  EXPECT_GT(arena.chunk_count(), 1u);
  for (const auto& [p, expected] : cells) EXPECT_EQ(*p, expected);
  EXPECT_GE(arena.bytes_used(), 4096 * sizeof(std::uint64_t));
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(ArenaTest, AlignmentHonored) {
  Arena arena;
  for (std::size_t align : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{8}, std::size_t{16}, std::size_t{64}}) {
    for (int i = 0; i < 8; ++i) {
      void* p = arena.allocate(3, align);  // odd size forces misalignment
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "align=" << align;
    }
  }
  // Fresh-chunk path: a tiny arena can never satisfy these in place, so
  // every request lands at the start of a new chunk, whose base operator
  // new aligns only to 16 -- the alignment fixup must happen on the
  // address itself.
  Arena tiny(16);
  for (int i = 0; i < 8; ++i) {
    void* p = tiny.allocate(24, 64);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << "i=" << i;
  }
}

TEST(ArenaTest, OversizedAllocationGetsItsOwnChunk) {
  Arena arena(64);
  void* big = arena.allocate(Arena::kMaxChunkBytes + 100, 8);
  ASSERT_NE(big, nullptr);
  // Still usable after: bump allocation continues on fresh chunks.
  void* small = arena.allocate(8, 8);
  ASSERT_NE(small, nullptr);
  EXPECT_GE(arena.bytes_reserved(), Arena::kMaxChunkBytes + 100);
}

// --------------------------------------------------------- interner units

TEST(StateInternerTest, DenseHandlesInDiscoveryOrder) {
  StateInterner in;
  const std::uint64_t a[] = {1, 2, 3};
  const std::uint64_t b[] = {4, 5};
  const std::uint64_t c[] = {1, 2, 4};
  EXPECT_EQ(in.intern_tuple(a, 3), 0u);
  EXPECT_EQ(in.intern_tuple(b, 2), 1u);
  EXPECT_EQ(in.intern_tuple(c, 3), 2u);
  EXPECT_EQ(in.size(), 3u);
  // Duplicates return the original handle, in any order.
  EXPECT_EQ(in.intern_tuple(c, 3), 2u);
  EXPECT_EQ(in.intern_tuple(a, 3), 0u);
  EXPECT_EQ(in.intern_tuple(b, 2), 1u);
  EXPECT_EQ(in.size(), 3u);
}

TEST(StateInternerTest, TupleRoundTrip) {
  StateInterner in;
  std::vector<std::vector<std::uint64_t>> keys;
  Xoshiro256 rng(99);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint64_t> k(1 + rng.below(6));
    for (auto& w : k) w = rng();
    const StateInterner::Handle h = in.intern_tuple(k);
    if (h == keys.size()) keys.push_back(k);
  }
  for (std::size_t h = 0; h < keys.size(); ++h) {
    const TupleRef t = in.tuple(h);
    ASSERT_EQ(t.size(), keys[h].size());
    for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], keys[h][i]);
  }
}

TEST(StateInternerTest, BytesRoundTrip) {
  StateInterner in;
  const std::string s1 = "hello";
  const std::string s2 = "hello world, a longer key crossing the pad";
  const auto h1 = in.intern_bytes(s1.data(), s1.size());
  const auto h2 = in.intern_bytes(s2.data(), s2.size());
  EXPECT_NE(h1, h2);
  const auto [p1, n1] = in.key(h1);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(p1), n1), s1);
  const auto [p2, n2] = in.key(h2);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(p2), n2), s2);
  EXPECT_EQ(in.intern_bytes(s1.data(), s1.size()), h1);
}

TEST(StateInternerTest, UnknownHandleThrows) {
  StateInterner in;
  EXPECT_THROW(in.key(0), std::out_of_range);
  const std::uint64_t w[] = {7};
  (void)in.intern_tuple(w, 1);
  EXPECT_NO_THROW(in.tuple(0));
  EXPECT_THROW(in.tuple(1), std::out_of_range);
}

TEST(StateInternerTest, RehashPreservesHandlesAndKeys) {
  StateInterner in;
  std::vector<std::vector<std::uint64_t>> keys;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    keys.push_back({i * 3, i ^ 0xabcdef, i});
    ASSERT_EQ(in.intern_tuple(keys.back()), i);
  }
  EXPECT_GT(in.stats().rehashes, 0u);
  // Pointers handed out before the rehashes still identify the keys, and
  // every handle re-interns to itself.
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(in.intern_tuple(keys[i]), i);
    const TupleRef t = in.tuple(i);
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0], keys[i][0]);
  }
}

TEST(StateInternerTest, ReserveAvoidsMidWalkRehashes) {
  StateInterner in;
  in.reserve(10000);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const std::uint64_t w[] = {i, ~i};
    (void)in.intern_tuple(w, 2);
  }
  EXPECT_EQ(in.stats().rehashes, 0u);
  EXPECT_EQ(in.size(), 10000u);
}

TEST(StateInternerTest, HashMixesTupleLength) {
  // Satellite fix: the retired TupleHash folded words but not arity, so
  // all-zero tuples of every length collided. The interner hash seeds
  // with the length: distinct lengths must give distinct hashes *and*
  // distinct handles.
  const std::uint64_t zeros[4] = {0, 0, 0, 0};
  std::vector<std::uint64_t> hashes;
  for (std::size_t n = 0; n <= 4; ++n) {
    hashes.push_back(StateInterner::hash_tuple(zeros, n));
  }
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    for (std::size_t j = i + 1; j < hashes.size(); ++j) {
      EXPECT_NE(hashes[i], hashes[j]) << "lengths " << i << " vs " << j;
    }
  }
  StateInterner in;
  for (std::size_t n = 0; n <= 4; ++n) {
    EXPECT_EQ(in.intern_tuple(zeros, n), n);
  }
  EXPECT_EQ(in.size(), 5u);
}

TEST(StateInternerTest, MapBackendAssignsIdenticalHandles) {
  // A std::map oracle assigns the next dense handle to each unseen key,
  // the handle order the legacy node-based interners used. Live key bytes
  // are the key lengths padded to whole words.
  StateInterner in;
  std::map<std::string, StateInterner::Handle> oracle;
  std::size_t padded_bytes = 0;
  Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    std::string k(1 + rng.below(20), 'a');
    for (char& c : k) c = static_cast<char>('a' + rng.below(3));
    const auto [it, fresh] = oracle.emplace(k, oracle.size());
    if (fresh) padded_bytes += (k.size() + 7) / 8 * 8;
    ASSERT_EQ(in.intern_bytes(k.data(), k.size()), it->second);
  }
  EXPECT_LT(oracle.size(), 2000u);  // short keys repeat
  EXPECT_EQ(in.size(), oracle.size());
  for (const auto& [k, h] : oracle) {
    const auto [p, n] = in.key(h);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(p), n), k);
  }
  EXPECT_EQ(in.stats().bytes_live, padded_bytes);
}

TEST(StateInternerTest, StatsCountLookupsAndProbes) {
  StateInterner in;
  const std::uint64_t w[] = {1, 2};
  (void)in.intern_tuple(w, 2);
  (void)in.intern_tuple(w, 2);
  const InternStats s = in.stats();
  EXPECT_EQ(s.keys, 1u);
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_GE(s.probes, 2u);
  EXPECT_GT(s.arena_bytes, 0u);
}

// ------------------------------------------------- differential stacks

constexpr std::size_t kFdistDepth = 4;
constexpr std::size_t kSampleDepth = 8;
constexpr std::size_t kTrials = 400;
/// Pre-size hint for the "sized" side: far above any stack's state count,
/// so its tables never grow, while the "grown" side's start small.
constexpr std::size_t kReserve = 4096;

PsioaFactory composed_factory(int seed, const std::string& tag) {
  return [seed, tag]() -> PsioaPtr {
    Xoshiro256 rng(seed * 7919 + 13);
    RandomPsioaConfig ca;
    ca.n_states = 3;
    ca.n_outputs = 2;
    ca.n_internals = 1;
    RandomPsioaConfig cb = ca;
    cb.input_candidates = acts({"iout0_" + tag + "a", "iout1_" + tag + "a"});
    auto a = make_random_psioa(tag + "_A", tag + "a", ca, rng);
    auto b = make_random_psioa(tag + "_B", tag + "b", cb, rng);
    return compose(PsioaPtr(a), PsioaPtr(b));
  };
}

PsioaFactory hidden_renamed_factory(int seed, const std::string& tag) {
  const PsioaFactory inner = composed_factory(seed, tag);
  return [inner, tag]() -> PsioaPtr {
    const ActionBijection g =
        ActionBijection::with_suffix(acts({"iout0_" + tag + "a"}), "#in");
    const ActionSet hidden = acts({"iout1_" + tag + "a"});
    return rename_actions(hide_actions(inner(), hidden), g);
  };
}

PsioaFactory mac_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr {
    const RealIdealPair mac = make_otmac_pair(4, tag);
    auto env = make_probe_env_matching(
        "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
        act("forged_" + tag), act("acc_" + tag));
    auto adv = make_sink_adversary("adv_" + tag, {}, acts({"forge_" + tag}));
    return compose(env, compose(mac.real.ptr(), adv));
  };
}

PsioaFactory ledger_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr { return make_ledger_system(2, tag).dynamic; };
}

PsioaFactory faulty_channel_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr {
    FaultPlan plan;
    plan.drop = Rational(1, 8);
    plan.duplicate = Rational(1, 8);
    plan.delay = Rational(1, 4);
    return make_faulty_channel(tag, plan);
  };
}

PsioaFactory crashable_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr {
    return make_crashable(make_channel(tag), 3);
  };
}

PsioaFactory byzantine_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr {
    return std::make_shared<ByzantinePsioa>(
        make_channel(tag),
        make_flip_involution({{act("recv0_" + tag), act("recv1_" + tag)}}),
        Rational(1, 3));
  };
}

ExactDisc<Perception> exact_of(Psioa& sys) {
  UniformScheduler sched(kFdistDepth);
  TraceInsight f;
  return exact_fdist(sys, sched, f, kFdistDepth + 1);
}

Disc<Perception, double> sampled_of(Psioa& sys, std::uint64_t seed) {
  UniformScheduler sched(kSampleDepth);
  TraceInsight f;
  return sample_fdist(sys, sched, f, kTrials, seed, kSampleDepth);
}

/// One build's observation of a stack: exact f-dist, 12 fixed-seed
/// executions (handles included), and a sampled f-dist. A nonzero
/// `reserve` pre-sizes every interner in the stack before first use.
struct Observation {
  ExactDisc<Perception> exact;
  std::vector<ExecFragment> runs;
  Disc<Perception, double> sampled;
};

Observation observe(const PsioaFactory& fa, std::size_t reserve,
                    std::uint64_t seed) {
  Observation obs;
  PsioaPtr sys = fa();
  if (reserve > 0) sys->reserve_interning(reserve);
  obs.exact = exact_of(*sys);
  for (int t = 0; t < 12; ++t) {
    UniformScheduler sched(kSampleDepth);
    Xoshiro256 rng(seed + t);
    obs.runs.push_back(sample_execution(*sys, sched, rng, kSampleDepth));
  }
  obs.sampled = sampled_of(*sys, seed);
  return obs;
}

/// The differential core: a stack growing its interners on demand and
/// the same stack pre-sized must agree exactly, draw for draw, handle for
/// handle (both assign dense handles in discovery order).
void expect_capacity_blind(const PsioaFactory& fa, std::uint64_t seed) {
  const Observation grown = observe(fa, 0, seed);
  const Observation sized = observe(fa, kReserve, seed);
  EXPECT_EQ(grown.exact, sized.exact);
  ASSERT_EQ(grown.runs.size(), sized.runs.size());
  for (std::size_t t = 0; t < grown.runs.size(); ++t) {
    EXPECT_EQ(grown.runs[t], sized.runs[t]) << "trace " << t;
  }
  EXPECT_EQ(grown.sampled, sized.sampled);
}

/// Same comparison through the frozen-snapshot engine: prepare() (BFS
/// warm-up + freeze) and parallel sample_fdist must not depend on the
/// warm-up's interning pre-size.
void expect_capacity_blind_frozen(const PsioaFactory& fa,
                                  std::uint64_t seed) {
  auto run = [&fa, seed](std::size_t reserve) {
    SchedulerFactory fs = [] {
      return std::make_shared<UniformScheduler>(kSampleDepth);
    };
    ParallelSampler sampler(fa, fs);
    WarmupPlan plan;
    plan.episodes = 8;
    plan.horizon = kSampleDepth;
    plan.reserve_states = reserve;
    sampler.prepare(plan, kSampleDepth);
    ThreadPool pool(4);
    TraceInsight f;
    auto dist = sampler.sample_fdist(f, 1000, seed, kSampleDepth, pool);
    const InternStats st = sampler.residue_intern_stats();
    return std::make_pair(dist, st);
  };
  const auto [dist_grown, st_grown] = run(0);
  const auto [dist_sized, st_sized] = run(kReserve);
  EXPECT_EQ(dist_grown, dist_sized);
  // Both warm-ups interned the same key set in the same order; only the
  // grown tables ever rehashed.
  EXPECT_EQ(st_grown.keys, st_sized.keys);
  EXPECT_GT(st_sized.keys, 0u);
  EXPECT_GT(st_sized.arena_chunks, 0u);
  EXPECT_EQ(st_sized.rehashes, 0u);
}

class InternBackendDifferential : public ::testing::TestWithParam<int> {};

TEST_P(InternBackendDifferential, ComposedStack) {
  const int n = GetParam();
  expect_capacity_blind(composed_factory(n, "it_a" + std::to_string(n)),
                        5000 + n);
}

TEST_P(InternBackendDifferential, HiddenRenamedStack) {
  const int n = GetParam();
  expect_capacity_blind(hidden_renamed_factory(n, "it_b" + std::to_string(n)),
                        6000 + n);
}

INSTANTIATE_TEST_SUITE_P(Random, InternBackendDifferential,
                         ::testing::Range(0, 4));

TEST(InternBackendStacks, StructuredSecureStack) {
  expect_capacity_blind(mac_factory("it_mac"), 43);
}

TEST(InternBackendStacks, PcaLedgerStack) {
  expect_capacity_blind(ledger_factory("it_led"), 11);
}

TEST(InternBackendStacks, FaultyChannelStack) {
  expect_capacity_blind(faulty_channel_factory("it_fl"), 17);
}

TEST(InternBackendStacks, CrashableStack) {
  expect_capacity_blind(crashable_factory("it_cr"), 19);
}

TEST(InternBackendStacks, ByzantineStack) {
  expect_capacity_blind(byzantine_factory("it_bz"), 23);
}

TEST(InternBackendStacks, FrozenSnapshotComposed) {
  expect_capacity_blind_frozen(composed_factory(3, "it_frz"), 29);
}

TEST(InternBackendStacks, FrozenSnapshotMac) {
  expect_capacity_blind_frozen(mac_factory("it_frzm"), 31);
}

TEST(InternBackendStacks, FrozenSnapshotLedger) {
  expect_capacity_blind_frozen(ledger_factory("it_frzl"), 37);
}

// ------------------------------------------------- growth-stability

TEST(InternGrowthStability, DynamicPcaTransitionsSurviveInterningGrowth) {
  // Regression for the removed defensive Configuration copy:
  // compute_transition holds a reference into the config store across
  // intern_config calls that grow it. Record every (q, a) row as it is
  // first computed, while discovery is actively growing the interner,
  // then clear the memo and re-derive each after the full exploration:
  // any instability (a reallocated slot, a renumbered handle) changes
  // the answer.
  auto pca = make_ledger_system(2, "ig").dynamic;
  std::map<std::pair<State, ActionId>, StateDist> recorded;
  std::vector<State> frontier{pca->start_state()};
  std::map<State, bool> seen;
  seen[frontier[0]] = true;
  for (std::size_t depth = 0; depth < 6 && !frontier.empty(); ++depth) {
    std::vector<State> next;
    for (State q : frontier) {
      for (ActionId a : pca->signature(q).all()) {
        const StateDist eta = pca->transition(q, a);
        recorded.emplace(std::make_pair(q, a), eta);
        for (State q2 : eta.support()) {
          if (!seen[q2]) {
            seen[q2] = true;
            next.push_back(q2);
          }
        }
      }
    }
    frontier = std::move(next);
  }
  ASSERT_GT(recorded.size(), 4u);
  pca->clear_memo();
  for (const auto& [qa, eta] : recorded) {
    EXPECT_EQ(pca->transition(qa.first, qa.second), eta);
  }
}

TEST(InternGrowthStability, ComposedTupleViewsSurviveInterningGrowth) {
  // TupleRef views borrow arena storage: a view taken early must still
  // read the same words after thousands of later internings.
  auto sys = std::dynamic_pointer_cast<ComposedPsioa>(
      composed_factory(5, "it_tv")());
  ASSERT_NE(sys, nullptr);
  const State q0 = sys->start_state();
  const TupleRef early = sys->tuple(q0);
  const std::vector<std::uint64_t> copy(early.begin(), early.end());
  // Drive discovery hard enough to force arena chunk growth and rehashes.
  UniformScheduler sched(16);
  Xoshiro256 rng(123);
  for (int t = 0; t < 200; ++t) {
    (void)sample_execution(*sys, sched, rng, 16);
  }
  ASSERT_EQ(early.size(), copy.size());
  for (std::size_t i = 0; i < copy.size(); ++i) EXPECT_EQ(early[i], copy[i]);
}

// ------------------------------------------------- concurrency (TSan)

TEST(InternConcurrency, ActionTableSharedLockIntern) {
  // 8 threads intern overlapping name sets through the shared-lock fast
  // path while some names are genuinely new (exclusive-lock inserts).
  // Run under TSan by scripts/check.sh --tsan. Correctness: every thread
  // sees one consistent id per name, and names round-trip.
  constexpr int kThreads = 8;
  constexpr int kNames = 64;
  constexpr int kReps = 400;
  std::vector<std::vector<ActionId>> ids(kThreads,
                                         std::vector<ActionId>(kNames));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int rep = 0; rep < kReps; ++rep) {
        for (int i = 0; i < kNames; ++i) {
          const std::string name = "conc_act_" + std::to_string(i);
          const ActionId id = ActionTable::instance().intern(name);
          if (rep == 0) {
            ids[t][i] = id;
          } else if (ids[t][i] != id) {
            ids[t][i] = kInvalidAction;  // flag inconsistency for main
          }
          // Exercise the read paths under contention too.
          (void)ActionTable::instance().lookup(name);
          (void)ActionTable::instance().name(id);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kNames; ++i) {
    const ActionId expected = ids[0][i];
    ASSERT_NE(expected, kInvalidAction);
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][i], expected) << "thread " << t << " name " << i;
    }
    EXPECT_EQ(ActionTable::instance().name(expected),
              "conc_act_" + std::to_string(i));
    EXPECT_EQ(ActionTable::instance().lookup("conc_act_" + std::to_string(i)),
              expected);
  }
}

TEST(InternConcurrency, LockFreeNameReadsUnderConcurrentAppends) {
  // name() and size() take no lock: names live in append-only segments
  // that grow geometrically, published by a release store of the count.
  // Two writers append 6,000 fresh names -- past several segment
  // boundaries -- while readers walk every id below size() and check
  // that the name they read round-trips through lookup(). Run under TSan
  // by scripts/check.sh --tsan.
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kPerWriter = 3000;
  ActionTable& table = ActionTable::instance();
  const std::size_t before = table.size();
  std::atomic<bool> go{false};  // start everyone together
  std::atomic<int> writers_left{kWriters};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([w, &table, &go, &writers_left] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerWriter; ++i) {
        (void)table.intern("lock_free_writer_" + std::to_string(w) +
                           "_name_" + std::to_string(i));
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&table, &go, &writers_left, &mismatches, &reads] {
      while (!go.load()) std::this_thread::yield();
      std::size_t seen = 0;
      bool last_pass = false;
      while (!last_pass) {
        last_pass = writers_left.load() == 0;
        const std::size_t n = table.size();
        if (n < seen) mismatches.fetch_add(1);  // size() must not shrink
        seen = n;
        for (std::size_t id = 0; id < n; ++id) {
          const std::string& name = table.name(static_cast<ActionId>(id));
          if (table.lookup(name) != id) mismatches.fetch_add(1);
        }
        reads.fetch_add(n);
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(reads.load(), before + kWriters * kPerWriter);
  ASSERT_GE(table.size(), before + kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; i += 97) {
      const std::string name = "lock_free_writer_" + std::to_string(w) +
                               "_name_" + std::to_string(i);
      const ActionId id = table.lookup(name);
      ASSERT_NE(id, kInvalidAction) << name;
      EXPECT_EQ(table.name(id), name);
    }
  }
  EXPECT_THROW((void)table.name(static_cast<ActionId>(table.size())),
               std::out_of_range);
}

}  // namespace
}  // namespace cdse
