// Session GC at the handle-store layer (util/state_interner.hpp,
// util/sharded_interner.hpp): arena chunk accounting, the retire /
// collect / compact epoch discipline, the interner staying like-for-like
// with a std::map oracle after GC, and the sharded interner's concurrent
// interning + quiescent compaction with handle remapping.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/sharded_interner.hpp"
#include "util/state_interner.hpp"

namespace cdse {
namespace {

using Handle = StateInterner::Handle;

std::vector<std::uint64_t> key2(std::uint64_t a, std::uint64_t b) {
  return {a, b};
}

// -- Arena chunk accounting --------------------------------------------------

TEST(ArenaGc, DrainedChunkReleasesItsMemory) {
  Arena a(64);  // tiny chunks so churn is observable
  std::uint32_t c0 = Arena::kNoChunk;
  a.allocate(48, 8, &c0);
  std::uint32_t c1 = Arena::kNoChunk;
  a.allocate(48, 8, &c1);  // does not fit chunk 0: bump target moves on
  ASSERT_NE(c0, c1);
  EXPECT_EQ(a.bytes_live(), 96u);
  EXPECT_EQ(a.held_chunk_count(), 2u);

  // Chunk 0 is no longer the bump target: draining it returns its bytes.
  const std::size_t released = a.deallocate_from(c0, 48);
  EXPECT_GT(released, 0u);
  EXPECT_EQ(a.bytes_live(), 48u);
  EXPECT_EQ(a.held_chunk_count(), 1u);
  EXPECT_EQ(a.bytes_released(), released);
  EXPECT_EQ(a.bytes_held(), a.bytes_reserved() - released);
}

TEST(ArenaGc, PartiallyLiveChunkIsNotReleased) {
  Arena a(64);
  std::uint32_t c0 = Arena::kNoChunk;
  a.allocate(24, 8, &c0);
  std::uint32_t c0b = Arena::kNoChunk;
  a.allocate(24, 8, &c0b);
  ASSERT_EQ(c0, c0b);
  a.allocate(48, 8, nullptr);  // move the bump target off chunk 0
  EXPECT_EQ(a.deallocate_from(c0, 24), 0u);  // half of it still live
  EXPECT_EQ(a.held_chunk_count(), a.chunk_count());
  EXPECT_GT(a.deallocate_from(c0, 24), 0u);  // now fully dead
}

TEST(ArenaGc, BumpTargetSparedUntilSweep) {
  Arena a(64);
  std::uint32_t c0 = Arena::kNoChunk;
  a.allocate(40, 8, &c0);
  // Fully dead, but still the bump target: spared (its remaining space
  // is about to be bump-allocated from).
  EXPECT_EQ(a.deallocate_from(c0, 40), 0u);
  EXPECT_EQ(a.held_chunk_count(), a.chunk_count());
  // Growth passes it over; the sweep catches it.
  a.allocate(128, 8, nullptr);
  EXPECT_GT(a.release_dead_chunks(), 0u);
  EXPECT_EQ(a.held_chunk_count(), a.chunk_count() - 1);
  EXPECT_EQ(a.bytes_live(), 128u);
}

// -- StateInterner retire / collect -----------------------------------------

TEST(InternGc, RetiredHandleStopsResolvingAndKeyInternsFresh) {
  StateInterner si;
  const Handle h0 = si.intern_tuple(key2(1, 2));
  const Handle h1 = si.intern_tuple(key2(3, 4));
  EXPECT_TRUE(si.is_live(h0));
  EXPECT_TRUE(si.retire(h0));
  EXPECT_FALSE(si.retire(h0));  // double retire reports false
  EXPECT_FALSE(si.is_live(h0));
  EXPECT_THROW(si.key(h0), std::out_of_range);
  EXPECT_THROW(si.tuple(h0), std::out_of_range);
  EXPECT_EQ(si.live_keys(), 1u);

  // Re-interning the equal key must NOT resurrect the dead handle: a
  // reopened session id gets fresh handles.
  const Handle h2 = si.intern_tuple(key2(1, 2));
  EXPECT_NE(h2, h0);
  EXPECT_EQ(si.size(), 3u);
  EXPECT_TRUE(si.is_live(h2));

  // Untouched neighbours still resolve.
  EXPECT_TRUE(si.is_live(h1));
  EXPECT_EQ(si.tuple(h1)[0], 3u);
  EXPECT_EQ(si.stats().keys_retired, 1u);
}

TEST(InternGc, CollectReclaimsDeadChunksAndPreservesLiveKeys) {
  StateInterner si;
  constexpr std::size_t kKeys = 4096;
  std::vector<Handle> hs;
  hs.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    hs.push_back(si.intern_tuple(key2(i, i * 7 + 1)));
  }
  // Retire the first half: keys were interned in order, so early arena
  // chunks drain completely and whole-chunk reclamation can fire.
  for (std::size_t i = 0; i < kKeys / 2; ++i) si.retire(hs[i]);
  const std::size_t held_before = si.stats().arena_bytes;
  EXPECT_EQ(si.collect(), kKeys / 2);

  const InternStats s = si.stats();
  EXPECT_EQ(s.keys_retired, kKeys / 2);
  EXPECT_GT(s.bytes_reclaimed, 0u);
  EXPECT_LT(s.arena_bytes, held_before);
  EXPECT_EQ(si.live_keys(), kKeys / 2);
  for (std::size_t i = kKeys / 2; i < kKeys; ++i) {
    ASSERT_TRUE(si.is_live(hs[i]));
    ASSERT_EQ(si.tuple(hs[i])[1], i * 7 + 1);
  }
  // Dead handles stay dead after the rebuild.
  EXPECT_FALSE(si.is_live(hs[0]));
  EXPECT_THROW(si.key(hs[0]), std::out_of_range);
}

TEST(InternGc, SlotTableStopsGrowingUnderChurn) {
  // Live population is bounded at 256; intern/retire/collect cycles must
  // not keep doubling the slot table (the load factor counts live +
  // pending keys, not every key ever interned).
  StateInterner si;
  std::size_t rehashes_after_warm = 0;
  for (std::uint64_t cycle = 0; cycle < 50; ++cycle) {
    std::vector<Handle> hs;
    for (std::uint64_t i = 0; i < 256; ++i) {
      hs.push_back(si.intern_tuple(key2(cycle, i)));
    }
    for (Handle h : hs) si.retire(h);
    si.collect();
    if (cycle == 9) rehashes_after_warm = si.stats().rehashes;
  }
  EXPECT_EQ(si.stats().rehashes, rehashes_after_warm);
  EXPECT_EQ(si.live_keys(), 0u);
}

TEST(InternGc, CompactRenumbersDenselyWithRemap) {
  StateInterner si;
  constexpr std::size_t kKeys = 100;
  std::vector<Handle> hs;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    hs.push_back(si.intern_tuple(key2(i, i + 1000)));
  }
  for (std::size_t i = 0; i < kKeys / 2; ++i) si.retire(hs[i]);

  std::vector<Handle> old_to_new;
  si.compact(&old_to_new);
  ASSERT_EQ(old_to_new.size(), kKeys);
  EXPECT_EQ(si.size(), kKeys / 2);
  EXPECT_EQ(si.live_keys(), kKeys / 2);
  for (std::size_t i = 0; i < kKeys / 2; ++i) {
    EXPECT_EQ(old_to_new[i], StateInterner::kInvalidHandle);
  }
  for (std::size_t i = kKeys / 2; i < kKeys; ++i) {
    const Handle nh = old_to_new[i];
    ASSERT_NE(nh, StateInterner::kInvalidHandle);
    // Dense renumbering in handle order.
    EXPECT_EQ(nh, i - kKeys / 2);
    EXPECT_EQ(si.tuple(nh)[1], i + 1000);
  }
  // Interning resumes after the surviving population; equal keys dedupe
  // against the compacted table.
  EXPECT_EQ(si.intern_tuple(key2(60, 1060)), old_to_new[60]);
  EXPECT_EQ(si.intern_tuple(key2(12345, 0)), kKeys / 2);
}

TEST(InternGc, MapVsArenaDifferentialStaysLikeForLikeAfterGc) {
  // An intern/retire/collect/re-intern sequence checked against a
  // std::map oracle: handles are dense in discovery order, a retired key
  // re-interns under a fresh handle, and the live population and the
  // byte attribution of live keys follow the oracle exactly.
  StateInterner si;
  std::map<std::vector<std::uint64_t>, Handle> live;  // oracle index
  std::map<Handle, std::vector<std::uint64_t>> by_handle;
  Handle next = 0;
  std::size_t retired = 0;
  auto intern = [&](std::uint64_t i) {
    const std::vector<std::uint64_t> k = key2(i, i ^ 0xabc);
    const auto [it, fresh] = live.emplace(k, next);
    if (fresh) by_handle[next++] = k;
    ASSERT_EQ(si.intern_tuple(k), it->second) << "key " << i;
  };
  for (std::uint64_t i = 0; i < 512; ++i) intern(i);
  for (std::uint64_t i = 0; i < 512; i += 3) {
    const auto it = live.find(key2(i, i ^ 0xabc));
    ASSERT_TRUE(si.retire(it->second));
    by_handle.erase(it->second);
    live.erase(it);
    ++retired;
  }
  si.collect();
  for (std::uint64_t i = 0; i < 100; ++i) intern(i);  // some re-interns
  EXPECT_EQ(si.size(), next);
  EXPECT_EQ(si.live_keys(), live.size());
  const InternStats st = si.stats();
  EXPECT_EQ(st.keys, next);
  EXPECT_EQ(st.keys_retired, retired);
  EXPECT_EQ(st.bytes_live, live.size() * 2 * sizeof(std::uint64_t));
  for (Handle h = 0; h < si.size(); ++h) {
    const auto it = by_handle.find(h);
    ASSERT_EQ(si.is_live(h), it != by_handle.end()) << "handle " << h;
    if (it != by_handle.end()) {
      ASSERT_EQ(si.tuple(h)[0], it->second[0]);
      ASSERT_EQ(si.tuple(h)[1], it->second[1]);
    }
  }
}

// -- ShardedStateInterner ----------------------------------------------------

TEST(ShardedInternGc, DedupesAndRoundTripsAcrossShards) {
  ShardedStateInterner si(8);
  EXPECT_EQ(si.shard_count(), 8u);
  std::vector<ShardedStateInterner::Handle> hs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    hs.push_back(si.intern_tuple(key2(i, i * 3).data(), 2));
  }
  EXPECT_EQ(si.size(), 1000u);
  EXPECT_EQ(si.live_keys(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(si.intern_tuple(key2(i, i * 3).data(), 2), hs[i]);
    auto [ptr, len] = si.key(hs[i]);
    ASSERT_EQ(len, 16u);
    std::uint64_t w0 = 0;
    std::memcpy(&w0, ptr, 8);
    EXPECT_EQ(w0, i);
  }
  EXPECT_EQ(si.stats().keys, 1000u);
}

TEST(ShardedInternGc, ConcurrentInternersAgreeOnHandles) {
  ShardedStateInterner si(16);
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kUniverse = 512;
  std::vector<std::vector<ShardedStateInterner::Handle>> per_thread(
      kThreads, std::vector<ShardedStateInterner::Handle>(kUniverse));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the same key universe in a different order.
      for (std::uint64_t j = 0; j < kUniverse; ++j) {
        const std::uint64_t i = (j * 17 + t * 31) % kUniverse;
        per_thread[t][i] = si.intern_tuple(key2(i, i + 7).data(), 2);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(si.live_keys(), kUniverse);
  for (std::uint64_t i = 0; i < kUniverse; ++i) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      ASSERT_EQ(per_thread[t][i], per_thread[0][i]) << "key " << i;
    }
  }
}

TEST(ShardedInternGc, QuiescentCollectCompactsAndRemapsStoredHandles) {
  ShardedStateInterner si(2);  // few shards so totals cross the floor
  constexpr std::uint64_t kKeys = 8192;
  std::vector<ShardedStateInterner::Handle> hs(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    hs[i] = si.intern_tuple(key2(i, ~i).data(), 2);
  }
  // Retire 90%, keep every 10th: garbage fraction is deep past any
  // sensible compaction threshold.
  std::vector<std::uint64_t> live_ids;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    if (i % 10 == 0) {
      live_ids.push_back(i);
    } else {
      EXPECT_TRUE(si.retire(hs[i]));
    }
  }
  const auto result = si.collect(
      0.5, [&](std::size_t shard,
               const std::vector<ShardedStateInterner::Handle>& map) {
        for (std::uint64_t i : live_ids) {
          if (si.shard_of(hs[i]) == shard) hs[i] = si.remap(hs[i], map);
        }
      });
  EXPECT_GT(result.keys_collected, 0u);
  EXPECT_EQ(result.shards_compacted, 2u);
  EXPECT_GT(result.bytes_reclaimed, 0u);
  EXPECT_EQ(si.live_keys(), live_ids.size());
  EXPECT_EQ(si.size(), live_ids.size());  // entry tables pruned too
  for (std::uint64_t i : live_ids) {
    ASSERT_TRUE(si.is_live(hs[i]));
    auto [ptr, len] = si.key(hs[i]);
    ASSERT_EQ(len, 16u);
    std::uint64_t w0 = 0;
    std::memcpy(&w0, ptr, 8);
    ASSERT_EQ(w0, i);
  }
  // Dedupe still works against the compacted shards.
  for (std::uint64_t i : live_ids) {
    EXPECT_EQ(si.intern_tuple(key2(i, ~i).data(), 2), hs[i]);
  }
}

TEST(ShardedInternGc, StatsAggregateAcrossShards) {
  ShardedStateInterner si(4);
  for (std::uint64_t i = 0; i < 256; ++i) {
    si.intern_tuple(key2(i, i).data(), 2);
  }
  const InternStats s = si.stats();
  EXPECT_EQ(s.keys, 256u);
  EXPECT_EQ(s.lookups, 256u);
  EXPECT_GT(s.arena_bytes, 0u);
  EXPECT_EQ(s.bytes_live, 256u * 16u);
}

}  // namespace
}  // namespace cdse
