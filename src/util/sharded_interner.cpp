#include "util/sharded_interner.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace cdse {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::size_t default_shards() {
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(round_up_pow2(hw), 4, 64);
}

}  // namespace

ShardedStateInterner::ShardedStateInterner(std::size_t shards) {
  std::size_t n = shards == 0 ? default_shards() : round_up_pow2(shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = static_cast<Handle>(n - 1);
  shard_bits_ = 0;
  while ((std::size_t{1} << shard_bits_) < n) ++shard_bits_;
}

ShardedStateInterner::Handle ShardedStateInterner::intern_bytes(
    const void* data, std::size_t len) {
  // Hash once: top bits route to a shard, the full hash is forwarded so
  // the shard's open-addressing walk (low bits) does not re-read the key.
  const std::uint64_t h = StateInterner::hash_bytes(data, len);
  const std::size_t s =
      static_cast<std::size_t>(h >> (64 - shard_bits_)) & shard_mask_;
  Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lk(shard.mu);
  return global_handle(s, shard.interner.intern_bytes_hashed(data, len, h));
}

bool ShardedStateInterner::retire(Handle h) {
  if (h == kInvalidHandle) return false;
  Shard& shard = *shards_[shard_of(h)];
  std::lock_guard<std::mutex> lk(shard.mu);
  return shard.interner.retire(local_of(h));
}

bool ShardedStateInterner::is_live(Handle h) const {
  if (h == kInvalidHandle) return false;
  const Shard& shard = *shards_[shard_of(h)];
  std::lock_guard<std::mutex> lk(shard.mu);
  return shard.interner.is_live(local_of(h));
}

std::pair<const std::byte*, std::size_t> ShardedStateInterner::key(
    Handle h) const {
  if (h == kInvalidHandle) {
    throw std::out_of_range("ShardedStateInterner: invalid handle");
  }
  const Shard& shard = *shards_[shard_of(h)];
  std::lock_guard<std::mutex> lk(shard.mu);
  return shard.interner.key(local_of(h));
}

ShardedStateInterner::CollectResult ShardedStateInterner::collect(
    double compact_threshold, const RemapFn& remap_fn) {
  CollectResult result;
  std::vector<Handle> old_to_new;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::unique_lock<std::mutex> lk(shard.mu);
    const std::size_t before = shard.interner.stats().bytes_reclaimed;
    result.keys_collected += shard.interner.collect();
    const std::size_t total = shard.interner.size();
    const std::size_t live = shard.interner.live_keys();
    const bool worth_compacting =
        total >= 1024 &&
        static_cast<double>(total - live) >
            compact_threshold * static_cast<double>(total);
    if (worth_compacting) {
      shard.interner.compact(&old_to_new);
      ++shard.compactions;
      ++result.shards_compacted;
    }
    result.bytes_reclaimed +=
        shard.interner.stats().bytes_reclaimed - before;
    // Outside the shard lock: the owner's remap takes its own locks, and
    // holding ours across it would order them after a shard lock -- the
    // reverse of the owner's intern path (its lock, then the shard's).
    lk.unlock();
    if (worth_compacting && remap_fn) remap_fn(s, old_to_new);
  }
  return result;
}

ShardedStateInterner::Handle ShardedStateInterner::remap(
    Handle h, const std::vector<Handle>& old_to_new_local) const {
  const Handle local = local_of(h);
  if (local >= old_to_new_local.size() ||
      old_to_new_local[local] == StateInterner::kInvalidHandle) {
    return kInvalidHandle;
  }
  return global_handle(shard_of(h), old_to_new_local[local]);
}

InternStats ShardedStateInterner::stats() const {
  InternStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    total += shard->interner.stats();
  }
  return total;
}

std::size_t ShardedStateInterner::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    n += shard->interner.size();
  }
  return n;
}

std::size_t ShardedStateInterner::live_keys() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    n += shard->interner.live_keys();
  }
  return n;
}

}  // namespace cdse
