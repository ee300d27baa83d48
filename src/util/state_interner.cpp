#include "util/state_interner.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace cdse {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Word-pads a byte length (keys are stored 8-aligned so tuple() views
// are well-aligned).
std::size_t padded(std::size_t len) { return (len + 7) & ~std::size_t{7}; }

}  // namespace

// ---------------------------------------------------------------- Arena

Arena::Arena(std::size_t first_chunk_bytes)
    : next_chunk_bytes_(first_chunk_bytes == 0 ? kFirstChunkBytes
                                               : first_chunk_bytes) {}

Arena::Chunk& Arena::grow(std::size_t min_bytes) {
  const std::size_t size = std::max(next_chunk_bytes_, min_bytes);
  Chunk chunk;
  chunk.data = std::make_unique<std::byte[]>(size);
  chunk.size = size;
  reserved_ += size;
  // Geometric growth keeps chunk count logarithmic in total bytes while
  // the cap bounds the worst-case over-reserve on huge walks. The cap is
  // also the GC granularity: session keys drain at most 1 MiB chunks.
  next_chunk_bytes_ = std::min(next_chunk_bytes_ * 2, kMaxChunkBytes);
  chunks_.push_back(std::move(chunk));
  return chunks_.back();
}

void* Arena::allocate(std::size_t bytes, std::size_t align,
                      std::uint32_t* chunk_out) {
  // Alignment must be computed on the address, not the offset: operator
  // new[] only guarantees __STDCPP_DEFAULT_NEW_ALIGNMENT__ (typically
  // 16) for the chunk base, so an aligned offset into an arbitrary base
  // is not an aligned pointer for larger `align`.
  if (bytes == 0) {
    if (chunk_out != nullptr) *chunk_out = kNoChunk;
    return nullptr;
  }
  if (!chunks_.empty() && chunks_.back().data != nullptr) {
    Chunk& cur = chunks_.back();
    const auto base = reinterpret_cast<std::uintptr_t>(cur.data.get());
    const std::uintptr_t mask = static_cast<std::uintptr_t>(align) - 1;
    const std::size_t aligned =
        static_cast<std::size_t>(((base + cur.used + mask) & ~mask) - base);
    if (aligned + bytes <= cur.size) {
      used_ += (aligned - cur.used) + bytes;
      cur.used = aligned + bytes;
      cur.live += bytes;
      live_ += bytes;
      if (chunk_out != nullptr) {
        *chunk_out = static_cast<std::uint32_t>(chunks_.size() - 1);
      }
      return cur.data.get() + aligned;
    }
  }
  // `align` extra bytes leave room to shift up to the first aligned
  // address however the fresh chunk's base lands.
  Chunk& chunk = grow(bytes + align);
  const auto base = reinterpret_cast<std::uintptr_t>(chunk.data.get());
  const std::size_t offset = static_cast<std::size_t>(
      (static_cast<std::uintptr_t>(align) - (base & (align - 1))) &
      (align - 1));
  chunk.used = offset + bytes;
  chunk.live = bytes;
  used_ += offset + bytes;
  live_ += bytes;
  if (chunk_out != nullptr) {
    *chunk_out = static_cast<std::uint32_t>(chunks_.size() - 1);
  }
  return chunk.data.get() + offset;
}

std::size_t Arena::deallocate_from(std::uint32_t chunk, std::size_t bytes) {
  if (chunk >= chunks_.size()) {
    throw std::out_of_range("Arena: deallocate_from unknown chunk");
  }
  Chunk& c = chunks_[chunk];
  if (bytes > c.live) {
    throw std::logic_error("Arena: deallocate_from over-discharge");
  }
  c.live -= bytes;
  live_ -= bytes;
  // The bump target stays held even when fully dead: the next allocation
  // reuses its tail instead of growing a fresh chunk.
  const bool is_bump_target = (chunk + 1 == chunks_.size());
  if (c.live == 0 && !is_bump_target && c.data != nullptr) {
    c.data.reset();
    released_ += c.size;
    ++freed_chunks_;
    return c.size;
  }
  return 0;
}

std::size_t Arena::release_dead_chunks() {
  // Sweeps chunks that went fully dead *before* losing bump-target
  // status (deallocate_from spares the bump target; once grow() moves
  // past such a chunk no further discharge will ever revisit it).
  std::size_t total = 0;
  for (std::size_t i = 0; i + 1 < chunks_.size(); ++i) {
    Chunk& c = chunks_[i];
    if (c.live == 0 && c.data != nullptr) {
      c.data.reset();
      released_ += c.size;
      ++freed_chunks_;
      total += c.size;
    }
  }
  return total;
}

void Arena::reserve(std::size_t bytes) {
  const std::size_t free_in_last =
      chunks_.empty() || chunks_.back().data == nullptr
          ? 0
          : chunks_.back().size - chunks_.back().used;
  if (free_in_last < bytes) grow(bytes);
}

// --------------------------------------------------------- StateInterner

std::uint64_t StateInterner::hash_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  // FNV-1a seeded with the length (arity for tuple keys), so keys that
  // are prefixes of one another land in unrelated buckets.
  std::uint64_t h = 0xcbf29ce484222325ULL ^
                    (0x100000001b3ULL * (static_cast<std::uint64_t>(len) + 1));
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  // splitmix64 finalizer: FNV alone avalanches poorly in the high bits,
  // which an and-mask table consultation would feel directly.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

StateInterner::Handle StateInterner::intern_bytes(const void* data,
                                                 std::size_t len) {
  return intern_bytes_hashed(data, len, hash_bytes(data, len));
}

StateInterner::Handle StateInterner::intern_tuple(const std::uint64_t* words,
                                                  std::size_t n) {
  return intern_bytes(words, n * sizeof(std::uint64_t));
}

StateInterner::Handle StateInterner::intern_bytes_hashed(const void* data,
                                                         std::size_t len,
                                                         std::uint64_t h) {
  ++lookups_;
  if (slots_.empty()) grow_table(16);
  std::size_t i = h & slot_mask_;
  while (true) {
    ++probes_;
    const std::uint32_t s = slots_[i];
    if (s == 0) break;
    const Entry& e = entries_[s - 1];
    // A retired entry never matches: an equal key re-interned after
    // retirement gets a fresh handle (its slot stays occupied until the
    // next collect() rebuild, so probing continues past it).
    if (!entry_dead(e) && e.hash == h && e.len == len &&
        (len == 0 || std::memcmp(e.ptr, data, len) == 0)) {
      return s - 1;
    }
    i = (i + 1) & slot_mask_;
  }
  const std::byte* stored = nullptr;
  std::uint32_t chunk = kNoEntryChunk;
  if (len != 0) {
    void* dst = arena_.allocate(padded(len), alignof(std::uint64_t), &chunk);
    std::memcpy(dst, data, len);
    stored = static_cast<const std::byte*>(dst);
  }
  entries_.push_back(
      Entry{stored, h, static_cast<std::uint32_t>(len), chunk});
  slots_[i] = static_cast<std::uint32_t>(entries_.size());
  // Load factor 0.7 over *occupied* slots: live entries plus retired
  // ones whose slots have not been dropped by a collect() rebuild yet
  // (counting all entries ever would over-grow the table after GC).
  if ((live_keys() + pending_retired_.size()) * 10 >= slots_.size() * 7) {
    grow_table(slots_.size() * 2);
  }
  return entries_.size() - 1;
}

void StateInterner::grow_table(std::size_t min_slots) {
  const std::size_t n = round_up_pow2(std::max<std::size_t>(min_slots, 16));
  if (n <= slots_.size()) return;
  if (!slots_.empty()) ++rehashes_;
  std::vector<std::uint32_t> fresh(n, 0);
  const std::uint64_t mask = n - 1;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    if (entry_dead(entries_[e])) continue;  // GC: dead keys stay unindexed
    std::size_t i = entries_[e].hash & mask;
    while (fresh[i] != 0) i = (i + 1) & mask;
    fresh[i] = static_cast<std::uint32_t>(e + 1);
  }
  slots_ = std::move(fresh);
  slot_mask_ = mask;
}

void StateInterner::rebuild_slots() {
  if (slots_.empty()) return;
  std::fill(slots_.begin(), slots_.end(), 0u);
  const std::uint64_t mask = slot_mask_;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    if (entry_dead(entries_[e])) continue;
    std::size_t i = entries_[e].hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(e + 1);
  }
}

bool StateInterner::retire(Handle h) {
  if (h >= entries_.size() || entry_dead(entries_[h])) return false;
  entries_[h].chunk |= kDeadBit;
  pending_retired_.push_back(h);
  ++retired_;
  return true;
}

bool StateInterner::is_live(Handle h) const {
  return h < entries_.size() && !entry_dead(entries_[h]);
}

std::size_t StateInterner::collect() {
  if (pending_retired_.empty()) return 0;
  const std::size_t n = pending_retired_.size();
  for (Handle h : pending_retired_) {
    Entry& e = entries_[h];
    const std::uint32_t chunk = e.chunk & ~kDeadBit;
    if (chunk != kNoEntryChunk) {
      bytes_reclaimed_ += arena_.deallocate_from(chunk, padded(e.len));
    }
    e.ptr = nullptr;
  }
  bytes_reclaimed_ += arena_.release_dead_chunks();
  // One rebuild per epoch drops every dead slot at once -- the amortized
  // cost the deferred-retirement design buys.
  rebuild_slots();
  pending_retired_.clear();
  return n;
}

void StateInterner::compact(std::vector<Handle>* old_to_new) {
  collect();
  const std::size_t old_count = entries_.size();
  if (old_to_new != nullptr) {
    old_to_new->assign(old_count, kInvalidHandle);
  }
  StateInterner fresh;
  fresh.reserve(live_keys());
  for (std::size_t h = 0; h < old_count; ++h) {
    const Entry& e = entries_[h];
    if (entry_dead(e)) continue;
    const Handle nh = fresh.intern_bytes(e.ptr, e.len);
    if (old_to_new != nullptr) (*old_to_new)[h] = nh;
  }
  // Cumulative counters survive the rebuild; the dropped table's held
  // bytes (dead entries, slot slack, drained-but-held chunks) count as
  // reclaimed.
  const std::size_t old_held = stats().arena_bytes;
  fresh.lookups_ = lookups_;
  fresh.probes_ = probes_;
  fresh.rehashes_ = rehashes_;
  fresh.bytes_reclaimed_ = bytes_reclaimed_;
  const std::size_t new_held = fresh.stats().arena_bytes;
  fresh.bytes_reclaimed_ += old_held > new_held ? old_held - new_held : 0;
  *this = std::move(fresh);
}

std::pair<const std::byte*, std::size_t> StateInterner::key(Handle h) const {
  if (h >= entries_.size() || entry_dead(entries_[h])) {
    throw std::out_of_range("StateInterner: unknown or retired handle");
  }
  const Entry& e = entries_[h];
  return {e.ptr, e.len};
}

TupleRef StateInterner::tuple(Handle h) const {
  if (h >= entries_.size() || entry_dead(entries_[h])) {
    throw std::out_of_range("StateInterner: unknown or retired handle");
  }
  const Entry& e = entries_[h];
  return TupleRef{reinterpret_cast<const std::uint64_t*>(e.ptr),
                  e.len / sizeof(std::uint64_t)};
}

void StateInterner::reserve(std::size_t expected_keys) {
  if (expected_keys == 0) return;
  entries_.reserve(expected_keys);
  grow_table(round_up_pow2(expected_keys * 10 / 7 + 1));
}

InternStats StateInterner::stats() const {
  InternStats s;
  s.keys = entries_.size();
  s.lookups = lookups_;
  s.probes = probes_;
  s.rehashes = rehashes_;
  s.keys_retired = retired_;
  s.bytes_reclaimed = bytes_reclaimed_;
  s.arena_bytes = arena_.bytes_held() +
                  slots_.capacity() * sizeof(std::uint32_t) +
                  entries_.capacity() * sizeof(Entry);
  s.arena_chunks = arena_.held_chunk_count();
  s.bytes_live = arena_.bytes_live();
  return s;
}

}  // namespace cdse
