#include "psioa/snapshot.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cdse {

CompiledSnapshot::CompiledSnapshot(
    State start, std::string source,
    std::unordered_map<State, StateMemo> states)
    : start_(start), source_(std::move(source)), states_(std::move(states)) {
  for (const auto& [q, fs] : states_) {
    (void)q;
    row_count_ += fs.rows.size();
  }
}

const Signature* CompiledSnapshot::find_signature(State q) const {
  auto it = states_.find(q);
  if (it == states_.end() || !it->second.sig.has_value()) return nullptr;
  return &*it->second.sig;
}

const CompiledRow* CompiledSnapshot::find_row(State q, ActionId a) const {
  auto it = states_.find(q);
  if (it == states_.end()) return nullptr;
  auto jt = it->second.rows.find(a);
  if (jt == it->second.rows.end()) return nullptr;
  return &jt->second;
}

QuotientSnapshot CompiledSnapshot::quotient(
    const SnapshotPartition& partition) const {
  QuotientSnapshot out;
  out.original_states = states_.size();
  out.blocks = partition.blocks;
  const auto& block_of = partition.block_of;

  // Representative per block: the smallest member handle. Bisimulation
  // guarantees every complete member yields the same merged row, so the
  // choice only pins which (identical) row set gets copied; taking the
  // minimum keeps the construction deterministic regardless of the
  // states_ hash order.
  std::vector<State> rep(partition.blocks, State{0});
  std::vector<char> has_rep(partition.blocks, 0);
  for (const auto& [q, fs] : states_) {
    (void)fs;
    auto it = block_of.find(q);
    if (it == block_of.end()) {
      throw std::invalid_argument(
          "CompiledSnapshot::quotient: partition misses state " +
          std::to_string(q));
    }
    if (it->second >= partition.blocks) {
      throw std::invalid_argument(
          "CompiledSnapshot::quotient: block id out of range");
    }
    if (!has_rep[it->second] || q < rep[it->second]) {
      rep[it->second] = q;
      has_rep[it->second] = 1;
    }
  }
  for (std::size_t b = 0; b < partition.blocks; ++b) {
    if (!has_rep[b]) {
      throw std::invalid_argument("CompiledSnapshot::quotient: empty block " +
                                  std::to_string(b));
    }
  }

  std::unordered_map<State, StateMemo> blocks;
  blocks.reserve(partition.blocks);
  for (std::size_t b = 0; b < partition.blocks; ++b) {
    const StateMemo& src = states_.at(rep[b]);
    StateMemo fs;
    fs.sig = src.sig;
    for (const auto& [a, row] : src.rows) {
      // Remap targets block-wise and merge their exact weights. The
      // accumulation goes through StateDist::add -- the canonical
      // sorted-merge of measure/disc.hpp -- so block handles come out
      // sorted and the recompiled CDF is deterministic.
      StateDist merged;
      bool covered = true;
      for (const auto& [q2, w] : row.dist.entries()) {
        auto it = block_of.find(q2);
        if (it == block_of.end()) {
          covered = false;
          break;
        }
        merged.add(static_cast<State>(it->second), w);
      }
      if (!covered) {
        // Only frontier states can reach an un-interned target; their
        // partial rows are dropped rather than merged wrong.
        ++out.dropped_rows;
        continue;
      }
      fs.rows.emplace(a, CompiledRow::compile(std::move(merged)));
    }
    blocks.emplace(static_cast<State>(b), std::move(fs));
  }

  if (!states_.count(start_)) {
    throw std::invalid_argument(
        "CompiledSnapshot::quotient: start state not in the snapshot");
  }
  out.reduced = std::make_shared<const CompiledSnapshot>(
      static_cast<State>(block_of.at(start_)), "quotient(" + source_ + ")",
      std::move(blocks));
  return out;
}

std::shared_ptr<const CompiledSnapshot> MemoPsioa::freeze() {
  // The memo moves over whole: the snapshot becomes the one owner of
  // every row computed so far, and this instance starts an empty memo.
  const State start = start_state();
  auto snapshot = std::make_shared<const CompiledSnapshot>(
      start, name(), std::exchange(memo_, {}));
  // Session GC consults this: a live snapshot pins the handle space.
  last_snapshot_ = snapshot;
  return snapshot;
}

SnapshotStats& SnapshotStats::operator+=(const SnapshotStats& o) {
  sig_hits += o.sig_hits;
  sig_misses += o.sig_misses;
  sig_overflows += o.sig_overflows;
  row_hits += o.row_hits;
  row_misses += o.row_misses;
  row_overflows += o.row_overflows;
  return *this;
}

namespace {

// Lexicographic order on encodings (length first): any total order that
// is a pure function of the encoding works, since all the draw mapping
// needs is one order every instance agrees on.
bool encoding_less(const BitString& a, const BitString& b) {
  if (a.length() != b.length()) return a.length() < b.length();
  for (std::size_t i = 0; i < a.length(); ++i) {
    if (a.bit(i) != b.bit(i)) return b.bit(i);
  }
  return false;
}

}  // namespace

CompiledRow compile_row_by_encoding(StateDist d, Psioa& encoder) {
  const auto& entries = d.entries();
  std::vector<std::size_t> order(entries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<BitString> enc;
  enc.reserve(entries.size());
  for (const auto& [q, w] : entries) {
    (void)w;
    enc.push_back(encoder.encode_state(q));
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return encoding_less(enc[i], enc[j]);
                   });
  return CompiledRow::compile(std::move(d), &order);
}

SnapshotPsioa::SnapshotPsioa(std::shared_ptr<const CompiledSnapshot> snapshot,
                             std::shared_ptr<SnapshotResidue> residue)
    : MemoPsioa("snapshot(" + snapshot->source() + ")"),
      snap_(std::move(snapshot)),
      residue_(std::move(residue)) {}

void SnapshotPsioa::frozen_miss(State q, std::optional<ActionId> a) {
  const std::string what =
      a.has_value() ? "row for (" + state_label(q) + ", " +
                          ActionTable::instance().name(*a) + ")"
                    : "signature for " + state_label(q);
  throw std::logic_error("SnapshotPsioa: no frozen " + what + " in " +
                         snap_->source() +
                         "; the enumeration left the frozen horizon");
}

const Signature& SnapshotPsioa::signature_ref(State q) {
  if (const Signature* s = snap_->find_signature(q)) {
    ++sstats_.sig_hits;
    return *s;
  }
  ++sstats_.sig_misses;
  auto it = over_sigs_.find(q);
  if (it != over_sigs_.end()) return it->second;
  ++sstats_.sig_overflows;
  return over_sigs_.emplace(q, compute_signature(q)).first->second;
}

const CompiledRow& SnapshotPsioa::compiled_row(State q, ActionId a) {
  if (const CompiledRow* r = snap_->find_row(q, a)) {
    ++sstats_.row_hits;
    return *r;
  }
  ++sstats_.row_misses;
  const RowKey key{q, a};
  auto it = over_rows_.find(key);
  if (it != over_rows_.end()) return it->second;
  ++sstats_.row_overflows;
  if (residue_ == nullptr) frozen_miss(q, a);
  std::lock_guard<std::mutex> lock(residue_->mu);
  CompiledRow row =
      compile_row_by_encoding(residue_->warm->transition(q, a),
                              *residue_->warm);
  return over_rows_.emplace(key, std::move(row)).first->second;
}

BitString SnapshotPsioa::encode_state(State q) {
  // Frozen-only states are blocks: the id is the whole structural content.
  if (residue_ == nullptr) return BitString::from_uint(q);
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->encode_state(q);
}

std::string SnapshotPsioa::state_label(State q) {
  if (residue_ == nullptr) return "block" + std::to_string(q);
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->state_label(q);
}

InternStats SnapshotPsioa::intern_stats() const {
  if (residue_ == nullptr) return {};
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->intern_stats();
}

Signature SnapshotPsioa::compute_signature(State q) {
  if (residue_ == nullptr) frozen_miss(q);
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->signature(q);
}

StateDist SnapshotPsioa::compute_transition(State q, ActionId a) {
  if (residue_ == nullptr) frozen_miss(q, a);
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->transition(q, a);
}

}  // namespace cdse
