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
    std::unordered_map<State, FrozenState> states)
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

  // Representative per block: the smallest member handle. Bisimulation
  // guarantees every complete member yields the same merged row, so the
  // choice only pins which (identical) row set gets copied; taking the
  // minimum keeps the construction deterministic regardless of the
  // states_ hash order.
  std::vector<State> rep(partition.blocks, State{0});
  std::vector<char> has_rep(partition.blocks, 0);
  for (const auto& [q, fs] : states_) {
    (void)fs;
    auto it = partition.block_of.find(q);
    if (it == partition.block_of.end()) {
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
    out.block_of.emplace(q, static_cast<State>(it->second));
  }
  for (std::size_t b = 0; b < partition.blocks; ++b) {
    if (!has_rep[b]) {
      throw std::invalid_argument("CompiledSnapshot::quotient: empty block " +
                                  std::to_string(b));
    }
  }

  std::unordered_map<State, FrozenState> blocks;
  blocks.reserve(partition.blocks);
  for (std::size_t b = 0; b < partition.blocks; ++b) {
    const FrozenState& src = states_.at(rep[b]);
    FrozenState fs;
    fs.sig = src.sig;
    for (const auto& [a, row] : src.rows) {
      // Remap targets block-wise and merge their exact weights. The
      // accumulation goes through StateDist::add -- the canonical
      // sorted-merge of measure/disc.hpp -- so block handles come out
      // sorted and the recompiled CDF is deterministic.
      StateDist merged;
      bool covered = true;
      for (const auto& [q2, w] : row.dist.entries()) {
        auto it = out.block_of.find(q2);
        if (it == out.block_of.end()) {
          covered = false;
          break;
        }
        merged.add(it->second, w);
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

  auto start_it = out.block_of.find(start_);
  if (start_it == out.block_of.end()) {
    throw std::invalid_argument(
        "CompiledSnapshot::quotient: start state not in the snapshot");
  }
  out.reduced = std::make_shared<const CompiledSnapshot>(
      start_it->second, "quotient(" + source_ + ")", std::move(blocks));
  return out;
}

std::shared_ptr<const CompiledSnapshot> MemoPsioa::freeze() {
  std::unordered_map<State, CompiledSnapshot::FrozenState> frozen;
  frozen.reserve(memo_.size());
  for (const auto& [q, m] : memo_) {
    CompiledSnapshot::FrozenState fs;
    fs.sig = m.sig;
    fs.rows = m.rows;
    frozen.emplace(q, std::move(fs));
  }
  auto snapshot = std::make_shared<const CompiledSnapshot>(
      start_state(), name(), std::move(frozen));
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
  CompiledRow row;
  row.targets.reserve(entries.size());
  row.cdf.reserve(entries.size());
  std::vector<double> weights;
  weights.reserve(entries.size());
  double acc = 0.0;
  for (std::size_t i : order) {
    const double w = entries[i].second.to_double();
    acc += w;
    row.targets.push_back(entries[i].first);
    row.cdf.push_back(acc);
    weights.push_back(w);
  }
  row.split = SplitRow::build(weights);
  row.dist = std::move(d);
  return row;
}

SnapshotPsioa::SnapshotPsioa(std::shared_ptr<const CompiledSnapshot> snapshot,
                             std::shared_ptr<SnapshotResidue> residue)
    : MemoPsioa("snapshot(" + snapshot->source() + ")"),
      snap_(std::move(snapshot)),
      residue_(std::move(residue)) {}

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
  std::lock_guard<std::mutex> lock(residue_->mu);
  CompiledRow row =
      compile_row_by_encoding(residue_->warm->transition(q, a),
                              *residue_->warm);
  return over_rows_.emplace(key, std::move(row)).first->second;
}

BitString SnapshotPsioa::encode_state(State q) {
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->encode_state(q);
}

std::string SnapshotPsioa::state_label(State q) {
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->state_label(q);
}

InternStats SnapshotPsioa::intern_stats() const {
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->intern_stats();
}

Signature SnapshotPsioa::compute_signature(State q) {
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->signature(q);
}

StateDist SnapshotPsioa::compute_transition(State q, ActionId a) {
  std::lock_guard<std::mutex> lock(residue_->mu);
  return residue_->warm->transition(q, a);
}

// -- quotient views ---------------------------------------------------------

QuotientPsioa::QuotientPsioa(std::shared_ptr<const CompiledSnapshot> reduced)
    : MemoPsioa(reduced->source()), snap_(std::move(reduced)) {}

const Signature& QuotientPsioa::signature_ref(State q) {
  if (const Signature* s = snap_->find_signature(q)) return *s;
  throw std::logic_error("QuotientPsioa: no frozen signature for " +
                         state_label(q) +
                         "; the enumeration left the minimized horizon");
}

const CompiledRow& QuotientPsioa::compiled_row(State q, ActionId a) {
  if (const CompiledRow* r = snap_->find_row(q, a)) return *r;
  throw std::logic_error("QuotientPsioa: no frozen row for (" +
                         state_label(q) + ", " +
                         ActionTable::instance().name(a) +
                         "); the enumeration left the minimized horizon");
}

Signature QuotientPsioa::compute_signature(State q) {
  throw std::logic_error("QuotientPsioa: cannot compute signature of " +
                         state_label(q) + "; quotients are frozen-only");
}

StateDist QuotientPsioa::compute_transition(State q, ActionId a) {
  (void)a;
  throw std::logic_error("QuotientPsioa: cannot compute transition of " +
                         state_label(q) + "; quotients are frozen-only");
}

}  // namespace cdse
