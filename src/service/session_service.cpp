#include "service/session_service.hpp"

#include <cstdio>
#include <stdexcept>

#ifdef __linux__
#include <unistd.h>
#endif

namespace cdse {

namespace {

constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;
// Salt separating the crash-injection stream from the outcome stream:
// drills must not perturb the draws the differential test pins.
constexpr std::uint64_t kCrashSalt = 0xc7a54a17ULL;

State single_target(const CompiledRow& row) {
  if (row.targets.size() != 1) {
    throw std::logic_error(
        "MacSessionService: expected a deterministic template row");
  }
  return row.targets[0];
}

std::uint64_t mix64(std::uint64_t x) { return splitmix64(x); }

}  // namespace

MacSessionService::MacSessionService(const Options& opts)
    : opts_(opts),
      pair_(make_mac_service_pair({opts.k}, opts.tag)),
      interner_(opts.shards) {
  if (opts.k < 1 || opts.k > 30) {
    throw std::invalid_argument("MacSessionService: k must be in [1, 30]");
  }
  advantage_ = 1.0 / static_cast<double>(std::uint64_t{1} << opts.k);

  DynamicPca& tpl = *pair_.real_pca;
  tpl.set_destruction_observer(
      [this](Aid, State, ActionId) { ++template_destructions_; });

  // Resolve the template's geography: 5 reachable states, warmed row by
  // row so freeze() captures the complete table (no overflow at run
  // time). The session vocabulary comes from crypto/service.cpp.
  const std::string session_tag = opts_.tag + "_0";
  a_open_ = act(service_action("open", opts_.tag, 0));
  a_auth_ = act("auth_" + session_tag);
  a_forge_ = act("forge_" + session_tag);
  a_forged_ = act("forged_" + session_tag);
  a_rejected_ = act("rejected_" + session_tag);

  q_start_ = tpl.start_state();
  q_idle_ = single_target(tpl.compiled_row(q_start_, a_open_));
  q_authed_ = single_target(tpl.compiled_row(q_idle_, a_auth_));
  const CompiledRow& forge_row = tpl.compiled_row(q_authed_, a_forge_);
  if (forge_row.targets.size() != 2) {
    throw std::logic_error("MacSessionService: malformed forge row");
  }
  // win carries weight 2^-k < 1/2 (k >= 1), so it is the smaller entry.
  const auto& entries = forge_row.dist.entries();
  const bool first_is_win = entries[0].second < entries[1].second;
  q_win_ = first_is_win ? entries[0].first : entries[1].first;
  q_lose_ = first_is_win ? entries[1].first : entries[0].first;
  // Closing fires the output and destroys the session (Def 2.12): the
  // successor configuration reduces back to {hub}, i.e. the start state.
  if (single_target(tpl.compiled_row(q_win_, a_forged_)) != q_start_ ||
      single_target(tpl.compiled_row(q_lose_, a_rejected_)) != q_start_) {
    throw std::logic_error(
        "MacSessionService: close does not return the template to start");
  }
  for (State q : {q_start_, q_idle_, q_authed_, q_win_, q_lose_}) {
    tpl.signature_ref(q);
  }
  tpl.set_destruction_observer(nullptr);

  snapshot_ = tpl.freeze();
  residue_ = std::make_shared<SnapshotResidue>(pair_.real_pca);

  // Session table: as many shards as the interner (both power-of-two).
  const std::size_t n = interner_.shard_count();
  table_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    table_.push_back(std::make_unique<TableShard>());
  }
  table_mask_ = static_cast<std::uint64_t>(n - 1);
}

std::shared_ptr<SnapshotPsioa> MacSessionService::worker_view() const {
  return std::make_shared<SnapshotPsioa>(snapshot_, residue_);
}

ShardedStateInterner::Handle MacSessionService::intern_key(std::uint64_t sid,
                                                           State tstate) {
  const std::uint64_t words[2] = {sid, tstate};
  return interner_.intern_tuple(words, 2);
}

void MacSessionService::retire_session_keys(Session& s) {
  if (!opts_.gc) return;
  for (std::uint8_t i = 0; i < s.key_count; ++i) {
    interner_.retire(s.keys[i]);
    s.keys[i] = ShardedStateInterner::kInvalidHandle;
  }
  s.key_count = 0;
}

OpStatus MacSessionService::open(SnapshotPsioa& view, std::uint64_t sid) {
  TableShard& sh = shard_for(sid);
  // Bounded admission: reject rather than queue without limit. The load
  // check races benignly (a burst may overshoot by the worker count).
  if (live_.load(std::memory_order_relaxed) >= opts_.max_admitted) {
    std::lock_guard<std::mutex> lk(sh.mu);
    ++sh.counters.rejected;
    return OpStatus::kRejected;
  }
  const State t = single_target(view.compiled_row(q_start_, a_open_));
  std::lock_guard<std::mutex> lk(sh.mu);
  auto [it, inserted] = sh.sessions.try_emplace(sid);
  if (!inserted) return OpStatus::kBadState;
  Session& s = it->second;
  s.phase = Phase::kOpened;
  s.rng = Xoshiro256::for_stream(opts_.seed, sid);
  if (opts_.crash_prob > 0.0) {
    s.crashed = Xoshiro256::for_stream(opts_.seed ^ kCrashSalt, sid)
                    .bernoulli(opts_.crash_prob);
  }
  s.keys[s.key_count++] = intern_key(sid, t);
  ++sh.counters.opened;
  live_.fetch_add(1, std::memory_order_relaxed);
  return OpStatus::kOk;
}

OpStatus MacSessionService::auth(SnapshotPsioa& view, std::uint64_t sid) {
  const State t = single_target(view.compiled_row(q_idle_, a_auth_));
  TableShard& sh = shard_for(sid);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.sessions.find(sid);
  if (it == sh.sessions.end()) return OpStatus::kNotFound;
  Session& s = it->second;
  if (s.crashed) return OpStatus::kCrashed;
  if (s.phase != Phase::kOpened) return OpStatus::kBadState;
  s.keys[s.key_count++] = intern_key(sid, t);
  s.phase = Phase::kAuthed;
  ++sh.counters.authed;
  return OpStatus::kOk;
}

OpStatus MacSessionService::forge(SnapshotPsioa& view, std::uint64_t sid) {
  const CompiledRow& row = view.compiled_row(q_authed_, a_forge_);
  TableShard& sh = shard_for(sid);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.sessions.find(sid);
  if (it == sh.sessions.end()) return OpStatus::kNotFound;
  Session& s = it->second;
  if (s.crashed) return OpStatus::kCrashed;
  if (s.phase != Phase::kAuthed) return OpStatus::kBadState;
  // The probabilistic step: one draw from the session's own stream, so
  // the outcome is a pure function of (seed, sid) -- GC-, worker-, and
  // interleaving-independent.
  const State t = row.sample(s.rng.uniform());
  s.win = (t == q_win_);
  s.keys[s.key_count++] = intern_key(sid, t);
  s.phase = Phase::kResolved;
  ++sh.counters.forged_attempts;
  if (s.win) ++sh.counters.forgeries;
  return OpStatus::kOk;
}

OpStatus MacSessionService::close(SnapshotPsioa& view, std::uint64_t sid,
                                  bool* was_forgery) {
  TableShard& sh = shard_for(sid);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.sessions.find(sid);
  if (it == sh.sessions.end()) return OpStatus::kNotFound;
  Session& s = it->second;
  if (s.crashed) return OpStatus::kCrashed;
  if (s.phase != Phase::kResolved) return OpStatus::kBadState;
  // Fire the output; the template returns to start (session destroyed).
  const State back = s.win
      ? single_target(view.compiled_row(q_win_, a_forged_))
      : single_target(view.compiled_row(q_lose_, a_rejected_));
  if (back != q_start_) return OpStatus::kBadState;  // unreachable
  if (was_forgery != nullptr) *was_forgery = s.win;
  sh.counters.outcome_digest ^= mix64(sid * 2 + (s.win ? 1 : 0));
  retire_session_keys(s);
  ++sh.counters.closed;
  sh.sessions.erase(it);
  live_.fetch_sub(1, std::memory_order_relaxed);
  return OpStatus::kOk;
}

OpStatus MacSessionService::abandon(std::uint64_t sid) {
  TableShard& sh = shard_for(sid);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.sessions.find(sid);
  if (it == sh.sessions.end()) return OpStatus::kNotFound;
  retire_session_keys(it->second);
  ++sh.counters.abandoned;
  sh.sessions.erase(it);
  live_.fetch_sub(1, std::memory_order_relaxed);
  return OpStatus::kOk;
}

OpStatus MacSessionService::rotate_seed(std::uint64_t sid,
                                        std::size_t attempt) {
  TableShard& sh = shard_for(sid);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.sessions.find(sid);
  if (it == sh.sessions.end()) return OpStatus::kNotFound;
  it->second.rng = Xoshiro256::for_stream(
      opts_.seed + (static_cast<std::uint64_t>(attempt) + 1) * kGoldenGamma,
      sid);
  return OpStatus::kOk;
}

bool MacSessionService::is_open(std::uint64_t sid) const {
  const TableShard& sh = shard_for(sid);
  std::lock_guard<std::mutex> lk(sh.mu);
  return sh.sessions.count(sid) != 0;
}

std::vector<ShardedStateInterner::Handle> MacSessionService::session_handles(
    std::uint64_t sid) const {
  const TableShard& sh = shard_for(sid);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.sessions.find(sid);
  std::vector<ShardedStateInterner::Handle> out;
  if (it == sh.sessions.end()) return out;
  const Session& s = it->second;
  out.assign(s.keys.begin(), s.keys.begin() + s.key_count);
  return out;
}

ShardedStateInterner::CollectResult MacSessionService::advance_epoch() {
  if (!opts_.gc) return {};
  // Compaction renumbers a shard's local handles; rewrite the stored
  // handles of every live session that points into it. Runs quiescently
  // (advance_epoch's contract); collect() calls it outside the interner's
  // shard lock, so the table locks keep the order open() takes them in.
  auto remap = [this](std::size_t shard,
                      const std::vector<ShardedStateInterner::Handle>& map) {
    for (auto& tsh : table_) {
      std::lock_guard<std::mutex> lk(tsh->mu);
      for (auto& [sid, s] : tsh->sessions) {
        (void)sid;
        for (std::uint8_t i = 0; i < s.key_count; ++i) {
          if (s.keys[i] != ShardedStateInterner::kInvalidHandle &&
              interner_.shard_of(s.keys[i]) == shard) {
            s.keys[i] = interner_.remap(s.keys[i], map);
          }
        }
      }
    }
  };
  return interner_.collect(opts_.compact_threshold, remap);
}

ServiceStats MacSessionService::stats() const {
  ServiceStats total;
  for (const auto& sh : table_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    const ServiceStats& c = sh->counters;
    total.opened += c.opened;
    total.rejected += c.rejected;
    total.authed += c.authed;
    total.forged_attempts += c.forged_attempts;
    total.forgeries += c.forgeries;
    total.closed += c.closed;
    total.abandoned += c.abandoned;
    total.outcome_digest ^= c.outcome_digest;
  }
  total.live = live_.load(std::memory_order_relaxed);
  total.template_destructions = template_destructions_;
  return total;
}

std::size_t process_rss_bytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

}  // namespace cdse
