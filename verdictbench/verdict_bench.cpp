// Verdict benchmark: four fixed-work workloads, each a real call sequence
// into the public API with an exact answer known in advance, timed from
// the factories to the verdict at a 1-worker and a 2-worker pool.
//
//   mac_seq     E7 one-time-MAC stack (k = 6) checked by
//               check_implementation_sampled over {probe} x {forgery
//               word, uniform(12, local)}: draw-bound sampling over a
//               narrow trace support.
//   ledger_seq  the dynamic 2-subchain ledger PCA against its static
//               spec, sequential_balance_epsilon under uniform(8): wide
//               support, many looks, trace insight heavy.
//   fork_exact  width-128 against width-2 fork product at depth 16, one
//               ParallelConeEngine with bisimulation reduction per side:
//               the exact path, no sampler.
//   soak        E18 run_soak, 300,000 MAC-session lifecycles: service,
//               sharded interner, epoch GC and pool barriers, no
//               scheduler layer.
//
// Usage:
//   verdict_bench --workload W --seed N --seconds S --trace 0|1
//                 [--span-file PATH]
//
// A run first keeps every CPU busy for 2.5 s, then does about 1.5 s of
// warm-up repetitions (seed + 0, checked but not timed), then a fixed
// number of timed repetitions, sized from --seconds by each workload's
// nominal repetition time, so every run does the same work and only its
// duration depends on the host. Repetition i uses seed + i once at 1
// worker and once at 2 workers, in alternating order so both pool sizes
// see the same host phase. Every verdict is checked against its exact
// answer outside the timed region.
//
// The 1-worker verdict and the set-up are single-threaded, so they are
// timed in process CPU seconds: on a virtual machine whose host steals
// its CPUs, wall time there measures the host, while CPU time excludes
// steal and still counts all of the program's work. The 2-worker verdict
// is timed in wall seconds, because its point is the time to the verdict
// when the work is split.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones, each measured from outside the
// library around its public entry points. The traced run keeps spans
// (name, layer, start, end, parent, root id) in memory and writes them
// as Chrome trace-event JSON to --span-file at exit.

#include <sys/mman.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/pairs.hpp"
#include "impl/balance.hpp"
#include "impl/implementation.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/compose.hpp"
#include "psioa/explicit_psioa.hpp"
#include "sched/exact_engine.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "sched/seq_estimator.hpp"
#include "secure/adversary.hpp"
#include "service/session_service.hpp"
#include "service/soak.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cdse;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The process's high-water resident set (VmHWM) since start or since the
/// last reset_peak_rss(), in MiB. getrusage's ru_maxrss is not used: it
/// keeps the high-water mark of the image the process was forked from,
/// which can exceed this one's.
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Sets VmHWM back to the current resident set.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset VmHWM");
}

/// Keeps the calibration loop's result observable.
std::atomic<std::uint64_t> calibration_sink{0};

/// Peak resident set of the program's work, in MiB: the largest VmHWM
/// seen before each host calibration, whose own table is unmapped and
/// the high-water mark reset afterwards, and at the end of the run.
double program_peak_mb = 0.0;

/// Host-speed probe: a fixed dependent chain of arithmetic and random
/// reads over a 4 MiB table. It runs no library code, so a slow host
/// shows here and a slow program does not. The table is mapped for the
/// call only, outside malloc, so it leaves neither resident memory nor
/// allocator state behind, and it is kept out of the peak resident set.
double host_calibration() {
  program_peak_mb = std::max(program_peak_mb, vm_hwm_mb());
  constexpr std::size_t kEntries = std::size_t{1} << 20;
  constexpr std::size_t kBytes = kEntries * sizeof(std::uint32_t);
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("calibration mmap failed");
  auto* table = static_cast<std::uint32_t*>(mem);
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  for (std::size_t i = 0; i < kEntries; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[i] = static_cast<std::uint32_t>(x >> 16);
  }
  const auto t0 = Clock::now();
  x = 0x13198a2e03707344ULL;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < (std::size_t{1} << 21); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = acc * 6364136223846793005ULL + table[(x ^ acc) & (kEntries - 1)];
  }
  const double seconds = since(t0);
  calibration_sink.store(acc, std::memory_order_relaxed);
  munmap(mem, kBytes);
  reset_peak_rss();
  return seconds;
}

/// Keeps every CPU busy for `seconds` before anything is timed. After the
/// machine has idled, the hypervisor takes seconds to give its idle
/// virtual CPUs full service again; until then a 2-worker pool runs no
/// faster than one worker, and 2-worker timings would depend on how long
/// the host idled before the run.
void wake_cpus(double seconds) {
  std::vector<std::jthread> spinners;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  auto spin = [](auto&& keep_going) {
    std::uint64_t x = 1;
    while (keep_going()) {
      for (int k = 0; k < 1024; ++k) x = x * 6364136223846793005ULL + 1;
    }
    calibration_sink.fetch_add(x, std::memory_order_relaxed);
  };
  for (unsigned i = 1; i < n; ++i) {
    spinners.emplace_back([spin](std::stop_token stop) {
      spin([&] { return !stop.stop_requested(); });
    });
  }
  const auto t0 = Clock::now();
  spin([&] { return since(t0) < seconds; });
}

// -- spans --------------------------------------------------------------------

/// In-memory span recorder for the traced run. A span opened while
/// another is open is its child and shares its root's id, so every span
/// of one verdict or one probe carries the same id.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::uint64_t id = 0;
  };

  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Opens a span when the log is enabled and `on` holds; the returned
  /// scope closes it.
  Scope open(const std::string& name, const std::string& layer,
             bool on = true) {
    if (!enabled_ || !on) return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.layer = layer;
    s.start_us = now_us();
    if (!stack_.empty()) {
      s.parent = stack_.back();
      s.id = spans_[static_cast<std::size_t>(s.parent)].id;
    } else {
      s.id = ++next_id_;
    }
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return Scope(this, stack_.back());
  }

  /// Total and self time per layer: self time is a span's duration minus
  /// what its direct children cover.
  std::map<std::string, std::pair<double, double>> layer_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = spans_[i].end_us - spans_[i].start_us;
      auto& [total, self] = out[spans_[i].layer];
      total += d * 1e-6;
      self += (d - child[i]) * 1e-6;
    }
    return out;
  }

  /// Chrome trace-event JSON (complete events), openable in Perfetto.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"id\": %llu, \"parent\": %d}}%s\n",
                    s.name.c_str(), s.layer.c_str(), s.start_us,
                    s.end_us - s.start_us,
                    static_cast<unsigned long long>(s.id), s.parent,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t next_id_ = 0;
};

// -- metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The per-layer metrics, in emission order. A layer the workload's
/// verdict does not use keeps the value 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"psioa.prepare_s", "s"},
    {"psioa.snapshot_states", "count"},
    {"psioa.snapshot_rows", "count"},
    {"util.intern_bytes", "bytes"},
    {"bisim.reduce_s", "s"},
    {"bisim.states", "count"},
    {"bisim.blocks", "count"},
    {"exact.fdist_s", "s"},
    {"exact.frames_pushed", "count"},
    {"exact.leaves", "count"},
    {"exact.splits", "count"},
    {"batch.sample_s", "s"},
    {"batch.action_draws", "count"},
    {"batch.singleton_skips", "count"},
    {"batch.row_lookups", "count"},
    {"batch.distinct_executions", "count"},
    {"batch.class_steps", "count"},
    {"insight.share", "fraction"},
    {"seq.trials", "count"},
    {"seq.draws", "count"},
    {"seq.looks", "count"},
    {"seq.stages", "count"},
    {"seq.driver_s", "s"},
    {"seq.look_us", "us"},
    {"pool.handoff_us", "us"},
    {"pool.busy_w2", "fraction"},
    {"soak.op_mean_ns.open", "ns"},
    {"soak.op_mean_ns.auth", "ns"},
    {"soak.op_mean_ns.forge", "ns"},
    {"soak.op_mean_ns.close", "ns"},
    {"soak.epochs", "count"},
    {"soak.gc_bytes_reclaimed", "bytes"},
    {"soak.interner_keys", "count"},
    {"soak.retries", "count"},
    {"soak.gc_share", "fraction"},
    {"w3.verdict_s", "s"},
    {"w3.ops_per_s", "1/s"},
    {"host.calib_s", "s"},
};

class LayerMetrics {
 public:
  LayerMetrics() {
    for (const auto& [name, unit] : kLayerMetrics) {
      values_.push_back({name, unit, 0.0});
    }
  }
  void set(const std::string& name, double v) { at(name).value = v; }
  void add(const std::string& name, double v) { at(name).value += v; }
  const std::vector<Metric>& all() const { return values_; }

 private:
  Metric& at(const std::string& name) {
    for (Metric& m : values_) {
      if (m.name == name) return m;
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }
  std::vector<Metric> values_;
};

// -- repetitions --------------------------------------------------------------

/// One verdict: its timing, its work counts, and whether it matched the
/// exact answer (filled by the workload's check, outside the timing).
struct Rep {
  std::size_t workers = 0;
  std::uint64_t seed = 0;
  bool warmup = false;
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Work counts.
  std::uint64_t trials = 0;
  std::uint64_t draws = 0;
  std::uint64_t looks = 0;   ///< where the verdict's report carries them
  std::uint64_t frames = 0;
  std::uint64_t digest = 0;  ///< soak outcome, or fork_exact's f-dist
  std::uint64_t requests_ok = 0;  ///< soak: successful requests
  // Outcome, checked against the exact answer.
  std::vector<SeqVerdict> verdicts;  ///< sampled workloads, one per cell
  bool exact_zero = false;           ///< fork_exact
  bool soak_complete = false;        ///< soak
  std::uint64_t soak_failures = 0;
  SoakReport soak;                   ///< soak, for the per-layer means
  bool ok = false;
};

/// Everything a probe needs from the run that preceded it.
struct ProbeContext {
  std::uint64_t seed = 0;  ///< the first measured repetition's seed
  ThreadPool& pool1;
  ThreadPool& pool2;
  SpanLog& spans;
  bool trace = false;
  double verdict_w1_s = 0.0;  ///< median CPU seconds, 1-worker repetitions
  double setup_s = 0.0;       ///< median CPU seconds of one set-up
  const std::vector<Rep>& reps;
};

/// The repetition at `workers` and `seed`, or null.
const Rep* find_rep(const std::vector<Rep>& reps, std::size_t workers,
                    std::uint64_t seed) {
  for (const Rep& r : reps) {
    if (r.workers == workers && r.seed == seed) return &r;
  }
  return nullptr;
}

/// Work counts printed by every run; two runs of one build at one seed
/// must print identical records.
struct Record {
  std::vector<std::pair<std::string, std::string>> fields;
  void put(const std::string& k, std::uint64_t v) {
    fields.emplace_back(k, std::to_string(v));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Nominal seconds of one 1-worker plus one 2-worker repetition on the
  /// reference host; fixes the repetition count for a given --seconds.
  virtual double nominal_pair_s() const = 0;
  /// Set-ups per timed set-up sample (sub-millisecond set-ups are timed
  /// as a batch).
  virtual std::size_t setup_batch() const = 0;
  /// One repetition from the factories to the verdict on `pool`. Fills
  /// the work counts and the raw outcome of `rep`; the caller times it.
  virtual void verdict(ThreadPool& pool, Rep& rep) = 0;
  /// One set-up as the verdict performs it. The caller keeps the result
  /// alive until its timing stops, so tear-down is not counted.
  virtual std::shared_ptr<void> setup(std::uint64_t seed) = 0;
  /// Computes the exact answers (once, outside the timed region) and
  /// sets rep.ok on every repetition. Returns false with `why` when the
  /// exact answer itself differs from the known value.
  virtual bool check(std::vector<Rep>& reps, ThreadPool& pool,
                     std::string& why) = 0;
  /// Work-identity record at the probe seed; with ctx.trace, also the
  /// per-layer metrics. Returns false with `why` on a self-check
  /// failure.
  virtual bool probe(ProbeContext& ctx, Record& rec, LayerMetrics& m,
                     std::string& why) = 0;
};

// -- sampled workloads (mac_seq, ledger_seq) ----------------------------------

/// A constant-perception insight: the same sampling work with the trace
/// computation removed, the baseline of insight.share.
class ConstantInsight : public InsightFunction {
 public:
  Perception apply(Psioa&, const ExecFragment&) const override { return {}; }
  std::string name() const override { return "constant"; }
};

/// One (environment, scheduler) cell of a sampled verdict: the two
/// closed systems, the scheduler both sides use, and the per-cell policy
/// and seed offset the verdict gives it.
struct Cell {
  std::string label;
  PsioaFactory lhs;
  PsioaFactory rhs;
  SchedulerFactory sched;
  SequentialPolicy policy;
  std::uint64_t seed_offset = 0;
  Rational exact_eps;  ///< the known answer
};

class SampledWorkload : public Workload {
 public:
  SampledWorkload(std::size_t depth, double threshold)
      : depth_(depth), threshold_(threshold) {}

  /// The factories plus ParallelSampler::prepare for every side the
  /// verdict prepares.
  std::shared_ptr<void> setup(std::uint64_t) override {
    const std::vector<Cell> cs = cells();
    auto held = std::make_shared<std::vector<ParallelSampler>>();
    held->reserve(2 * cs.size());
    WarmupPlan plan;
    plan.horizon = depth_;
    for (const Cell& c : cs) {
      held->emplace_back(c.lhs, c.sched);
      held->back().prepare(plan, depth_);
      held->emplace_back(c.rhs, c.sched);
      held->back().prepare(plan, depth_);
    }
    return held;
  }

  bool check(std::vector<Rep>& reps, ThreadPool&, std::string& why) override {
    const std::vector<Cell> cs = cells();
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const Rational eps = exact_epsilon(cs[i]);
      if (!(eps == cs[i].exact_eps)) {
        why = "exact eps of cell " + cs[i].label + " is " + eps.to_string() +
              ", expected " + cs[i].exact_eps.to_string();
        return false;
      }
    }
    for (Rep& r : reps) {
      r.ok = r.verdicts.size() == cs.size();
      for (std::size_t i = 0; r.ok && i < cs.size(); ++i) {
        const SeqVerdict want = cs[i].exact_eps.to_double() > threshold_
                                    ? SeqVerdict::kAboveThreshold
                                    : SeqVerdict::kBelowThreshold;
        r.ok = r.verdicts[i] == want;
      }
    }
    return true;
  }

  bool probe(ProbeContext& ctx, Record& rec, LayerMetrics& m,
             std::string& why) override {
    const std::vector<Cell> cs = cells();
    TraceInsight trace;
    ConstantInsight constant;
    WarmupPlan plan;
    plan.horizon = depth_;

    // The verdict cell by cell, at both pool sizes: the same calls the
    // verdict makes, so trials and draws must equal the timed
    // repetition at this seed.
    for (ThreadPool* pool : {&ctx.pool1, &ctx.pool2}) {
      std::uint64_t trials = 0, draws = 0, looks = 0, stages = 0;
      std::vector<SequentialEpsilon> per_cell;
      {
        auto span = ctx.spans.open("verdict_by_cell_w" +
                                       std::to_string(pool->size()),
                                   "seq");
        for (const Cell& c : cs) {
          per_cell.push_back(sequential_balance_epsilon(
              c.lhs, c.sched, c.rhs, c.sched, trace, c.policy,
              ctx.seed + c.seed_offset, depth_, *pool,
              SamplingMode::kBatched));
          trials += per_cell.back().trials;
          draws += per_cell.back().draws;
          looks += per_cell.back().looks;
          stages += per_cell.back().stages;
        }
      }
      const Rep* timed = find_rep(ctx.reps, pool->size(), ctx.seed);
      if (timed == nullptr || timed->trials != trials ||
          timed->draws != draws) {
        why = "cell-by-cell replay disagrees with the timed verdict at w" +
              std::to_string(pool->size());
        return false;
      }
      const std::string w = "w" + std::to_string(pool->size()) + ".";
      rec.put(w + "seq.trials", trials);
      rec.put(w + "seq.draws", draws);
      rec.put(w + "seq.looks", looks);
      rec.put(w + "seq.stages", stages);
      if (pool == &ctx.pool1) {
        final_trials_.clear();
        for (const SequentialEpsilon& se : per_cell) {
          final_trials_.push_back(se.trials);
        }
        m.set("seq.trials", static_cast<double>(trials));
        m.set("seq.draws", static_cast<double>(draws));
        m.set("seq.looks", static_cast<double>(looks));
        m.set("seq.stages", static_cast<double>(stages));
      }
    }

    // Prepared samplers for every side: the psioa layer's share, median
    // of five preparations.
    std::vector<std::unique_ptr<ParallelSampler>> samplers;
    std::vector<double> prepare_s;
    for (int k = 0; k < 5; ++k) {
      auto span = ctx.spans.open("prepare", "psioa");
      samplers.clear();
      const auto t0 = Clock::now();
      for (const Cell& c : cs) {
        for (const PsioaFactory* side : {&c.lhs, &c.rhs}) {
          samplers.push_back(
              std::make_unique<ParallelSampler>(*side, c.sched));
          samplers.back()->prepare(plan, depth_);
        }
      }
      prepare_s.push_back(since(t0));
    }
    m.set("psioa.prepare_s", median(prepare_s));
    for (const auto& s : samplers) {
      m.add("psioa.snapshot_states",
            static_cast<double>(s->snapshot()->state_count()));
      m.add("psioa.snapshot_rows",
            static_cast<double>(s->snapshot()->row_count()));
      m.add("util.intern_bytes",
            static_cast<double>(s->residue_intern_stats().arena_bytes));
    }

    // One-shot batched samples at the verdict's final trials per side.
    struct Shot {
      double seconds = 0.0;
      BatchStats stats;
      std::vector<Disc<Perception, double>> fdists;
    };
    auto one_shot = [&](const InsightFunction& f, ThreadPool& pool,
                        const std::string& name) {
      Shot shot;
      auto span = ctx.spans.open(name, "batch");
      for (std::size_t i = 0; i < samplers.size(); ++i) {
        const std::size_t cell = i / 2;
        const auto t0 = Clock::now();
        shot.fdists.push_back(samplers[i]->sample_fdist(
            f, final_trials_[cell], ctx.seed + cs[cell].seed_offset, depth_,
            pool, SamplingMode::kBatched));
        shot.seconds += since(t0);
        shot.stats += samplers[i]->last_batch_stats();
      }
      return shot;
    };
    const Shot w1 = one_shot(trace, ctx.pool1, "sample_fdist_w1");
    const Shot w2 = one_shot(trace, ctx.pool2, "sample_fdist_w2");
    rec.put("w1.batch.distinct_executions", w1.stats.distinct_executions);
    rec.put("w2.batch.distinct_executions", w2.stats.distinct_executions);
    if (!ctx.trace) return true;

    // Trace insight against a constant one on the same one-shot call,
    // alternating, three of each.
    std::vector<double> with_trace{w1.seconds}, with_constant;
    for (int k = 0; k < 3; ++k) {
      with_constant.push_back(
          one_shot(constant, ctx.pool1, "sample_fdist_constant").seconds);
      if (k < 2) {
        with_trace.push_back(
            one_shot(trace, ctx.pool1, "sample_fdist_w1").seconds);
      }
    }
    const double sample_s = median(with_trace);
    m.set("batch.sample_s", sample_s);
    m.set("insight.share", 1.0 - median(with_constant) / sample_s);
    m.set("seq.driver_s", ctx.verdict_w1_s - ctx.setup_s - sample_s);
    m.set("batch.action_draws", static_cast<double>(w1.stats.action_draws));
    m.set("batch.singleton_skips",
          static_cast<double>(w1.stats.singleton_skips));
    m.set("batch.row_lookups", static_cast<double>(w2.stats.row_lookups));
    m.set("batch.distinct_executions",
          static_cast<double>(w2.stats.distinct_executions));
    m.set("batch.class_steps", static_cast<double>(w2.stats.class_steps));
    rec.put("w1.batch.row_lookups", w1.stats.row_lookups);
    rec.put("w1.batch.class_steps", w1.stats.class_steps);

    // One look per cell on the final paired tallies, each with a fresh
    // estimator (a latched estimator returns at once).
    {
      auto span = ctx.spans.open("look", "seq");
      std::vector<Disc<Perception, double>> counts;
      for (std::size_t i = 0; i < w1.fdists.size(); ++i) {
        const double n = static_cast<double>(final_trials_[i / 2]);
        Disc<Perception, double> c;
        for (const auto& [p, q] : w1.fdists[i].entries()) {
          c.add(p, std::round(q * n));
        }
        counts.push_back(std::move(c));
      }
      constexpr int kLooks = 200;
      const auto t0 = Clock::now();
      for (int k = 0; k < kLooks; ++k) {
        for (std::size_t cell = 0; cell < cs.size(); ++cell) {
          SeqEstimator est(cs[cell].policy);
          const SeqDecision d =
              est.look(counts[2 * cell], 0, counts[2 * cell + 1], 0,
                       final_trials_[cell], 0);
          if (d.looks != 1) throw std::logic_error("look not counted");
        }
      }
      m.set("seq.look_us", since(t0) * 1e6 / kLooks);
    }
    return true;
  }

 protected:
  virtual std::vector<Cell> cells() const = 0;

  /// The cell's exact epsilon: exact f-dists of both sides, then the
  /// balance distance.
  Rational exact_epsilon(const Cell& c) const {
    TraceInsight trace;
    PsioaPtr l = c.lhs();
    PsioaPtr r = c.rhs();
    SchedulerPtr sl = c.sched();
    SchedulerPtr sr = c.sched();
    return balance_distance(exact_fdist(*l, *sl, trace, depth_),
                            exact_fdist(*r, *sr, trace, depth_));
  }

  std::size_t depth_;
  double threshold_;
  std::vector<std::size_t> final_trials_;  ///< per cell, at 1 worker
};

// E7's one-time MAC at k = 6 under a probe environment and a sink
// adversary. The forgery word decides within the first stages; the
// uniform scheduler's cell commits about 4.19M trials per side.
class MacSeq : public SampledWorkload {
 public:
  MacSeq() : SampledWorkload(12, 1.0 / 256) {}
  double nominal_pair_s() const override { return 0.45; }
  std::size_t setup_batch() const override { return 8; }

  void verdict(ThreadPool& pool, Rep& rep) override {
    const RealIdealPair mac = make_otmac_pair(6, kTag);
    const PsioaFactory real = [mac] { return mac.real.ptr(); };
    const PsioaFactory ideal = [mac] { return mac.ideal.ptr(); };
    TraceInsight trace;
    const SampledImplementationReport report = check_implementation_sampled(
        real, ideal, {{"probe", make_env}}, schedulers(), same_scheduler(),
        trace, depth_, pool, policy(), rep.seed, SamplingMode::kBatched);
    for (const auto& row : report.rows) {
      rep.verdicts.push_back(row.verdict);
      rep.trials += row.trials;
    }
    rep.draws = report.total_draws;
  }

  /// The exact answer through check_implementation_parallel as well, the
  /// grid checker the sampled verdict is the estimate of.
  bool check(std::vector<Rep>& reps, ThreadPool& pool,
             std::string& why) override {
    const RealIdealPair mac = make_otmac_pair(6, kTag);
    TraceInsight trace;
    const ImplementationReport exact = check_implementation_parallel(
        [mac] { return mac.real.ptr(); }, [mac] { return mac.ideal.ptr(); },
        {{"probe", make_env}}, schedulers(), same_scheduler(), trace, depth_,
        pool);
    const std::vector<Cell> cs = cells();
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (i >= exact.rows.size() || !(exact.rows[i].eps == cs[i].exact_eps)) {
        why = "check_implementation_parallel disagrees with the known eps";
        return false;
      }
    }
    return SampledWorkload::check(reps, pool, why);
  }

 protected:
  std::vector<Cell> cells() const override {
    const RealIdealPair mac = make_otmac_pair(6, kTag);
    const std::vector<LabeledSchedulerFactory> scheds = schedulers();
    const Rational exact[] = {Rational(1, 64), Rational(509, 32768)};
    SequentialPolicy cell_policy = policy();
    cell_policy.delta /= static_cast<double>(scheds.size());
    std::vector<Cell> out;
    for (std::size_t i = 0; i < scheds.size(); ++i) {
      Cell c;
      c.label = scheds[i].label;
      c.lhs = [mac] { return compose(make_env(), mac.real.ptr()); };
      c.rhs = [mac] { return compose(make_env(), mac.ideal.ptr()); };
      c.sched = scheds[i].make;
      c.policy = cell_policy;
      c.seed_offset = static_cast<std::uint64_t>(i) * kGolden;
      c.exact_eps = exact[i];
      out.push_back(c);
    }
    return out;
  }

 private:
  static constexpr const char* kTag = "vbm";

  static PsioaPtr make_env() {
    const std::string t = kTag;
    auto env = make_probe_env_matching("env_" + t, {act("auth_" + t)},
                                       acts({"rejected_" + t}),
                                       act("forged_" + t), act("acc_" + t));
    auto adv = make_sink_adversary("adv_" + t, {}, acts({"forge_" + t}));
    return compose(env, adv);
  }

  static std::vector<LabeledSchedulerFactory> schedulers() {
    const std::string t = kTag;
    return {{"forgery", [t]() -> SchedulerPtr {
               return std::make_shared<SequenceScheduler>(
                   std::vector<ActionId>{act("auth_" + t), act("forge_" + t),
                                         act("forged_" + t), act("acc_" + t)},
                   /*local_only=*/true);
             }},
            {"uniform", []() -> SchedulerPtr {
               return std::make_shared<UniformScheduler>(12, true);
             }}};
  }

  SequentialPolicy policy() const {
    return SequentialPolicy::deciding(threshold_, std::size_t{1} << 23, 1e-3);
  }
};

// The paper's motivating case: a ledger PCA that creates its two
// subchains at run time, against the static composition that has them
// from the start.
class LedgerSeq : public SampledWorkload {
 public:
  LedgerSeq() : SampledWorkload(8, 0.1) {}
  double nominal_pair_s() const override { return 0.4; }
  std::size_t setup_batch() const override { return 16; }

  void verdict(ThreadPool& pool, Rep& rep) override {
    const Cell c = cells().front();
    TraceInsight trace;
    const SequentialEpsilon se = sequential_balance_epsilon(
        c.lhs, c.sched, c.rhs, c.sched, trace, c.policy, rep.seed, depth_,
        pool, SamplingMode::kBatched);
    rep.verdicts.push_back(se.verdict);
    rep.trials = se.trials;
    rep.draws = se.draws;
    rep.looks = se.looks;
  }

 protected:
  std::vector<Cell> cells() const override {
    Cell c;
    c.label = "uniform";
    c.lhs = [] { return make_ledger_system(2, "vbl").dynamic; };
    c.rhs = [] { return make_ledger_system(2, "vbl").static_spec; };
    c.sched = [] { return std::make_shared<UniformScheduler>(8, false); };
    c.policy = SequentialPolicy::deciding(threshold_, std::size_t{1} << 20,
                                          1e-3);
    c.exact_eps = Rational(1, 2);
    return {c};
  }
};

// -- fork_exact ---------------------------------------------------------------

/// One fork: an idle state branches uniformly (internal action) into
/// `width` mid states that all emit the same tick back to idle. The mids
/// are mutually bisimilar, so the quotient of a product of two forks has
/// 4 blocks at every width while the raw product has (1 + width)^2
/// states.
PsioaPtr make_fork(const std::string& tag, std::size_t width) {
  auto fork = std::make_shared<ExplicitPsioa>("fork_" + tag);
  const ActionId branch = act("branch_" + tag);
  const ActionId tick = act("tick_" + tag);
  const State idle = fork->add_state("idle");
  Signature sig_idle;
  sig_idle.internal = {branch};
  fork->set_signature(idle, sig_idle);
  fork->set_start(idle);
  Signature sig_mid;
  sig_mid.out = {tick};
  StateDist spread;
  for (std::size_t i = 0; i < width; ++i) {
    const State mid = fork->add_state("mid" + std::to_string(i));
    fork->set_signature(mid, sig_mid);
    fork->add_step(mid, tick, idle);
    spread.add(mid, Rational(1, static_cast<std::int64_t>(width)));
  }
  fork->add_transition(idle, branch, spread);
  fork->validate();
  return fork;
}

/// FNV-1a digest of an exact f-dist, perceptions and exact weights in
/// entry order, so a repetition's answer can be compared with the
/// reference after the timing without keeping the distribution.
std::uint64_t fdist_digest(const ExactDisc<Perception>& d) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [perception, w] : d.entries()) {
    const std::uint64_t len = perception.size();
    const std::int64_t frac[2] = {w.num(), w.den()};
    mix(&len, sizeof len);
    mix(perception.data(), perception.size());
    mix(frac, sizeof frac);
  }
  return h;
}

class ForkExact : public Workload {
 public:
  double nominal_pair_s() const override { return 0.5; }
  std::size_t setup_batch() const override { return 1; }

  void verdict(ThreadPool& pool, Rep& rep) override {
    Engines e = prepared(rep.seed, ReductionPolicy::bisimulation());
    TraceInsight trace;
    const ExactDisc<Perception> wide = e.wide->exact_fdist(trace, kDepth, pool);
    const ExactDisc<Perception> narrow =
        e.narrow->exact_fdist(trace, kDepth, pool);
    rep.exact_zero = balance_distance(wide, narrow) == Rational(0);
    rep.digest = fdist_digest(wide);
    rep.frames = e.wide->last_stats().frames_pushed +
                 e.narrow->last_stats().frames_pushed;
  }

  std::shared_ptr<void> setup(std::uint64_t seed) override {
    return std::make_shared<Engines>(
        prepared(seed, ReductionPolicy::bisimulation()));
  }

  /// eps == 0 holds for any bug that hits both sides alike, so each
  /// repetition's f-dist must also equal the reference one: the width-1
  /// product, enumerated without reduction at 1 worker. Its mids are the
  /// same bisimilar class, so its trace distribution is the same by
  /// construction, and it has no branching to reduce (the raw cone of
  /// width 2 already doubles at every branch step).
  bool check(std::vector<Rep>& reps, ThreadPool&, std::string&) override {
    ParallelConeEngine ref(product(1), scheduler(), ReductionPolicy::none());
    ref.prepare(warmup(0), kDepth);
    ThreadPool serial(1);
    TraceInsight trace;
    const std::uint64_t want =
        fdist_digest(ref.exact_fdist(trace, kDepth, serial));
    for (Rep& r : reps) r.ok = r.exact_zero && r.digest == want;
    return true;
  }

  bool probe(ProbeContext& ctx, Record& rec, LayerMetrics& m,
             std::string& why) override {
    for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      const Rep* timed = find_rep(ctx.reps, workers, ctx.seed);
      if (timed == nullptr) {
        why = "no timed repetition at the probe seed";
        return false;
      }
      const std::string w = "w" + std::to_string(workers) + ".exact.";
      rec.put(w + "frames_pushed", timed->frames);
      rec.put(w + "fdist_digest", timed->digest);
    }
    if (!ctx.trace) return true;

    TraceInsight trace;
    constexpr int kRepeats = 5;
    // prepare() without reduction (warm-up and freeze) and with it; the
    // difference is the bisimulation layer.
    std::vector<double> raw, reduced;
    for (int k = 0; k < kRepeats; ++k) {
      {
        auto span = ctx.spans.open("prepare_none", "psioa");
        const auto t0 = Clock::now();
        prepared(ctx.seed, ReductionPolicy::none());
        raw.push_back(since(t0));
      }
      {
        auto span = ctx.spans.open("prepare_bisimulation", "bisim");
        const auto t0 = Clock::now();
        prepared(ctx.seed, ReductionPolicy::bisimulation());
        reduced.push_back(since(t0));
      }
    }
    m.set("psioa.prepare_s", median(raw));
    m.set("bisim.reduce_s", median(reduced) - median(raw));

    WarmupPlan plan = warmup(ctx.seed);
    for (std::size_t width : {kWide, kNarrow}) {
      ParallelSampler s(product(width), scheduler());
      s.prepare(plan, kDepth);
      m.add("psioa.snapshot_states",
            static_cast<double>(s.snapshot()->state_count()));
      m.add("psioa.snapshot_rows",
            static_cast<double>(s.snapshot()->row_count()));
      m.add("util.intern_bytes",
            static_cast<double>(s.residue_intern_stats().arena_bytes));
    }

    Engines e = prepared(ctx.seed, ReductionPolicy::bisimulation());
    std::vector<double> fdist;
    ConeStats stats;
    for (int k = 0; k < kRepeats; ++k) {
      auto span = ctx.spans.open("exact_fdist_w1", "exact");
      const auto t0 = Clock::now();
      e.wide->exact_fdist(trace, kDepth, ctx.pool1);
      stats = e.wide->last_stats();
      e.narrow->exact_fdist(trace, kDepth, ctx.pool1);
      stats += e.narrow->last_stats();
      fdist.push_back(since(t0));
    }
    m.set("exact.fdist_s", median(fdist));
    m.set("exact.frames_pushed", static_cast<double>(stats.frames_pushed));
    m.set("exact.leaves", static_cast<double>(stats.leaves));
    m.set("exact.splits", static_cast<double>(stats.splits));
    m.set("bisim.states", static_cast<double>(stats.quotient_states));
    m.set("bisim.blocks", static_cast<double>(stats.quotient_blocks));
    return true;
  }

 private:
  static constexpr std::size_t kDepth = 16;
  static constexpr std::size_t kWide = 128;
  static constexpr std::size_t kNarrow = 2;

  struct Engines {
    std::unique_ptr<ParallelConeEngine> wide;
    std::unique_ptr<ParallelConeEngine> narrow;
  };

  static PsioaFactory product(std::size_t width) {
    return [width]() -> PsioaPtr {
      return compose(make_fork("vbfa", width), make_fork("vbfb", width));
    };
  }
  static SchedulerFactory scheduler() {
    return [] { return std::make_shared<UniformScheduler>(kDepth); };
  }
  static WarmupPlan warmup(std::uint64_t seed) {
    WarmupPlan plan;
    plan.horizon = kDepth;
    plan.seed = seed;
    return plan;
  }
  /// Both engines built and prepared: the verdict's set-up.
  static Engines prepared(std::uint64_t seed, const ReductionPolicy& policy) {
    Engines e;
    e.wide = std::make_unique<ParallelConeEngine>(product(kWide), scheduler(),
                                                  policy);
    e.narrow = std::make_unique<ParallelConeEngine>(product(kNarrow),
                                                    scheduler(), policy);
    const WarmupPlan plan = warmup(seed);
    e.wide->prepare(plan, kDepth);
    e.narrow->prepare(plan, kDepth);
    return e;
  }
};

// -- soak ---------------------------------------------------------------------

class Soak : public Workload {
 public:
  double nominal_pair_s() const override { return 0.9; }
  std::size_t setup_batch() const override { return 32; }

  void verdict(ThreadPool& pool, Rep& rep) override {
    rep.soak = run_soak(options(pool.size(), rep.seed, true));
    rep.digest = rep.soak.outcome_digest;
    rep.soak_complete = rep.soak.complete;
    for (const SoakOpStats& os : rep.soak.ops) rep.soak_failures += os.failures;
    rep.trials = rep.soak.sessions_completed;
    rep.requests_ok = requests_ok(rep.soak);
  }

  /// Service construction (template warm-up and freeze, sharded tables)
  /// plus a 1-worker pool: what run_soak builds before its first wave.
  std::shared_ptr<void> setup(std::uint64_t seed) override {
    const SoakOptions o = options(1, seed, true);
    MacSessionService::Options so;
    so.k = o.k;
    so.seed = o.seed;
    so.gc = o.gc;
    so.compact_threshold = o.compact_threshold;
    so.max_admitted = (o.hold_waves + 2) * o.wave;
    struct Held {
      explicit Held(const MacSessionService::Options& so, std::size_t workers)
          : svc(so), pool(workers) {}
      MacSessionService svc;
      ThreadPool pool;
    };
    return std::make_shared<Held>(so, o.workers);
  }

  bool check(std::vector<Rep>& reps, ThreadPool&, std::string&) override {
    std::map<std::uint64_t, std::uint64_t> digest_w1;
    for (const Rep& r : reps) {
      if (r.workers == 1) digest_w1[r.seed] = r.digest;
    }
    for (Rep& r : reps) {
      const auto it = digest_w1.find(r.seed);
      r.ok = r.soak_complete && r.soak_failures == 0 &&
             r.trials == kSessions && it != digest_w1.end() &&
             it->second == r.digest;
    }
    return true;
  }

  bool probe(ProbeContext& ctx, Record& rec, LayerMetrics& m,
             std::string&) override {
    std::uint64_t digests = 0;
    for (const Rep& r : ctx.reps) {
      if (r.workers > 2) continue;
      if (r.seed == ctx.seed && r.workers == 1) {
        rec.put("soak.digest", r.digest);
      }
      digests += r.digest * (r.seed | 1);
    }
    rec.put("soak.digest_all", digests);
    if (!ctx.trace) return true;

    // Exact per-op means, epochs and GC volume from the 2-worker soaks.
    std::vector<double> mean[kSoakOpClasses], epochs, reclaimed, keys;
    for (const Rep& r : ctx.reps) {
      if (r.warmup || r.workers != 2) continue;
      for (std::size_t op = 0; op < kSoakOpClasses; ++op) {
        mean[op].push_back(r.soak.ops[op].latency.mean_ns());
      }
      epochs.push_back(static_cast<double>(r.soak.epochs));
      reclaimed.push_back(static_cast<double>(r.soak.gc_bytes_reclaimed));
      keys.push_back(static_cast<double>(r.soak.intern.keys));
    }
    for (std::size_t op = 0; op < kSoakOpClasses; ++op) {
      m.set(std::string("soak.op_mean_ns.") + soak_op_name(op),
            median(mean[op]));
    }
    m.set("soak.epochs", median(epochs));
    m.set("soak.gc_bytes_reclaimed", median(reclaimed));
    m.set("soak.interner_keys", median(keys));

    // GC's share of 2-worker throughput: soaks with GC on and off,
    // alternating so both see the same host phase.
    {
      std::vector<double> on, off;
      for (std::uint64_t k = 0; k < 3; ++k) {
        for (bool gc : {true, false}) {
          auto span = ctx.spans.open(
              gc ? "run_soak_gc_on_w2" : "run_soak_gc_off_w2", "service");
          const auto t0 = Clock::now();
          const SoakReport rep = run_soak(options(2, ctx.seed + k, gc));
          (gc ? on : off)
              .push_back(static_cast<double>(requests_ok(rep)) / since(t0));
        }
      }
      m.set("soak.gc_share", 1.0 - median(on) / median(off));
    }

    // Retry path: the timed soak sets no deadline (its digest must not
    // depend on timing), so a 1 ns deadline drill exercises the retry
    // policy: every attempt times out and is retried max_retries times.
    {
      auto span = ctx.spans.open("run_soak_deadline_drill", "service");
      SoakOptions o = options(1, ctx.seed, true);
      o.sessions = 4096;
      o.deadline = std::chrono::nanoseconds(1);
      const SoakReport rep = run_soak(o);
      std::uint64_t retries = 0;
      for (const SoakOpStats& os : rep.ops) retries += os.retries;
      m.set("soak.retries", static_cast<double>(retries));
    }
    return true;
  }

 private:
  static constexpr std::size_t kSessions = 300000;

  static std::uint64_t requests_ok(const SoakReport& rep) {
    std::uint64_t ok = 0;
    for (const SoakOpStats& os : rep.ops) ok += os.ok;
    return ok;
  }

  static SoakOptions options(std::size_t workers, std::uint64_t seed,
                             bool gc) {
    SoakOptions o;
    o.sessions = kSessions;
    o.wave = 1024;
    o.hold_waves = 2;
    o.workers = workers;
    o.seed = seed;
    o.k = 10;
    o.gc = gc;
    return o;
  }
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "mac_seq") return std::make_unique<MacSeq>();
  if (name == "ledger_seq") return std::make_unique<LedgerSeq>();
  if (name == "fork_exact") return std::make_unique<ForkExact>();
  if (name == "soak") return std::make_unique<Soak>();
  return nullptr;
}

// -- run loop -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string span_file;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1" ? 1 : 0;
    } else if (k == "--span-file") {
      a.span_file = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         a.trace >= 0;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool trace = args.trace == 1;
  SpanLog spans(trace);
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  const std::size_t reps = static_cast<std::size_t>(std::max(
      2.0, std::round(args.seconds / w->nominal_pair_s())));
  std::printf("workload %s seed %llu repetitions %zu trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), reps, args.trace);

  wake_cpus(2.5);
  std::vector<Rep> all;
  std::vector<double> setup_samples, setup_wall;
  std::vector<double> calib{host_calibration()};
  auto one = [&](ThreadPool& pool, std::size_t i, bool traced) {
    Rep rep;
    rep.workers = pool.size();
    rep.seed = args.seed + i;
    rep.warmup = i == 0;
    rep.traced = traced;
    {
      auto span = spans.open("verdict_w" + std::to_string(rep.workers),
                             "verdict", rep.traced);
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      w->verdict(pool, rep);
      rep.wall_s = since(t0);
      rep.cpu_s = cpu_seconds() - c0;
    }
    all.push_back(std::move(rep));
  };
  auto setup_sample = [&](std::size_t i) {
    auto span = spans.open("setup", "setup");
    const std::size_t batch = w->setup_batch();
    std::vector<std::shared_ptr<void>> held;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < batch; ++b) {
      held.push_back(w->setup(args.seed + i));
    }
    setup_wall.push_back(since(t0) / static_cast<double>(batch));
    setup_samples.push_back((cpu_seconds() - c0) /
                            static_cast<double>(batch));
  };

  // Warm-up: about 1.5 s of the same repetitions, checked but not timed,
  // so the timed ones start with caches, lazy tables and the host's
  // scheduler in their steady state.
  const std::size_t warmups = static_cast<std::size_t>(
      std::max(1.0, std::round(1.5 / w->nominal_pair_s())));
  for (std::size_t k = 0; k < warmups; ++k) {
    one(pool1, 0, false);
    one(pool2, 0, false);
  }
  for (std::size_t i = 1; i <= reps; ++i) {
    // In the traced run every other repetition carries a span, so the
    // traced and untraced medians of one process give the overhead.
    const bool traced = trace && i % 2 == 1;
    setup_sample(i);
    if (i % 2 == 1) {
      one(pool1, i, traced);
      one(pool2, i, traced);
    } else {
      one(pool2, i, traced);
      one(pool1, i, traced);
    }
    setup_sample(reps + i);
    if (i % std::max<std::size_t>(1, reps / 4) == 0) {
      calib.push_back(host_calibration());
    }
  }
  const double rss = std::max(program_peak_mb, vm_hwm_mb());
  // The traced run also records the scaling curve at a 3-worker pool
  // (3 workers plus the caller stay within 4 CPUs); these verdicts are
  // checked with the others.
  if (trace) {
    ThreadPool pool3(3);
    for (std::size_t k = 0; k < 3; ++k) one(pool3, 1 + k % reps, true);
  }

  std::string why;
  bool correct = w->check(all, pool2, why);
  std::uint64_t failed = 0;
  for (const Rep& r : all) failed += r.ok ? 0 : 1;
  if (failed > 0 && why.empty()) {
    why = std::to_string(failed) +
          " verdict(s) disagreed with the exact answer";
  }

  std::vector<double> w1, w1_cpu, w2, w1_traced, w1_plain, w3, w3_ops;
  double cpu_w2 = 0.0, wall_w2 = 0.0;
  for (const Rep& r : all) {
    if (r.warmup) continue;
    if (r.workers == 1) {
      w1.push_back(r.wall_s);
      w1_cpu.push_back(r.cpu_s);
      (r.traced ? w1_traced : w1_plain).push_back(r.cpu_s);
    } else if (r.workers == 2) {
      w2.push_back(r.wall_s);
      cpu_w2 += r.cpu_s;
      wall_w2 += r.wall_s;
    } else {
      w3.push_back(r.wall_s);
      w3_ops.push_back(static_cast<double>(r.requests_ok) / r.wall_s);
    }
  }
  const double verdict_cpu_s = median(w1_cpu);
  const double verdict_w2_s = median(w2);
  const double setup_s = median(setup_samples);
  const double calib_s = median(calib);

  LayerMetrics layers;
  Record rec;
  ProbeContext ctx{args.seed + 1, pool1, pool2, spans, trace,
                   verdict_cpu_s, setup_s, all};
  if (correct && !w->probe(ctx, rec, layers, why)) correct = false;
  if (trace && correct) {
    layers.set("host.calib_s", calib_s);
    layers.set("pool.busy_w2", cpu_w2 / (wall_w2 * 2.0));
    {
      constexpr int kHandoffs = 2000;
      auto span = spans.open("parallel_for_chunks_empty_w2", "pool");
      const auto t0 = Clock::now();
      for (int k = 0; k < kHandoffs; ++k) {
        parallel_for_chunks(pool2, 2, [](std::size_t, std::size_t,
                                         std::size_t) {});
      }
      layers.set("pool.handoff_us", since(t0) * 1e6 / kHandoffs);
    }
    layers.set("w3.verdict_s", median(w3));
    layers.set("w3.ops_per_s", median(w3_ops));
  }

  // The record: identical for two runs of one build at one seed.
  // Totals over every repetition at each pool size.
  std::uint64_t totals[3][5] = {};
  std::vector<double> ops[3];
  for (const Rep& r : all) {
    if (r.workers > 2) continue;
    const std::uint64_t counts[5] = {r.trials, r.draws, r.looks, r.frames,
                                     r.requests_ok};
    for (int c = 0; c < 5; ++c) totals[r.workers][c] += counts[c];
    if (r.requests_ok > 0 && !r.warmup) {
      ops[r.workers].push_back(static_cast<double>(r.requests_ok) / r.wall_s);
    }
  }
  for (std::size_t p : {1, 2}) {
    const std::string k = "w" + std::to_string(p) + ".all.";
    const char* names[5] = {"trials", "draws", "looks", "frames",
                            "requests_ok"};
    for (int c = 0; c < 5; ++c) rec.put(k + names[c], totals[p][c]);
  }
  std::printf("record");
  for (const auto& [k, v] : rec.fields) {
    std::printf(" %s=%s", k.c_str(), v.c_str());
  }
  std::printf("\n");
  for (std::size_t p : {1, 2}) {
    std::printf("times w%zu", p);
    for (const Rep& r : all) {
      if (r.workers == p && !r.warmup) std::printf(" %.4f", r.wall_s);
    }
    std::printf("\n");
    std::printf("cpu w%zu", p);
    for (const Rep& r : all) {
      if (r.workers == p && !r.warmup) std::printf(" %.4f", r.cpu_s);
    }
    std::printf("\n");
  }
  if (!ops[1].empty()) {
    std::printf("ops_per_s %s ops_per_s_w2 %s\n",
                number(median(ops[1])).c_str(),
                number(median(ops[2])).c_str());
  }
  std::printf("host.calib_s %s\n", number(calib_s).c_str());
  std::printf("wall medians: verdict_w1 %s s setup %s s\n",
              number(median(w1)).c_str(), number(median(setup_wall)).c_str());
  std::printf("verdict_cpu_s %s verdict_w2_s %s setup_s %s peak_rss_mb %s "
              "(%zu repetitions per pool size)\n",
              number(verdict_cpu_s).c_str(), number(verdict_w2_s).c_str(),
              number(setup_s).c_str(), number(rss).c_str(), w1.size());
  if (trace) {
    std::printf("trace overhead: traced verdict_cpu_s %s untraced %s\n",
                number(median(w1_traced)).c_str(),
                number(median(w1_plain)).c_str());
    for (const Metric& m : layers.all()) {
      std::printf("  %-28s %14s %s\n", m.name.c_str(),
                  number(m.value).c_str(), m.unit.c_str());
    }
    for (const auto& [layer, t] : spans.layer_times()) {
      std::printf("  span layer %-10s total %10.6f s self %10.6f s\n",
                  layer.c_str(), t.first, t.second);
    }
    if (!args.span_file.empty() && !spans.write(args.span_file)) {
      why = "could not write " + args.span_file;
      correct = false;
    }
  }
  if (!why.empty()) std::printf("check: %s\n", why.c_str());

  std::ostringstream js;
  js << "{\"correct\": " << (correct && failed == 0 ? "true" : "false")
     << ", \"attempted\": " << all.size() << ", \"failed\": " << failed
     << ", \"metrics\": {";
  std::vector<Metric> out;
  if (trace) {
    out = layers.all();
  } else {
    out = {{"verdict_cpu_s", "s", verdict_cpu_s},
           {"verdict_w2_s", "s", verdict_w2_s},
           {"setup_s", "s", setup_s},
           {"peak_rss_mb", "MiB", rss}};
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    js << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": "
       << number(out[i].value) << ", \"unit\": \"" << out[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: verdict_bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--span-file PATH]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verdict_bench: %s\n", e.what());
    return 1;
  }
}
