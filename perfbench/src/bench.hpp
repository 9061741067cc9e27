/// \file bench.hpp
/// \brief Shared pieces of the benchmark program (abftbench): options, the
/// span tracer, sample statistics and the result report.
///
/// abftbench runs one workload per process. Untraced runs produce the
/// end-to-end metrics; traced runs (--trace 1) record one span per call into
/// a library layer, roll them up into per-layer self times and produce the
/// per-layer metrics. Every workload also checks its answers and the
/// exact-repeat counts; any failure makes the report incorrect.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/batch_queue.hpp"
#include "tealeaf/deck.hpp"

namespace perfbench {

/// Problem-size preset: `full` is the measured benchmark, `tiny` the smoke
/// test's seconds-long variant of the same code paths.
enum class Size { full, tiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::full;
  /// Negative test of the correctness gate: corrupt one computed answer
  /// after the solve, before the check.
  bool perturb = false;
  /// Directory for generated inputs and trace dumps (inside the checkout).
  std::string out_dir = ".bench_build/perfbench/out";
  // service workload knobs (fixed in perfbench/config.json)
  double rate_rps = 400.0;
  double p99_limit_ms = 25.0;
  std::vector<double> ladder_rps;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;  ///< "<layer>.<call>", a string literal
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root
  std::uint64_t key;     ///< step / solve / request / batch id
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per span, so the untraced run executes the same calls.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span around one call into a layer. Parent = the innermost open
  /// span on the same thread.
  class Span {
   public:
    Span(Tracer& t, const char* name, std::uint64_t key = 0) : t_(t.on_ ? &t : nullptr) {
      if (t_ == nullptr) return;
      rec_.name = name;
      rec_.key = key;
      rec_.id = t_->next_id_.fetch_add(1, std::memory_order_relaxed);
      rec_.parent = tl_parent_;
      tl_parent_ = rec_.id;
      rec_.start_ns = t_->now_ns();
    }
    ~Span() {
      if (t_ == nullptr) return;
      rec_.end_ns = t_->now_ns();
      tl_parent_ = rec_.parent;
      std::lock_guard lock(t_->mu_);
      t_->spans_.push_back(rec_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
    SpanRecord rec_{};
  };

  /// Durations (seconds) of every span with this exact name, in end order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self time per layer (the name's prefix before the first '.'): each
  /// span's duration minus the part its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  /// One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  bool on_;
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  static thread_local std::uint64_t tl_parent_;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

using abft::service::percentile;
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Process peak resident set in MB (10^6 bytes; getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Process-wide obs registry counters the FaultLog funnel publishes.
struct ObsCounts {
  std::uint64_t checks = 0, corrected = 0, uncorrectable = 0;
  [[nodiscard]] static ObsCounts now();
  friend ObsCounts operator-(ObsCounts a, ObsCounts b) {
    return {a.checks - b.checks, a.corrected - b.corrected,
            a.uncorrectable - b.uncorrectable};
  }
  friend bool operator==(const ObsCounts&, const ObsCounts&) = default;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< samples the value summarises (1 = single measurement)
};

/// What one workload run produced: metrics, attempted/failed counts, and
/// every correctness or exact-repeat violation it saw.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 1) {
    metrics_[name] = {value, unit, samples};
  }
  void attempt(bool ok, const std::string& what_failed = {}) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      fail(what_failed);
    }
  }
  /// Record a correctness or exact-repeat violation (makes the run incorrect).
  void fail(const std::string& why);
  /// Exact-repeat check: \p got must equal \p want.
  void expect_repeat(const std::string& what, std::uint64_t want, std::uint64_t got);

  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }

  /// Human-readable metric lines followed by the machine-readable
  /// `RESULT {...}` line perfbench/run.py consumes.
  void print(const std::string& workload) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The paper's two-material TeaLeaf deck (bench/harness.hpp's make_config)
/// on an \p nx x \p nx mesh, solved to tolerance. The seed moves the hot
/// region's energy by at most 0.5 %.
[[nodiscard]] abft::tealeaf::Config two_material_deck(std::size_t nx, std::uint64_t seed);

void run_tealeaf(const Options& o, Tracer& tracer, Report& report);
void run_service(const Options& o, Tracer& tracer, Report& report);
void run_storm(const Options& o, Tracer& tracer, Report& report);

/// Record setup_s as the median of \p samples (seconds) and print their
/// range.
void report_setup(Report& report, const std::vector<double>& samples);

/// Traced runs alternate untraced (even \p index) and traced (odd) repeats
/// of a workload's unit of work, so both halves see the same machine state;
/// repeat 0, untraced, is the reference of the exact-repeat checks.
[[nodiscard]] inline bool traced_repeat(const Options& o, std::size_t index) {
  return o.trace && index % 2 == 1;
}

/// Per-layer figures common to every workload's traced run: self time per
/// layer from the span roll-up, the span dump, and the trace overhead on
/// the workload's headline time (\p headline_s per repeat; median of the
/// traced repeats over the median of the untraced ones, minus 1).
void finish_trace(const Options& o, Tracer& tracer, Report& report,
                  const std::vector<double>& headline_s);

}  // namespace perfbench
