/// \file service_workload.cpp
/// \brief Workload `service`: an open-loop solve service. One generator
/// thread emits seeded Poisson arrivals; a BatchQueue feeds a 2-worker
/// WorkerPool with deadline batching (pop_batch_until, k <= 4); workers run
/// cg_solve_batch to 1e-8 against one shared encode-once CSR operator
/// (ElemCrc32c / RowCrc32c / VecCrc32c) through MatrixLogView, and the
/// ordered commit runs verify_all. Kernels use 1 OpenMP thread per worker.
///
/// Legs: a fixed-rate leg (p50/p99 from each request's due time), closed
/// saturation bursts (tts_s, sat_rps) and, in traced runs, a fixed rate
/// ladder (service.max_rate_rps).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "abft/abft.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "probes.hpp"
#include "service/batch_queue.hpp"
#include "service/worker_pool.hpp"
#include "solvers/solvers.hpp"
#include "tealeaf/problem.hpp"

namespace perfbench {
namespace {

using Index = std::uint32_t;
using Fmt = abft::CsrFormat;
using ES = abft::schemes::ElemCrc32c<Index>;
using SS = abft::schemes::RowCrc32c<Index>;
using VS = abft::VecCrc32c;
using PM = abft::ProtectedCsr<Index, ES, SS>;
using View = abft::service::MatrixLogView<PM>;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 4;
constexpr double kBatchBudgetMs = 2.0;  ///< deadline-batching wait budget
constexpr double kSolveTol = 1e-8;
/// An answer is correct when max |u - u*| <= kAnswerTol * max |u*|.
constexpr double kAnswerTol = 1e-5;
constexpr std::size_t kRhsPool = 256;  ///< distinct seeded right-hand sides

struct Request {
  std::size_t id = 0;
  std::size_t rhs = 0;
  Clock::time_point due{}, pushed{}, popped{}, committed{};
  unsigned iterations = 0;
  bool ok = false;
  bool done = false;
  abft::FaultLog log;  ///< this tenant's own fault accounting
};

struct BatchOutcome {
  std::vector<abft::solvers::SolveResult> results;
  std::unique_ptr<abft::FaultLog> matrix_log;
  double assembly_s = 0.0, solve_s = 0.0;
  Clock::time_point solved{};
};

/// Per-leg observations, all from the benchmark's own clock reads.
struct LegResult {
  std::vector<double> latency_ms, queue_wait_ms, gen_late_ms;
  std::vector<double> batch_size, assembly_ms, solve_ms, commit_wait_ms, verify_ms;
  double busy_s = 0.0, wall_s = 0.0;
  std::uint64_t drops = 0, closed_early = 0, iterations = 0, failed = 0;
  ObsCounts log_totals, obs_delta;
  /// Median latency of the last quarter of requests (backlog test).
  double tail_quarter_p50_ms = 0.0;
};

/// The operator every tenant solves against: the TeaLeaf heat operator of
/// the two-material deck on a 32 x 32 mesh, and the seeded right-hand-side
/// pool. 32 x 32 keeps one single-RHS solve at a few milliseconds (about
/// 6 ms on the reference machine, whose CRC32C is software), so the
/// fixed-rate leg serves 1000 requests at a low load within the run;
/// fig_service's 48 x 48 mesh takes about 29 ms per solve and saturates
/// near 150 requests per second.
struct Service {
  abft::sparse::CsrMatrix plain;
  std::optional<PM> pa;
  std::vector<std::vector<double>> ustar, rhs;
  abft::FaultLog matrix_log;
};

/// Build and encode the shared operator (timed as set-up).
void build_operator(const Options& o, Service& sv, Tracer& tracer) {
  abft::tealeaf::Problem problem(two_material_deck(o.size == Size::tiny ? 16 : 32, o.seed));
  std::optional<abft::sparse::CsrMatrix> csr;
  {
    Tracer::Span sp(tracer, "tealeaf.assemble");
    csr.emplace(problem.assemble_matrix());
  }
  {
    Tracer::Span sp(tracer, "sparse.make_plain");
    sv.plain = Fmt::make_plain<Index, ES>(*csr);
  }
  Tracer::Span sp(tracer, "abft.encode");
  sv.pa.emplace(PM::from_plain(sv.plain, nullptr, abft::DuePolicy::record_only));
}

/// Seeded u* vectors and b = A u*.
void build_rhs_pool(const Options& o, Service& sv) {
  const std::size_t n = sv.plain.nrows();
  for (std::size_t j = 0; j < kRhsPool; ++j) {
    auto u = random_vector(n, o.seed * 1000003 + j);
    std::vector<double> b(n, 0.0);
    abft::sparse::spmv(sv.plain, u.data(), b.data());
    sv.ustar.push_back(std::move(u));
    sv.rhs.push_back(std::move(b));
  }
}

/// \p count requests with seeded Poisson due offsets at \p rate_rps (all due
/// at once when rate_rps <= 0) and seeded right-hand sides.
std::deque<Request> make_requests(std::size_t count, double rate_rps, std::uint64_t seed) {
  abft::Xoshiro256 rng(seed);
  std::deque<Request> reqs(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    reqs[i].id = i;
    reqs[i].rhs = rng.below(kRhsPool);
    if (rate_rps > 0.0) t += -std::log(1.0 - rng.uniform()) / rate_rps;
    reqs[i].due = Clock::time_point{} + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(t));
  }
  return reqs;
}

/// Serve one leg: the generator pushes every request at its due time (due
/// offsets are shifted to start now), the pool drains, every answer is
/// checked against its u*.
LegResult run_leg(Service& sv, std::deque<Request>& reqs, Tracer& tracer, bool perturb) {
  const std::size_t n = sv.plain.nrows();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (auto& r : reqs) r.due = start + (r.due - Clock::time_point{});

  LegResult leg;
  abft::service::BatchQueue<Request*> queue(reqs.size() + 1);
  abft::solvers::SolveOptions opts;
  opts.tolerance = kSolveTol;
  // The whole-matrix sweep runs in the ordered commit, never concurrently.
  opts.final_matrix_verify = false;
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kBatchBudgetMs));
  const ObsCounts obs0 = ObsCounts::now();
  const auto snap0 = abft::obs::MetricsRegistry::global().snapshot();

  {
    abft::service::WorkerPool pool(
        kWorkers,
        [&](std::uint64_t* seq) {
          return queue.pop_batch_until(kMaxBatch, budget,
                                       [](const Request* r) { return r->due; }, seq);
        },
        [&](std::uint64_t seq, std::vector<Request*>& batch) {
          set_threads(1);
          const auto popped = Clock::now();
          Tracer::Span span(tracer, "service.batch", seq);
          BatchOutcome out;
          out.matrix_log = std::make_unique<abft::FaultLog>();
          View view(*sv.pa, out.matrix_log.get(), abft::DuePolicy::record_only);
          abft::ProtectedMultiVector<VS> b(n), u(n);
          {
            Tracer::Span sp(tracer, "service.assemble", seq);
            for (Request* r : batch) {
              r->popped = popped;
              b.add_column(&r->log, abft::DuePolicy::record_only).assign(sv.rhs[r->rhs]);
              u.add_column(&r->log, abft::DuePolicy::record_only);
            }
          }
          const auto assembled = Clock::now();
          {
            Tracer::Span sp(tracer, "solvers.cg_batch", seq);
            out.results = abft::solvers::cg_solve_batch(view, b, u, opts);
          }
          out.solved = Clock::now();
          out.assembly_s = seconds_between(popped, assembled);
          out.solve_s = seconds_between(assembled, out.solved);
          std::vector<double> got(n);
          for (std::size_t j = 0; j < batch.size(); ++j) {
            Request* r = batch[j];
            u.column(j).extract(got);
            if (perturb && r->id == 0) got[0] += 1.0;
            const auto& want = sv.ustar[r->rhs];
            double err = 0.0, scale = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
              err = std::max(err, std::abs(got[i] - want[i]));
              scale = std::max(scale, std::abs(want[i]));
            }
            const auto& res = out.results[j];
            r->iterations = res.iterations;
            r->ok = res.converged && !res.breakdown && err <= kAnswerTol * scale;
          }
          return out;
        },
        [&](std::uint64_t seq, std::vector<Request*>& batch, BatchOutcome& out) {
          // Ordered commit: serialized, so the leg's vectors need no lock.
          const auto commit_start = Clock::now();
          Tracer::Span span(tracer, "service.commit", seq);
          View view(*sv.pa, out.matrix_log.get(), abft::DuePolicy::record_only);
          const auto v0 = Clock::now();
          {
            Tracer::Span sp(tracer, "abft.verify_all", seq);
            (void)view.verify_all();
          }
          const auto v1 = Clock::now();
          sv.matrix_log.append_from(*out.matrix_log);
          const auto t = Clock::now();
          for (Request* r : batch) {
            r->committed = t;
            r->done = true;
          }
          leg.batch_size.push_back(static_cast<double>(batch.size()));
          leg.assembly_ms.push_back(out.assembly_s * 1e3);
          leg.solve_ms.push_back(out.solve_s * 1e3);
          leg.commit_wait_ms.push_back(seconds_between(out.solved, commit_start) * 1e3);
          leg.verify_ms.push_back(seconds_between(v0, v1) * 1e3);
          leg.busy_s += out.assembly_s + out.solve_s + seconds_between(v0, t);
        });

    std::thread generator([&] {
      for (auto& r : reqs) {
        std::this_thread::sleep_until(r.due);
        r.pushed = Clock::now();
        if (!queue.push(&r)) ++leg.drops;
      }
    });
    generator.join();
    queue.close();
    pool.join();
  }
  leg.wall_s = seconds_between(start, Clock::now());

  std::uint64_t checks = sv.matrix_log.checks(), corrected = sv.matrix_log.corrected(),
                uncorrectable = sv.matrix_log.uncorrectable();
  for (const auto& r : reqs) {
    checks += r.log.checks();
    corrected += r.log.corrected();
    uncorrectable += r.log.uncorrectable();
    leg.iterations += r.iterations;
    if (!r.done || !r.ok) {
      ++leg.failed;
      continue;
    }
    leg.latency_ms.push_back(seconds_between(r.due, r.committed) * 1e3);
    leg.queue_wait_ms.push_back(seconds_between(r.due, r.popped) * 1e3);
    leg.gen_late_ms.push_back(seconds_between(r.due, r.pushed) * 1e3);
  }
  const std::size_t q = leg.latency_ms.size() / 4;
  leg.tail_quarter_p50_ms =
      median(std::vector<double>(leg.latency_ms.end() - static_cast<std::ptrdiff_t>(q),
                                 leg.latency_ms.end()));
  leg.log_totals = {checks, corrected, uncorrectable};
  leg.obs_delta = ObsCounts::now() - obs0;
  const auto snap1 = abft::obs::MetricsRegistry::global().snapshot();
  leg.closed_early = snap1.counter("abft_queue_deadline_closed_early_total") -
                     snap0.counter("abft_queue_deadline_closed_early_total");
  return leg;
}

/// One leg's answers and accounting into the report. The matrix log is
/// shared by every leg, so it is reset before each.
LegResult serve(Service& sv, std::deque<Request> reqs, Tracer& tracer, bool perturb,
                Report& report, const char* what) {
  sv.matrix_log.clear();
  LegResult leg = run_leg(sv, reqs, tracer, perturb);
  for (const auto& r : reqs) {
    report.attempt(r.done && r.ok, std::string(what) + " request " + std::to_string(r.id) +
                                       (r.done ? " answered wrongly" : " was dropped"));
  }
  if (!(leg.obs_delta == leg.log_totals)) {
    report.fail(std::string(what) + ": obs registry delta != FaultLog totals");
  }
  return leg;
}

}  // namespace

void run_service(const Options& o, Tracer& tracer, Report& report) {
  const bool tiny = o.size == Size::tiny;
  Tracer off(false);

  // Set-up: operator build, encode and a pool start, several times.
  std::vector<double> setup;
  Service sv;
  for (int k = 0; k < (tiny ? 2 : 201); ++k) {
    const auto t0 = Clock::now();
    Service fresh;
    build_operator(o, fresh, off);
    abft::service::BatchQueue<Request*> queue(1);
    abft::service::WorkerPool pool(
        kWorkers, [&](std::uint64_t* seq) { return queue.pop_batch(kMaxBatch, seq); },
        [](std::uint64_t, std::vector<Request*>&) { return 0; },
        [](std::uint64_t, std::vector<Request*>&, int&) {});
    queue.close();
    pool.join();
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  report_setup(report, setup);
  build_operator(o, sv, tracer);
  build_rhs_pool(o, sv);
  std::printf("# service: %zu-row TeaLeaf operator (%zu nnz), csr crc32c, %zu workers, "
              "k <= %zu, batch budget %.1f ms, rate %.0f rps\n",
              sv.plain.nrows(), sv.plain.nnz(), kWorkers, kMaxBatch, kBatchBudgetMs,
              o.rate_rps);

  // Fixed-rate leg: at least 1000 requests so that ten lie beyond p99 (40 s
  // at 25 rps), two thirds of the measured time when that is more.
  const auto fixed_n = static_cast<std::size_t>(
      std::max(tiny ? 100.0 : 1000.0, o.rate_rps * o.seconds * 2.0 / 3.0));
  const LegResult fixed = serve(sv, make_requests(fixed_n, o.rate_rps, o.seed * 31 + 1), tracer,
                                o.perturb, report, "fixed-rate");
  double batched = 0.0, shared = 0.0;
  for (double b : fixed.batch_size) {
    batched += b;
    if (b > 1.0) shared += b;
  }
  // The offered rate is chosen so that few requests share a batch: p50 then
  // lies inside the single-request mode of the latency distribution.
  std::printf("# fixed-rate leg: %zu batches, mean size %.3f, %.1f %% of requests shared a "
              "batch, %.1f %% closed early at the batch budget\n",
              fixed.batch_size.size(), batched / static_cast<double>(fixed.batch_size.size()),
              100.0 * shared / batched,
              100.0 * static_cast<double>(fixed.closed_early) /
                  static_cast<double>(fixed.batch_size.size()));
  report.metric("p50_ms", percentile(fixed.latency_ms, 50), "ms", fixed.latency_ms.size());
  report.metric("p99_ms", percentile(fixed.latency_ms, 99), "ms", fixed.latency_ms.size());

  // Saturation: closed bursts, queue never empty until the tail; a sixth
  // of the measured time, at least three timed bursts.
  const std::size_t burst = tiny ? 40 : 400;
  std::vector<double> burst_s, burst_rps;
  const auto saturate = [&](Tracer& t) {
    return serve(sv, make_requests(burst, 0.0, o.seed * 31 + 2), t, false, report, "saturation");
  };
  // Burst 0 brings the workers' CPUs up from the fixed-rate leg's idle gaps
  // (it runs about 1.4x slower on the reference machine): checked, not timed.
  const LegResult warmup = saturate(off);
  const std::uint64_t burst_iterations = warmup.iterations;
  const auto sat_begin = Clock::now();
  while (burst_s.size() < 3 ||
         seconds_between(sat_begin, Clock::now()) < o.seconds / 6.0) {
    const LegResult leg = saturate(traced_repeat(o, burst_s.size()) ? tracer : off);
    report.expect_repeat("burst iterations", burst_iterations, leg.iterations);
    burst_s.push_back(leg.wall_s);
    burst_rps.push_back(static_cast<double>(burst) / leg.wall_s);
  }
  std::printf("# saturation bursts (s): untimed %.4f, timed", warmup.wall_s);
  for (double t : burst_s) std::printf(" %.4f", t);
  std::printf("\n");
  report.metric("tts_s", median(burst_s), "s", burst_s.size());
  report.metric("sat_rps", median(burst_rps), "1/s", burst_rps.size());

  if (!o.trace) return;
  report.metric("service.queue_wait_ms_p50", percentile(fixed.queue_wait_ms, 50), "ms",
                fixed.queue_wait_ms.size());
  report.metric("service.queue_wait_ms_p99", percentile(fixed.queue_wait_ms, 99), "ms",
                fixed.queue_wait_ms.size());
  report.metric("service.batch_size_mean", batched / static_cast<double>(fixed.batch_size.size()),
                "count", fixed.batch_size.size());
  report.metric("service.assembly_ms_p50", percentile(fixed.assembly_ms, 50), "ms",
                fixed.assembly_ms.size());
  report.metric("service.solve_ms_p50", percentile(fixed.solve_ms, 50), "ms",
                fixed.solve_ms.size());
  report.metric("service.solve_ms_p99", percentile(fixed.solve_ms, 99), "ms",
                fixed.solve_ms.size());
  report.metric("service.commit_wait_ms_p99", percentile(fixed.commit_wait_ms, 99), "ms",
                fixed.commit_wait_ms.size());
  report.metric("service.verify_all_ms_p50", percentile(fixed.verify_ms, 50), "ms",
                fixed.verify_ms.size());
  report.metric("service.worker_busy_frac",
                fixed.busy_s / (static_cast<double>(kWorkers) * fixed.wall_s), "ratio");
  report.metric("service.deadline_closed_early", static_cast<double>(fixed.closed_early),
                "count");
  report.metric("service.drops", static_cast<double>(fixed.drops), "count");
  report.metric("bench.gen_late_ms_p99", percentile(fixed.gen_late_ms, 99), "ms",
                fixed.gen_late_ms.size());
  report.metric("solvers.batch_iterations_mean",
                static_cast<double>(fixed.iterations) / static_cast<double>(fixed_n), "count");
  report.metric("solvers.iterations", static_cast<double>(burst_iterations), "count");
  report.metric("solvers.cg_s", median(tracer.durations("solvers.cg_batch")), "s");
  report.metric("solvers.iter_us",
                median(tracer.durations("solvers.cg_batch")) * 1e6 /
                    (static_cast<double>(fixed.iterations) / static_cast<double>(fixed_n)),
                "us");
  report.metric("tealeaf.assemble_s", median(tracer.durations("tealeaf.assemble")), "s");
  report.metric("sparse.make_plain_s", median(tracer.durations("sparse.make_plain")), "s");
  report.metric("abft.encode_s", median(tracer.durations("abft.encode")), "s");
  report.metric("abft.encode_mb", static_cast<double>(matrix_bytes(*sv.pa)) / 1e6, "MB");
  {
    // Check accounting of one single-request solve, per iteration.
    abft::FaultLog log;
    View view(*sv.pa, &log, abft::DuePolicy::record_only);
    abft::ProtectedMultiVector<VS> b(sv.plain.nrows()), u(sv.plain.nrows());
    b.add_column(&log).assign(sv.rhs[0]);
    u.add_column(&log);
    abft::solvers::SolveOptions opts;
    opts.tolerance = kSolveTol;
    const auto res = abft::solvers::cg_solve_batch(view, b, u, opts);
    report.metric("abft.checks_per_iter",
                  static_cast<double>(log.checks()) / res[0].iterations, "count");
  }
  probe_kernels<Fmt, ES, SS, VS>(sv.plain, abft::sparse::CsrMatrix(sv.plain), 1, kMaxBatch,
                                 report);

  // Rate ladder: binary search for the highest fixed rung whose p99 meets
  // the limit with no growing backlog (last quarter's median also within it).
  std::size_t lo = 0, hi = o.ladder_rps.size();  // answer in [lo, hi): rungs below lo pass
  double max_rate = 0.0;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    const double rate = o.ladder_rps[mid];
    // About 4 s of arrivals per rung (at least 200 requests).
    const auto ladder_n =
        static_cast<std::size_t>(tiny ? 50.0 : std::max(200.0, rate * 4.0));
    const LegResult leg = serve(sv, make_requests(ladder_n, rate, o.seed * 31 + 3 + mid), off,
                                false, report, "ladder");
    const bool pass = leg.failed == 0 && percentile(leg.latency_ms, 99) <= o.p99_limit_ms &&
                      leg.tail_quarter_p50_ms <= o.p99_limit_ms;
    std::printf("# ladder %.0f rps: p99 %.3f ms, tail-quarter p50 %.3f ms -> %s\n", rate,
                percentile(leg.latency_ms, 99), leg.tail_quarter_p50_ms,
                pass ? "pass" : "fail");
    if (pass) {
      max_rate = rate;
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  report.metric("service.max_rate_rps", max_rate, "1/s");
  finish_trace(o, tracer, report, burst_s);
}

}  // namespace perfbench
