/// \file storm_workload.cpp
/// \brief Workload `storm`: a long-tailed, diagonally dominant SPD operator
/// generated from the seed and written to Matrix Market before timing; the
/// program loads it (io::read_matrix_market), stores it as SELL-C-sigma with
/// the C and sigma the io advisor recommends, under uniform secded64 with
/// DuePolicy::throw_exception, and runs a sequence of single-RHS CG solves
/// through solve_with_restart with an AdaptiveCheckPolicy. Before each solve
/// a seeded fault plan flips bits: single flips in matrix elements, the
/// structure array and the right-hand side (all corrected), and in some
/// solves a double flip inside one matrix element codeword (a DUE, so the
/// solve restarts from the pristine copy). 1 thread.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "abft/abft.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "io/advisor.hpp"
#include "io/matrix_market.hpp"
#include "io/stats.hpp"
#include "probes.hpp"
#include "solvers/solvers.hpp"
#include "sparse/coo.hpp"

namespace perfbench {
namespace {

using Index = std::uint32_t;
using Fmt = abft::SellFormat;
using ES = abft::schemes::ElemSecded<Index>;
using SS = abft::schemes::RowSecded<Index>;
using VS = abft::VecSecded64;
using PM = abft::ProtectedSell<Index, ES, SS>;
using Plain = abft::sparse::Sell<Index>;

constexpr double kSolveTol = 1e-8;
constexpr double kAnswerTol = 1e-6;  ///< max |u - u*| <= tol * max |u*|
constexpr unsigned kMaxRestarts = 3;

struct Sizes {
  std::size_t rows, solves;
};
Sizes sizes(const Options& o) {
  return o.size == Size::tiny ? Sizes{2000, 4} : Sizes{30000, 8};
}

/// Long-tailed symmetric operator: each row gets a Pareto(1.4)-distributed
/// number of random couplings (at least 2, at most 300) of weight
/// -U(0.1, 1); the diagonal is 1.5 x the absolute row sum plus 1, so the
/// matrix is strictly diagonally dominant and SPD, then scaled to a unit
/// diagonal.
abft::sparse::CsrMatrix generate_operator(std::size_t n, std::uint64_t seed) {
  abft::Xoshiro256 rng(seed * 0x2545f4914f6cdd1dULL + 3);
  // The degree multiset is the distribution's quantiles, the same for every
  // seed (so is the amount of work); the seed deals them out to the rows.
  std::vector<std::size_t> degrees(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double tail = 1.0 - (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    degrees[i] = static_cast<std::size_t>(std::min(300.0, std::floor(2.0 * std::pow(tail, -1.0 / 1.4))));
  }
  for (std::size_t i = n; i > 1; --i) std::swap(degrees[i - 1], degrees[rng.below(i)]);
  abft::sparse::Coo<Index> coo(n, n);
  std::vector<double> rowsum(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < degrees[i]; ++d) {
      const std::size_t j = rng.below(n);
      if (j == i) continue;
      const double v = -rng.uniform(0.1, 1.0);
      coo.add(i, j, v);
      coo.add(j, i, v);
      rowsum[i] += -v;
      rowsum[j] += -v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) coo.add(i, i, 1.5 * rowsum[i] + 1.0);
  // Symmetric diagonal scaling to a unit diagonal keeps the hubs from
  // dominating the condition number (it stays below 5).
  auto a = coo.to_csr();
  std::vector<double> inv_sqrt_d(n);
  for (std::size_t i = 0; i < n; ++i) inv_sqrt_d[i] = 1.0 / std::sqrt(1.5 * rowsum[i] + 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      a.values()[k] *= inv_sqrt_d[i] * inv_sqrt_d[a.cols()[k]];
    }
  }
  return a;
}

/// One planned bit flip. A double flip is two Flips on the same element
/// slot.
enum class Target { element, structure, rhs };
struct Flip {
  Target target;
  std::size_t slot;  ///< element slot / structure word / rhs codeword
  unsigned bit;      ///< bit within the 96-bit element codeword / the word
};
struct SolvePlan {
  std::vector<double> ustar, rhs;
  std::vector<Flip> flips;
  bool due = false;  ///< carries a double flip (must restart)
};

/// Seeded fault plan over the *real* element slots of \p plain (padding
/// slots are never touched): two single flips per solve (an element, then
/// the structure array in even solves or the right-hand side in odd ones),
/// and a double flip inside one element codeword in 3 of every 8 solves (at
/// least one). The seed picks which solves and which bits; the amount of
/// correction and restart work is the same for every seed.
std::vector<SolvePlan> make_plans(const Plain& plain, const abft::sparse::CsrMatrix& csr,
                                  std::size_t structure_words, std::size_t solves,
                                  std::uint64_t seed) {
  abft::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 5);
  const std::size_t n = plain.nrows();
  const auto real_slot = [&] {
    for (;;) {
      const std::size_t i = rng.below(n);
      const std::size_t len = plain.row_nnz()[i];
      if (len > 0) return plain.slot(i, rng.below(len));
    }
  };
  std::vector<SolvePlan> plans(solves);
  std::vector<std::size_t> order(solves);
  for (std::size_t s = 0; s < solves; ++s) order[s] = s;
  for (std::size_t i = solves; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  for (std::size_t k = 0; k < std::max<std::size_t>(1, solves * 3 / 8); ++k) {
    plans[order[k]].due = true;
  }
  for (std::size_t s = 0; s < solves; ++s) {
    SolvePlan& p = plans[s];
    p.ustar = random_vector(n, seed * 7919 + s);
    p.rhs.assign(n, 0.0);
    abft::sparse::spmv(csr, p.ustar.data(), p.rhs.data());
    p.flips.push_back({Target::element, real_slot(), static_cast<unsigned>(rng.below(96))});
    if (s % 2 == 0) {
      p.flips.push_back({Target::structure, rng.below(structure_words),
                         static_cast<unsigned>(rng.below(32))});
    } else {
      p.flips.push_back({Target::rhs, rng.below(n), static_cast<unsigned>(rng.below(64))});
    }
    if (p.due) {
      const std::size_t slot = real_slot();
      const auto b0 = static_cast<unsigned>(rng.below(96));
      auto b1 = static_cast<unsigned>(rng.below(95));
      if (b1 >= b0) ++b1;
      p.flips.push_back({Target::element, slot, b0});
      p.flips.push_back({Target::element, slot, b1});
    }
  }
  return plans;
}

std::span<std::uint8_t> bytes_of(auto span) {
  return {reinterpret_cast<std::uint8_t*>(span.data()), span.size_bytes()};
}

void apply(const Flip& f, PM& pa, abft::ProtectedVector<VS>& b) {
  switch (f.target) {
    case Target::element:
      if (f.bit < 64) {
        abft::faults::flip_bit(bytes_of(pa.raw_values()), f.slot * 64 + f.bit);
      } else {
        abft::faults::flip_bit(bytes_of(pa.raw_cols()), f.slot * 32 + (f.bit - 64));
      }
      break;
    case Target::structure:
      abft::faults::flip_bit(bytes_of(pa.raw_structure()), f.slot * 32 + f.bit);
      break;
    case Target::rhs:
      abft::faults::flip_bit(bytes_of(b.raw()), f.slot * 64 + f.bit);
      break;
  }
}

struct Loaded {
  std::optional<Plain> plain;
  std::optional<abft::sparse::CsrMatrix> csr;
  std::size_t file_bytes = 0;
  std::size_t slice = 0, window = 0;
};

/// Set-up: read, advise, make_plain — each call in its own span.
Loaded load(const std::string& path, Tracer& tracer) {
  Loaded l;
  l.file_bytes = std::filesystem::file_size(path);
  {
    Tracer::Span sp(tracer, "io.read");
    l.csr.emplace(abft::io::read_matrix_market(path).narrow());
  }
  {
    Tracer::Span sp(tracer, "io.advise");
    const auto stats = abft::io::analyze(*l.csr);
    const auto advice = abft::io::advise_format(stats);
    l.slice = advice.slice_height != 0 ? advice.slice_height : stats.sell_slice_height;
    l.window = advice.sort_window != 0 ? advice.sort_window : stats.sell_sort_window;
  }
  Tracer::Span sp(tracer, "sparse.make_plain");
  l.plain.emplace(Plain::from_csr(*l.csr, ES::kMinRowNnz, l.slice, l.window));
  return l;
}

/// The io metrics from the traced "io.read" / "io.advise" spans.
void report_io(const Tracer& tracer, std::size_t file_bytes, Report& report) {
  const double read_s = median(tracer.durations("io.read"));
  report.metric("io.read_s", read_s, "s");
  report.metric("io.read_mbps", static_cast<double>(file_bytes) / 1e6 / read_s, "MB/s");
  report.metric("io.advise_s", median(tracer.durations("io.advise")), "s");
}

struct SequenceResult {
  std::vector<double> solve_s;
  double tts_s = 0.0, cg_s = 0.0, restart_s = 0.0;
  std::uint64_t iterations = 0, restarts = 0, full_checks = 0, attempts = 0, injected = 0;
  ObsCounts log_totals, obs_delta;
  std::vector<bool> ok, detected;
};

SequenceResult run_sequence(const Plain& plain, const std::vector<SolvePlan>& plans,
                            Tracer& tracer, bool perturb) {
  abft::FaultLog log;
  PM pa = PM::from_plain(plain, &log, abft::DuePolicy::throw_exception);
  const std::size_t n = plain.nrows();
  SequenceResult out;
  const ObsCounts obs0 = ObsCounts::now();
  const auto seq_start = Clock::now();
  for (std::size_t s = 0; s < plans.size(); ++s) {
    const SolvePlan& p = plans[s];
    const auto t0 = Clock::now();
    abft::ProtectedVector<VS> b(n, &log), u(n, &log);
    b.assign(p.rhs);
    {
      Tracer::Span sp(tracer, "faults.inject", s);
      for (const Flip& f : p.flips) apply(f, pa, b);
      out.injected += p.flips.size();
    }
    double last_attempt_s = 0.0;
    const auto solver = [&](PM& m, abft::ProtectedVector<VS>& bb, abft::ProtectedVector<VS>& uu) {
      Tracer::Span sp(tracer, "solvers.cg", s);
      const auto a0 = Clock::now();
      abft::AdaptiveCheckPolicy policy;
      abft::solvers::SolveOptions opts;
      opts.tolerance = kSolveTol;
      opts.adaptive_policy = &policy;
      ++out.attempts;
      struct Account {  // counts the attempt also when it throws
        SequenceResult& r;
        abft::AdaptiveCheckPolicy& pol;
        Clock::time_point a0;
        double& last;
        ~Account() {
          r.full_checks += pol.full_checks();
          last = seconds_between(a0, Clock::now());
          r.cg_s += last;
        }
      } account{out, policy, a0, last_attempt_s};
      return abft::solvers::cg_solve(m, bb, uu, opts);
    };
    abft::solvers::RecoveringSolveResult rr;
    {
      Tracer::Span sp(tracer, "solvers.solve_with_restart", s);
      rr = abft::solvers::solve_with_restart(solver, plain, pa, b, u, kMaxRestarts);
    }
    const double solve_s = seconds_between(t0, Clock::now());
    if (rr.restarts > 0) out.restart_s += solve_s - last_attempt_s;
    std::vector<double> got(n);
    u.extract(got);
    if (perturb && s == 0) got[n / 3] += 1.0;
    double err = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      err = std::max(err, std::abs(got[i] - p.ustar[i]));
      scale = std::max(scale, std::abs(p.ustar[i]));
    }
    out.ok.push_back(!rr.gave_up && rr.solve.converged && !rr.solve.breakdown &&
                     err <= kAnswerTol * scale);
    out.detected.push_back(!p.due || rr.restarts > 0);
    out.iterations += rr.solve.iterations;
    out.restarts += rr.restarts;
    out.solve_s.push_back(solve_s);
  }
  out.tts_s = seconds_between(seq_start, Clock::now());
  out.obs_delta = ObsCounts::now() - obs0;
  out.log_totals = {log.checks(), log.corrected(), log.uncorrectable()};
  return out;
}

}  // namespace

void run_storm(const Options& o, Tracer& tracer, Report& report) {
  set_threads(1);
  const Sizes sz = sizes(o);
  std::filesystem::create_directories(o.out_dir);
  const std::string path = o.out_dir + "/storm_" + std::to_string(o.seed) + "_" +
                           std::to_string(sz.rows) + ".mtx";
  abft::io::write_matrix_market(path, generate_operator(sz.rows, o.seed));
  Tracer off(false);

  // Set-up: .mtx read, advise, make_plain and encode, several times.
  std::vector<double> setup;
  for (int k = 0; k < (o.size == Size::tiny ? 2 : 5); ++k) {
    const auto t0 = Clock::now();
    const Loaded l = load(path, off);
    const PM pa = PM::from_plain(*l.plain, nullptr, abft::DuePolicy::throw_exception);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  report_setup(report, setup);
  const Loaded l = load(path, tracer);
  std::optional<PM> encoded;
  {
    Tracer::Span sp(tracer, "abft.encode");
    encoded.emplace(PM::from_plain(*l.plain, nullptr, abft::DuePolicy::throw_exception));
  }
  const auto plans = make_plans(*l.plain, *l.csr, encoded->raw_structure().size(), sz.solves,
                                o.seed);
  std::printf("# storm: %zu rows, %zu nnz, %zu-byte .mtx, sell C=%zu sigma=%zu (%zu slots), "
              "secded64, %zu solves/sequence, 1 thread\n",
              l.csr->nrows(), l.csr->nnz(), l.file_bytes, l.slice, l.window, l.plain->slots(),
              sz.solves);

  std::vector<SequenceResult> seqs;
  const auto begin = Clock::now();
  while (seqs.size() < 3 || seconds_between(begin, Clock::now()) < o.seconds) {
    Tracer& t = traced_repeat(o, seqs.size()) ? tracer : off;
    seqs.push_back(run_sequence(*l.plain, plans, t, o.perturb && seqs.empty()));
  }
  std::filesystem::remove(path);

  const SequenceResult& s0 = seqs.front();
  std::vector<double> tts, solves, restart_s;
  double total_s = 0.0;
  std::size_t total_solves = 0;
  for (std::size_t k = 0; k < seqs.size(); ++k) {
    const SequenceResult& r = seqs[k];
    for (std::size_t s = 0; s < r.ok.size(); ++s) {
      const std::string id = "sequence " + std::to_string(k) + " solve " + std::to_string(s);
      report.attempt(r.ok[s], id + ": wrong answer, no convergence or gave up");
      if (!r.detected[s]) report.fail(id + ": the double flip escaped detection");
    }
    report.expect_repeat("solvers.iterations", s0.iterations, r.iterations);
    report.expect_repeat("solvers.restarts", s0.restarts, r.restarts);
    report.expect_repeat("abft.full_checks", s0.full_checks, r.full_checks);
    report.expect_repeat("faultlog checks", s0.log_totals.checks, r.log_totals.checks);
    report.expect_repeat("faults.corrected", s0.log_totals.corrected, r.log_totals.corrected);
    report.expect_repeat("faults.uncorrectable", s0.log_totals.uncorrectable,
                         r.log_totals.uncorrectable);
    if (!(r.obs_delta == r.log_totals)) report.fail("obs registry delta != FaultLog totals");
    tts.push_back(r.tts_s);
    restart_s.push_back(r.restart_s);
    solves.insert(solves.end(), r.solve_s.begin(), r.solve_s.end());
    total_s += r.tts_s;
    total_solves += r.solve_s.size();
  }
  report.metric("tts_s", median(tts), "s", tts.size());
  report.metric("p50_ms", percentile(solves, 50) * 1e3, "ms", solves.size());
  report.metric("p99_ms", percentile(solves, 99) * 1e3, "ms", solves.size());
  report.metric("sat_rps", static_cast<double>(total_solves) / total_s, "1/s", total_solves);

  if (!o.trace) return;
  const double iters = static_cast<double>(s0.iterations);
  report_io(tracer, l.file_bytes, report);
  report.metric("sparse.make_plain_s", median(tracer.durations("sparse.make_plain")), "s");
  report.metric("abft.encode_s", median(tracer.durations("abft.encode")), "s");
  report.metric("abft.encode_mb", static_cast<double>(matrix_bytes(*encoded)) / 1e6, "MB");
  report.metric("abft.checks_per_iter",
                static_cast<double>(s0.log_totals.checks) / (iters + s0.attempts), "count");
  report.metric("abft.full_check_frac",
                static_cast<double>(s0.full_checks) / (iters + s0.attempts), "ratio");
  report.metric("solvers.iterations", iters, "count");
  report.metric("solvers.cg_s", s0.cg_s, "s");
  report.metric("solvers.iter_us", s0.cg_s / iters * 1e6, "us");
  report.metric("solvers.batch_iterations_mean", iters / static_cast<double>(sz.solves),
                "count");
  report.metric("solvers.restarts", static_cast<double>(s0.restarts), "count");
  report.metric("solvers.restart_s",
                median(restart_s), "s", restart_s.size());
  report.metric("faults.injected", static_cast<double>(s0.injected), "count");
  report.metric("faults.corrected", static_cast<double>(s0.log_totals.corrected), "count");
  report.metric("faults.uncorrectable", static_cast<double>(s0.log_totals.uncorrectable),
                "count");
  report.metric("faults.dce_frac",
                static_cast<double>(s0.log_totals.corrected) /
                    static_cast<double>(s0.log_totals.corrected + s0.log_totals.uncorrectable),
                "ratio");
  probe_kernels<Fmt, ES, SS, VS>(*l.plain, Plain::from_csr(*l.csr, 0, l.slice, l.window), 1, 4,
                                 report);
  finish_trace(o, tracer, report, tts);
}

}  // namespace perfbench
