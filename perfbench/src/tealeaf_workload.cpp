/// \file tealeaf_workload.cpp
/// \brief Workload `tealeaf`: the paper's two-material TeaLeaf deck, CG to
/// tl_eps = 1e-10 every step, ELL storage under uniform crc32c-tile (tile-
/// checked elements, CRC32C structure and vectors), check interval 1,
/// kernels at 2 OpenMP threads. The benchmark drives the step loop itself:
/// assemble -> make_plain -> from_plain -> cg_solve -> update_energy.
///
/// Full size: 300 x 300 cells = 90000 rows, 2 steps per deck. Protected
/// operator 5.8 MB (5 ELL slots x 12 bytes per row plus 4-byte row widths)
/// and five CG vectors 3.6 MB: 9.4 MB together, above the 8 MiB (8.4 MB) of
/// L2 the four cores of the reference machine have in total.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "abft/abft.hpp"
#include "bench.hpp"
#include "probes.hpp"
#include "solvers/solvers.hpp"
#include "tealeaf/deck.hpp"
#include "tealeaf/problem.hpp"

namespace perfbench {
namespace {

using Index = std::uint32_t;
using Fmt = abft::EllFormat;

constexpr int kThreads = 2;
/// Tolerances of the protected run against the unprotected run of the same
/// deck: every cell of the final u within kFieldTol of max |u_ref|, and the
/// field summary within kSummaryTol relative. Vector codewords keep their
/// check bits in the low 8 mantissa bits, so the two runs differ by rounding
/// and the last CG iterations only (about 3e-11 of max |u| per cell at full
/// size). The perturbed run's 1 % error in the hottest cell is 1e-2.
constexpr double kFieldTol = 1e-8;
constexpr double kSummaryTol = 1e-7;

abft::tealeaf::Config make_deck(const Options& o) {
  auto cfg = two_material_deck(o.size == Size::tiny ? 40 : 300, o.seed);
  cfg.end_step = 2;
  cfg.tl_eps = 1e-10;
  cfg.tl_max_iters = 20000;
  return cfg;
}

struct DeckResult {
  std::vector<double> step_s;
  std::vector<unsigned> iterations;
  std::vector<bool> converged;
  double tts_s = 0.0;
  double cg_s = 0.0;
  abft::tealeaf::Problem::FieldSummary summary{};
  std::vector<double> u;  ///< final temperature field
  ObsCounts log_totals, obs_delta;
  std::size_t encode_bytes = 0;
  [[nodiscard]] std::uint64_t total_iterations() const {
    std::uint64_t t = 0;
    for (auto i : iterations) t += i;
    return t;
  }
};

/// Run the whole deck through the public step calls; every protected
/// container commits into one FaultLog.
template <class ES, class SS, class VS>
DeckResult run_deck(const abft::tealeaf::Config& cfg, Tracer& tracer, bool perturb) {
  using PM = typename Fmt::template protected_matrix<Index, ES, SS>;
  abft::tealeaf::Problem problem(cfg);
  abft::FaultLog log;
  abft::solvers::SolveOptions opts;
  opts.tolerance = cfg.tl_eps;
  opts.max_iterations = cfg.tl_max_iters;
  opts.check_policy = abft::CheckIntervalPolicy(1);
  const std::size_t n = problem.mesh().cells();

  DeckResult out;
  const ObsCounts obs0 = ObsCounts::now();
  const auto deck_start = Clock::now();
  for (unsigned s = 0; s < cfg.end_step; ++s) {
    const auto step_start = Clock::now();
    Tracer::Span step_span(tracer, "tealeaf.step", s);
    std::optional<abft::sparse::CsrMatrix> csr;
    {
      Tracer::Span sp(tracer, "tealeaf.assemble", s);
      csr.emplace(problem.assemble_matrix());
    }
    std::optional<typename Fmt::template plain_matrix<Index>> plain;
    {
      Tracer::Span sp(tracer, "sparse.make_plain", s);
      plain.emplace(Fmt::template make_plain<Index, ES>(*csr));
    }
    std::optional<PM> pa;
    {
      Tracer::Span sp(tracer, "abft.encode", s);
      pa.emplace(PM::from_plain(*plain, &log, abft::DuePolicy::throw_exception));
    }
    out.encode_bytes = matrix_bytes(*pa);
    abft::ProtectedVector<VS> b(n, &log), u(n, &log);
    {
      Tracer::Span sp(tracer, "abft.vector_encode", s);
      b.assign({problem.u().data(), n});
      u.assign({problem.u().data(), n});
    }
    abft::solvers::SolveResult res;
    {
      Tracer::Span sp(tracer, "solvers.cg", s);
      const auto t0 = Clock::now();
      res = abft::solvers::cg_solve(*pa, b, u, opts);
      out.cg_s += seconds_between(t0, Clock::now());
    }
    {
      Tracer::Span sp(tracer, "abft.vector_extract", s);
      u.extract({problem.u().data(), n});
    }
    if (perturb && s + 1 == cfg.end_step) {
      // Negative test: a 1 % error in the hottest cell.
      auto& field = problem.u();
      std::size_t hot = 0;
      for (std::size_t i = 1; i < n; ++i) hot = std::abs(field[i]) > std::abs(field[hot]) ? i : hot;
      field[hot] *= 1.01;
    }
    {
      Tracer::Span sp(tracer, "tealeaf.update_energy", s);
      problem.update_energy_from_u();
    }
    out.iterations.push_back(res.iterations);
    out.converged.push_back(res.converged && !res.breakdown);
    out.step_s.push_back(seconds_between(step_start, Clock::now()));
  }
  out.tts_s = seconds_between(deck_start, Clock::now());
  out.obs_delta = ObsCounts::now() - obs0;
  out.log_totals = {log.checks(), log.corrected(), log.uncorrectable()};
  out.summary = problem.field_summary();
  out.u.assign(problem.u().begin(), problem.u().end());
  return out;
}

using ES = abft::schemes::ElemCrc32cTile<Index>;
using SS = abft::schemes::RowCrc32c<Index>;
using VS = abft::VecCrc32c;

/// The largest relative difference of the four field-summary sums.
double summary_diff(const abft::tealeaf::Problem::FieldSummary& a,
                    const abft::tealeaf::Problem::FieldSummary& b) {
  const auto rel = [](double x, double y) {
    const double scale = std::max(std::abs(x), std::abs(y));
    return scale == 0.0 ? 0.0 : std::abs(x - y) / scale;
  };
  return std::max({rel(a.volume, b.volume), rel(a.mass, b.mass),
                   rel(a.internal_energy, b.internal_energy),
                   rel(a.temperature, b.temperature)});
}

/// max |u - u_ref| over every cell, relative to max |u_ref|.
double field_diff(const std::vector<double>& u, const std::vector<double>& ref) {
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, std::abs(u[i] - ref[i]));
    scale = std::max(scale, std::abs(ref[i]));
  }
  return err / scale;
}

}  // namespace

void run_tealeaf(const Options& o, Tracer& tracer, Report& report) {
  set_threads(kThreads);
  const auto cfg = make_deck(o);
  std::printf("# tealeaf: %zux%zu cells, %u steps, tl_eps %.0e, ell crc32c-tile, %d threads\n",
              cfg.mesh.nx, cfg.mesh.ny, cfg.end_step, cfg.tl_eps, kThreads);

  // Reference: the same deck unprotected.
  Tracer off(false);
  const DeckResult ref = run_deck<abft::schemes::ElemNone<Index>, abft::schemes::RowNone<Index>,
                                  abft::VecNone>(cfg, off, false);
  std::printf("# reference (none): %llu iterations, %.3f s\n",
              static_cast<unsigned long long>(ref.total_iterations()), ref.tts_s);

  // Set-up: problem init plus the first assemble and encode, several times,
  // after the reference run has brought the machine out of idle.
  std::vector<double> setup;
  for (int k = 0; k < (o.size == Size::tiny ? 2 : 25); ++k) {
    const auto t0 = Clock::now();
    abft::tealeaf::Problem problem(cfg);
    const auto plain = Fmt::make_plain<Index, ES>(problem.assemble_matrix());
    auto pa = Fmt::protected_matrix<Index, ES, SS>::from_plain(plain);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  report_setup(report, setup);

  std::vector<DeckResult> decks;
  const auto begin = Clock::now();
  const std::size_t min_decks = o.size == Size::tiny ? 2 : 3;
  while (decks.size() < min_decks || seconds_between(begin, Clock::now()) < o.seconds) {
    Tracer& t = traced_repeat(o, decks.size()) ? tracer : off;
    decks.push_back(run_deck<ES, SS, VS>(cfg, t, o.perturb && decks.empty()));
  }

  const DeckResult& d0 = decks.front();
  std::printf("# deck: %llu CG iterations, %zu decks measured\n",
              static_cast<unsigned long long>(d0.total_iterations()), decks.size());
  std::vector<double> tts, steps, cg;
  double total_s = 0.0, worst_field = 0.0;
  std::size_t total_steps = 0;
  for (std::size_t k = 0; k < decks.size(); ++k) {
    const DeckResult& d = decks[k];
    for (std::size_t s = 0; s < d.step_s.size(); ++s) {
      report.attempt(d.converged[s], "deck " + std::to_string(k) + " step " + std::to_string(s) +
                         " did not converge");
    }
    const double field = field_diff(d.u, ref.u);
    const double summary = summary_diff(d.summary, ref.summary);
    worst_field = std::max(worst_field, field);
    report.attempt(field <= kFieldTol && summary <= kSummaryTol,
                   "deck " + std::to_string(k) + ": differs from the unprotected run by " +
                       std::to_string(field) + " of max |u| (field), " +
                       std::to_string(summary) + " (summary)");
    report.expect_repeat("solvers.iterations", d0.total_iterations(), d.total_iterations());
    for (std::size_t s = 0; s < d.iterations.size(); ++s) {
      report.expect_repeat("step iterations", d0.iterations[s], d.iterations[s]);
    }
    report.expect_repeat("faultlog checks", d0.log_totals.checks, d.log_totals.checks);
    report.expect_repeat("faults.corrected", d0.log_totals.corrected, d.log_totals.corrected);
    report.expect_repeat("faults.uncorrectable", d0.log_totals.uncorrectable,
                         d.log_totals.uncorrectable);
    if (!(d.obs_delta == d.log_totals)) report.fail("obs registry delta != FaultLog totals");
    tts.push_back(d.tts_s);
    cg.push_back(d.cg_s);
    steps.insert(steps.end(), d.step_s.begin(), d.step_s.end());
    total_s += d.tts_s;
    total_steps += d.step_s.size();
  }
  std::printf("# largest cell difference from the unprotected run: %.3g of max |u|\n",
              worst_field);
  report.metric("tts_s", median(tts), "s", tts.size());
  report.metric("p50_ms", percentile(steps, 50) * 1e3, "ms", steps.size());
  report.metric("p99_ms", percentile(steps, 99) * 1e3, "ms", steps.size());
  report.metric("sat_rps", static_cast<double>(total_steps) / total_s, "1/s", total_steps);

  if (!o.trace) return;
  const double iters = static_cast<double>(d0.total_iterations());
  const double cg_s = median(cg);
  report.metric("tealeaf.assemble_s", median(tracer.durations("tealeaf.assemble")), "s");
  report.metric("sparse.make_plain_s", median(tracer.durations("sparse.make_plain")), "s");
  report.metric("abft.encode_s", median(tracer.durations("abft.encode")), "s");
  report.metric("abft.encode_mb", static_cast<double>(d0.encode_bytes) / 1e6, "MB");
  report.metric("abft.checks_per_iter", static_cast<double>(d0.log_totals.checks) / iters,
                "count");
  report.metric("solvers.iterations", iters, "count");
  report.metric("solvers.cg_s", cg_s, "s", cg.size());
  report.metric("solvers.iter_us", cg_s / iters * 1e6, "us");

  {
    abft::tealeaf::Problem problem(cfg);
    const auto csr = problem.assemble_matrix();
    probe_kernels<Fmt, ES, SS, VS>(Fmt::make_plain<Index, ES>(csr),
                                   Fmt::make_plain<Index, abft::schemes::ElemNone<Index>>(csr),
                                   kThreads, 4, report);
  }
  finish_trace(o, tracer, report, tts);
}

}  // namespace perfbench
