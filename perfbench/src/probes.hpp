/// \file probes.hpp
/// \brief Per-layer kernel probes for the traced run: the protected kernels
/// timed from outside on the workload's own operator, beside an unprotected
/// (None-scheme) twin of the same operator in the same format, so the ECC
/// cost reads as a difference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "abft/abft.hpp"
#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {

using abft::ProtectedMultiVector;
using abft::ProtectedVector;

/// Median seconds of one call of \p fn, over as many calls as fit in about
/// \p budget_s (at least 5), after one warm-up call.
template <class Fn>
double time_median(Fn&& fn, double budget_s = 0.25) {
  fn();
  std::vector<double> t;
  const auto begin = Clock::now();
  while (t.size() < 5 || (seconds_between(begin, Clock::now()) < budget_s && t.size() < 2000)) {
    const auto a = Clock::now();
    fn();
    t.push_back(seconds_between(a, Clock::now()));
  }
  return median(std::move(t));
}

inline void set_threads(int n) {
#if defined(_OPENMP)
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Protected storage of a matrix container in bytes (slab or row arrays plus
/// the structural array): the bytes an encode writes and a full check reads.
template <class PM>
std::size_t matrix_bytes(PM& m) {
  return m.raw_values().size_bytes() + m.raw_cols().size_bytes() +
         m.raw_structure().size_bytes();
}

/// One CG iteration's BLAS-1 work: 2 dot + 2 axpy + 1 xpby.
template <class VS>
double blas1_iteration(ProtectedVector<VS>& p, ProtectedVector<VS>& w,
                       ProtectedVector<VS>& u, ProtectedVector<VS>& r) {
  const double pw = abft::dot(p, w);
  abft::axpy(1e-9, p, u);
  abft::axpy(-1e-9, w, r);
  const double rr = abft::dot(r, r);
  abft::xpby(r, 1e-9, p);
  return pw + rr;
}

/// \p n seeded values in [-1, 1).
inline std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  abft::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Time the protected kernels on \p plain encoded as \p PM (format Fmt) and
/// as its None twin, at \p threads OpenMP threads, and report the abft/ecc
/// per-layer metrics. \p spmm_k is the batch width of the SpMM probe.
template <class Fmt, class ES, class SS, class VS, class Plain>
void probe_kernels(const Plain& plain_protected, const Plain& plain_none, int threads,
                   std::size_t spmm_k, Report& report) {
  using Index = std::uint32_t;
  using PM = typename Fmt::template protected_matrix<Index, ES, SS>;
  using PN = typename Fmt::template protected_matrix<Index, abft::schemes::ElemNone<Index>,
                                                     abft::schemes::RowNone<Index>>;
  abft::FaultLog mlog, vlog;
  auto pa = PM::from_plain(plain_protected, &mlog, abft::DuePolicy::throw_exception);
  auto pn = PN::from_plain(plain_none, nullptr, abft::DuePolicy::throw_exception);
  const std::size_t n = pa.nrows();
  const auto xv = random_vector(n, 7);

  ProtectedVector<VS> x(n, &vlog), y(n, &vlog), u(n, &vlog), r(n, &vlog);
  ProtectedVector<abft::VecNone> xn(n), yn(n), un(n), rn(n);
  for (auto* v : {&x, &u, &r}) v->assign(xv);
  for (auto* v : {&xn, &un, &rn}) v->assign(xv);

  set_threads(threads);
  const double spmv_s = time_median([&] { abft::spmv(pa, x, y); });
  const double spmv_none_s = time_median([&] { abft::spmv(pn, xn, yn); });
  const double blas1_s = time_median([&] { (void)blas1_iteration(x, y, u, r); });
  const double blas1_none_s = time_median([&] { (void)blas1_iteration(xn, yn, un, rn); });
  const double verify_s = time_median([&] { (void)pa.verify_all(); });
  set_threads(1);
  const double spmv_t1_s = time_median([&] { abft::spmv(pa, x, y); });
  set_threads(threads);

  ProtectedMultiVector<VS> xs(n, spmm_k, &vlog), ys(n, spmm_k, &vlog);
  for (std::size_t j = 0; j < spmm_k; ++j) xs.column(j).assign(xv);
  const double spmm_s = time_median([&] { abft::spmm(pa, xs, ys); });
  const std::uint64_t before = mlog.checks();
  abft::spmm(pa, xs, ys);
  const std::uint64_t spmm_checks = mlog.checks() - before;

  const double bytes = static_cast<double>(matrix_bytes(pa) + x.raw().size_bytes() +
                                           y.raw().size_bytes());
  report.metric("abft.spmv_us", spmv_s * 1e6, "us");
  report.metric("abft.spmv_none_us", spmv_none_s * 1e6, "us");
  report.metric("abft.spmv_t1_us", spmv_t1_s * 1e6, "us");
  report.metric("abft.spmv_gbps", bytes / spmv_s / 1e9, "GB/s");
  report.metric("abft.blas1_us", blas1_s * 1e6, "us");
  report.metric("abft.blas1_none_us", blas1_none_s * 1e6, "us");
  report.metric("abft.spmm_us", spmm_s * 1e6, "us");
  report.metric("abft.spmm_matrix_checks", static_cast<double>(spmm_checks), "count");
  report.metric("abft.verify_all_ms", verify_s * 1e3, "ms");
  report.metric("ecc.spmv_protect_us", (spmv_s - spmv_none_s) * 1e6, "us");
  report.metric("ecc.blas1_protect_us", (blas1_s - blas1_none_s) * 1e6, "us");
}

}  // namespace perfbench
