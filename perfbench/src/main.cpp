/// \file main.cpp
/// \brief abftbench entry point: argument parsing, the span tracer,
/// statistics and the result report. See perfbench/README.md.
///
/// Usage: abftbench --workload tealeaf|service|storm --seed N --seconds S
///                  --trace 0|1 [--size full|tiny] [--perturb]
///                  [--out-dir DIR] [--rate-rps R] [--p99-limit-ms L]
///                  [--ladder-rps R1,R2,...]
///
/// Exit code 0 when every answer and exact-repeat check passed, 1 when any
/// failed (the RESULT line still prints, with "correct": false), 2 on usage
/// or internal errors (no RESULT line).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

thread_local std::uint64_t Tracer::tl_parent_ = 0;

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard lock(mu_);
  // Children of one span run on the parent's thread and nest inside it, so
  // the covered part of the parent is the sum of its children's durations.
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const auto& s : spans_) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    const auto it = child_ns.find(s.id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    self[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  for (const auto& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"key\":" << s.key << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB on Linux
}

ObsCounts ObsCounts::now() {
  const auto snap = abft::obs::MetricsRegistry::global().snapshot();
  return {snap.counter("abft_checks_total"), snap.counter("abft_corrected_total"),
          snap.counter("abft_uncorrectable_total")};
}

void Report::fail(const std::string& why) {
  if (errors_.size() < 20) errors_.push_back(why.empty() ? "unspecified failure" : why);
}

void Report::expect_repeat(const std::string& what, std::uint64_t want, std::uint64_t got) {
  if (want != got) {
    fail("exact-repeat: " + what + " was " + std::to_string(want) + ", now " +
         std::to_string(got));
  }
}

void Report::print(const std::string& workload) const {
  std::printf("# workload %s: attempted=%llu failed=%llu fail_frac=%.6g correct=%s\n",
              workload.c_str(), static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / attempted_,
              correct() ? "true" : "false");
  for (const auto& e : errors_) std::printf("# FAILED: %s\n", e.c_str());
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-34s %14.6g %-6s (n=%zu)\n", name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %zu}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str(), m.samples);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

abft::tealeaf::Config two_material_deck(std::size_t nx, std::uint64_t seed) {
  abft::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  abft::tealeaf::Config cfg;
  cfg.mesh = {.nx = nx, .ny = nx, .xmin = 0, .xmax = 10, .ymin = 0, .ymax = 10};
  cfg.initial_timestep = 0.004;
  cfg.solver = abft::tealeaf::SolverKind::cg;
  cfg.states = {
      abft::tealeaf::State{.density = 100.0, .energy = 0.0001},
      abft::tealeaf::State{.density = 0.1,
                           .energy = 25.0 * (1.0 + 0.005 * rng.uniform(-1.0, 1.0)),
                           .geometry = abft::tealeaf::Geometry::rectangle,
                           .xmin = 0.0,
                           .xmax = 5.0,
                           .ymin = 0.0,
                           .ymax = 2.0},
  };
  return cfg;
}

void report_setup(Report& report, const std::vector<double>& samples) {
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  std::printf("# setup: %zu samples, min %.6f s, median %.6f s, max %.6f s\n", samples.size(),
              *lo, median(samples), *hi);
  report.metric("setup_s", median(samples), "s", samples.size());
}

void finish_trace(const Options& o, Tracer& tracer, Report& report,
                  const std::vector<double>& headline_s) {
  for (const auto& [layer, s] : tracer.self_seconds_by_layer()) {
    std::printf("# self time %-10s %12.6f s\n", layer.c_str(), s);
  }
  std::filesystem::create_directories(o.out_dir);
  const std::string path =
      o.out_dir + "/trace_" + o.workload + "_" + std::to_string(o.seed) + ".jsonl";
  tracer.write_jsonl(path);
  std::printf("# spans written to %s\n", path.c_str());
  std::vector<double> untraced, traced;
  for (std::size_t k = 0; k < headline_s.size(); ++k) {
    (traced_repeat(o, k) ? traced : untraced).push_back(headline_s[k]);
  }
  report.metric("bench.trace_overhead_frac", median(traced) / median(untraced) - 1.0, "ratio",
                headline_s.size());
}

}  // namespace perfbench

namespace {

std::vector<double> parse_list(const char* s) {
  std::vector<double> out;
  const char* p = s;
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) throw std::invalid_argument(std::string("bad number list: ") + s);
    out.push_back(v);
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold (glibc otherwise raises it after large frees):
  // large buffers always come from mmap and go back to the system when
  // freed, so peak_rss_mb tracks live data, not heap fragmentation.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
        return argv[++i];
      };
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::strtoull(value(), nullptr, 10);
      } else if (a == "--seconds") {
        o.seconds = std::strtod(value(), nullptr);
      } else if (a == "--trace") {
        o.trace = std::strcmp(value(), "0") != 0;
      } else if (a == "--size") {
        const std::string s = value();
        if (s != "full" && s != "tiny") throw std::invalid_argument("--size full|tiny");
        o.size = s == "tiny" ? Size::tiny : Size::full;
      } else if (a == "--perturb") {
        o.perturb = true;
      } else if (a == "--out-dir") {
        o.out_dir = value();
      } else if (a == "--rate-rps") {
        o.rate_rps = std::strtod(value(), nullptr);
      } else if (a == "--p99-limit-ms") {
        o.p99_limit_ms = std::strtod(value(), nullptr);
      } else if (a == "--ladder-rps") {
        o.ladder_rps = parse_list(value());
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
    if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");

    Tracer tracer(o.trace);
    Report report;
    if (o.workload == "tealeaf") {
      run_tealeaf(o, tracer, report);
    } else if (o.workload == "service") {
      run_service(o, tracer, report);
    } else if (o.workload == "storm") {
      run_storm(o, tracer, report);
    } else {
      throw std::invalid_argument("--workload tealeaf|service|storm");
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.print(o.workload);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abftbench: %s\n", e.what());
    return 2;
  }
}
