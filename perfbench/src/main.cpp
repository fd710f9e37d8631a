// psf-perfbench — the two-clock benchmark driver (see README.md).
//
//   psf_perfbench --workload paper-mix|halo-storm|serve-open --seed N
//                 --seconds S --trace 0|1 [--rate JOBS_PER_S]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate run that measures the per-layer metrics (half the time
// untraced, half traced). Human-readable lines name every metric with its
// unit; the LAST line of stdout is the JSON result. --rate overrides
// serve-open's offered load (for sweeping the latency-throughput knee).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json; run.py checks the two agree.
constexpr MetricDef kEndToEnd[] = {
    {"run_ms_p50", "ms"},
    {"run_ms_p90", "ms"},
    {"vtime_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"goodput_jobs_per_s", "jobs/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"error_rate", "fraction"},
    {"apps.kmeans.ms", "ms"},
    {"apps.moldyn.ms", "ms"},
    {"apps.minimd.ms", "ms"},
    {"apps.sobel.ms", "ms"},
    {"apps.heat3d.ms", "ms"},
    {"apps.heat3d_fused.ms", "ms"},
    {"apps.sobel.host_ns_per_cell", "ns"},
    {"apps.heat3d.host_ns_per_cell", "ns"},
    {"minimpi.messages_sent", "count/op"},
    {"minimpi.bytes_sent", "B/op"},
    {"minimpi.frames_sent", "count/op"},
    {"minimpi.payload_allocs", "count/op"},
    {"minimpi.pingpong_us", "us"},
    {"minimpi.world_ms.r2", "ms"},
    {"minimpi.world_ms.r4", "ms"},
    {"exec.tasks_executed", "count/op"},
    {"exec.steals", "count/op"},
    {"exec.submit_wait_us", "us"},
    {"devsim.launch_us", "us"},
    {"pattern.st.halo_bytes", "B/op"},
    {"pattern.st.iterations", "count/op"},
    {"pattern.gr.chunks", "count/op"},
    {"pattern.gr.object_merges", "count/op"},
    {"pattern.ir.cross_edges", "count/op"},
    {"pattern.ir.data_exchanges", "count/op"},
    {"pattern.sr.steps", "count/op"},
    {"pattern.st.exchange_vtime_s", "s/op"},
    {"pattern.gr.combine_vtime_s", "s/op"},
    {"pattern.ir.exchange_vtime_s", "s/op"},
    {"support.pool.hits", "count/op"},
    {"support.pool.misses", "count/op"},
    {"timemodel.cp_compute_s", "s/op"},
    {"timemodel.cp_comm_s", "s/op"},
    {"timemodel.cp_copy_s", "s/op"},
    {"timemodel.cp_idle_s", "s/op"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.run_ms_p99", "ms"},
    {"serve.submit_us_p99", "us"},
    {"serve.rejected", "count"},
    {"serve.failed", "count"},
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.late_ms_max", "ms"},
    {"trace.overhead_frac", "fraction"},
    {"host.contended_frac", "fraction"},
};

/// Each of these silently changes the program being measured.
constexpr const char* kForbiddenEnv[] = {
    "PSF_THREADS",   "PSF_COALESCE",  "PSF_SIMD",
    "PSF_FAULT_PLAN", "PSF_TELEMETRY", "PSF_METRICS",
};

int usage() {
  std::fprintf(stderr,
               "usage: psf_perfbench --workload paper-mix|halo-storm|"
               "serve-open --seed N --seconds S --trace 0|1 "
               "[--rate JOBS_PER_S]\n");
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    double number = 0.0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0 && parse_number(value, number) &&
               number >= 0.0) {
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0 &&
               parse_number(value, number) && number > 0.0 &&
               number <= 600.0) {
      options.seconds = number;
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0 &&
               (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (std::strcmp(flag, "--rate") == 0 &&
               parse_number(value, number) && number > 0.0) {
      options.rate = number;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "psf_perfbench: refusing to run with %s set: it changes "
                   "the program being measured\n",
                   name);
      return 2;
    }
  }

  Report (*run)(const Options&) = nullptr;
  if (options.workload == "paper-mix") {
    run = run_paper_mix;
  } else if (options.workload == "halo-storm") {
    run = run_halo_storm;
  } else if (options.workload == "serve-open") {
    run = run_serve_open;
  } else {
    return usage();
  }

  std::printf(
      "{\"config\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%u,\"compiler\":\"%s\","
      "\"build_type\":\"%s\"}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), __VERSION__, PSF_BENCH_BUILD_TYPE);
  std::fflush(stdout);

  Report report = run(options);
  if (report.attempted == 0) report.invalid("no operation was measured");
  report.values["error_rate"] =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;

  const bool trace = options.trace;
  std::string metrics;
  auto emit = [&](const MetricDef& def) {
    const auto it = report.values.find(def.name);
    const double value = it == report.values.end() ? 0.0 : it->second;
    if (!trace && !(value > 0.0)) {
      report.invalid(std::string("end-to-end metric ") + def.name +
                     " is not positive");
    }
    std::printf("metric %-32s %.9g %s\n", def.name, value, def.unit);
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", def.name, value, def.unit);
    metrics += buffer;
  };
  if (trace) {
    for (const auto& def : kPerLayer) emit(def);
  } else {
    for (const auto& def : kEndToEnd) emit(def);
  }
  for (const auto& problem : report.problems) {
    std::fprintf(stderr, "psf_perfbench: invalid run: %s\n", problem.c_str());
  }
  const bool correct = report.failed == 0 && report.problems.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
