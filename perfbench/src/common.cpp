#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>

#include "analysis/analysis.h"
#include "support/buffer_pool.h"

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double tail_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n > 10) rank = std::min(rank, n - 10);
  rank = std::max(rank, n / 2 + 1);  // never below the median
  return samples[rank - 1];
}

bool close(double a, double b, double abs_tol, double rel_tol) {
  return std::isfinite(a) && std::isfinite(b) &&
         std::abs(a - b) <= abs_tol + rel_tol * std::abs(b);
}

double peak_rss_mb() {
  // VmHWM starts afresh at exec; getrusage's ru_maxrss can keep the high
  // water mark of the process that forked this one (a Python launcher).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_stolen_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (double& t : ticks) stat >> t;
  if (!stat || cpu != "cpu") return 0.0;
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool contended(double stolen_s, double wall_s) {
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  return stolen_s > 0.05 * wall_s * cpus;
}

std::vector<double> uncontended(const std::vector<double>& samples,
                                const std::vector<bool>& contended) {
  std::vector<double> clean;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!contended[i]) clean.push_back(samples[i]);
  }
  return clean.size() * 4 >= samples.size() ? clean : samples;
}

double contended_share(const std::vector<bool>& contended) {
  if (contended.empty()) return 0.0;
  const auto n = std::count(contended.begin(), contended.end(), true);
  return static_cast<double>(n) / static_cast<double>(contended.size());
}

void LayerTotals::add(const psf::metrics::Registry& registry) {
  for (const auto& [name, value] : registry.counters()) {
    values[name] += static_cast<double>(value);
  }
  for (const auto& [name, sample] : registry.timers()) {
    values[name] += sample.seconds;
  }
}

LayerTotals LayerTotals::capture_global() {
  LayerTotals totals;
  totals.add(psf::metrics::Registry::global());
  // The pool's own statistics cover every registry a pooled buffer was
  // acquired under, per-job ones included.
  const auto& pool = psf::support::BufferPool::global();
  totals.values["support.pool.hits"] = static_cast<double>(pool.hits());
  totals.values["support.pool.misses"] = static_cast<double>(pool.misses());
  return totals;
}

LayerTotals LayerTotals::minus(const LayerTotals& before) const {
  LayerTotals delta = *this;
  for (const auto& [name, value] : before.values) delta.values[name] -= value;
  return delta;
}

double LayerTotals::get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

void record_layer_counts(const LayerTotals& delta, double ops,
                         Report& report) {
  // BENCHMARK.json name -> registry name (timers are summed vtime seconds).
  static const std::pair<const char*, const char*> kCounts[] = {
      {"minimpi.messages_sent", "minimpi.messages_sent"},
      {"minimpi.bytes_sent", "minimpi.bytes_sent"},
      {"minimpi.frames_sent", "minimpi.frames_sent"},
      {"minimpi.payload_allocs", "minimpi.payload_allocs"},
      {"exec.tasks_executed", "exec.tasks_executed"},
      {"exec.steals", "exec.steals"},
      {"pattern.st.halo_bytes", "pattern.st.halo_bytes"},
      {"pattern.st.iterations", "pattern.st.iterations"},
      {"pattern.gr.chunks", "pattern.gr.chunks"},
      {"pattern.gr.object_merges", "pattern.gr.object_merges"},
      {"pattern.ir.cross_edges", "pattern.ir.cross_edges"},
      {"pattern.ir.data_exchanges", "pattern.ir.data_exchanges"},
      {"pattern.sr.steps", "pattern.sr.steps"},
      {"pattern.st.exchange_vtime_s", "pattern.st.exchange_vtime"},
      {"pattern.gr.combine_vtime_s", "pattern.gr.combine_vtime"},
      {"pattern.ir.exchange_vtime_s", "pattern.ir.exchange_vtime"},
      {"support.pool.hits", "support.pool.hits"},
      {"support.pool.misses", "support.pool.misses"},
  };
  for (const auto& [metric, source] : kCounts) {
    report.values[metric] = ops > 0.0 ? delta.get(source) / ops : 0.0;
  }
}

CpSplit& CpSplit::operator+=(const CpSplit& other) {
  total += other.total;
  compute += other.compute;
  comm += other.comm;
  copy += other.copy;
  idle += other.idle;
  return *this;
}

CpSplit critical_path(const psf::timemodel::TraceRecorder& trace) {
  const auto graph = psf::analysis::TraceGraph::from_recorder(trace);
  const auto report = psf::analysis::analyze(graph);
  const auto& by = report.critical_path.by_category;
  auto part = [&by](const char* category) {
    const auto it = by.find(category);
    return it == by.end() ? 0.0 : it->second;
  };
  CpSplit split;
  split.total = report.critical_path.total;
  split.compute = part("compute");
  split.comm = part("comm");
  split.copy = part("copy");
  split.idle = part("idle");
  return split;
}

void record_cp(const CpSplit& sum, double ops, Report& report) {
  if (ops <= 0.0) return;
  report.values["timemodel.cp_compute_s"] = sum.compute / ops;
  report.values["timemodel.cp_comm_s"] = sum.comm / ops;
  report.values["timemodel.cp_copy_s"] = sum.copy / ops;
  report.values["timemodel.cp_idle_s"] = sum.idle / ops;
}

}  // namespace perfbench
