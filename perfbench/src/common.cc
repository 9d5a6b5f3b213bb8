#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "objalloc/util/rng.h"

namespace perfbench {

const char* OpName(Op op) {
  switch (op) {
    case Op::kRead: return "read";
    case Op::kWrite: return "write";
    case Op::kStats: return "stats";
    case Op::kRecover: return "recover";
    case Op::kSchedule: return "schedule";
  }
  return "?";
}

uint64_t OpCounts::TotalAttempted() const {
  uint64_t total = 0;
  for (uint64_t n : attempted) total += n;
  return total;
}

uint64_t OpCounts::TotalFailed() const {
  uint64_t total = 0;
  for (uint64_t n : failed) total += n;
  return total;
}

const Metric* Report::Find(const std::string& name) const {
  for (const std::vector<Metric>* list : {&end_to_end, &per_layer}) {
    for (const Metric& metric : *list) {
      if (metric.name == name) return &metric;
    }
  }
  return nullptr;
}

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

bool AdmitConfiguration(const std::string& workload, const ThreadRoles& roles) {
  const int nproc = Nproc();
  std::printf(
      "config: workload=%s nproc=%d build=%s threads: server_loop=%d wal=%d "
      "shard_workers=%d generator=%d (together %d) analysis_pool=%d (alone)\n",
      workload.c_str(), nproc, PERFBENCH_BUILD_TYPE, roles.server_loop,
      roles.wal, roles.shard_workers, roles.generator, roles.Serving(),
      roles.analysis_pool);
  if (roles.Total() > nproc) {
    std::fprintf(stderr,
                 "refused: %d threads configured for %d online CPUs\n",
                 roles.Total(), nproc);
    return false;
  }
  return true;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  FILE* in = std::fopen("/proc/stat", "r");
  if (in == nullptr) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(in, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(in);
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::vector<size_t> QuietWindows(const std::vector<double>& steal_shares) {
  std::vector<size_t> order(steal_shares.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_shares[a] < steal_shares[b];
  });
  size_t keep = 0;
  while (keep < order.size() && steal_shares[order[keep]] <= 0.02) ++keep;
  keep = std::max(keep, (order.size() + 2) / 3);
  order.resize(std::min(keep, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> Select(const std::vector<double>& values,
                           const std::vector<size_t>& indices) {
  std::vector<double> out;
  out.reserve(indices.size());
  for (size_t i : indices) out.push_back(values[i]);
  return out;
}

void PrintRepetitions(const char* label, const std::vector<double>& values,
                      const std::vector<double>& steal_shares) {
  std::printf("%s:", label);
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf(" %.4g(%.0f)", values[i], 100 * steal_shares[i]);
  }
  std::printf("\n");
}

bool Sampled(int64_t id, uint32_t one_in) {
  // Fixed salt: the sampled set does not move with the workload seed, so
  // the amount of checking work stays the same from run to run.
  uint64_t state = 0x9e3779b97f4a7c15ull ^ static_cast<uint64_t>(id);
  return objalloc::util::SplitMix64(state) % one_in == 0;
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& metric : metrics) {
    std::printf("  %-32s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void PrintOps(const OpCounts& ops) {
  std::printf("operations:");
  for (int i = 0; i < kOpTypes; ++i) {
    if (ops.attempted[i] == 0) continue;
    std::printf(" %s=%llu/%llu", OpName(static_cast<Op>(i)),
                static_cast<unsigned long long>(ops.attempted[i]),
                static_cast<unsigned long long>(ops.failed[i]));
  }
  std::printf("  (attempted/failed)\n");
}

void PrintResultJson(bool correct, const OpCounts& ops,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.TotalAttempted()),
              static_cast<unsigned long long>(ops.TotalFailed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
