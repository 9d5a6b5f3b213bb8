// Shared pieces of the objalloc benchmark: run arguments, operation
// accounting, thread-role bookkeeping, metric reporting and small
// statistics helpers.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// CPU time of the calling thread. It does not advance while the thread
// waits for a core, whether the guest gave the core to another process or
// the hypervisor took it from the guest.
inline int64_t ThreadCpuNs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Scratch directory inside the checkout (durability directories, span
  // files). Created by the caller.
  std::string work_dir = ".bench_build/work";
};

// Operation types every run accounts for.
enum class Op { kRead = 0, kWrite, kStats, kRecover, kSchedule };
inline constexpr int kOpTypes = 5;
const char* OpName(Op op);

struct OpCounts {
  uint64_t attempted[kOpTypes] = {};
  uint64_t failed[kOpTypes] = {};

  void Add(Op op, uint64_t attempted_ops, uint64_t failed_ops = 0) {
    attempted[static_cast<int>(op)] += attempted_ops;
    failed[static_cast<int>(op)] += failed_ops;
  }
  uint64_t TotalAttempted() const;
  uint64_t TotalFailed() const;
};

// Threads the run gives each role. The serving roles run together; the
// analysis pool runs alone (the competitive analysis, or the reference
// checks after serving has stopped). Neither group may exceed nproc.
struct ThreadRoles {
  int server_loop = 0;
  int wal = 0;
  int shard_workers = 0;  // threads beyond the caller that serve shards
  int generator = 0;
  int analysis_pool = 0;

  int Serving() const { return server_loop + wal + shard_workers + generator; }
  int Total() const { return std::max(Serving(), analysis_pool); }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one pass of a workload produced.
struct Report {
  std::vector<std::string> failures;  // failed correctness checks
  OpCounts ops;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Fail(const std::string& message) { failures.push_back(message); }
  bool correct() const { return failures.empty(); }
  const Metric* Find(const std::string& name) const;
};

// Online CPUs of this host.
int Nproc();

// Prints the run's configuration and refuses (returns false) a
// configuration whose threads exceed nproc.
bool AdmitConfiguration(const std::string& workload, const ThreadRoles& roles);

// Median / percentile (linear interpolation) of a copy of `values`;
// 0 for an empty input.
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// CPU time of the whole host as /proc/stat counts it. `steal` is time the
// hypervisor gave this machine's CPUs to something else. Zeros when the
// file cannot be read.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
// Share of CPU time stolen between two readings (0 when none passed).
double StealShare(const CpuTicks& before, const CpuTicks& after);

// The measured windows the hypervisor disturbed least: every window with
// at most 2% of its CPU time stolen or, when fewer than a third of the
// windows qualify, the third with the least steal. Metrics of parallel
// work are taken over these windows, because a stolen vCPU stalls every
// thread that waits for it and turns host contention into run-to-run
// noise that says nothing about the program.
std::vector<size_t> QuietWindows(const std::vector<double>& steal_shares);

// values[i] for every i in `indices`.
std::vector<double> Select(const std::vector<double>& values,
                           const std::vector<size_t>& indices);

// Median of `values` over the QuietWindows of `steal_shares`.
inline double QuietMedian(const std::vector<double>& values,
                          const std::vector<double>& steal_shares) {
  return Median(Select(values, QuietWindows(steal_shares)));
}

// Prints "label: value(steal %) ..." for repeated measurements.
void PrintRepetitions(const char* label, const std::vector<double>& values,
                      const std::vector<double>& steal_shares);

// Calls `measure` `times` times (each call returns one measurement) and
// returns the median over the calls the hypervisor disturbed least. With a
// `label`, prints every measurement first.
template <typename Measure>
double RepeatQuiet(int times, Measure measure, const char* label = nullptr) {
  std::vector<double> values;
  std::vector<double> steal;
  for (int i = 0; i < times; ++i) {
    const CpuTicks before = ReadCpuTicks();
    values.push_back(measure(i));
    steal.push_back(StealShare(before, ReadCpuTicks()));
  }
  if (label != nullptr) PrintRepetitions(label, values, steal);
  return QuietMedian(values, steal);
}

// Deterministic 1-in-`one_in` sample of object ids.
bool Sampled(int64_t id, uint32_t one_in);

// Prints "  name = value unit" lines for a metric list.
void PrintMetrics(const char* heading, const std::vector<Metric>& metrics);

// Prints attempted / failed operations per type.
void PrintOps(const OpCounts& ops);

// The last line of the run: the result JSON.
void PrintResultJson(bool correct, const OpCounts& ops,
                     const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
