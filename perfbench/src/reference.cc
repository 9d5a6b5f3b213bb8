#include <algorithm>
#include <atomic>
#include <cstdio>

#include "checks.h"
#include "objalloc/util/parallel.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Replays `subset` through the reference on ReferenceThreads() threads.
// Objects are independent, so each thread takes the next object from a
// shared counter: a thread whose core is busy elsewhere just takes fewer.
// Returns schedules per second of the threads' summed CPU time, times the
// thread count: the rate the replay reaches with that many cores to itself.
// Wall time would also count the time the shared host keeps the threads
// off their cores, which moves by a quarter from one run to the next.
double Replay(const model::CostModel& cost_model, int num_processors,
              const std::vector<const ObjectHistory*>& subset,
              std::vector<ReferenceResult>* results) {
  const int threads = ReferenceThreads();
  std::atomic<size_t> next{0};
  std::atomic<int64_t> cpu_ns{0};
  objalloc::util::ParallelFor(
      0, static_cast<size_t>(threads), 1,
      [&](size_t, size_t) {
        const int64_t cpu_start = ThreadCpuNs();
        for (size_t i = next++; i < subset.size(); i = next++) {
          PERFBENCH_SPAN("core.RunWithCost", subset[i]->id);
          ReferenceResult reference =
              RunReference(cost_model, num_processors, *subset[i]);
          if (results != nullptr) (*results)[i] = reference;
        }
        cpu_ns += ThreadCpuNs() - cpu_start;
      },
      objalloc::util::ParallelOptions{threads});
  return static_cast<double>(subset.size()) * threads /
         (static_cast<double>(std::max<int64_t>(cpu_ns, 1)) * 1e-9);
}

}  // namespace

void CheckSampledObjects(const model::CostModel& cost_model,
                         int num_processors,
                         const std::vector<ObjectHistory>& histories,
                         const core::ObjectService& service, Report* report) {
  std::vector<const ObjectHistory*> all;
  for (const ObjectHistory& history : histories) all.push_back(&history);
  std::vector<ReferenceResult> references(all.size());
  Replay(cost_model, num_processors, all, &references);
  int failures = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const CheckResult check = CheckObject(*all[i], references[i],
                                          *service.StatsFor(all[i]->id));
    if (!check.ok && ++failures <= 3) report->Fail(check.message);
  }
  report->ops.Add(Op::kSchedule, histories.size());
  std::printf("reference: %zu sampled objects checked\n", all.size());
}

ReferenceTimer::ReferenceTimer(const model::CostModel& cost_model,
                               int num_processors,
                               const std::vector<ObjectHistory>& histories,
                               size_t round_schedules)
    : cost_model_(cost_model), num_processors_(num_processors) {
  std::vector<const ObjectHistory*> timed;
  for (const ObjectHistory& history : histories) {
    if (history.requests.size() <= kTimedHistoryMax) timed.push_back(&history);
  }
  // Each round replays the timed subset `repeats` times.
  const size_t repeats =
      timed.empty() ? 1 : (round_schedules + timed.size() - 1) / timed.size();
  round_.reserve(timed.size() * repeats);
  for (size_t r = 0; r < repeats; ++r) {
    round_.insert(round_.end(), timed.begin(), timed.end());
  }
  int64_t requests = 0;
  for (const ObjectHistory* history : timed) {
    requests += static_cast<int64_t>(history->requests.size());
  }
  std::printf("reference: rounds of %zu schedules (%zu objects x %zu, %lld "
              "requests each pass)\n",
              round_.size(), timed.size(), repeats,
              static_cast<long long>(requests));
}

void ReferenceTimer::Round() {
  // The first round is preceded by an untimed one that warms the pool,
  // the allocator and the caches.
  if (rates_.empty()) Replay(cost_model_, num_processors_, round_, nullptr);
  const CpuTicks before = ReadCpuTicks();
  rates_.push_back(Replay(cost_model_, num_processors_, round_, nullptr));
  steal_.push_back(StealShare(before, ReadCpuTicks()));
}

double ReferenceTimer::SchedulesPerSecond() const {
  PrintRepetitions("reference: schedules/s (steal %)", rates_, steal_);
  return QuietMedian(rates_, steal_);
}

uint64_t ReferenceTimer::Schedules() const {
  // Timed rounds and the warm-up round before them.
  return rates_.empty() ? 0 : (rates_.size() + 1) * round_.size();
}

}  // namespace perfbench
