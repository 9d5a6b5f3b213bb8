// The three workloads. Each Run* function performs one complete pass —
// set-up, the measured work, and every correctness check — and returns
// its end-to-end metrics. A `traced` pass (tracing switched on by the
// caller) also derives the per-layer metrics from its spans and counters.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <vector>

#include "checks.h"
#include "common.h"

namespace perfbench {

// Checks every sampled object's engine state against its reference run;
// failures go to `report`. The reference runs on ReferenceThreads()
// threads after serving has stopped.
void CheckSampledObjects(const model::CostModel& cost_model,
                         int num_processors,
                         const std::vector<ObjectHistory>& histories,
                         const core::ObjectService& service, Report* report);

// Threads of the reference replays, each taking the next object from a
// shared counter: spread over the cores, the timing does not hang on the
// one core a single thread happens to share with another guest, and the
// core left free takes the host's own work.
inline int ReferenceThreads() { return std::max(1, Nproc() - 1); }

// Objects with more requests than this are checked but not timed: the few
// hottest objects, whose algorithm and length change with the seed, would
// otherwise decide the timing.
inline constexpr size_t kTimedHistoryMax = 4096;

// Times reference replays of the sampled objects with at most
// kTimedHistoryMax requests. Each Round() replays that subset as many
// times as it takes to reach `round_schedules` schedules, long enough to
// average over the host's short stalls. A workload calls Round() at points
// spread over its whole run, so that the rounds meet the host's slow and
// fast spells as the workload's other timings do.
class ReferenceTimer {
 public:
  ReferenceTimer(const model::CostModel& cost_model, int num_processors,
                 const std::vector<ObjectHistory>& histories,
                 size_t round_schedules);

  void Round();
  // Prints every round; returns the median schedules per second over the
  // rounds the hypervisor disturbed least.
  double SchedulesPerSecond() const;
  // Schedules replayed so far, for the operation counts.
  uint64_t Schedules() const;

 private:
  model::CostModel cost_model_;
  int num_processors_;
  std::vector<const ObjectHistory*> round_;
  std::vector<double> rates_;
  std::vector<double> steal_;
};

ThreadRoles TcpServeRoles();
Report RunTcpServe(const Args& args, bool traced);

ThreadRoles EngineZipfRoles();
Report RunEngineZipf(const Args& args, bool traced);

ThreadRoles OptEnsembleRoles();
Report RunOptEnsemble(const Args& args, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
