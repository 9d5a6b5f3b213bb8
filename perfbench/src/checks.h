// Correctness checks computed apart from the serving engine. Every workload
// uses them; each is a pure function of values, so the benchmark's own test
// can perturb a result and show that the check catches it.
//
//   * Per-object reference: an object's request subsequence, replayed
//     through core::RunWithCost on the virtual StaticAllocation /
//     DynamicAllocation classes, must give exactly the request count, cost
//     breakdown and final scheme the engine reports, and every scheme keeps
//     at least t members.
//   * Fingerprints: request count, cost breakdown and a CRC of every
//     object's scheme; two services that served the same per-object
//     histories must agree bit for bit (replay, recovery).
//   * Competitive analysis: LB <= OPT <= IntervalOpt, OPT <= each
//     algorithm's cost, each cost within its Theorem 1-4 factor of OPT, and
//     OPT's reconstructed witness legal, t-available and as cheap as OPT.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <optional>
#include <string>
#include <vector>

#include "objalloc/core/object_service.h"
#include "objalloc/model/allocation_schedule.h"
#include "objalloc/model/cost_evaluator.h"
#include "objalloc/model/schedule.h"

namespace perfbench {

namespace core = objalloc::core;
namespace model = objalloc::model;

struct CheckResult {
  bool ok = true;
  std::string message;  // why it failed; empty when ok
};

// ---- Fingerprints -------------------------------------------------------

struct Fingerprint {
  int64_t requests = 0;
  model::CostBreakdown breakdown;
  uint32_t scheme_crc = 0;

  std::string ToString() const;
};

// O(objects): sorts the ids and reads every object's scheme.
Fingerprint FingerprintOf(const core::ObjectService& service);

CheckResult CheckFingerprint(const std::string& what,
                             const Fingerprint& expected,
                             const Fingerprint& actual);

// ---- Per-object reference ----------------------------------------------

struct ObjectHistory {
  core::ObjectId id = 0;
  core::ObjectConfig config;
  std::vector<model::Request> requests;
};

struct ReferenceResult {
  int64_t requests = 0;
  model::CostBreakdown breakdown;
  model::ProcessorSet final_scheme;
  // Smallest scheme the reference allocation schedule ever held.
  int min_scheme_size = 0;
};

// Runs the object's history through the virtual algorithm class of its
// kind (StaticAllocation for kStatic, DynamicAllocation for kDynamic).
ReferenceResult RunReference(const model::CostModel& cost_model,
                             int num_processors, const ObjectHistory& history);

// Compares what the engine reports for one object with its reference.
CheckResult CheckObject(const ObjectHistory& history,
                        const ReferenceResult& reference,
                        const core::ObjectStats& served);

// ---- Competitive analysis ------------------------------------------------

struct ScheduleAnalysis {
  double lower_bound = 0;  // RelaxationLowerBound
  double opt = 0;          // ExactOptCost
  double interval = 0;     // IntervalOptCost
  double sa = 0;           // RunWithCost(StaticAllocation)
  double da = 0;           // RunWithCost(DynamicAllocation)
  std::optional<double> sa_factor;  // Theorem 1; none in MC (Prop. 3)
  double da_factor = 0;             // Theorems 2-4
};

CheckResult CheckAnalysis(const ScheduleAnalysis& analysis);

// OPT's reconstructed allocation schedule serves `schedule`, is legal and
// t-available, and costs exactly `opt`.
CheckResult CheckWitness(const model::CostModel& cost_model,
                         const model::Schedule& schedule,
                         const model::AllocationSchedule& witness, double opt,
                         int t);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
