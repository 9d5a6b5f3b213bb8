#include "checks.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "objalloc/core/dynamic_allocation.h"
#include "objalloc/core/runner.h"
#include "objalloc/core/static_allocation.h"
#include "objalloc/model/legality.h"
#include "objalloc/util/crc32.h"

namespace perfbench {
namespace {

CheckResult Failed(const std::string& message) {
  return CheckResult{false, message};
}

// Relative tolerance for comparing floating-point costs computed by
// different summation orders.
bool AtMost(double a, double b) {
  return a <= b + 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

std::string Fingerprint::ToString() const {
  std::ostringstream out;
  out << "requests=" << requests << " control=" << breakdown.control_messages
      << " data=" << breakdown.data_messages << " io=" << breakdown.io_ops
      << " scheme_crc=" << scheme_crc;
  return out.str();
}

Fingerprint FingerprintOf(const core::ObjectService& service) {
  Fingerprint fingerprint;
  fingerprint.requests = service.TotalRequests();
  fingerprint.breakdown = service.TotalBreakdown();
  for (core::ObjectId id : service.SortedObjectIds()) {
    const uint64_t mask = service.StatsFor(id)->scheme.mask();
    fingerprint.scheme_crc =
        objalloc::util::Crc32(&id, sizeof(id), fingerprint.scheme_crc);
    fingerprint.scheme_crc =
        objalloc::util::Crc32(&mask, sizeof(mask), fingerprint.scheme_crc);
  }
  return fingerprint;
}

CheckResult CheckFingerprint(const std::string& what,
                             const Fingerprint& expected,
                             const Fingerprint& actual) {
  if (expected.requests == actual.requests &&
      expected.breakdown == actual.breakdown &&
      expected.scheme_crc == actual.scheme_crc) {
    return {};
  }
  return Failed(what + ": expected " + expected.ToString() + ", got " +
                actual.ToString());
}

ReferenceResult RunReference(const model::CostModel& cost_model,
                             int num_processors,
                             const ObjectHistory& history) {
  std::unique_ptr<core::DomAlgorithm> algorithm;
  if (history.config.algorithm == core::AlgorithmKind::kStatic) {
    algorithm = std::make_unique<core::StaticAllocation>();
  } else {
    algorithm = std::make_unique<core::DynamicAllocation>();
  }
  const model::Schedule schedule(num_processors, history.requests);
  const core::RunResult run = core::RunWithCost(
      *algorithm, cost_model, schedule, history.config.initial_scheme);
  ReferenceResult reference;
  reference.requests = static_cast<int64_t>(schedule.size());
  reference.breakdown = run.breakdown;
  reference.final_scheme = run.allocation.FinalScheme();
  reference.min_scheme_size = history.config.initial_scheme.Size();
  for (size_t i = 1; i <= run.allocation.size(); ++i) {
    reference.min_scheme_size =
        std::min(reference.min_scheme_size, run.allocation.SchemeAt(i).Size());
  }
  return reference;
}

CheckResult CheckObject(const ObjectHistory& history,
                        const ReferenceResult& reference,
                        const core::ObjectStats& served) {
  const int t = history.config.initial_scheme.Size();
  const std::string object = "object " + std::to_string(history.id);
  if (reference.min_scheme_size < t) {
    return Failed(object + ": reference scheme fell below t=" +
                  std::to_string(t));
  }
  if (served.scheme.Size() < t) {
    return Failed(object + ": served scheme " + served.scheme.ToString() +
                  " has fewer than t=" + std::to_string(t) + " members");
  }
  if (served.requests != reference.requests) {
    return Failed(object + ": served " + std::to_string(served.requests) +
                  " requests, reference " +
                  std::to_string(reference.requests));
  }
  if (!(served.breakdown == reference.breakdown)) {
    return Failed(object + ": breakdown " + served.breakdown.ToString() +
                  " differs from reference " +
                  reference.breakdown.ToString());
  }
  if (served.scheme.mask() != reference.final_scheme.mask()) {
    return Failed(object + ": scheme " + served.scheme.ToString() +
                  " differs from reference " +
                  reference.final_scheme.ToString());
  }
  return {};
}

CheckResult CheckAnalysis(const ScheduleAnalysis& a) {
  std::ostringstream values;
  values << " (lb=" << a.lower_bound << " opt=" << a.opt
         << " interval=" << a.interval << " sa=" << a.sa << " da=" << a.da
         << ")";
  if (!AtMost(a.lower_bound, a.opt)) {
    return Failed("RelaxationLowerBound above OPT" + values.str());
  }
  if (!AtMost(a.opt, a.interval)) {
    return Failed("IntervalOpt below OPT" + values.str());
  }
  if (!AtMost(a.opt, a.sa) || !AtMost(a.opt, a.da)) {
    return Failed("an algorithm beat OPT" + values.str());
  }
  if (a.sa_factor.has_value() && !AtMost(a.sa, *a.sa_factor * a.opt)) {
    return Failed("SA outside its Theorem 1 factor " +
                  std::to_string(*a.sa_factor) + values.str());
  }
  if (!AtMost(a.da, a.da_factor * a.opt)) {
    return Failed("DA outside its Theorem 2-4 factor " +
                  std::to_string(a.da_factor) + values.str());
  }
  return {};
}

CheckResult CheckWitness(const model::CostModel& cost_model,
                         const model::Schedule& schedule,
                         const model::AllocationSchedule& witness, double opt,
                         int t) {
  if (!(witness.ToSchedule() == schedule)) {
    return Failed("OPT witness serves a different schedule");
  }
  const objalloc::util::Status legal =
      model::CheckLegalAndTAvailable(witness, t);
  if (!legal.ok()) return Failed("OPT witness: " + legal.ToString());
  const double cost = model::ScheduleCost(cost_model, witness);
  if (!AtMost(cost, opt) || !AtMost(opt, cost)) {
    return Failed("OPT witness costs " + std::to_string(cost) +
                  ", ExactOptCost " + std::to_string(opt));
  }
  return {};
}

}  // namespace perfbench
