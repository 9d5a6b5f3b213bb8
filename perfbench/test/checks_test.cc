// Shows that each correctness check of the benchmark passes on a real
// result and fails once that result is perturbed.
//
// Build and run: python3 perfbench/run.py --test

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "objalloc/analysis/theorems.h"
#include "objalloc/core/dynamic_allocation.h"
#include "objalloc/core/runner.h"
#include "objalloc/core/static_allocation.h"
#include "objalloc/opt/exact_opt.h"
#include "objalloc/opt/interval_opt.h"
#include "objalloc/opt/relaxation_lower_bound.h"
#include "objalloc/util/rng.h"

namespace {

using namespace perfbench;
namespace util = objalloc::util;

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++g_failures;
}

const model::CostModel kModel = model::CostModel::StationaryComputing(0.25, 1.0);
constexpr int kProcessors = 6;

struct Served {
  core::ObjectService service{kProcessors, kModel};
  std::vector<ObjectHistory> histories;
};

// Two objects (one SA, one DA) served a random stream through the engine.
Served Serve() {
  Served served;
  served.histories.push_back(
      {7, {model::ProcessorSet{0, 1}, core::AlgorithmKind::kDynamic}, {}});
  served.histories.push_back(
      {9, {model::ProcessorSet{2, 3, 4}, core::AlgorithmKind::kStatic}, {}});
  for (const ObjectHistory& h : served.histories) {
    served.service.AddObject(h.id, h.config);
  }
  util::Rng rng(42);
  std::vector<objalloc::workload::MultiObjectEvent> events;
  for (int i = 0; i < 400; ++i) {
    ObjectHistory& h = served.histories[rng.NextBounded(2)];
    const auto p = static_cast<util::ProcessorId>(rng.NextBounded(kProcessors));
    const model::Request request = rng.NextDouble() < 0.3
                                       ? model::Request::Write(p)
                                       : model::Request::Read(p);
    h.requests.push_back(request);
    events.push_back({h.id, request});
  }
  served.service.ServeBatch(events);
  return served;
}

void TestObjectReference() {
  Served served = Serve();
  for (const ObjectHistory& h : served.histories) {
    const ReferenceResult reference = RunReference(kModel, kProcessors, h);
    const core::ObjectStats stats = *served.service.StatsFor(h.id);
    const std::string object = "object " + std::to_string(h.id) + ": ";
    Expect(CheckObject(h, reference, stats).ok, object + "engine matches");

    core::ObjectStats perturbed = stats;
    perturbed.breakdown.io_ops += 1;
    Expect(!CheckObject(h, reference, perturbed).ok,
           object + "perturbed breakdown caught");
    perturbed = stats;
    perturbed.requests += 1;
    Expect(!CheckObject(h, reference, perturbed).ok,
           object + "perturbed request count caught");
    perturbed = stats;
    perturbed.scheme = stats.scheme.Contains(5)
                           ? stats.scheme.WithErased(5)
                           : stats.scheme.WithInserted(5);
    Expect(!CheckObject(h, reference, perturbed).ok,
           object + "perturbed scheme caught");
    perturbed = stats;
    perturbed.scheme = model::ProcessorSet::Singleton(stats.scheme.First());
    Expect(!CheckObject(h, reference, perturbed).ok,
           object + "scheme below t caught");
    ReferenceResult short_reference = reference;
    short_reference.min_scheme_size = h.config.initial_scheme.Size() - 1;
    Expect(!CheckObject(h, short_reference, stats).ok,
           object + "reference below t caught");
  }
}

void TestFingerprint() {
  Served a = Serve();
  Served b = Serve();
  const Fingerprint fa = FingerprintOf(a.service);
  const Fingerprint fb = FingerprintOf(b.service);
  Expect(CheckFingerprint("same history", fa, fb).ok,
         "fingerprints of identical histories agree");
  Fingerprint perturbed = fb;
  perturbed.requests += 1;
  Expect(!CheckFingerprint("", fa, perturbed).ok,
         "perturbed request count caught");
  perturbed = fb;
  perturbed.breakdown.control_messages += 1;
  Expect(!CheckFingerprint("", fa, perturbed).ok,
         "perturbed breakdown caught");
  perturbed = fb;
  perturbed.scheme_crc ^= 1;
  Expect(!CheckFingerprint("", fa, perturbed).ok, "perturbed scheme CRC caught");
  // One more event on one object changes the live state.
  b.service.Serve(7, model::Request::Write(5));
  Expect(!CheckFingerprint("", fa, FingerprintOf(b.service)).ok,
         "a diverged service caught");
}

void TestAnalysis() {
  util::Rng rng(7);
  model::Schedule schedule(kProcessors);
  for (int i = 0; i < 60; ++i) {
    const auto p = static_cast<util::ProcessorId>(rng.NextBounded(kProcessors));
    if (rng.NextDouble() < 0.4) {
      schedule.AppendWrite(p);
    } else {
      schedule.AppendRead(p);
    }
  }
  const model::ProcessorSet initial = model::ProcessorSet::FirstN(2);
  ScheduleAnalysis a;
  core::StaticAllocation sa;
  core::DynamicAllocation da;
  a.sa = core::RunWithCost(sa, kModel, schedule, initial).cost;
  a.da = core::RunWithCost(da, kModel, schedule, initial).cost;
  a.opt = objalloc::opt::ExactOptCost(kModel, schedule, initial);
  a.lower_bound = objalloc::opt::RelaxationLowerBound(kModel, schedule, initial);
  a.interval = objalloc::opt::IntervalOptCost(kModel, schedule, initial);
  a.sa_factor = objalloc::analysis::SaCompetitiveFactor(kModel);
  a.da_factor = objalloc::analysis::DaCompetitiveFactor(kModel);
  Expect(CheckAnalysis(a).ok, "analysis brackets and theorem bounds hold");

  ScheduleAnalysis p = a;
  p.lower_bound = a.opt * 1.01;
  Expect(!CheckAnalysis(p).ok, "lower bound above OPT caught");
  p = a;
  p.interval = a.opt * 0.99;
  Expect(!CheckAnalysis(p).ok, "IntervalOpt below OPT caught");
  p = a;
  p.da = a.opt * 0.99;
  Expect(!CheckAnalysis(p).ok, "algorithm below OPT caught");
  p = a;
  p.sa = *a.sa_factor * a.opt * 1.01;
  Expect(!CheckAnalysis(p).ok, "SA beyond Theorem 1 caught");
  p = a;
  p.da = a.da_factor * a.opt * 1.01;
  Expect(!CheckAnalysis(p).ok, "DA beyond its theorem factor caught");

  const model::AllocationSchedule witness =
      objalloc::opt::ExactOptSchedule(kModel, schedule, initial);
  Expect(CheckWitness(kModel, schedule, witness, a.opt, 2).ok,
         "OPT witness is legal, 2-available and costs OPT");
  Expect(!CheckWitness(kModel, schedule, witness, a.opt + 0.5, 2).ok,
         "witness cost differing from OPT caught");
  Expect(!CheckWitness(kModel, schedule, witness, a.opt, 3).ok,
         "witness below a larger t caught");
  model::Schedule other = schedule;
  other.AppendRead(0);
  Expect(!CheckWitness(kModel, other, witness, a.opt, 2).ok,
         "witness of another schedule caught");
}

}  // namespace

int main() {
  TestObjectReference();
  TestFingerprint();
  TestAnalysis();
  std::printf("%s: %d failed expectations\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
