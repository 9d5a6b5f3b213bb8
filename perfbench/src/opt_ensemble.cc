// opt_ensemble: the paper's competitive analysis. SA and DA against the
// exact offline OPT, bracketed by RelaxationLowerBound and IntervalOpt,
// over the WorstCaseEnsemble and AverageCaseEnsemble generators, at the
// Figure 1 (SC) and Figure 2 (MC) grid points, n = 12 processors, t = 2.
//
// A round visits every grid point in turn; at each point the analysis pool
// analyses generators x replications schedules in parallel (one figure
// cell). Schedules are generated during set-up, outside the timed rounds.
// After each round, OPT's allocation schedule is reconstructed for one
// schedule per (grid point, generator) of round 0 and checked, and the
// set-up is repeated.

#include <atomic>
#include <memory>
#include <optional>

#include "alloc_count.h"
#include "checks.h"
#include "common.h"
#include "objalloc/analysis/theorems.h"
#include "objalloc/core/dynamic_allocation.h"
#include "objalloc/core/runner.h"
#include "objalloc/core/static_allocation.h"
#include "objalloc/opt/exact_opt.h"
#include "objalloc/opt/interval_opt.h"
#include "objalloc/opt/relaxation_lower_bound.h"
#include "objalloc/util/parallel.h"
#include "objalloc/util/rng.h"
#include "objalloc/workload/ensemble.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace analysis = objalloc::analysis;
namespace opt = objalloc::opt;
namespace util = objalloc::util;
namespace workload = objalloc::workload;

constexpr int kProcessors = 12;
constexpr int kT = 2;
constexpr size_t kLength = 100;  // requests per schedule
constexpr int kReplications = 4;  // per generator and grid point
// Sizes the run: about 70% of --seconds at this many schedules per second.
constexpr double kSizingRate = 480;
// Set-ups repeated after each round (one more comes before the first).
constexpr int kSetupsPerRound = 3;

struct GridPoint {
  bool mobile = false;
  double cc = 0;
  double cd = 0;
};

// Figure 1 (SC) and Figure 2 (MC) sample points, one per region and
// boundary neighbourhood; cc <= cd throughout.
constexpr GridPoint kGrid[] = {
    {false, 0.1, 0.2}, {false, 0.25, 0.25}, {false, 0.1, 0.6},
    {false, 0.5, 0.5}, {false, 0.5, 1.0},   {false, 0.0, 1.5},
    {false, 0.5, 2.0}, {false, 1.0, 2.0},   {true, 0.1, 0.2},
    {true, 0.25, 0.25}, {true, 0.1, 0.6},   {true, 0.5, 0.5},
    {true, 0.5, 1.0},   {true, 0.0, 1.5},   {true, 0.5, 2.0},
    {true, 1.0, 2.0},
};
constexpr size_t kGridPoints = std::size(kGrid);

model::CostModel ModelAt(const GridPoint& point) {
  return point.mobile ? model::CostModel::MobileComputing(point.cc, point.cd)
                      : model::CostModel::StationaryComputing(point.cc,
                                                              point.cd);
}

struct Setup {
  std::vector<std::unique_ptr<workload::ScheduleGenerator>> generators;
  // schedules[(round * kGridPoints + point) * cell + task]
  std::vector<model::Schedule> schedules;
  int64_t generate_ns = 0;
  uint64_t requests = 0;
};

Setup BuildSetup(uint64_t seed, size_t rounds) {
  Setup setup;
  setup.generators = workload::WorstCaseEnsemble(kT);
  for (auto& generator : workload::AverageCaseEnsemble()) {
    setup.generators.push_back(std::move(generator));
  }
  const size_t cell = setup.generators.size() * kReplications;
  const size_t total = rounds * kGridPoints * cell;
  const int64_t start = NowNs();
  {
    PERFBENCH_SPAN("workload.generate", total);
    setup.schedules.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      // Task order interleaves generators so the pool's static chunks mix
      // cheap and expensive schedules.
      const auto& generator = setup.generators[(i % cell) %
                                               setup.generators.size()];
      setup.schedules.push_back(
          generator->Generate(kProcessors, kLength, util::SubSeed(seed, i)));
      setup.requests += setup.schedules.back().size();
    }
  }
  setup.generate_ns = NowNs() - start;
  // Start the analysis pool before anything is timed.
  util::ParallelFor(0, static_cast<size_t>(util::GlobalThreads()), 1,
                    [](size_t, size_t) {});
  return setup;
}

struct TaskResult {
  ScheduleAnalysis analysis;
  double micros = 0;
  uint64_t heap_bytes = 0;
};

TaskResult Analyse(const model::CostModel& cost_model,
                   const model::Schedule& schedule, uint64_t tag) {
  PERFBENCH_SPAN("analysis.Schedule", tag);
  TaskResult result;
  const uint64_t heap_before = ThreadHeapBytes();
  const int64_t start = NowNs();
  const model::ProcessorSet initial = model::ProcessorSet::FirstN(kT);
  ScheduleAnalysis& a = result.analysis;
  {
    PERFBENCH_SPAN("core.RunWithCost", tag);
    core::StaticAllocation sa;
    a.sa = core::RunWithCost(sa, cost_model, schedule, initial).cost;
  }
  {
    PERFBENCH_SPAN("core.RunWithCost", tag);
    core::DynamicAllocation da;
    a.da = core::RunWithCost(da, cost_model, schedule, initial).cost;
  }
  {
    PERFBENCH_SPAN("opt.ExactOptCost", tag);
    a.opt = opt::ExactOptCost(cost_model, schedule, initial);
  }
  {
    PERFBENCH_SPAN("opt.RelaxationLowerBound", tag);
    a.lower_bound = opt::RelaxationLowerBound(cost_model, schedule, initial);
  }
  {
    PERFBENCH_SPAN("opt.IntervalOptCost", tag);
    a.interval = opt::IntervalOptCost(cost_model, schedule, initial);
  }
  result.micros = static_cast<double>(NowNs() - start) * 1e-3;
  result.heap_bytes = ThreadHeapBytes() - heap_before;
  a.sa_factor = analysis::SaCompetitiveFactor(cost_model);
  a.da_factor = analysis::DaCompetitiveFactor(cost_model);
  return result;
}

}  // namespace

ThreadRoles OptEnsembleRoles() {
  ThreadRoles roles;
  roles.analysis_pool = Nproc();  // the caller works as one of them
  return roles;
}

Report RunOptEnsemble(const Args& args, bool traced) {
  Report report;
  util::SetGlobalThreads(Nproc());
  // Rounds are whole: every run analyses complete figure cells.
  const size_t cell_guess = 11 * kReplications;
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(args.seconds * 0.7 * kSizingRate /
                             static_cast<double>(kGridPoints * cell_guess)));
  // Set-up and the OPT witness passes are repeated between the rounds, so
  // that their samples spread over the whole run as the cells' do: a
  // repetition of a step is then as likely to meet a slow spell of the
  // shared host as any cell is. A repeated set-up replaces the previous
  // one in place: the same seed builds the same schedules.
  std::vector<double> setup_times;
  std::vector<double> setup_steal;
  auto build = [&] {
    const CpuTicks before = ReadCpuTicks();
    const int64_t start = NowNs();
    Setup built = BuildSetup(args.seed, rounds);
    setup_times.push_back(SecondsSince(start));
    setup_steal.push_back(StealShare(before, ReadCpuTicks()));
    return built;
  };
  Setup setup = build();
  const size_t cell = setup.generators.size() * kReplications;
  const size_t total = setup.schedules.size();
  std::vector<TaskResult> results(total);

  // ---- OPT's allocation schedule, reconstructed and checked: the first
  // replication of every generator at every grid point, all in round 0.
  std::vector<size_t> witness_tasks;
  for (size_t point = 0; point < kGridPoints; ++point) {
    for (size_t g = 0; g < setup.generators.size(); ++g) {
      witness_tasks.push_back(point * cell + g);
    }
  }
  // Each pool thread takes the next witness from a shared counter, so a
  // pass averages over every core. The first pass fills the allocator
  // with the DP's large buffers and is not timed; every pass is checked.
  // A pass reports its time per witness per pool thread.
  const int threads = util::GlobalThreads();
  std::vector<CheckResult> witness_checks(witness_tasks.size());
  auto witness_pass = [&] {
    std::atomic<size_t> next{0};
    const int64_t pass_start = NowNs();
    util::ParallelFor(0, static_cast<size_t>(threads), 1, [&](size_t, size_t) {
      for (size_t w = next++; w < witness_tasks.size(); w = next++) {
        const size_t task = witness_tasks[w];
        const model::CostModel cost_model = ModelAt(kGrid[task / cell]);
        const model::Schedule& schedule = setup.schedules[task];
        model::AllocationSchedule witness(kProcessors,
                                          model::ProcessorSet::FirstN(kT));
        {
          PERFBENCH_SPAN("opt.ExactOptSchedule", task);
          witness = opt::ExactOptSchedule(cost_model, schedule,
                                          model::ProcessorSet::FirstN(kT));
        }
        const CheckResult check = CheckWitness(cost_model, schedule, witness,
                                               results[task].analysis.opt, kT);
        if (!check.ok) witness_checks[w] = check;
      }
    });
    return SecondsSince(pass_start) * threads /
           static_cast<double>(witness_tasks.size());
  };
  std::vector<double> witness_times;
  std::vector<double> witness_steal;

  std::vector<double> cell_ms;
  std::vector<double> cell_steal;
  double seconds = 0;
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t point = 0; point < kGridPoints; ++point) {
      const model::CostModel cost_model = ModelAt(kGrid[point]);
      const size_t base = (round * kGridPoints + point) * cell;
      const int64_t cell_start = NowNs();
      const CpuTicks cell_ticks = ReadCpuTicks();
      PERFBENCH_SPAN("analysis.GridPoint", point);
      util::ParallelFor(0, cell, 1, [&](size_t lo, size_t hi) {
        for (size_t task = lo; task < hi; ++task) {
          results[base + task] =
              Analyse(cost_model, setup.schedules[base + task], base + task);
        }
      });
      cell_ms.push_back(static_cast<double>(NowNs() - cell_start) * 1e-6);
      cell_steal.push_back(StealShare(cell_ticks, ReadCpuTicks()));
      seconds += cell_ms.back() * 1e-3;
    }
    if (round == 0) witness_pass();
    const CpuTicks before = ReadCpuTicks();
    witness_times.push_back(witness_pass());
    witness_steal.push_back(StealShare(before, ReadCpuTicks()));
    for (int i = 0; i < kSetupsPerRound; ++i) {
      const uint64_t requests = setup.requests;
      setup = Setup();
      setup = build();
      if (setup.requests != requests) report.Fail("set-up is not repeatable");
    }
  }
  PrintRepetitions("opt_ensemble: set-up s (steal %)", setup_times,
                   setup_steal);
  PrintRepetitions("opt_ensemble: s per OPT witness per thread (steal %)",
                   witness_times, witness_steal);
  const double setup_s = QuietMedian(setup_times, setup_steal);
  const double witness_s = QuietMedian(witness_times, witness_steal);

  // Timing metrics come from the cells the hypervisor disturbed least;
  // every cell is checked.
  const std::vector<size_t> quiet = QuietWindows(cell_steal);
  std::vector<double> task_us;
  double quiet_ms = 0;
  double quiet_requests = 0;
  for (size_t c : quiet) {
    quiet_ms += cell_ms[c];
    for (size_t i = c * cell; i < (c + 1) * cell; ++i) {
      task_us.push_back(results[i].micros);
      quiet_requests += static_cast<double>(setup.schedules[i].size());
    }
  }
  uint64_t heap_bytes = 0;
  int check_failures = 0;
  for (size_t i = 0; i < total; ++i) {
    heap_bytes += results[i].heap_bytes;
    const CheckResult check = CheckAnalysis(results[i].analysis);
    if (!check.ok && ++check_failures <= 3) {
      report.Fail("schedule " + std::to_string(i) + ": " + check.message);
    }
  }
  report.ops.Add(Op::kSchedule, total);
  report.ops.Add(Op::kSchedule,
                 (witness_times.size() + 1) * witness_tasks.size());
  for (const CheckResult& check : witness_checks) {
    if (!check.ok && ++check_failures <= 3) report.Fail(check.message);
  }

  double worst_da = 0;
  double worst_sa_sc = 0;
  for (const TaskResult& r : results) {
    const ScheduleAnalysis& a = r.analysis;
    if (a.opt <= 0) continue;
    worst_da = std::max(worst_da, a.da / a.opt / a.da_factor);
    if (a.sa_factor) worst_sa_sc = std::max(worst_sa_sc, a.sa / a.opt / *a.sa_factor);
  }
  std::printf(
      "opt_ensemble: %zu rounds x %zu grid points x %zu schedules of %zu "
      "requests in %.3f s (%zu quiet cells); worst cost/OPT as a share of its theorem factor: "
      "SA(SC) %.3f DA %.3f; %zu OPT witnesses, %.4f s each per pool thread\n",
      rounds, kGridPoints, cell, kLength, seconds, quiet.size(), worst_sa_sc, worst_da,
      witness_tasks.size(), witness_s);

  const double schedules = static_cast<double>(total);
  report.end_to_end = {
      {"events_per_s", quiet_requests / (quiet_ms * 1e-3), "events/s"},
      {"p50_us", Median(task_us), "us"},
      {"stats_ms", Median(Select(cell_ms, quiet)), "ms"},
      {"recover_s", witness_s, "s"},
      {"bytes_per_object", static_cast<double>(heap_bytes) / schedules,
       "bytes"},
      {"schedules_per_s",
       static_cast<double>(task_us.size()) / (quiet_ms * 1e-3),
       "schedules/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  if (!traced) return report;

  report.per_layer = {
      {"opt.exact_ms_per_schedule",
       SelfNsPer("opt.ExactOptCost", schedules) * 1e-6, "ms"},
      {"opt.lb_us_per_schedule",
       SelfNsPer("opt.RelaxationLowerBound", schedules) * 1e-3, "us"},
      {"opt.interval_us_per_schedule",
       SelfNsPer("opt.IntervalOptCost", schedules) * 1e-3, "us"},
      {"core.run_us_per_schedule",
       SelfNsPer("core.RunWithCost", schedules) * 1e-3, "us"},
      {"workload.gen_ns_per_event",
       static_cast<double>(setup.generate_ns) /
           static_cast<double>(setup.requests),
       "ns"},
  };
  return report;
}

}  // namespace perfbench
