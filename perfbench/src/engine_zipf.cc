// engine_zipf: the in-process engine at a million objects. ObjectService
// with 16 shards and 10^6 objects (SA for read-mostly objects, DA for the
// rest, each starting at its own hot set, as in bench/footprint_scaling),
// served a Zipf 0.9 stream pipelined through SubmitBatch/WaitBatch in
// 8192-event batches, with no durability and no network.
//
// The stream is generated during set-up into a pool of batches, outside
// the timed region, and served round-robin from the pool. Serving pauses
// every kPauseEvery windows for a STATS-equivalent scan and reference
// rounds. After the timed region the pass scans once more, checkpoints
// and recovers the served state, and checks the sampled objects against
// their reference runs.

#include <filesystem>
#include <functional>
#include <memory>
#include <span>

#include "checks.h"
#include "common.h"
#include "objalloc/core/object_service.h"
#include "objalloc/util/parallel.h"
#include "objalloc/workload/zipf_objects.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace util = objalloc::util;
namespace workload = objalloc::workload;

constexpr int kProcessors = 16;
constexpr int kShards = 16;
constexpr int64_t kObjects = 1000000;
constexpr size_t kBatch = 8192;
constexpr size_t kPoolBatches = 256;  // 2M events, 32 MB
constexpr size_t kWarmupBatches = 32;
constexpr size_t kInFlight = 4;  // ShardExecutor::kDefaultDepth
// Windows between the pauses in serving that time a STATS scan and
// kRoundsPerPause reference rounds.
constexpr size_t kPauseEvery = 2;
constexpr int kRoundsPerPause = 2;
// Sizes the timed region: about 60% of --seconds at this rate.
constexpr double kSizingRate = 14.0e6;
constexpr uint32_t kSampleOneIn = 64;
constexpr int kSetups = 5;
constexpr int kRecoveries = 5;
// Schedules per timed reference round (about 0.1 s on the reference host).
constexpr size_t kReferenceRoundSchedules = 65536;

model::CostModel Model() {
  return model::CostModel::StationaryComputing(0.25, 1.0);
}

workload::ZipfObjectOptions StreamOptions() {
  workload::ZipfObjectOptions options;
  options.num_processors = kProcessors;
  options.num_objects = kObjects;
  options.skew = 0.9;
  options.min_read_fraction = 0.5;
  options.max_read_fraction = 0.95;
  return options;
}

core::ObjectConfig ConfigFor(
    const workload::ZipfObjectGenerator::Personality& personality) {
  core::ObjectConfig config;
  config.initial_scheme = personality.HomeSet();
  config.algorithm = personality.read_fraction >= 0.85
                         ? core::AlgorithmKind::kStatic
                         : core::AlgorithmKind::kDynamic;
  return config;
}

// Shard workers besides the submitting caller. One core is left to the
// host: every batch waits for its slowest worker, so a worker on a core
// the host also needs stalls the whole pipeline.
int ShardWorkers() { return std::clamp(Nproc() - 2, 1, kShards); }

struct Setup {
  std::unique_ptr<core::ObjectService> service;
  std::vector<workload::MultiObjectEvent> pool;
  int64_t register_ns = 0;
  int64_t generate_ns = 0;
  util::Status status;
};

Setup BuildSetup(uint64_t seed, bool with_pool) {
  Setup setup;
  const workload::ZipfObjectGenerator personalities(StreamOptions(), seed);
  core::ServiceOptions options;
  options.num_shards = kShards;
  setup.service =
      std::make_unique<core::ObjectService>(kProcessors, Model(), options);
  setup.service->ReserveObjects(kObjects);
  int64_t start = NowNs();
  {
    PERFBENCH_SPAN("core.AddObject", kObjects);
    for (int64_t id = 0; id < kObjects && setup.status.ok(); ++id) {
      setup.status = setup.service->AddObject(
          id, ConfigFor(personalities.PersonalityFor(id)));
    }
  }
  setup.register_ns = NowNs() - start;
  if (!with_pool) return setup;
  start = NowNs();
  {
    PERFBENCH_SPAN("workload.generate", 0);
    // Same options and seed as the registration: the stream's per-object
    // read fractions and hot sets are the registered personalities.
    workload::ZipfObjectGenerator stream(StreamOptions(), seed);
    setup.pool.resize(kPoolBatches * kBatch);
    for (workload::MultiObjectEvent& event : setup.pool) event = stream.Next();
  }
  setup.generate_ns = NowNs() - start;
  return setup;
}

std::span<const workload::MultiObjectEvent> PoolBatch(
    const std::vector<workload::MultiObjectEvent>& pool, size_t batch) {
  return std::span<const workload::MultiObjectEvent>(pool).subspan(
      (batch % kPoolBatches) * kBatch, kBatch);
}

struct ServeResult {
  double seconds = 0;  // timed batches only
  // Per window of timed batches: events/s, the host's steal share, and
  // the submit-to-completion latency of each batch it completed.
  std::vector<double> window_rates;
  std::vector<double> window_steal;
  std::vector<std::vector<double>> window_latency_us;
  uint64_t queue_peak = 0;
  uint64_t failed_batches = 0;
  std::string error;

  std::vector<double> LatencyUs(const std::vector<size_t>& windows) const {
    std::vector<double> out;
    for (size_t w : windows) {
      out.insert(out.end(), window_latency_us[w].begin(),
                 window_latency_us[w].end());
    }
    return out;
  }
};

// Serves batches [0, warmup + timed) from the pool, kInFlight in flight:
// the executor's whole pipeline depth, so workers find the next batch
// queued instead of sleeping between batches. With a `pause`, every
// kPauseEvery windows the pipeline is drained and `pause` runs on the
// idle service, outside every window's time.
ServeResult Serve(core::ObjectService* service,
                  const std::vector<workload::MultiObjectEvent>& pool,
                  size_t warmup, size_t timed,
                  const std::function<void()>& pause = nullptr) {
  constexpr size_t kWindows = 20;
  const size_t per_window = std::max<size_t>(1, timed / kWindows);
  const size_t windows = std::max<size_t>(1, timed / per_window);
  ServeResult result;
  result.window_latency_us.resize(windows);
  core::BatchResult results[kInFlight];
  core::BatchTicket tickets[kInFlight];
  int64_t submitted_ns[kInFlight] = {};
  const size_t total = warmup + timed;
  auto wait = [&](int slot, size_t batch) {
    if (tickets[slot].completed) return;
    util::Status status;
    {
      PERFBENCH_SPAN("core.WaitBatch", batch);
      status = service->WaitBatch(&tickets[slot]);
    }
    if (!status.ok()) {
      ++result.failed_batches;
      result.error = status.ToString();
    }
    if (batch >= warmup) {
      const size_t w = std::min((batch - warmup) / per_window, windows - 1);
      result.window_latency_us[w].push_back(
          static_cast<double>(NowNs() - submitted_ns[slot]) * 1e-3);
    }
  };
  int64_t start = NowNs();
  int64_t window_start = start;
  CpuTicks window_ticks;
  for (size_t b = 0; b < total; ++b) {
    const int slot = static_cast<int>(b % kInFlight);
    if (b >= kInFlight) wait(slot, b - kInFlight);
    if (b == warmup) {
      start = window_start = NowNs();
      window_ticks = ReadCpuTicks();
    } else if (b > warmup && (b - warmup) % per_window == 0 &&
               result.window_rates.size() + 1 < windows) {
      // Submit-side rate: the window's batches admitted since the last
      // mark, with at most kInFlight in flight at either end.
      const int64_t now = NowNs();
      const CpuTicks ticks = ReadCpuTicks();
      result.window_rates.push_back(
          static_cast<double>(per_window * kBatch) /
          (static_cast<double>(now - window_start) * 1e-9));
      result.window_steal.push_back(StealShare(window_ticks, ticks));
      window_start = now;
      window_ticks = ticks;
      if (pause && result.window_rates.size() % kPauseEvery == 0) {
        for (size_t p = b + 1 - kInFlight; p < b; ++p) {
          wait(static_cast<int>(p % kInFlight), p);
        }
        pause();
        window_start = NowNs();
        window_ticks = ReadCpuTicks();
      }
    }
    submitted_ns[slot] = NowNs();
    util::Status status;
    {
      PERFBENCH_SPAN("core.SubmitBatch", b);
      status = service->SubmitBatch(PoolBatch(pool, b), &results[slot],
                                    &tickets[slot]);
    }
    if (!status.ok()) {
      ++result.failed_batches;
      result.error = status.ToString();
    }
    result.queue_peak =
        std::max(result.queue_peak, service->Load().executor_queued_ops);
  }
  for (size_t b = total >= kInFlight ? total - kInFlight : 0; b < total;
       ++b) {
    wait(static_cast<int>(b % kInFlight), b);
  }
  // The last window runs to the completion of the last batch.
  const int64_t now = NowNs();
  result.window_rates.push_back(
      static_cast<double>((total - warmup - per_window * (windows - 1)) *
                          kBatch) /
      (static_cast<double>(now - window_start) * 1e-9));
  result.window_steal.push_back(StealShare(window_ticks, ReadCpuTicks()));
  result.seconds = SecondsSince(start);
  return result;
}

}  // namespace

ThreadRoles EngineZipfRoles() {
  ThreadRoles roles;
  roles.generator = 1;  // the submitting caller
  roles.shard_workers = ShardWorkers();
  roles.analysis_pool = ReferenceThreads();  // after serving
  return roles;
}

Report RunEngineZipf(const Args& args, bool traced) {
  Report report;
  util::SetGlobalThreads(ShardWorkers());
  const size_t timed_batches = std::max<size_t>(
      1, static_cast<size_t>(args.seconds * 0.6 * kSizingRate / kBatch));
  const size_t total_batches = kWarmupBatches + timed_batches;

  Setup setup;
  const double setup_s = RepeatQuiet(kSetups, [&](int) {
    setup = Setup();  // release the previous set-up first
    const int64_t start = NowNs();
    setup = BuildSetup(args.seed, /*with_pool=*/true);
    return SecondsSince(start);
  }, "engine_zipf: set-up s (steal %)");
  if (!setup.status.ok()) {
    report.Fail("set-up: " + setup.status.ToString());
    return report;
  }
  core::ObjectService* service = setup.service.get();

  // Reads and writes per pool batch, for the operation counts.
  std::vector<uint32_t> writes_in(kPoolBatches, 0);
  for (size_t i = 0; i < setup.pool.size(); ++i) {
    if (setup.pool[i].request.is_write()) ++writes_in[i / kBatch];
  }

  // ---- The sampled objects' histories as they will have been served,
  // known from the pool before serving: the reference rounds are timed
  // while serving pauses, and the objects checked after it.
  std::vector<ObjectHistory> histories;
  {
    const workload::ZipfObjectGenerator personalities(StreamOptions(),
                                                      args.seed);
    std::vector<int32_t> slot(kObjects, -1);
    for (int64_t id = 0; id < kObjects; ++id) {
      if (!Sampled(id, kSampleOneIn)) continue;
      slot[id] = static_cast<int32_t>(histories.size());
      histories.push_back(
          {id, ConfigFor(personalities.PersonalityFor(id)), {}});
    }
    // Pool positions of the sampled objects' events, then the served
    // history: every full pass over the pool, then the partial one.
    std::vector<std::vector<uint32_t>> positions(histories.size());
    for (size_t i = 0; i < setup.pool.size(); ++i) {
      const int32_t s = slot[setup.pool[i].object];
      if (s >= 0) positions[s].push_back(static_cast<uint32_t>(i));
    }
    const size_t full_passes = total_batches / kPoolBatches;
    const size_t partial_end = (total_batches % kPoolBatches) * kBatch;
    for (size_t s = 0; s < histories.size(); ++s) {
      std::vector<model::Request>& requests = histories[s].requests;
      for (size_t pass = 0; pass <= full_passes; ++pass) {
        for (uint32_t pos : positions[s]) {
          if (pass == full_passes && pos >= partial_end) break;
          requests.push_back(setup.pool[pos].request);
        }
      }
    }
  }
  ReferenceTimer timer(Model(), kProcessors, histories,
                       kReferenceRoundSchedules);

  // ---- What STATS does today: every object's scheme, in id order. Timed
  // on the live service every kPauseEvery windows while serving (each
  // pause also times kRoundsPerPause reference rounds) and once after,
  // and again on every recovered copy, so the samples spread over the
  // whole pass.
  std::vector<double> scan_ms;
  std::vector<double> scan_steal;
  auto scan = [&](const core::ObjectService& target) {
    const CpuTicks before = ReadCpuTicks();
    const int64_t start = NowNs();
    Fingerprint fingerprint;
    {
      PERFBENCH_SPAN("core.SortedObjectIds+StatsFor", kObjects);
      fingerprint = FingerprintOf(target);
    }
    scan_ms.push_back(SecondsSince(start) * 1e3);
    scan_steal.push_back(StealShare(before, ReadCpuTicks()));
    report.ops.Add(Op::kStats, 1);
    return fingerprint;
  };
  const ServeResult served =
      Serve(service, setup.pool, kWarmupBatches, timed_batches,
            [&] {
              scan(*service);
              for (int r = 0; r < kRoundsPerPause; ++r) timer.Round();
            });
  for (size_t b = 0; b < total_batches; ++b) {
    const uint64_t writes = writes_in[b % kPoolBatches];
    report.ops.Add(Op::kRead, kBatch - writes);
    report.ops.Add(Op::kWrite, writes);
  }
  if (served.failed_batches > 0) {
    report.Fail("batch failed: " + served.error);
    return report;
  }

  const Fingerprint live = scan(*service);
  if (live.requests != static_cast<int64_t>(total_batches * kBatch)) {
    report.Fail("engine served " + std::to_string(live.requests) +
                " requests, submitted " +
                std::to_string(total_batches * kBatch));
  }

  // ---- Snapshot the served state and recover it.
  const std::string dir = args.work_dir + "/engine_zipf.durable";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  int64_t start = NowNs();
  util::Status status = service->EnableDurability(dir);
  if (status.ok()) status = service->DisableDurability();
  const double checkpoint_s = SecondsSince(start);
  if (!status.ok()) {
    report.Fail("checkpoint: " + status.ToString());
    return report;
  }
  const double recover_s = RepeatQuiet(kRecoveries, [&](int i) {
    core::RecoveryReport recovery;
    const int64_t recover_start = NowNs();
    auto recovered = [&] {
      PERFBENCH_SPAN("core.Recover", i);
      return core::ObjectService::Recover(dir, {}, &recovery);
    }();
    const double seconds = SecondsSince(recover_start);
    report.ops.Add(Op::kRecover, 1, recovered.ok() ? 0 : 1);
    if (!recovered.ok()) {
      report.Fail("recover: " + recovered.status().ToString());
      return seconds;
    }
    const CheckResult same =
        CheckFingerprint("recovered vs live", live, scan(*recovered));
    if (!same.ok) report.Fail(same.message);
    if (recovery.events_replayed != 0) {
      report.Fail("recovery of a fresh snapshot replayed WAL events");
    }
    recovered->DisableDurability();
    return seconds;
  }, "engine_zipf: recover s (steal %)");
  if (!report.correct()) return report;
  std::filesystem::remove_all(dir);

  // ---- Every sampled object against its reference run.
  CheckSampledObjects(Model(), kProcessors, histories, *service, &report);
  const double schedules_per_s = timer.SchedulesPerSecond();
  report.ops.Add(Op::kSchedule, timer.Schedules());

  const double events = static_cast<double>(timed_batches * kBatch);
  const std::vector<size_t> quiet = QuietWindows(served.window_steal);
  std::vector<size_t> all_windows(served.window_rates.size());
  for (size_t w = 0; w < all_windows.size(); ++w) all_windows[w] = w;
  const std::vector<double> all_latency = served.LatencyUs(all_windows);
  std::printf(
      "engine_zipf: %zu timed batches (%.0f events) in %.3f s, %.0f "
      "events/s over all; batch latency p50 %.1f us p99 %.1f us; checkpoint "
      "%.3f s; %zu sampled objects checked; fingerprint %s\n",
      timed_batches, events, served.seconds, events / served.seconds,
      Median(all_latency), Percentile(all_latency, 0.99), checkpoint_s,
      histories.size(), live.ToString().c_str());
  std::printf("engine_zipf: events/s (steal %%) per window:");
  for (size_t w = 0; w < served.window_rates.size(); ++w) {
    std::printf(" %.3g(%.0f)", served.window_rates[w],
                100 * served.window_steal[w]);
  }
  std::printf("; metrics from %zu quiet windows\n", quiet.size());

  PrintRepetitions("engine_zipf: STATS scan ms (steal %)", scan_ms,
                   scan_steal);

  report.end_to_end = {
      {"events_per_s", Median(Select(served.window_rates, quiet)),
       "events/s"},
      {"p50_us", Median(served.LatencyUs(quiet)), "us"},
      {"stats_ms", QuietMedian(scan_ms, scan_steal), "ms"},
      {"recover_s", recover_s, "s"},
      {"bytes_per_object",
       static_cast<double>(service->MemoryUsageBytes()) / kObjects, "bytes"},
      {"schedules_per_s", schedules_per_s, "schedules/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  if (!traced) return report;

  // ---- Per-layer metrics of the traced pass.
  const double all_events = static_cast<double>(total_batches * kBatch);
  const int64_t register_ns = setup.register_ns;
  const int64_t generate_ns = setup.generate_ns;
  const double run_us = SelfNsPerSpan("core.RunWithCost") * 1e-3;
  const double submit_ns = SelfNsPer("core.SubmitBatch", all_events);
  const double wait_ns = SelfNsPer("core.WaitBatch", all_events);
  // The same stream through a one-worker service: the base the sharded
  // throughput is compared against.
  std::vector<workload::MultiObjectEvent> pool = std::move(setup.pool);
  setup = Setup();
  double serial_events_per_s = 0;
  {
    util::ScopedThreads one(1);
    Setup serial = BuildSetup(args.seed, /*with_pool=*/false);
    const size_t serial_batches = std::max<size_t>(1, timed_batches / 3);
    const ServeResult result =
        Serve(serial.service.get(), pool, kWarmupBatches, serial_batches);
    serial_events_per_s =
        static_cast<double>(serial_batches * kBatch) / result.seconds;
    if (result.failed_batches > 0) report.Fail("serial batch failed");
  }
  report.per_layer = {
      {"core.submit_ns_per_event", submit_ns, "ns"},
      {"core.wait_ns_per_event", wait_ns, "ns"},
      {"core.queue_peak_ops", static_cast<double>(served.queue_peak), "ops"},
      {"core.serial_events_per_s", serial_events_per_s, "events/s"},
      {"core.register_ns_per_object",
       static_cast<double>(register_ns) / kObjects, "ns"},
      {"core.stats_scan_ms", QuietMedian(scan_ms, scan_steal), "ms"},
      {"core.snapshot_load_s", recover_s, "s"},
      {"workload.gen_ns_per_event",
       static_cast<double>(generate_ns) / static_cast<double>(pool.size()),
       "ns"},
      {"core.run_us_per_schedule", run_us, "us"},
  };
  return report;
}

}  // namespace perfbench
