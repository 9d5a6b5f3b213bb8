// tcp_serve: the deployed serving path. A net::Server on loopback in front
// of an ObjectService with 10^5 DA objects and durability attached (fsync,
// default group commit), driven by the one-thread load generator.
//
// One pass:
//   set-up    (x7, median reported) register the objects, arm durability,
//             generate every connection's events
//   server 1  warm-up, then the first half of the closed loop (fixed
//             window)
//   between   drain, Checkpoint(): the WAL tail now holds nothing
//   server 2  open loop at a fixed 50 000 events/s, STATS once a second,
//             then the second half of the closed loop; the halves sit at
//             both ends of the run, so the closed-loop rate samples more
//             than one spell of the shared host
//   end       drain, SyncDurable, Recover the directory (snapshot + the
//             WAL tail of server 2), Checkpoint the recovered service and
//             Recover again (snapshot only); each recovery runs fifteen
//             times and is followed by one timed reference round
//   checks    live == recovered == snapshot-only fingerprints; the admitted
//             events replayed in-process give the live fingerprint; every
//             sampled object matches its reference run
//
// The work is fixed by --seconds, not by how fast the server is, so the
// recovery and reference-check metrics see the same amount of log and
// history in every run.

#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "checks.h"
#include "common.h"
#include "loadgen.h"
#include "objalloc/core/object_service.h"
#include "objalloc/net/server.h"
#include "objalloc/net/wire.h"
#include "objalloc/util/parallel.h"
#include "objalloc/util/rng.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace net = objalloc::net;
namespace util = objalloc::util;
namespace workload = objalloc::workload;

constexpr int kProcessors = 16;
constexpr int kShards = 4;
constexpr int64_t kObjects = 100000;
constexpr int kConnections = 3;
constexpr size_t kWindow = 64;  // outstanding requests per connection
constexpr double kWriteFraction = 0.3;
constexpr double kOpenRate = 50000;  // events/s, below saturation
constexpr double kStatsIntervalS = 1.0;
constexpr size_t kWarmupEvents = 30000;
// Sizes the closed-loop phase: about 30% of --seconds at this rate.
constexpr double kClosedSizingRate = 120000;
constexpr uint32_t kSampleOneIn = 4;
constexpr int kSetups = 7;
constexpr int kRecoveries = 15;
// Schedules per timed reference round (about 0.1 s on the reference host).
constexpr size_t kReferenceRoundSchedules = 196608;

model::CostModel Model() {
  return model::CostModel::StationaryComputing(0.25, 1.0);
}

core::ObjectConfig Config() {
  core::ObjectConfig config;
  config.initial_scheme = model::ProcessorSet{0, 1};
  config.algorithm = core::AlgorithmKind::kDynamic;
  return config;
}

int ShardWorkers() { return std::max(1, Nproc() - 3); }

struct Setup {
  std::unique_ptr<core::ObjectService> service;
  std::vector<std::vector<WireEvent>> events;
  int64_t register_ns = 0;
  int64_t generate_ns = 0;
  size_t generated = 0;
  util::Status status;
};

// Connection c owns the objects with id % kConnections == c.
Setup BuildSetup(uint64_t seed, const std::string& dir,
                 size_t events_per_conn) {
  Setup setup;
  core::ServiceOptions options;
  options.num_shards = kShards;
  setup.service =
      std::make_unique<core::ObjectService>(kProcessors, Model(), options);
  setup.service->ReserveObjects(kObjects);
  int64_t start = NowNs();
  {
    PERFBENCH_SPAN("core.AddObject", kObjects);
    for (int64_t id = 0; id < kObjects && setup.status.ok(); ++id) {
      setup.status = setup.service->AddObject(id, Config());
    }
  }
  setup.register_ns = NowNs() - start;
  if (!setup.status.ok()) return setup;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  setup.status = setup.service->EnableDurability(dir);
  if (!setup.status.ok()) return setup;

  start = NowNs();
  {
    PERFBENCH_SPAN("workload.generate", 0);
    setup.events.resize(kConnections);
    const uint64_t per_conn_objects = kObjects / kConnections;
    for (int c = 0; c < kConnections; ++c) {
      util::Rng rng(util::SubSeed(seed, static_cast<uint64_t>(c)));
      std::vector<WireEvent>& events = setup.events[c];
      events.resize(events_per_conn);
      for (WireEvent& event : events) {
        event.object = c + kConnections * static_cast<int64_t>(
                                              rng.NextBounded(per_conn_objects));
        event.processor = static_cast<uint32_t>(rng.NextBounded(kProcessors));
        event.is_write = rng.NextDouble() < kWriteFraction;
      }
    }
  }
  setup.generate_ns = NowNs() - start;
  setup.generated = events_per_conn * kConnections;
  return setup;
}

// Runs `body` against a fresh server on `service`, then drains it.
template <typename Body>
util::Status WithServer(core::ObjectService* service, Body body,
                        net::ServerStats* stats) {
  net::ServerOptions options;
  options.idle_timeout_ms = 60000;
  net::Server server(service, options);
  util::Status status = server.Start();
  if (!status.ok()) return status;
  util::Status run_status;
  std::thread loop([&] { run_status = server.Run(); });
  body(server.port());
  server.RequestDrain();
  loop.join();
  *stats = server.Stats();
  return run_status;
}

// Appends the windows, latencies and time of `more`, a later part of the
// same phase, to `into`.
void AppendPhase(const PhaseResult& more, PhaseResult* into) {
  auto append = [](const auto& from, auto* to) {
    to->insert(to->end(), from.begin(), from.end());
  };
  into->seconds += more.seconds;
  append(more.window_steal, &into->window_steal);
  append(more.window_rates, &into->window_rates);
  append(more.window_latency_us, &into->window_latency_us);
  append(more.latency_us, &into->latency_us);
}

void AddPhaseOps(const PhaseResult& phase, Report* report) {
  report->ops.Add(Op::kRead, phase.reads, phase.reads_failed);
  report->ops.Add(Op::kWrite, phase.writes, phase.writes_failed);
  report->ops.Add(Op::kStats, phase.stats, phase.stats_failed);
  if (!phase.error.empty()) report->Fail(phase.error);
}

model::Request ToRequest(const WireEvent& event) {
  const auto p = static_cast<util::ProcessorId>(event.processor);
  return event.is_write ? model::Request::Write(p) : model::Request::Read(p);
}

// Replays the admitted events through a fresh in-process service at the
// server's batch size; returns its fingerprint. The first engine error, if
// any, lands in `*status`.
Fingerprint Replay(const LoadGenerator& gen, size_t batch_size,
                   uint64_t* queue_peak, size_t* events_out,
                   util::Status* status) {
  core::ServiceOptions options;
  options.num_shards = kShards;
  core::ObjectService replay(kProcessors, Model(), options);
  replay.ReserveObjects(kObjects);
  auto keep_first = [status](util::Status s) {
    if (status->ok() && !s.ok()) *status = s;
  };
  for (int64_t id = 0; id < kObjects; ++id) {
    keep_first(replay.AddObject(id, Config()));
  }
  std::vector<workload::MultiObjectEvent> events;
  for (int c = 0; c < gen.connections(); ++c) {
    for (size_t i = 0; i < gen.events(c).size(); ++i) {
      if (!gen.admitted(c)[i]) continue;
      events.push_back({gen.events(c)[i].object, ToRequest(gen.events(c)[i])});
    }
  }
  *events_out = events.size();
  std::span<const workload::MultiObjectEvent> all(events);
  core::BatchResult results[2];
  core::BatchTicket tickets[2];
  uint64_t batch = 0;
  for (size_t pos = 0; pos < all.size(); pos += batch_size, ++batch) {
    const size_t n = std::min(batch_size, all.size() - pos);
    const int slot = static_cast<int>(batch & 1);
    if (!tickets[slot].completed) {
      PERFBENCH_SPAN("core.WaitBatch", batch - 2);
      keep_first(replay.WaitBatch(&tickets[slot]));
    }
    {
      PERFBENCH_SPAN("core.SubmitBatch", batch);
      keep_first(replay.SubmitBatch(all.subspan(pos, n), &results[slot],
                                    &tickets[slot]));
    }
    *queue_peak = std::max(*queue_peak, replay.Load().executor_queued_ops);
  }
  {
    PERFBENCH_SPAN("core.WaitBatch", batch);
    keep_first(replay.DrainBatches());
  }
  return FingerprintOf(replay);
}

}  // namespace

ThreadRoles TcpServeRoles() {
  ThreadRoles roles;
  roles.server_loop = 1;
  roles.wal = 1;
  // One worker serves inline on the server loop (no executor threads).
  roles.shard_workers = ShardWorkers() > 1 ? ShardWorkers() : 0;
  roles.generator = 1;
  roles.analysis_pool = ReferenceThreads();  // after serving
  return roles;
}

Report RunTcpServe(const Args& args, bool traced) {
  Report report;
  util::SetGlobalThreads(ShardWorkers());
  const std::string dir = args.work_dir + "/tcp_serve.durable";
  const size_t closed_events =
      static_cast<size_t>(args.seconds * 0.3 * kClosedSizingRate) /
      kConnections * kConnections;
  const size_t open_events = static_cast<size_t>(args.seconds * 0.5 * kOpenRate);
  const size_t per_conn =
      (kWarmupEvents + closed_events + open_events) / kConnections + 1;

  Setup setup;
  const double setup_s = RepeatQuiet(kSetups, [&](int) {
    setup = Setup();  // the previous service releases its directory first
    const int64_t start = NowNs();
    setup = BuildSetup(args.seed, dir, per_conn);
    return SecondsSince(start);
  }, "tcp_serve: set-up s (steal %)");
  if (!setup.status.ok()) {
    report.Fail("set-up: " + setup.status.ToString());
    return report;
  }
  core::ObjectService* service = setup.service.get();
  LoadGenerator gen(std::move(setup.events));

  // ---- Server 1: warm-up and the first half of the closed loop.
  const size_t closed_first = closed_events / 2 / kConnections * kConnections;
  PhaseResult warm, closed, closed_second;
  net::ServerStats stats1, stats2;
  util::Status status = WithServer(
      service,
      [&](uint16_t port) {
        util::Status connected = gen.Connect(port);
        if (!connected.ok()) {
          closed.error = "connect: " + connected.ToString();
          return;
        }
        warm = gen.RunClosed(kWarmupEvents, kWindow);
        if (warm.error.empty()) closed = gen.RunClosed(closed_first, kWindow);
        gen.Close();
      },
      &stats1);
  AddPhaseOps(warm, &report);
  AddPhaseOps(closed, &report);
  if (!status.ok()) report.Fail("server 1: " + status.ToString());
  if (!report.correct()) return report;
  status = service->Checkpoint();
  if (!status.ok()) {
    report.Fail("checkpoint: " + status.ToString());
    return report;
  }

  // ---- Server 2: the open loop, then the second half of the closed loop.
  PhaseResult open;
  status = WithServer(
      service,
      [&](uint16_t port) {
        util::Status connected = gen.Connect(port);
        if (!connected.ok()) {
          open.error = "connect: " + connected.ToString();
          return;
        }
        open = gen.RunOpen(kOpenRate, open_events, kStatsIntervalS);
        if (open.error.empty()) {
          closed_second =
              gen.RunClosed(closed_events - closed_first, kWindow);
        }
        gen.Close();
      },
      &stats2);
  AddPhaseOps(open, &report);
  AddPhaseOps(closed_second, &report);
  AppendPhase(closed_second, &closed);
  if (!status.ok()) report.Fail("server 2: " + status.ToString());
  if (!report.correct()) return report;
  for (const net::WireStats& wire : open.stats_replies) {
    if (wire.objects != static_cast<uint64_t>(kObjects) ||
        wire.protocol_errors != 0) {
      report.Fail("STATS reply disagrees with the server's configuration");
    }
  }
  const uint64_t admitted = stats1.admitted_events + stats2.admitted_events;
  const uint64_t batches = stats1.batches_submitted + stats2.batches_submitted;
  const uint64_t tail_admitted = stats2.admitted_events;

  // ---- Durability: sync, detach, recover.
  status = service->SyncDurable();
  const core::WalCommitStats commit = service->DurableCommitStats();
  if (status.ok()) status = service->DisableDurability();
  if (!status.ok()) {
    report.Fail("sync: " + status.ToString());
    return report;
  }
  const Fingerprint live = FingerprintOf(*service);

  // ---- The sampled objects' served histories. Their reference rounds
  // are timed between the recoveries, and the objects checked after.
  std::vector<ObjectHistory> histories;
  std::vector<int32_t> slot(kObjects, -1);
  for (int64_t id = 0; id < kObjects; ++id) {
    if (!Sampled(id, kSampleOneIn)) continue;
    slot[id] = static_cast<int32_t>(histories.size());
    histories.push_back({id, Config(), {}});
  }
  for (int c = 0; c < gen.connections(); ++c) {
    for (size_t i = 0; i < gen.events(c).size(); ++i) {
      const WireEvent& event = gen.events(c)[i];
      if (gen.admitted(c)[i] && slot[event.object] >= 0) {
        histories[slot[event.object]].requests.push_back(ToRequest(event));
      }
    }
  }
  ReferenceTimer timer(Model(), kProcessors, histories,
                       kReferenceRoundSchedules);

  // Recovers the directory and checks the result; returns its seconds, or
  // a negative value when recovery failed. `expect_replayed` is the WAL
  // tail the directory holds.
  core::RecoveryReport full_report;
  auto recover = [&](const char* what, uint64_t expect_replayed,
                     bool checkpoint_after) {
    core::RecoveryReport recovery;
    const int64_t start = NowNs();
    auto recovered = [&] {
      PERFBENCH_SPAN("core.Recover", expect_replayed);
      return core::ObjectService::Recover(dir, {}, &recovery);
    }();
    const double seconds = SecondsSince(start);
    report.ops.Add(Op::kRecover, 1, recovered.ok() ? 0 : 1);
    if (!recovered.ok()) {
      report.Fail(std::string(what) + ": " + recovered.status().ToString());
      return -1.0;
    }
    const CheckResult same = CheckFingerprint(
        std::string(what) + " vs live", live, FingerprintOf(*recovered));
    if (!same.ok) report.Fail(same.message);
    if (recovery.events_replayed != expect_replayed) {
      report.Fail(std::string(what) + " replayed " +
                  std::to_string(recovery.events_replayed) +
                  " events, expected " + std::to_string(expect_replayed));
    }
    util::Status detached =
        checkpoint_after ? recovered->Checkpoint() : util::Status::Ok();
    if (detached.ok()) detached = recovered->DisableDurability();
    if (!detached.ok()) report.Fail(std::string(what) + ": " + detached.ToString());
    if (expect_replayed > 0) full_report = recovery;
    return seconds;
  };
  // Full recoveries replay exactly server 2's WAL tail; the last one
  // checkpoints, so the snapshot-only recoveries replay nothing.
  // A reference round follows every recovery.
  const double recover_s = RepeatQuiet(kRecoveries, [&](int i) {
    const double seconds =
        recover("recovery", tail_admitted, i + 1 == kRecoveries);
    timer.Round();
    return seconds;
  }, "tcp_serve: recover s (steal %)");
  const double snapshot_s = RepeatQuiet(kRecoveries, [&](int) {
    const double seconds = recover("snapshot-only recovery", 0, false);
    timer.Round();
    return seconds;
  }, "tcp_serve: snapshot-only recover s (steal %)");
  if (!report.correct()) return report;
  std::filesystem::remove_all(dir);

  // ---- The wire adds no semantics: replay the admitted events.
  const size_t batch_size = std::max<size_t>(
      1, batches == 0 ? 1 : static_cast<size_t>(admitted / batches));
  uint64_t queue_peak = 0;
  size_t replayed = 0;
  util::Status replay_status;
  const Fingerprint replay =
      Replay(gen, batch_size, &queue_peak, &replayed, &replay_status);
  if (!replay_status.ok()) report.Fail("replay: " + replay_status.ToString());
  const CheckResult replay_check =
      CheckFingerprint("in-process replay vs live", replay, live);
  if (!replay_check.ok) report.Fail(replay_check.message);
  if (replayed != admitted) {
    report.Fail("client saw " + std::to_string(replayed) +
                " ok replies, server admitted " + std::to_string(admitted));
  }

  // ---- Every sampled object against its reference run.
  CheckSampledObjects(Model(), kProcessors, histories, *service, &report);
  const double schedules_per_s = timer.SchedulesPerSecond();
  report.ops.Add(Op::kSchedule, timer.Schedules());

  // ---- Reference figures, printed but not gated.
  std::vector<double> open_quiet_latency;
  for (size_t w : QuietWindows(open.window_steal)) {
    open_quiet_latency.insert(open_quiet_latency.end(),
                              open.window_latency_us[w].begin(),
                              open.window_latency_us[w].end());
  }
  auto mean_steal = [](const std::vector<double>& shares) {
    double sum = 0;
    for (double share : shares) sum += share;
    return shares.empty() ? 0 : 100 * sum / static_cast<double>(shares.size());
  };
  std::printf(
      "tcp_serve: host steal %.1f%% (closed loop), %.1f%% (open loop); "
      "metrics from %zu/%zu and %zu/%zu quiet windows\n",
      mean_steal(closed.window_steal), mean_steal(open.window_steal),
      QuietWindows(closed.window_steal).size(), closed.window_steal.size(),
      QuietWindows(open.window_steal).size(), open.window_steal.size());
  std::printf(
      "tcp_serve: closed loop %zu events in %.3f s, latency p50 %.1f us "
      "p99 %.1f us\n",
      closed_events, closed.seconds, Median(closed.latency_us),
      Percentile(closed.latency_us, 0.99));
  std::printf(
      "tcp_serve: open loop %zu events at %.0f/s, from due time p50 %.1f us "
      "p99 %.1f us p999 %.1f us; generator lateness p50 %.1f us p99 %.1f us "
      "max %.1f us; %zu STATS\n",
      open_events, kOpenRate, Median(open.latency_us),
      Percentile(open.latency_us, 0.99), Percentile(open.latency_us, 0.999),
      Median(open.lateness_us), Percentile(open.lateness_us, 0.99),
      Percentile(open.lateness_us, 1.0), open.stats_ms.size());
  std::printf(
      "tcp_serve: recovery replayed %zu events (%.3f s), snapshot only "
      "%.3f s; %zu sampled objects checked; fingerprint %s\n",
      full_report.events_replayed, recover_s, snapshot_s, histories.size(),
      live.ToString().c_str());

  const double events = static_cast<double>(admitted);
  report.end_to_end = {
      {"events_per_s",
       Median(Select(closed.window_rates, QuietWindows(closed.window_steal))),
       "events/s"},
      {"p50_us", Median(open_quiet_latency), "us"},
      {"stats_ms", QuietMedian(open.stats_ms, open.stats_steal), "ms"},
      {"recover_s", recover_s, "s"},
      {"bytes_per_object",
       static_cast<double>(service->MemoryUsageBytes()) / kObjects, "bytes"},
      {"schedules_per_s", schedules_per_s, "schedules/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  if (!traced) return report;

  // ---- Per-layer metrics of the traced pass.
  // The run's request frames, captured as the client encoded them, and
  // the replies the server encoded for them.
  std::string requests;
  std::string replies;
  std::string payload;
  uint64_t frames = 0;
  uint64_t reply_frames = 0;
  for (int c = 0; c < gen.connections(); ++c) {
    for (size_t i = 0; i < gen.events(c).size(); ++i) {
      const WireEvent& event = gen.events(c)[i];
      if (!gen.admitted(c)[i]) continue;
      net::ServeRequest request;
      request.object = event.object;
      request.processor = event.processor;
      payload.clear();
      net::EncodeServe(request, &payload);
      net::AppendFrame(event.is_write ? net::MsgType::kWrite
                                      : net::MsgType::kRead,
                       0, i + 1, payload, &requests);
      ++frames;
    }
  }
  int64_t start = NowNs();
  {
    PERFBENCH_SPAN("net.DecodeFrame+ParseServe", frames);
    std::string_view rest(requests);
    net::Frame frame;
    net::ServeRequest parsed;
    size_t consumed = 0;
    std::string error;
    while (!rest.empty()) {
      if (net::DecodeFrame(rest, net::kDefaultMaxFrameBytes, &frame,
                           &consumed, &error) != net::DecodeResult::kFrame ||
          !net::ParseServe(frame.payload, &parsed).ok()) {
        report.Fail("captured request frame failed to decode: " + error);
        break;
      }
      rest.remove_prefix(consumed);
    }
  }
  const double decode_ns = static_cast<double>(NowNs() - start);
  size_t reply_bytes = 0;
  start = NowNs();
  {
    PERFBENCH_SPAN("net.AppendFrame+EncodeCost", frames);
    for (int c = 0; c < gen.connections(); ++c) {
      for (size_t i = 0; i < gen.events(c).size(); ++i) {
        if (!gen.admitted(c)[i]) continue;
        if (replies.size() > (1u << 20)) {
          reply_bytes += replies.size();
          replies.clear();
        }
        payload.clear();
        net::EncodeCost(gen.costs(c)[i], &payload);
        net::AppendFrame(gen.events(c)[i].is_write ? net::MsgType::kWriteReply
                                                   : net::MsgType::kReadReply,
                         0, i + 1, payload, &replies);
        ++reply_frames;
      }
    }
  }
  const double encode_ns = static_cast<double>(NowNs() - start);
  reply_bytes += replies.size();

  std::vector<double> scan_ms;
  for (int i = 0; i < 3; ++i) {
    start = NowNs();
    PERFBENCH_SPAN("core.SortedObjectIds+StatsFor", kObjects);
    FingerprintOf(*service);
    scan_ms.push_back(SecondsSince(start) * 1e3);
  }
  const uint64_t replies_received =
      report.ops.attempted[static_cast<int>(Op::kRead)] +
      report.ops.attempted[static_cast<int>(Op::kWrite)];
  const double replay_seconds = recover_s - snapshot_s;
  report.per_layer = {
      {"net.decode_ns_per_frame", decode_ns / static_cast<double>(frames),
       "ns"},
      {"net.encode_ns_per_frame",
       encode_ns / static_cast<double>(reply_frames), "ns"},
      {"net.client_send_ns",
       SelfNsPer("net.Client::SendServe",
                 static_cast<double>(replies_received)),
       "ns"},
      {"net.client_wait_ns",
       SelfNsPer("net.Client::WaitReply",
                 static_cast<double>(replies_received)),
       "ns"},
      {"net.wire_bytes_per_event",
       static_cast<double>(requests.size() + reply_bytes) / events, "bytes"},
      {"net.events_per_batch", events / static_cast<double>(batches),
       "events"},
      {"core.submit_ns_per_event",
       SelfNsPer("core.SubmitBatch", static_cast<double>(replayed)), "ns"},
      {"core.wait_ns_per_event",
       SelfNsPer("core.WaitBatch", static_cast<double>(replayed)), "ns"},
      {"core.queue_peak_ops", static_cast<double>(queue_peak), "ops"},
      {"core.register_ns_per_object",
       static_cast<double>(setup.register_ns) / kObjects, "ns"},
      {"core.stats_scan_ms", Median(scan_ms), "ms"},
      {"core.wal_bytes_per_event",
       static_cast<double>(commit.bytes_appended) / events, "bytes"},
      {"core.wal_events_per_commit",
       events / static_cast<double>(std::max<uint64_t>(1, commit.group_commits)),
       "events"},
      {"core.snapshot_load_s", snapshot_s, "s"},
      {"core.replay_events_per_s",
       replay_seconds > 0
           ? static_cast<double>(full_report.events_replayed) / replay_seconds
           : 0,
       "events/s"},
      {"workload.gen_ns_per_event",
       static_cast<double>(setup.generate_ns) /
           static_cast<double>(setup.generated),
       "ns"},
      {"core.run_us_per_schedule",
       SelfNsPerSpan("core.RunWithCost") * 1e-3,
       "us"},
  };
  return report;
}

}  // namespace perfbench
