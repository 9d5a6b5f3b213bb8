// objbench — the command-line entry point of the objalloc benchmark.
//
//   objbench --workload <tcp_serve|engine_zipf|opt_ensemble> --seed <n>
//            --seconds <s> --trace <0|1> [--work_dir <dir>]
//
// --trace 0 runs one pass of the workload with tracing off and reports the
// end-to-end metrics. --trace 1 runs the same pass twice, first untraced
// and then traced, prints both sets of end-to-end figures and the tracing
// overhead, writes the spans to <work_dir>/spans-<workload>.tsv and reports
// the per-layer metrics. A layer the workload does not run reports 0.
//
// The last line of standard output is the result JSON: correct, attempted,
// failed and the metrics. The exit code is 0 only for a correct run.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"events_per_s", "events/s"}, {"p50_us", "us"},
    {"stats_ms", "ms"},           {"recover_s", "s"},
    {"bytes_per_object", "bytes"}, {"schedules_per_s", "schedules/s"},
    {"setup_s", "s"},             {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"net.decode_ns_per_frame", "ns"},
    {"net.encode_ns_per_frame", "ns"},
    {"net.client_send_ns", "ns"},
    {"net.client_wait_ns", "ns"},
    {"net.wire_bytes_per_event", "bytes"},
    {"net.events_per_batch", "events"},
    {"core.submit_ns_per_event", "ns"},
    {"core.wait_ns_per_event", "ns"},
    {"core.queue_peak_ops", "ops"},
    {"core.serial_events_per_s", "events/s"},
    {"core.register_ns_per_object", "ns"},
    {"core.stats_scan_ms", "ms"},
    {"core.wal_bytes_per_event", "bytes"},
    {"core.wal_events_per_commit", "events"},
    {"core.snapshot_load_s", "s"},
    {"core.replay_events_per_s", "events/s"},
    {"workload.gen_ns_per_event", "ns"},
    {"opt.exact_ms_per_schedule", "ms"},
    {"opt.lb_us_per_schedule", "us"},
    {"opt.interval_us_per_schedule", "us"},
    {"core.run_us_per_schedule", "us"},
};

// The declared metrics in declaration order, taking each value from the
// report; a metric the report lacks reads 0 (its layer did no work).
template <size_t N>
std::vector<Metric> Declared(const MetricSpec (&specs)[N],
                             const Report& report) {
  std::vector<Metric> metrics;
  for (const MetricSpec& spec : specs) {
    const Metric* found = report.Find(spec.name);
    metrics.push_back({spec.name, found != nullptr ? found->value : 0,
                       spec.unit});
  }
  return metrics;
}

int Usage() {
  std::fprintf(stderr,
               "usage: objbench --workload <tcp_serve|engine_zipf|"
               "opt_ensemble> --seed <n> --seconds <s> --trace <0|1> "
               "[--work_dir <dir>]\n");
  return 2;
}

void PrintFailures(const Report& report) {
  for (const std::string& failure : report.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work_dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds < 1) return Usage();

  ThreadRoles roles;
  Report (*run)(const Args&, bool) = nullptr;
  if (args.workload == "tcp_serve") {
    roles = TcpServeRoles();
    run = RunTcpServe;
  } else if (args.workload == "engine_zipf") {
    roles = EngineZipfRoles();
    run = RunEngineZipf;
  } else if (args.workload == "opt_ensemble") {
    roles = OptEnsembleRoles();
    run = RunOptEnsemble;
  } else {
    return Usage();
  }
  std::printf("workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (!AdmitConfiguration(args.workload, roles)) return 3;
  std::filesystem::create_directories(args.work_dir);

  const Report untraced = run(args, false);
  PrintFailures(untraced);
  PrintOps(untraced.ops);
  const std::vector<Metric> end_to_end = Declared(kEndToEnd, untraced);
  PrintMetrics("end-to-end (untraced):", end_to_end);
  if (!args.trace) {
    PrintResultJson(untraced.correct(), untraced.ops, end_to_end);
    return untraced.correct() ? 0 : 1;
  }

  Tracer::Reset();
  Tracer::SetEnabled(true);
  const Report traced = run(args, true);
  Tracer::SetEnabled(false);
  PrintFailures(traced);
  PrintOps(traced.ops);
  const std::vector<Metric> traced_end_to_end = Declared(kEndToEnd, traced);
  PrintMetrics("end-to-end (traced):", traced_end_to_end);
  std::printf("tracing overhead (traced vs untraced):\n");
  for (size_t i = 0; i < end_to_end.size(); ++i) {
    const double base = end_to_end[i].value;
    std::printf("  %-32s %+.2f%%\n", end_to_end[i].name.c_str(),
                base != 0 ? 100.0 * (traced_end_to_end[i].value - base) / base
                          : 0.0);
  }
  const std::string spans =
      args.work_dir + "/spans-" + args.workload + ".tsv";
  if (Tracer::Write(spans)) {
    std::printf("spans written to %s\n", spans.c_str());
  } else {
    std::printf("could not write spans to %s\n", spans.c_str());
  }
  const std::vector<Metric> per_layer = Declared(kPerLayer, traced);
  PrintMetrics("per-layer (traced):", per_layer);

  OpCounts ops = untraced.ops;
  for (int i = 0; i < kOpTypes; ++i) {
    ops.attempted[i] += traced.ops.attempted[i];
    ops.failed[i] += traced.ops.failed[i];
  }
  const bool correct = untraced.correct() && traced.correct();
  PrintResultJson(correct, ops, per_layer);
  return correct ? 0 : 1;
}
