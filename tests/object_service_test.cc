// The service layer's determinism contract: the sharded, batched
// ObjectService must be bit-identical to a one-shard service driven one
// request at a time, for every shard count and every thread count; the
// streaming paths must equal the materialized path event for event; batch
// admission must be atomic; and registration validates exactly the
// configurations the engine can serve.

#include <filesystem>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/object_service.h"
#include "objalloc/util/crc32.h"
#include "objalloc/util/parallel.h"
#include "objalloc/workload/event_source.h"
#include "objalloc/workload/trace_io.h"

namespace objalloc::core {
namespace {

using model::CostModel;
using util::ScopedThreads;
using workload::MultiObjectEvent;
using workload::MultiObjectTrace;

std::vector<int> ShardCounts() { return {1, 4, 16}; }
std::vector<int> ThreadCounts() { return {1, 2, util::GlobalThreads()}; }

MultiObjectTrace TestTrace(size_t length = 3000, uint64_t seed = 1234) {
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 64;
  options.length = length;
  return workload::GenerateMultiObjectTrace(options, seed);
}

ObjectConfig TestConfig(AlgorithmKind kind = AlgorithmKind::kDynamic) {
  ObjectConfig config;
  config.initial_scheme = ProcessorSet{0, 1};
  config.algorithm = kind;
  return config;
}

void RegisterObjects(ObjectService& service, const MultiObjectTrace& trace,
                     const ObjectConfig& config) {
  service.ReserveObjects(static_cast<size_t>(trace.num_objects));
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
}

// The serial reference: one shard, so every request runs in place, in
// stream order, on one ObjectShard.
ObjectService OneShard(int num_processors, const CostModel& model) {
  return ObjectService(num_processors, model, ServiceOptions{.num_shards = 1});
}

ObjectService MakeService(int n = 8) {
  return OneShard(n, CostModel::StationaryComputing(0.5, 1.0));
}

TEST(ObjectServiceTest, ShardedBatchedMatchesSerialBitForBit) {
  const MultiObjectTrace trace = TestTrace();
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();

  // Reference: a one-shard service, request by request.
  ObjectService reference = OneShard(trace.num_processors, sc);
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(reference.AddObject(id, config).ok());
  }
  std::vector<double> reference_costs;
  for (const auto& event : trace.events) {
    auto cost = reference.Serve(event.object, event.request);
    ASSERT_TRUE(cost.ok());
    reference_costs.push_back(*cost);
  }

  for (int shards : ShardCounts()) {
    for (int threads : ThreadCounts()) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ScopedThreads scope(threads);
      ServiceOptions options;
      options.num_shards = shards;
      ObjectService service(trace.num_processors, sc, options);
      RegisterObjects(service, trace, config);

      // Serve in a few differently sized batches to cross batch boundaries.
      std::vector<double> costs;
      size_t position = 0;
      for (size_t batch_size : {1000u, 700u, 1u, 1299u}) {
        auto result = service.ServeBatch(
            std::span<const MultiObjectEvent>(trace.events)
                .subspan(position, batch_size));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        costs.insert(costs.end(), result->costs.begin(),
                     result->costs.end());
        position += batch_size;
      }
      ASSERT_EQ(position, trace.events.size());

      // Per-event costs, submission order, bit-identical.
      ASSERT_EQ(costs.size(), reference_costs.size());
      for (size_t i = 0; i < costs.size(); ++i) {
        ASSERT_EQ(costs[i], reference_costs[i]) << "event " << i;
      }
      // Aggregates.
      EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
      EXPECT_EQ(service.TotalCost(), reference.TotalCost());
      EXPECT_EQ(service.TotalRequests(), reference.TotalRequests());
      // Per-object stats and final schemes.
      for (int id = 0; id < trace.num_objects; ++id) {
        auto got = service.StatsFor(id);
        auto want = reference.StatsFor(id);
        ASSERT_TRUE(got.ok());
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(got->requests, want->requests) << "object " << id;
        EXPECT_EQ(got->breakdown, want->breakdown) << "object " << id;
        EXPECT_EQ(got->scheme, want->scheme) << "object " << id;
      }
    }
  }
}

TEST(ObjectServiceTest, SingleServePathMatchesOneShardBatch) {
  const MultiObjectTrace trace = TestTrace(500);
  const CostModel mc = CostModel::MobileComputing(0.5, 1.0);
  ObjectService batched = OneShard(trace.num_processors, mc);
  ServiceOptions options;
  options.num_shards = 7;  // not a divisor of anything interesting
  ObjectService service(trace.num_processors, mc, options);
  const ObjectConfig config = TestConfig();
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(batched.AddObject(id, config).ok());
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
  auto want = batched.ServeBatch(trace.events);
  ASSERT_TRUE(want.ok());
  for (size_t i = 0; i < trace.events.size(); ++i) {
    auto got = service.Serve(trace.events[i].object, trace.events[i].request);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, want->costs[i]) << "event " << i;
  }
  EXPECT_EQ(service.TotalBreakdown(), batched.TotalBreakdown());
}

TEST(ObjectServiceTest, BatchRejectsUnknownObjectAtomically) {
  const CostModel sc = CostModel::StationaryComputing(0.5, 1.0);
  ObjectService service(8, sc);
  ASSERT_TRUE(service.AddObject(1, TestConfig()).ok());
  // Two valid events surround the invalid one: nothing may be served.
  std::vector<MultiObjectEvent> batch = {
      {1, model::Request::Read(0)},
      {99, model::Request::Read(0)},
      {1, model::Request::Write(2)},
  };
  auto result = service.ServeBatch(batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("event 1"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(service.TotalRequests(), 0) << "rejected batch must not serve";
}

TEST(ObjectServiceTest, BatchRejectsOutOfRangeProcessorAtomically) {
  const CostModel sc = CostModel::StationaryComputing(0.5, 1.0);
  ObjectService service(4, sc);
  ASSERT_TRUE(service.AddObject(1, TestConfig()).ok());
  std::vector<MultiObjectEvent> batch = {
      {1, model::Request::Read(0)},
      {1, model::Request::Write(7)},
  };
  auto result = service.ServeBatch(batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kOutOfRange);
  EXPECT_EQ(service.TotalRequests(), 0);

  std::vector<MultiObjectEvent> negative = {{1, model::Request::Read(-1)}};
  auto rejected = service.ServeBatch(negative);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kOutOfRange);
}

TEST(ObjectServiceTest, AddObjectValidation) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ObjectService service(8, CostModel::StationaryComputing(0.5, 1.0),
                          ServiceOptions{.num_shards = shards});
    ObjectConfig config;
    config.initial_scheme = ProcessorSet{0, 1};
    EXPECT_TRUE(service.AddObject(1, config).ok());
    EXPECT_EQ(service.AddObject(1, config).code(),
              util::StatusCode::kInvalidArgument)
        << "duplicate id";
    config.initial_scheme = ProcessorSet{};
    EXPECT_FALSE(service.AddObject(2, config).ok()) << "empty scheme";
    config.initial_scheme = ProcessorSet{0, 63};
    EXPECT_FALSE(service.AddObject(3, config).ok()) << "outside the system";
    config.initial_scheme = ProcessorSet{0};
    config.algorithm = AlgorithmKind::kDynamic;
    EXPECT_FALSE(service.AddObject(4, config).ok()) << "DA needs t >= 2";
    EXPECT_EQ(service.object_count(), 1u);
    EXPECT_TRUE(service.HasObject(1));
    EXPECT_FALSE(service.HasObject(4));
    config.algorithm = AlgorithmKind::kStatic;
    EXPECT_TRUE(service.AddObject(5, config).ok()) << "SA tolerates t = 1";
  }
}

// The engine serves the paper's SA and DA only. Any other kind is refused
// at registration with InvalidArgument — plain, in fault mode, and under
// durability, where the refusal happens before the WAL sees the record.
TEST(ObjectServiceTest, AddObjectRefusesKindsOutsideSaAndDa) {
  ObjectConfig adaptive = TestConfig(AlgorithmKind::kAdaptive);
  ObjectService plain = MakeService();
  EXPECT_EQ(plain.AddObject(1, adaptive).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(plain.HasObject(1));

  ObjectService faulty = MakeService();
  ASSERT_TRUE(faulty.EnableFaults(FaultInjectorOptions{}).ok());
  EXPECT_EQ(faulty.AddObject(1, adaptive).code(),
            util::StatusCode::kInvalidArgument);

  const std::string dir = ::testing::TempDir() + "/service_adaptive";
  std::filesystem::remove_all(dir);
  ObjectService durable = MakeService();
  ASSERT_TRUE(durable.EnableDurability(dir).ok());
  EXPECT_EQ(durable.AddObject(1, adaptive).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(durable.durability_enabled()) << "refusal must not detach";
  ASSERT_TRUE(durable.AddObject(2, TestConfig()).ok());
  ASSERT_TRUE(durable.DisableDurability().ok());
  auto recovered = ObjectService::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->SortedObjectIds(), std::vector<ObjectId>{2});
}

TEST(EventSourceTest, GeneratorSourceEqualsMaterializedTrace) {
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 32;
  options.length = 1777;
  const MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, 42);

  workload::GeneratorEventSource source(options, 42);
  EXPECT_EQ(source.num_processors(), options.num_processors);
  std::vector<MultiObjectEvent> streamed;
  std::vector<MultiObjectEvent> buffer(100);
  while (true) {
    auto filled = source.FillBatch(buffer);
    ASSERT_TRUE(filled.ok());
    if (*filled == 0) break;
    streamed.insert(streamed.end(), buffer.begin(),
                    buffer.begin() + static_cast<ptrdiff_t>(*filled));
  }
  ASSERT_EQ(streamed.size(), trace.events.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].object, trace.events[i].object);
    EXPECT_EQ(streamed[i].request, trace.events[i].request);
  }
  // Exhausted sources stay exhausted.
  auto again = source.FillBatch(buffer);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST(EventSourceTest, TraceStreamRoundTripsIdenticallyToMaterializedPath) {
  const MultiObjectTrace trace = TestTrace(800, 77);
  std::ostringstream out;
  workload::WriteMultiObjectTrace(trace, out);

  // Materialized read-back (itself built on the stream source).
  std::istringstream materialized_in(out.str());
  auto materialized = workload::ReadMultiObjectTrace(materialized_in);
  ASSERT_TRUE(materialized.ok());
  ASSERT_EQ(materialized->events.size(), trace.events.size());

  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();

  // Path A: the whole materialized trace in one batch.
  ObjectService batch_service(trace.num_processors, sc);
  RegisterObjects(batch_service, trace, config);
  auto batch = batch_service.ServeBatch(materialized->events);
  ASSERT_TRUE(batch.ok());

  // Path B: streamed from the text format with a small bounded buffer.
  std::istringstream stream_in(out.str());
  workload::TraceStreamEventSource source(stream_in);
  ASSERT_TRUE(source.ReadHeader().ok());
  EXPECT_EQ(source.num_processors(), trace.num_processors);
  EXPECT_EQ(source.num_objects(), trace.num_objects);
  ObjectService stream_service(trace.num_processors, sc);
  RegisterObjects(stream_service, trace, config);
  auto streamed = stream_service.ServeStream(source, /*batch_size=*/64);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  EXPECT_EQ(streamed->events, static_cast<int64_t>(trace.events.size()));
  EXPECT_EQ(streamed->batches, (trace.events.size() + 63) / 64);
  EXPECT_EQ(streamed->breakdown, batch->breakdown);
  EXPECT_EQ(streamed->cost, batch->cost);
  EXPECT_EQ(stream_service.TotalBreakdown(), batch_service.TotalBreakdown());
  for (int id = 0; id < trace.num_objects; ++id) {
    EXPECT_EQ(stream_service.StatsFor(id)->scheme,
              batch_service.StatsFor(id)->scheme);
  }
}

TEST(EventSourceTest, TraceStreamRejectsMalformedInput) {
  {
    std::istringstream in("garbage header\n");
    workload::TraceStreamEventSource source(in);
    EXPECT_FALSE(source.ReadHeader().ok());
    std::vector<MultiObjectEvent> buffer(4);
    EXPECT_FALSE(source.FillBatch(buffer).ok()) << "failed source stays failed";
  }
  {
    std::istringstream in("multiobject processors 4 objects 2\n5 r0\n");
    workload::TraceStreamEventSource source(in);
    std::vector<MultiObjectEvent> buffer(4);
    auto filled = source.FillBatch(buffer);
    ASSERT_FALSE(filled.ok());
    EXPECT_EQ(filled.status().code(), util::StatusCode::kOutOfRange);
  }
  {
    workload::TraceFileEventSource source("/nonexistent/trace.txt");
    std::vector<MultiObjectEvent> buffer(4);
    auto filled = source.FillBatch(buffer);
    ASSERT_FALSE(filled.ok());
    EXPECT_EQ(filled.status().code(), util::StatusCode::kNotFound);
  }
}

TEST(ObjectServiceTest, StreamingServesGeneratorInBoundedMemory) {
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 48;
  options.length = 5000;
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();

  // Materialized reference.
  const MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, 9001);
  ObjectService reference(options.num_processors, sc);
  reference.ReserveObjects(static_cast<size_t>(options.num_objects));
  for (int id = 0; id < options.num_objects; ++id) {
    ASSERT_TRUE(reference.AddObject(id, config).ok());
  }
  auto want = reference.ServeBatch(trace.events);
  ASSERT_TRUE(want.ok());

  // Streaming run, never materializing more than 256 events.
  workload::GeneratorEventSource source(options, 9001);
  ServiceOptions sharded;
  sharded.num_shards = 16;
  ObjectService service(options.num_processors, sc, sharded);
  service.ReserveObjects(static_cast<size_t>(options.num_objects));
  for (int id = 0; id < options.num_objects; ++id) {
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
  auto got = service.ServeStream(source, /*batch_size=*/256);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->events, static_cast<int64_t>(options.length));
  EXPECT_EQ(got->breakdown, want->breakdown);
  EXPECT_EQ(got->cost, want->cost);
}

TEST(ObjectServiceTest, IncrementalTotalsMatchPerObjectSums) {
  const MultiObjectTrace trace = TestTrace(1000, 5);
  const CostModel sc = CostModel::StationaryComputing(0.3, 0.7);
  ServiceOptions options;
  options.num_shards = 4;
  ObjectService service(trace.num_processors, sc, options);
  RegisterObjects(service, trace, TestConfig());
  ASSERT_TRUE(service.ServeBatch(trace.events).ok());

  model::CostBreakdown summed;
  int64_t requests = 0;
  const std::vector<ObjectId> ids = service.SortedObjectIds();
  EXPECT_EQ(ids.size(), static_cast<size_t>(trace.num_objects));
  for (ObjectId id : ids) {
    auto stats = service.StatsFor(id);
    ASSERT_TRUE(stats.ok());
    summed += stats->breakdown;
    requests += stats->requests;
  }
  EXPECT_EQ(service.TotalBreakdown(), summed);
  EXPECT_EQ(service.TotalRequests(), requests);
  EXPECT_EQ(service.TotalCost(), summed.Cost(sc));
}

TEST(ObjectServiceTest, MixedAlgorithmsAcrossShards) {
  const CostModel sc = CostModel::StationaryComputing(0.5, 1.0);
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ObjectService service(8, sc, ServiceOptions{.num_shards = shards});
    ASSERT_TRUE(
        service.AddObject(1, TestConfig(AlgorithmKind::kDynamic)).ok());
    ASSERT_TRUE(service.AddObject(2, TestConfig(AlgorithmKind::kStatic)).ok());
    std::vector<MultiObjectEvent> batch = {
        {1, model::Request::Read(6)},
        {2, model::Request::Read(6)},
    };
    ASSERT_TRUE(service.ServeBatch(batch).ok());
    // DA saves at the reader, SA does not; objects stay isolated.
    EXPECT_TRUE(service.StatsFor(1)->scheme.Contains(6));
    EXPECT_FALSE(service.StatsFor(2)->scheme.Contains(6));
  }
}

// SchemeCrc is the scheme fingerprint the STATS wire op reports and the
// benches pin: it must equal the explicit walk — ids ascending, CRC-32 of
// each id then its scheme mask — at every shard count, also after a fault
// history has reshaped the schemes, and while batches are in flight.
TEST(ObjectServiceTest, SchemeCrcEqualsTheSortedPerObjectWalk) {
  const MultiObjectTrace trace = TestTrace(4000, 77);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const auto walk = [](const ObjectService& service) {
    uint32_t crc = 0;
    for (ObjectId id : service.SortedObjectIds()) {
      const uint64_t mask = service.StatsFor(id)->scheme.mask();
      crc = util::Crc32(&id, sizeof(id), crc);
      crc = util::Crc32(&mask, sizeof(mask), crc);
    }
    return crc;
  };
  std::span<const MultiObjectEvent> events(trace.events);
  uint32_t plain_crc = 0, faulty_crc = 0;
  for (int shards : ShardCounts()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ScopedThreads threads(2);
    ObjectService service(trace.num_processors, sc,
                          ServiceOptions{.num_shards = shards});
    RegisterObjects(service, trace, TestConfig());
    EXPECT_EQ(service.SchemeCrc(), walk(service));
    // Pipelined: the fingerprint fences the in-flight batch first.
    BatchResult result;
    BatchTicket ticket;
    ASSERT_TRUE(service.SubmitBatch(events.first(2000), &result, &ticket).ok());
    const uint32_t crc = service.SchemeCrc();
    ASSERT_TRUE(service.WaitBatch(&ticket).ok());
    EXPECT_EQ(crc, walk(service));
    if (shards == 1) plain_crc = crc;
    EXPECT_EQ(crc, plain_crc) << "the fingerprint depends on the sharding";

    FaultInjectorOptions faults;
    faults.seed = 11;
    faults.crash_rate = 0.01;
    faults.recover_rate = 0.05;
    faults.control_loss_rate = 0.05;
    ASSERT_TRUE(service.EnableFaults(faults).ok());
    auto faulty = service.ServeBatch(events.subspan(2000));
    ASSERT_TRUE(faulty.ok() ||
                faulty.status().code() == util::StatusCode::kUnavailable);
    ASSERT_GT(service.fault_stats().crashes, 0);
    EXPECT_EQ(service.SchemeCrc(), walk(service));
    if (shards == 1) faulty_crc = service.SchemeCrc();
    EXPECT_EQ(service.SchemeCrc(), faulty_crc);
    EXPECT_NE(faulty_crc, plain_crc);
  }
}

}  // namespace
}  // namespace objalloc::core
