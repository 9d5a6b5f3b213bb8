// Per-object management on a one-shard ObjectService, the serial reference
// of the determinism contract: unknown objects and out-of-range processors
// are refused, one object costs exactly what a standalone run of the
// virtual DA class costs, objects are isolated from each other, aggregates
// sum over objects; plus the multi-object trace generator that feeds it.

#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/dynamic_allocation.h"
#include "objalloc/core/object_service.h"
#include "objalloc/core/runner.h"
#include "objalloc/workload/multi_object.h"

namespace objalloc::core {
namespace {

using model::CostModel;

ObjectConfig TestConfig() {
  ObjectConfig config;
  config.initial_scheme = ProcessorSet{0, 1};
  config.algorithm = AlgorithmKind::kDynamic;
  return config;
}

// One shard, so every request runs in place, in stream order.
ObjectService OneShard(int num_processors, const CostModel& model) {
  return ObjectService(num_processors, model, ServiceOptions{.num_shards = 1});
}

ObjectService MakeService(int n = 8) {
  return OneShard(n, CostModel::StationaryComputing(0.5, 1.0));
}

TEST(ObjectManagementTest, ServeUnknownObjectFails) {
  ObjectService service = MakeService();
  auto result = service.Serve(42, Request::Read(0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

TEST(ObjectManagementTest, ServeOutOfRangeProcessorFails) {
  ObjectService service = MakeService(4);
  ASSERT_TRUE(service.AddObject(1, TestConfig()).ok());
  EXPECT_EQ(service.Serve(1, Request::Read(7)).status().code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(service.TotalRequests(), 0);
}

TEST(ObjectManagementTest, PerObjectCostMatchesStandaloneRun) {
  // One object served through the service must cost exactly what a
  // standalone run of the virtual DA class costs.
  CostModel sc = CostModel::StationaryComputing(0.5, 1.0);
  ObjectService service = OneShard(8, sc);
  ASSERT_TRUE(service.AddObject(7, TestConfig()).ok());

  model::Schedule schedule =
      model::Schedule::Parse(8, "r5 r5 w2 r3 w0 r5").value();
  double total = 0;
  for (const auto& request : schedule.requests()) {
    auto cost = service.Serve(7, request);
    ASSERT_TRUE(cost.ok());
    total += *cost;
  }
  DynamicAllocation da;
  RunResult reference = RunWithCost(da, sc, schedule, ProcessorSet{0, 1});
  EXPECT_DOUBLE_EQ(total, reference.cost);
  auto stats = service.StatsFor(7);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->breakdown, reference.breakdown);
  EXPECT_EQ(stats->scheme, reference.allocation.FinalScheme());
}

TEST(ObjectManagementTest, ObjectsAreIsolated) {
  ObjectService service = MakeService();
  ASSERT_TRUE(service.AddObject(1, TestConfig()).ok());
  ASSERT_TRUE(service.AddObject(2, TestConfig()).ok());
  // A write to object 1 must not invalidate object 2's replicas.
  ASSERT_TRUE(service.Serve(2, Request::Read(5)).ok());  // 5 joins obj 2
  ASSERT_TRUE(service.Serve(1, Request::Write(3)).ok());
  auto stats2 = service.StatsFor(2);
  ASSERT_TRUE(stats2.ok());
  EXPECT_TRUE(stats2->scheme.Contains(5));
}

TEST(ObjectManagementTest, AggregatesAcrossObjects) {
  ObjectService service = MakeService();
  for (ObjectId id = 0; id < 10; ++id) {
    ASSERT_TRUE(service.AddObject(id, TestConfig()).ok());
  }
  EXPECT_EQ(service.object_count(), 10u);
  for (ObjectId id = 0; id < 10; ++id) {
    ASSERT_TRUE(service.Serve(id, Request::Read(0)).ok());
  }
  EXPECT_EQ(service.TotalRequests(), 10);
  EXPECT_EQ(service.TotalBreakdown().io_ops, 10);
  EXPECT_DOUBLE_EQ(service.TotalCost(), 10.0);
}

TEST(MultiObjectTraceTest, GeneratorValidation) {
  workload::MultiObjectOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_objects = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = workload::MultiObjectOptions{};
  options.min_read_fraction = 0.9;
  options.max_read_fraction = 0.5;
  EXPECT_FALSE(options.Validate().ok());
  options = workload::MultiObjectOptions{};
  options.locality_set = 99;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(MultiObjectTraceTest, DeterministicAndInRange) {
  workload::MultiObjectOptions options;
  options.length = 500;
  auto a = workload::GenerateMultiObjectTrace(options, 7);
  auto b = workload::GenerateMultiObjectTrace(options, 7);
  ASSERT_EQ(a.events.size(), 500u);
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].object, b.events[i].object);
    EXPECT_EQ(a.events[i].request, b.events[i].request);
    EXPECT_GE(a.events[i].object, 0);
    EXPECT_LT(a.events[i].object, options.num_objects);
    EXPECT_LT(a.events[i].request.processor, options.num_processors);
  }
}

TEST(MultiObjectTraceTest, PopularityIsSkewed) {
  workload::MultiObjectOptions options;
  options.length = 4000;
  options.popularity_skew = 1.0;
  auto trace = workload::GenerateMultiObjectTrace(options, 9);
  std::vector<int> counts(static_cast<size_t>(options.num_objects), 0);
  for (const auto& event : trace.events) {
    ++counts[static_cast<size_t>(event.object)];
  }
  EXPECT_GT(counts[0], counts[static_cast<size_t>(options.num_objects - 1)] * 3);
}

TEST(MultiObjectTraceTest, EndToEndThroughOneShardService) {
  workload::MultiObjectOptions options;
  options.length = 2000;
  auto trace = workload::GenerateMultiObjectTrace(options, 11);

  ObjectService service = OneShard(options.num_processors,
                                   CostModel::StationaryComputing(0.25, 1.0));
  for (int id = 0; id < options.num_objects; ++id) {
    ASSERT_TRUE(service.AddObject(id, TestConfig()).ok());
  }
  for (const auto& event : trace.events) {
    ASSERT_TRUE(service.Serve(event.object, event.request).ok());
  }
  EXPECT_EQ(service.TotalRequests(), static_cast<int64_t>(options.length));
  EXPECT_GT(service.TotalCost(), 0.0);
}

}  // namespace
}  // namespace objalloc::core
