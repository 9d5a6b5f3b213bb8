// The devirtualized serving engine's contracts (DESIGN.md §8): the inline
// SA/DA dispatch in ObjectShard is bit-identical to the virtual reference
// classes run through RunWithCost, the handle-addressed path is
// bit-identical to the id-addressed path for every shard x thread
// configuration, stale or tampered handles are rejected atomically, and
// the steady-state batch path performs zero heap allocations (asserted
// through a global operator-new counting hook).

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/dom_algorithm.h"
#include "objalloc/core/object_service.h"
#include "objalloc/core/runner.h"
#include "objalloc/model/allocation_schedule.h"
#include "objalloc/model/cost_evaluator.h"
#include "objalloc/model/schedule.h"
#include "objalloc/util/parallel.h"
#include "objalloc/workload/multi_object.h"

// Global allocation counter: every scalar operator new bumps it (the array
// forms delegate here by default). The zero-allocation test reads the delta
// across a measured region; everything else just pays one relaxed add.
static std::atomic<int64_t> g_heap_allocations{0};

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace objalloc::core {
namespace {

using model::CostModel;
using util::ScopedThreads;
using workload::MultiObjectEvent;
using workload::MultiObjectTrace;

MultiObjectTrace TestTrace(size_t length = 4000, uint64_t seed = 77) {
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 48;
  options.length = length;
  return workload::GenerateMultiObjectTrace(options, seed);
}

ObjectConfig TestConfig(AlgorithmKind kind = AlgorithmKind::kDynamic) {
  ObjectConfig config;
  config.initial_scheme = ProcessorSet{0, 1, 2};
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

// One synchronous batch through the engine: SubmitBatch + WaitBatch into a
// caller-owned (recyclable) result.
template <typename EventT>
util::Status ServeInto(ObjectService& service, std::span<const EventT> events,
                       BatchResult* result) {
  BatchTicket ticket;
  OBJALLOC_RETURN_IF_ERROR(service.SubmitBatch(events, result, &ticket));
  return service.WaitBatch(&ticket);
}

util::StatusOr<BatchResult> ServeHandles(ObjectService& service,
                                         std::span<const HandleEvent> events) {
  BatchResult result;
  OBJALLOC_RETURN_IF_ERROR(ServeInto(service, events, &result));
  return result;
}

// A one-event handle batch.
util::Status ServeHandle(ObjectService& service, const ObjectHandle& handle,
                         const Request& request) {
  const HandleEvent event{handle, request};
  return ServeHandles(service, {&event, 1}).status();
}

std::vector<HandleEvent> ResolveAll(const ObjectService& service,
                                    const MultiObjectTrace& trace) {
  std::vector<ObjectHandle> handles(trace.num_objects);
  for (int id = 0; id < trace.num_objects; ++id) {
    auto handle = service.Resolve(id);
    EXPECT_TRUE(handle.ok());
    handles[id] = *handle;
  }
  std::vector<HandleEvent> events;
  events.reserve(trace.events.size());
  for (const MultiObjectEvent& event : trace.events) {
    events.push_back(HandleEvent{handles[event.object], event.request});
  }
  return events;
}

// The engine's core identity: a one-shard service — the inline SA/DA
// dispatch in ObjectShard — must be the same function as the virtual
// StaticAllocation / DynamicAllocation classes run through RunWithCost,
// request for request: exact double equality, exact breakdowns, exact
// schemes.
TEST(ServingEngineTest, InlineDispatchMatchesVirtualReference) {
  const MultiObjectTrace trace = TestTrace();
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  for (AlgorithmKind kind : {AlgorithmKind::kStatic, AlgorithmKind::kDynamic}) {
    SCOPED_TRACE(AlgorithmKindToString(kind));
    const ObjectConfig config = TestConfig(kind);
    ObjectService service(trace.num_processors, sc,
                          ServiceOptions{.num_shards = 1});
    RegisterObjects(service, trace, config);
    auto served =
        service.ServeBatch(std::span<const MultiObjectEvent>(trace.events));
    ASSERT_TRUE(served.ok());

    // Reference: each object's own request stream, run through a fresh
    // virtual algorithm instance and priced by the model-layer evaluator.
    std::vector<std::vector<Request>> requests(trace.num_objects);
    std::vector<std::vector<size_t>> positions(trace.num_objects);
    for (size_t i = 0; i < trace.events.size(); ++i) {
      requests[trace.events[i].object].push_back(trace.events[i].request);
      positions[trace.events[i].object].push_back(i);
    }
    for (int id = 0; id < trace.num_objects; ++id) {
      std::unique_ptr<DomAlgorithm> algorithm = CreateAlgorithm(kind, sc);
      const RunResult run = RunWithCost(
          *algorithm, sc, model::Schedule(trace.num_processors, requests[id]),
          config.initial_scheme);
      ProcessorSet scheme = config.initial_scheme;
      for (size_t k = 0; k < run.allocation.size(); ++k) {
        const model::AllocatedRequest& entry = run.allocation[k];
        ASSERT_EQ(served->costs[positions[id][k]],
                  model::RequestBreakdown(entry, scheme).Cost(sc))
            << "object " << id << " request " << k;
        scheme = model::NextScheme(scheme, entry);
      }
      auto stats = service.StatsFor(id);
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->scheme.mask(), run.allocation.FinalScheme().mask());
      EXPECT_EQ(stats->breakdown, run.breakdown);
    }
  }
}

// Handle-addressed serving must be bit-identical to id-addressed serving —
// and both to a one-shard service driven one request at a time — for every
// shard count and thread count, per-event costs included.
TEST(ServingEngineTest, HandlePathMatchesIdPathBitForBit) {
  const MultiObjectTrace trace = TestTrace();
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();

  ObjectService reference(trace.num_processors, sc,
                          ServiceOptions{.num_shards = 1});
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(reference.AddObject(id, config).ok());
  }
  std::vector<double> reference_costs;
  reference_costs.reserve(trace.events.size());
  for (const MultiObjectEvent& event : trace.events) {
    auto cost = reference.Serve(event.object, event.request);
    ASSERT_TRUE(cost.ok());
    reference_costs.push_back(*cost);
  }

  constexpr size_t kBatch = 512;
  for (int shards : {1, 4, 16}) {
    for (int threads : {1, 2, util::GlobalThreads()}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ScopedThreads scope(threads);
      ServiceOptions options;
      options.num_shards = shards;

      ObjectService by_id(trace.num_processors, sc, options);
      RegisterObjects(by_id, trace, config);
      ObjectService by_handle(trace.num_processors, sc, options);
      RegisterObjects(by_handle, trace, config);
      const std::vector<HandleEvent> handle_events =
          ResolveAll(by_handle, trace);

      std::span<const MultiObjectEvent> id_span(trace.events);
      std::span<const HandleEvent> handle_span(handle_events);
      size_t event_index = 0;
      for (size_t pos = 0; pos < trace.events.size(); pos += kBatch) {
        const size_t n = std::min(kBatch, trace.events.size() - pos);
        auto id_batch = by_id.ServeBatch(id_span.subspan(pos, n));
        auto handle_batch =
            ServeHandles(by_handle, handle_span.subspan(pos, n));
        ASSERT_TRUE(id_batch.ok());
        ASSERT_TRUE(handle_batch.ok());
        ASSERT_EQ(id_batch->costs.size(), n);
        ASSERT_EQ(handle_batch->costs.size(), n);
        EXPECT_EQ(id_batch->breakdown, handle_batch->breakdown);
        for (size_t i = 0; i < n; ++i, ++event_index) {
          ASSERT_EQ(id_batch->costs[i], reference_costs[event_index]);
          ASSERT_EQ(handle_batch->costs[i], reference_costs[event_index]);
        }
      }
      EXPECT_EQ(by_id.TotalBreakdown(), by_handle.TotalBreakdown());
      EXPECT_EQ(by_id.TotalBreakdown(), reference.TotalBreakdown());
      EXPECT_EQ(by_id.TotalRequests(), by_handle.TotalRequests());
      for (int id = 0; id < trace.num_objects; ++id) {
        EXPECT_EQ(by_id.StatsFor(id)->scheme.mask(),
                  by_handle.StatsFor(id)->scheme.mask());
      }
    }
  }
}

TEST(ServingEngineTest, ResolveRejectsUnknownObjects) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  ObjectService service(8, sc, ServiceOptions{.num_shards = 4});
  ASSERT_TRUE(service.AddObject(7, TestConfig()).ok());

  auto known = service.Resolve(7);
  ASSERT_TRUE(known.ok());
  EXPECT_EQ(known->id, 7);
  EXPECT_LT(known->shard, 4u);

  EXPECT_EQ(service.Resolve(8).status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(service.Resolve(-1).status().code(), util::StatusCode::kNotFound);
}

TEST(ServingEngineTest, StaleAndTamperedHandlesAreRejected) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const Request read = Request::Read(0);

  ObjectService service(8, sc, ServiceOptions{.num_shards = 4});
  ASSERT_TRUE(service.AddObject(1, TestConfig()).ok());
  ASSERT_TRUE(service.AddObject(2, TestConfig()).ok());
  ObjectHandle good = *service.Resolve(1);

  // A default-constructed handle, an out-of-range shard or slot, and a
  // handle whose claimed id disagrees with what the slot holds must all be
  // rejected — never dereferenced.
  EXPECT_EQ(ServeHandle(service, ObjectHandle{}, read).code(),
            util::StatusCode::kInvalidArgument);
  ObjectHandle bad_shard = good;
  bad_shard.shard = 99;
  EXPECT_EQ(ServeHandle(service, bad_shard, read).code(),
            util::StatusCode::kInvalidArgument);
  ObjectHandle bad_slot = good;
  bad_slot.slot = 12345;
  EXPECT_EQ(ServeHandle(service, bad_slot, read).code(),
            util::StatusCode::kInvalidArgument);
  ObjectHandle bad_id = good;
  bad_id.id = 2;  // registered object, wrong route
  EXPECT_EQ(ServeHandle(service, bad_id, read).code(),
            util::StatusCode::kInvalidArgument);

  // Handles do not transfer between services: a route resolved against a
  // differently-sharded service must fail validation here.
  ObjectService other(8, sc, ServiceOptions{.num_shards = 16});
  ASSERT_TRUE(other.AddObject(1, TestConfig()).ok());
  ObjectHandle foreign = *other.Resolve(1);
  const bool foreign_same_route =
      foreign.shard == good.shard && foreign.slot == good.slot;
  if (!foreign_same_route) {
    EXPECT_FALSE(ServeHandle(service, foreign, read).ok());
  }

  // Batch admission stays atomic on the handle path: one bad handle rejects
  // the whole batch before any state changes.
  const int64_t before = service.TotalRequests();
  std::vector<HandleEvent> batch = {HandleEvent{good, read},
                                    HandleEvent{bad_id, read}};
  auto result = ServeHandles(service, batch);
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(service.TotalRequests(), before);

  // The good handle still serves after all the rejections.
  EXPECT_TRUE(ServeHandle(service, good, read).ok());
}

// The scratch-arena contract: after one warm-up batch, repeated batches
// allocate nothing — on the id path, the handle path, and ServeStream's
// inner loop equivalent (SubmitBatch + WaitBatch with recycled storage).
TEST(ServingEngineTest, SteadyStateBatchesDoNotAllocate) {
  const MultiObjectTrace trace = TestTrace(2048);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  ScopedThreads scope(1);  // the serial in-place path (see header comment)

  ObjectService service(trace.num_processors, sc,
                        ServiceOptions{.num_shards = 4});
  RegisterObjects(service, trace, TestConfig());
  const std::vector<HandleEvent> handle_events = ResolveAll(service, trace);

  std::span<const MultiObjectEvent> id_span(trace.events);
  std::span<const HandleEvent> handle_span(handle_events);
  BatchResult result;
  // Warm-up: sizes routes_ and result->costs to the maximal batch.
  ASSERT_TRUE(ServeInto(service, id_span, &result).ok());
  ASSERT_TRUE(ServeInto(service, handle_span, &result).ok());

  const int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(ServeInto(service, id_span, &result).ok());
    ASSERT_TRUE(ServeInto(service, handle_span, &result).ok());
  }
  const int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state synchronous batches must not touch the heap";
}

// The same contract on the shard-executor path (threads > 1): once the
// worker pool is up and every pipeline context has served the maximal
// batch, both the synchronous entry and the pipelined SubmitBatch/WaitBatch
// entry are allocation-free — the per-shard op lists, the per-context
// scratch, and the SPSC rings are all warm fixed-capacity storage.
TEST(ServingEngineTest, SteadyStateExecutorBatchesDoNotAllocate) {
  const MultiObjectTrace trace = TestTrace(2048);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  ScopedThreads scope(2);  // engages the executor path

  ObjectService service(trace.num_processors, sc,
                        ServiceOptions{.num_shards = 4});
  RegisterObjects(service, trace, TestConfig());
  const std::vector<HandleEvent> handle_events = ResolveAll(service, trace);

  std::span<const MultiObjectEvent> id_span(trace.events);
  std::span<const HandleEvent> handle_span(handle_events);
  BatchResult result;
  BatchResult results[2];
  BatchTicket tickets[2];
  // Warm-up: spin up the executor, then cycle every pipeline context
  // twice through the maximal batch on both entries so each context's
  // per-shard op lists reach steady capacity (contexts are visited
  // round-robin, so 2 x depth batches guarantee two visits each).
  ASSERT_TRUE(ServeInto(service, id_span, &result).ok());
  const size_t rounds = 2 * ShardExecutor::kDefaultDepth;
  for (size_t round = 0; round < rounds; ++round) {
    ASSERT_TRUE(ServeInto(service, id_span, &result).ok());
    ASSERT_TRUE(ServeInto(service, handle_span, &result).ok());
    const int cur = static_cast<int>(round % 2);
    if (!tickets[cur].completed) {
      ASSERT_TRUE(service.WaitBatch(&tickets[cur]).ok());
    }
    ASSERT_TRUE(
        service.SubmitBatch(id_span, &results[cur], &tickets[cur]).ok());
  }
  ASSERT_TRUE(service.DrainBatches().ok());

  const int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(ServeInto(service, id_span, &result).ok());
    ASSERT_TRUE(ServeInto(service, handle_span, &result).ok());
    const int cur = round % 2;
    if (!tickets[cur].completed) {
      ASSERT_TRUE(service.WaitBatch(&tickets[cur]).ok());
    }
    ASSERT_TRUE(
        service.SubmitBatch(id_span, &results[cur], &tickets[cur]).ok());
  }
  ASSERT_TRUE(service.DrainBatches().ok());
  const int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state executor batches must not touch the heap";
}

// ReserveObjects pre-sizes every table a registration touches — the route
// directory and each shard's slot pages — so a registration
// burst inside the reserved envelope never touches the heap. This is the
// contract that makes pre-sized million-object loads O(1) allocations.
TEST(ServingEngineTest, PostReserveRegistrationDoesNotAllocate) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  ScopedThreads scope(1);  // serial path: no executor to spin up

  ObjectService service(8, sc, ServiceOptions{.num_shards = 4});
  const int kObjects = 4096;
  service.ReserveObjects(static_cast<size_t>(kObjects));
  const ObjectConfig config = TestConfig();

  const int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int id = 0; id < kObjects; ++id) {
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
  const int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "a post-reserve registration burst must not touch the heap";
  EXPECT_EQ(service.object_count(), static_cast<size_t>(kObjects));
}

// ReserveObjects is a pure capacity hint: identical results with and
// without it.
TEST(ServingEngineTest, ReserveObjectsDoesNotChangeResults) {
  const MultiObjectTrace trace = TestTrace(1500);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();

  ObjectService reserved(trace.num_processors, sc,
                         ServiceOptions{.num_shards = 4});
  RegisterObjects(reserved, trace, config);
  ObjectService unreserved(trace.num_processors, sc,
                           ServiceOptions{.num_shards = 4});
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(unreserved.AddObject(id, config).ok());
  }

  auto a = reserved.ServeBatch(std::span<const MultiObjectEvent>(trace.events));
  auto b =
      unreserved.ServeBatch(std::span<const MultiObjectEvent>(trace.events));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->breakdown, b->breakdown);
  EXPECT_EQ(a->costs, b->costs);
  for (int id = 0; id < trace.num_objects; ++id) {
    EXPECT_EQ(reserved.StatsFor(id)->scheme.mask(),
              unreserved.StatsFor(id)->scheme.mask());
  }
}

}  // namespace
}  // namespace objalloc::core
