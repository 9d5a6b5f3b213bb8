// Concurrency-control substrate: lock manager semantics, deadlock
// detection, and the Serializer's end-to-end guarantee — every transaction
// commits and the emitted per-object schedules are consistent with strict
// two-phase locking.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "objalloc/cc/lock_manager.h"
#include "objalloc/cc/serializer.h"
#include "objalloc/core/object_service.h"
#include "objalloc/util/rng.h"

namespace objalloc::cc {
namespace {

// ------------------------------------------------------------ LockManager

TEST(LockManagerTest, ExclusiveExcludes) {
  LockManager locks;
  EXPECT_EQ(locks.Acquire(1, 100, LockMode::kExclusive),
            LockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(2, 100, LockMode::kShared),
            LockOutcome::kWaiting);
  EXPECT_TRUE(locks.IsWaiting(2));
}

TEST(LockManagerTest, SharedLocksAreCompatible) {
  LockManager locks;
  EXPECT_EQ(locks.Acquire(1, 100, LockMode::kShared), LockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(2, 100, LockMode::kShared), LockOutcome::kGranted);
  EXPECT_TRUE(locks.Holds(1, 100));
  EXPECT_TRUE(locks.Holds(2, 100));
}

TEST(LockManagerTest, ReacquisitionIsIdempotent) {
  LockManager locks;
  EXPECT_EQ(locks.Acquire(1, 100, LockMode::kExclusive),
            LockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(1, 100, LockMode::kExclusive),
            LockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(1, 100, LockMode::kShared),
            LockOutcome::kGranted);
}

TEST(LockManagerTest, SoleHolderUpgrades) {
  LockManager locks;
  EXPECT_EQ(locks.Acquire(1, 100, LockMode::kShared), LockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(1, 100, LockMode::kExclusive),
            LockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(2, 100, LockMode::kShared),
            LockOutcome::kWaiting);
}

TEST(LockManagerTest, ReleaseWakesFifoWaiters) {
  LockManager locks;
  ASSERT_EQ(locks.Acquire(1, 100, LockMode::kExclusive),
            LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(2, 100, LockMode::kShared),
            LockOutcome::kWaiting);
  ASSERT_EQ(locks.Acquire(3, 100, LockMode::kShared),
            LockOutcome::kWaiting);
  auto woken = locks.ReleaseAll(1);
  // Both shared waiters are granted together.
  EXPECT_EQ(std::set<TransactionId>(woken.begin(), woken.end()),
            (std::set<TransactionId>{2, 3}));
  EXPECT_TRUE(locks.Holds(2, 100));
  EXPECT_TRUE(locks.Holds(3, 100));
}

TEST(LockManagerTest, WriterWaitsBehindEarlierWaiter) {
  LockManager locks;
  ASSERT_EQ(locks.Acquire(1, 100, LockMode::kExclusive),
            LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(2, 100, LockMode::kExclusive),
            LockOutcome::kWaiting);
  ASSERT_EQ(locks.Acquire(3, 100, LockMode::kExclusive),
            LockOutcome::kWaiting);
  auto woken = locks.ReleaseAll(1);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 2);  // FIFO
  EXPECT_FALSE(locks.Holds(3, 100));
}

TEST(LockManagerTest, DetectsTwoTransactionCycle) {
  LockManager locks;
  ASSERT_EQ(locks.Acquire(1, 100, LockMode::kExclusive),
            LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(2, 200, LockMode::kExclusive),
            LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(1, 200, LockMode::kExclusive),
            LockOutcome::kWaiting);
  // 2 -> 1 would close the cycle 1 -> 2.
  EXPECT_EQ(locks.Acquire(2, 100, LockMode::kExclusive),
            LockOutcome::kDeadlock);
}

TEST(LockManagerTest, DetectsThreeTransactionCycle) {
  LockManager locks;
  ASSERT_EQ(locks.Acquire(1, 100, LockMode::kExclusive),
            LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(2, 200, LockMode::kExclusive),
            LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(3, 300, LockMode::kExclusive),
            LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(1, 200, LockMode::kExclusive),
            LockOutcome::kWaiting);
  ASSERT_EQ(locks.Acquire(2, 300, LockMode::kExclusive),
            LockOutcome::kWaiting);
  EXPECT_EQ(locks.Acquire(3, 100, LockMode::kExclusive),
            LockOutcome::kDeadlock);
}

TEST(LockManagerTest, UpgradeDeadlockIsDetected) {
  // Two shared holders both upgrading: the second must be the victim.
  LockManager locks;
  ASSERT_EQ(locks.Acquire(1, 100, LockMode::kShared), LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(2, 100, LockMode::kShared), LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(1, 100, LockMode::kExclusive),
            LockOutcome::kWaiting);
  EXPECT_EQ(locks.Acquire(2, 100, LockMode::kExclusive),
            LockOutcome::kDeadlock);
  // The victim aborts; the survivor's upgrade completes.
  auto woken = locks.ReleaseAll(2);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 1);
}

TEST(LockManagerTest, AbortedBlockerUnblocksChains) {
  LockManager locks;
  ASSERT_EQ(locks.Acquire(1, 100, LockMode::kExclusive),
            LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(2, 100, LockMode::kExclusive),
            LockOutcome::kWaiting);
  locks.ReleaseAll(2);  // waiter gives up
  auto woken = locks.ReleaseAll(1);
  EXPECT_TRUE(woken.empty());  // nobody left
  EXPECT_EQ(locks.Acquire(3, 100, LockMode::kExclusive),
            LockOutcome::kGranted);
}

// ------------------------------------------------------------- Serializer

Transaction MakeTxn(TransactionId id, model::ProcessorId processor,
                    std::vector<Operation> operations) {
  return Transaction{id, processor, std::move(operations)};
}

TEST(SerializerTest, SingleTransactionPassesThrough) {
  Serializer serializer(4);
  auto result = serializer.Run(
      {MakeTxn(1, 2, {Operation::Read(7), Operation::Write(7)})}, 1);
  EXPECT_EQ(result.committed, 1u);
  EXPECT_EQ(result.deadlock_aborts, 0);
  ASSERT_EQ(result.schedules.count(7), 1u);
  EXPECT_EQ(result.schedules.at(7).ToString(), "r2 w2");
}

TEST(SerializerTest, ConflictingWritersCommitAllOperations) {
  Serializer serializer(4);
  std::vector<Transaction> txns = {
      MakeTxn(1, 0, {Operation::Write(5), Operation::Write(5)}),
      MakeTxn(2, 1, {Operation::Write(5), Operation::Write(5)}),
      MakeTxn(3, 2, {Operation::Read(5)}),
  };
  auto result = serializer.Run(txns, 7);
  EXPECT_EQ(result.committed, 3u);
  const model::Schedule& schedule = result.schedules.at(5);
  EXPECT_EQ(schedule.size(), 5u);
  EXPECT_EQ(schedule.CountWrites(), 4u);
}

TEST(SerializerTest, StrictTwoPhaseLockingKeepsWritesContiguous) {
  // Under strict 2PL, a transaction's operations on one object can never be
  // interleaved with a *conflicting* operation of another transaction.
  Serializer serializer(8);
  std::vector<Transaction> txns;
  for (TransactionId id = 1; id <= 6; ++id) {
    txns.push_back(MakeTxn(id, static_cast<model::ProcessorId>(id),
                           {Operation::Write(1), Operation::Write(1)}));
  }
  auto result = serializer.Run(txns, 99);
  const model::Schedule& schedule = result.schedules.at(1);
  ASSERT_EQ(schedule.size(), 12u);
  // Writes by the same processor arrive in adjacent pairs.
  for (size_t k = 0; k < schedule.size(); k += 2) {
    EXPECT_EQ(schedule[k].processor, schedule[k + 1].processor) << k;
  }
}

TEST(SerializerTest, DeadlockVictimsRetryAndCommit) {
  // The classic crossing pattern forces at least one deadlock for some
  // interleavings; every transaction must still commit.
  Serializer serializer(4);
  std::vector<Transaction> txns = {
      MakeTxn(1, 0, {Operation::Write(1), Operation::Write(2)}),
      MakeTxn(2, 1, {Operation::Write(2), Operation::Write(1)}),
  };
  int64_t total_aborts = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    auto result = serializer.Run(txns, seed);
    EXPECT_EQ(result.committed, 2u) << "seed " << seed;
    EXPECT_EQ(result.schedules.at(1).size(), 2u) << "seed " << seed;
    EXPECT_EQ(result.schedules.at(2).size(), 2u) << "seed " << seed;
    total_aborts += result.deadlock_aborts;
  }
  EXPECT_GT(total_aborts, 0) << "the crossing pattern never deadlocked?";
}

TEST(SerializerTest, DeterministicPerSeed) {
  Serializer serializer(6);
  std::vector<Transaction> txns = {
      MakeTxn(1, 0, {Operation::Write(1), Operation::Read(2)}),
      MakeTxn(2, 1, {Operation::Read(1), Operation::Write(2)}),
      MakeTxn(3, 2, {Operation::Write(1), Operation::Write(2)}),
  };
  auto a = serializer.Run(txns, 1234);
  auto b = serializer.Run(txns, 1234);
  EXPECT_EQ(a.schedules.at(1).ToString(), b.schedules.at(1).ToString());
  EXPECT_EQ(a.schedules.at(2).ToString(), b.schedules.at(2).ToString());
}

TEST(SerializerTest, RandomBatchesAlwaysCommitEverything) {
  util::Rng rng(0xcc);
  for (int trial = 0; trial < 20; ++trial) {
    const int num_objects = 5;
    std::vector<Transaction> txns;
    size_t expected_ops_total = 0;
    for (TransactionId id = 1; id <= 12; ++id) {
      Transaction txn;
      txn.id = id;
      txn.processor = static_cast<model::ProcessorId>(rng.NextBounded(6));
      size_t ops = 1 + rng.NextBounded(4);
      for (size_t k = 0; k < ops; ++k) {
        auto object = static_cast<ObjectId>(rng.NextBounded(num_objects));
        txn.operations.push_back(rng.NextBernoulli(0.5)
                                     ? Operation::Write(object)
                                     : Operation::Read(object));
      }
      expected_ops_total += ops;
      txns.push_back(std::move(txn));
    }
    Serializer serializer(6);
    auto result = serializer.Run(txns, rng.Next());
    EXPECT_EQ(result.committed, txns.size());
    size_t emitted = 0;
    for (const auto& [object, schedule] : result.schedules) {
      emitted += schedule.size();
    }
    EXPECT_EQ(emitted, expected_ops_total) << "trial " << trial;
  }
}

TEST(SerializerTest, FeedsTheAllocationLayerEndToEnd) {
  // The full pipeline: transactions -> 2PL serializer -> per-object
  // schedules -> multi-object DA allocation with costs.
  util::Rng rng(0xe2e);
  std::vector<Transaction> txns;
  for (TransactionId id = 1; id <= 30; ++id) {
    Transaction txn;
    txn.id = id;
    txn.processor = static_cast<model::ProcessorId>(rng.NextBounded(6));
    for (int k = 0; k < 4; ++k) {
      auto object = static_cast<ObjectId>(rng.NextBounded(8));
      txn.operations.push_back(rng.NextBernoulli(0.7)
                                   ? Operation::Read(object)
                                   : Operation::Write(object));
    }
    txns.push_back(std::move(txn));
  }
  Serializer serializer(6);
  auto serialized = serializer.Run(txns, 5);

  core::ObjectService service(
      6, model::CostModel::StationaryComputing(0.25, 1.0),
      core::ServiceOptions{.num_shards = 1});
  core::ObjectConfig config;
  config.initial_scheme = model::ProcessorSet{0, 1};
  for (const auto& [object, schedule] : serialized.schedules) {
    ASSERT_TRUE(service.AddObject(object, config).ok());
    for (const auto& request : schedule.requests()) {
      ASSERT_TRUE(service.Serve(object, request).ok());
    }
  }
  EXPECT_EQ(service.TotalRequests(), 30 * 4);
  EXPECT_GT(service.TotalCost(), 0);
}

TEST(SerializerTest, RejectsDuplicateIds) {
  Serializer serializer(4);
  std::vector<Transaction> txns = {
      MakeTxn(1, 0, {Operation::Read(1)}),
      MakeTxn(1, 1, {Operation::Read(1)}),
  };
  EXPECT_DEATH(serializer.Run(txns, 1), "duplicate");
}

}  // namespace
}  // namespace objalloc::cc
