// Experiment E17 (extension) — the concurrency-control layer §3.1 assumes,
// under contention: strict 2PL with deadlock-victim retries, sweeping the
// number of hot objects. Fewer objects -> more lock conflicts -> more
// waiting, upgrades, and deadlock aborts; the emitted per-object schedules
// then flow into the allocation layer, where contention also concentrates
// requests (longer per-object schedules -> more to gain from DA's caching).

#include <iostream>

#include "objalloc/cc/serializer.h"
#include "objalloc/core/object_service.h"
#include "objalloc/util/csv.h"
#include "objalloc/util/rng.h"

int main() {
  using namespace objalloc;

  const int kSites = 8;
  const int kTransactions = 300;
  model::CostModel sc = model::CostModel::StationaryComputing(0.25, 1.0);

  std::cout << "\n==== E17: strict-2PL serialization under contention "
               "(300 transactions, 8 sites, 3 ops each) ====\n\n";

  util::Table table({"objects", "deadlock_aborts", "SA_total_cost",
                     "DA_total_cost", "DA_gain"});
  int64_t aborts_few = 0, aborts_many = 0;
  for (int num_objects : {2, 4, 8, 16, 32, 64}) {
    util::Rng rng(static_cast<uint64_t>(num_objects) * 101);
    std::vector<cc::Transaction> transactions;
    for (cc::TransactionId id = 1; id <= kTransactions; ++id) {
      cc::Transaction txn;
      txn.id = id;
      txn.processor =
          static_cast<model::ProcessorId>(rng.NextBounded(kSites));
      for (int k = 0; k < 3; ++k) {
        auto object = static_cast<cc::ObjectId>(
            rng.NextBounded(static_cast<uint64_t>(num_objects)));
        txn.operations.push_back(rng.NextBernoulli(0.7)
                                     ? cc::Operation::Read(object)
                                     : cc::Operation::Write(object));
      }
      transactions.push_back(std::move(txn));
    }
    cc::Serializer serializer(kSites);
    cc::SerializerResult serialized = serializer.Run(transactions, 11);

    auto total_cost = [&](core::AlgorithmKind kind) {
      core::ObjectService service(kSites, sc,
                                  core::ServiceOptions{.num_shards = 1});
      core::ObjectConfig config;
      config.initial_scheme = model::ProcessorSet{0, 1};
      config.algorithm = kind;
      for (const auto& [object, schedule] : serialized.schedules) {
        OBJALLOC_CHECK(service.AddObject(object, config).ok());
        for (const auto& request : schedule.requests()) {
          OBJALLOC_CHECK(service.Serve(object, request).ok());
        }
      }
      return service.TotalCost();
    };
    double sa_cost = total_cost(core::AlgorithmKind::kStatic);
    double da_cost = total_cost(core::AlgorithmKind::kDynamic);
    if (num_objects == 2) aborts_few = serialized.deadlock_aborts;
    if (num_objects == 64) aborts_many = serialized.deadlock_aborts;
    table.AddRow()
        .Cell(num_objects)
        .Cell(serialized.deadlock_aborts)
        .Cell(sa_cost, 1)
        .Cell(da_cost, 1)
        .Cell(sa_cost / da_cost, 3);
  }
  table.WriteAligned(std::cout);

  bool contention_shape = aborts_few > aborts_many;
  std::cout << "\n  paper:    requests arrive 'ordered by some "
               "concurrency-control mechanism' (§3.1) — here made "
               "explicit\n";
  std::cout << "  measured: deadlock aborts fall from " << aborts_few
            << " (2 hot objects) to " << aborts_many
            << " (64 objects); every transaction commits\n";
  std::cout << "  verdict:  "
            << (contention_shape ? "CONSISTENT" : "INCONSISTENT") << "\n";
  return contention_shape ? 0 : 1;
}
