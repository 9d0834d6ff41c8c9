// Concurrent multi-session use of one Engine: reader threads retrieving
// as different users while a mutator thread flips grants and an insert
// thread loads rows. Exercises snapshot-isolated retrieves, the
// internally synchronized authorization cache, group-commit reader
// liveness, snapshot refcount hygiene and readers scanning relations
// whose shared row store a writer is appending to (run under
// -DVIEWAUTH_SANITIZE=thread and address by tools/check.sh).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/durable.h"
#include "engine/engine.h"
#include "storage/relation.h"
#include "test_fs_util.h"

namespace viewauth {
namespace {

TEST(EngineConcurrencyTest, ConcurrentRetrievesMutationsAndInserts) {
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
    insert into EMPLOYEE values (Jones, manager, 26000)
    insert into EMPLOYEE values (Smith, technician, 22000)
    insert into EMPLOYEE values (Brown, engineer, 32000)
    view NAMES (EMPLOYEE.NAME)
    view ALL_E (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)
    permit NAMES to Brown
    permit NAMES to Klein
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();
  engine.ResetAuthzStats();

  constexpr int kRetrievesPerReader = 40;
  constexpr int kMutations = 20;
  constexpr int kInserts = 30;
  std::atomic<int> failures{0};

  auto reader = [&](const std::string& user) {
    for (int i = 0; i < kRetrievesPerReader; ++i) {
      auto out = engine.Execute(
          "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as " + user);
      if (!out.ok()) failures.fetch_add(1);
    }
  };
  // Grants flip while retrieves run; every retrieve must still be served
  // from a mask consistent with SOME serialization of the statements.
  auto mutator = [&] {
    for (int i = 0; i < kMutations; ++i) {
      auto permit = engine.Execute("permit ALL_E to Klein");
      if (!permit.ok()) failures.fetch_add(1);
      auto deny = engine.Execute("deny ALL_E to Klein");
      if (!deny.ok()) failures.fetch_add(1);
    }
  };
  auto inserter = [&] {
    for (int i = 0; i < kInserts; ++i) {
      auto out = engine.Execute("insert into EMPLOYEE values (w" +
                                std::to_string(i) + ", worker, " +
                                std::to_string(20000 + i) + ")");
      if (!out.ok()) failures.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(reader, "Brown");
  threads.emplace_back(reader, "Klein");
  threads.emplace_back(mutator);
  threads.emplace_back(inserter);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.retrieves, 2 * kRetrievesPerReader);
  EXPECT_EQ(stats.mask_hits + stats.mask_misses, stats.retrieves);

  // Quiesced state: Klein's grant cycle ended on deny, so Klein is back
  // to NAMES only; the final masks are consistent.
  ASSERT_TRUE(
      engine.Execute("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as Klein")
          .ok());
  ASSERT_NE(engine.last_result(), nullptr);
  EXPECT_FALSE(engine.last_result()->full_access);
  EXPECT_FALSE(engine.last_result()->denied);
  // All inserted rows are present.
  ASSERT_TRUE(engine.db().GetRelation("EMPLOYEE").ok());
  EXPECT_EQ((*engine.db().GetRelation("EMPLOYEE"))->size(), 3 + kInserts);
}

TEST(EngineConcurrencyTest, ConcurrentRetrievesShareTheCache) {
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation PROJECT (NUMBER string key, SPONSOR string, BUDGET int)
    insert into PROJECT values (bq-45, Acme, 300000)
    insert into PROJECT values (sv-72, Apex, 450000)
    view PS (PROJECT.NUMBER, PROJECT.SPONSOR) where PROJECT.BUDGET >= 200000
    permit PS to Brown
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();
  engine.ResetAuthzStats();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto out = engine.Execute(
            "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) as Brown");
        if (!out.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.retrieves, kThreads * kPerThread);
  // No mutations ran: at most a handful of concurrent first-misses, and
  // everything after is served from the shared mask cache.
  EXPECT_GE(stats.mask_hits, stats.retrieves - kThreads);
  EXPECT_EQ(stats.invalidations, 0);
}

// A retrieve must never block behind a mutation batch parked on a slow
// fsync — readers run against the published snapshot, lock-free — and
// must never see the staged (not-yet-durable) mutation.
TEST(EngineConcurrencyTest, ReadersProgressWhileBatchFsyncBlocks) {
  const std::string path = ::testing::TempDir() + "viewauth_liveness.log";
  std::remove(path.c_str());
  GateFileSystem gate(FileSystem::Default());
  DurableOptions options;
  options.fs = &gate;
  auto durable = DurableEngine::Open(path, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  for (const char* stmt : {"relation T (A int)", "insert into T values (1)",
                           "view VT (T.A)", "permit VT to u"}) {
    ASSERT_TRUE((*durable)->Execute(stmt).ok()) << stmt;
  }

  // Park a mutation batch at its fsync.
  gate.CloseGate();
  std::thread writer([&] {
    EXPECT_TRUE((*durable)->Execute("insert into T values (42)").ok());
  });
  gate.AwaitWaiter();

  // Retrieves complete while the batch is parked, and the staged insert
  // is invisible: only the durable row is delivered.
  for (int i = 0; i < 8; ++i) {
    auto out = (*durable)->Execute("retrieve (T.A) as u");
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_NE(out->find("| 1 |"), std::string::npos);
    EXPECT_EQ(out->find("42"), std::string::npos);
  }

  gate.OpenGate();
  writer.join();
  auto after = (*durable)->Execute("retrieve (T.A) as u");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("| 42 |"), std::string::npos);
  EXPECT_GE((*durable)->stats().commit_batches, 1u);
  std::remove(path.c_str());
}

// Aborted and cancelled retrieves must drop their snapshot pins: after
// everything unwinds, exactly one engine-state version is alive (the
// leak check ASan backs up at the allocation level).
TEST(EngineConcurrencyTest, AbortedAndCancelledRetrievesReleaseSnapshots) {
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation T (A int key)
    insert into T values (1)
    insert into T values (2)
    insert into T values (3)
    view VT (T.A)
    permit VT to u
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();
  EXPECT_EQ(engine.snapshots_live(), 1);

  // Deterministic governor abort: a row budget the data plan must blow.
  engine.options().max_rows = 1;
  EXPECT_FALSE(engine.Execute("retrieve (T.A) as u").ok());
  engine.options().max_rows = 0;
  EXPECT_EQ(engine.snapshots_live(), 1);

  // Cooperative cancellation of retrieves mid-flight.
  std::atomic<bool> done{false};
  std::atomic<int> cancelled{0};
  std::thread reader([&] {
    for (int i = 0; i < 2000 && cancelled.load() == 0; ++i) {
      auto out = engine.Execute("retrieve (T.A) as u");
      if (!out.ok() && out.status().IsCancelled()) cancelled.fetch_add(1);
    }
    done.store(true);
  });
  while (!done.load()) {
    engine.CancelActiveRetrieves();
    std::this_thread::yield();
  }
  reader.join();
  EXPECT_GT(cancelled.load(), 0);

  // Everything unwound: one live state, and the engine still works.
  EXPECT_EQ(engine.snapshots_live(), 1);
  ASSERT_TRUE(engine.Execute("insert into T values (4)").ok());
  ASSERT_TRUE(engine.Execute("retrieve (T.A) as u").ok());
  EXPECT_EQ(engine.snapshots_live(), 1);
}

// Readers pin published relation copies and full-scan them through the
// lazy column image and both index kinds while a writer appends to the
// row store they share. Publication mirrors the engine's: the writer
// copies the head (O(1), sharing the store), appends one row to the
// copy, and swaps it in under a mutex. Every pinned copy must look
// exactly like the prefix it was published with.
TEST(EngineConcurrencyTest, ReadersScanPinnedRelationsWhileWriterAppends) {
  const RelationSchema schema =
      RelationSchema::Make("R",
                           {{"K", ValueType::kInt64}, {"V", ValueType::kInt64}},
                           {0})
          .value();
  constexpr int kRows = 2048;
  std::mutex publish_mutex;
  std::shared_ptr<const Relation> published =
      std::make_shared<const Relation>(schema);
  auto pin = [&] {
    std::lock_guard<std::mutex> lock(publish_mutex);
    return published;
  };
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> scans{0};

  auto check = [&](const Relation& rel) {
    const size_t n = static_cast<size_t>(rel.size());
    const ColumnVector& keys = rel.ColumnOn(0);
    const ColumnVector& values = rel.ColumnOn(1);
    if (keys.size() != n || values.size() != n) return false;
    for (size_t i = 0; i < n; ++i) {
      const long long k = static_cast<long long>(i);
      if (keys.value(i) != Value::Int64(k) ||
          values.value(i) != Value::Int64(2 * k)) {
        return false;
      }
    }
    const Relation::ColumnIndex& by_key = rel.IndexOn(0);
    if (by_key.size() != n) return false;
    if (n > 0 && (by_key.count(Value::Int64(0)) != 1 ||
                  by_key.count(Value::Int64(static_cast<long long>(n) - 1)) !=
                      1 ||
                  by_key.count(Value::Int64(static_cast<long long>(n))) != 0)) {
      return false;
    }
    const Relation::OrderedIndex& by_value = rel.OrderedIndexOn(1);
    if (by_value.size() != n) return false;
    for (size_t i = 0; i < n; ++i) {
      if (by_value[i].first != Value::Int64(2 * static_cast<long long>(i)) ||
          by_value[i].second != static_cast<int>(i)) {
        return false;
      }
    }
    return true;
  };
  auto reader = [&] {
    int last_seen = 0;
    bool last_pass = false;
    while (!last_pass) {
      last_pass = done.load(std::memory_order_acquire);
      std::shared_ptr<const Relation> snapshot = pin();
      if (snapshot->size() < last_seen || !check(*snapshot)) {
        failures.fetch_add(1);
      }
      last_seen = snapshot->size();
      scans.fetch_add(1);
    }
    if (last_seen != kRows) failures.fetch_add(1);
  };
  auto writer = [&] {
    for (int k = 0; k < kRows; ++k) {
      Relation next = *pin();
      if (!next.Insert(Tuple({Value::Int64(k), Value::Int64(2 * k)})).ok()) {
        failures.fetch_add(1);
      }
      auto fresh = std::make_shared<const Relation>(std::move(next));
      std::lock_guard<std::mutex> lock(publish_mutex);
      published = std::move(fresh);
    }
    done.store(true, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(scans.load(), 2);
}

// The same through the engine: retrieves served by the column image
// (column-column selection), the hash index (equality) and the ordered
// index (range) run while 2048 inserts append to the relation they read.
TEST(EngineConcurrencyTest, RetrievesWhileInsertsAppendToTheRowStore) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"(
    relation R (K int key, V int)
    view ALL_R (R.K, R.V)
    permit ALL_R to u
  )")
                  .ok());
  constexpr int kRows = 2048;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  auto reader = [&](int which) {
    const char* queries[] = {
        "retrieve (R.K, R.V) where R.K = R.V as u",
        "retrieve (R.K, R.V) where R.V = 100 as u",
        "retrieve (R.K, R.V) where R.V >= 1000 as u",
    };
    for (int i = which; !done.load(std::memory_order_acquire); ++i) {
      if (!engine.Execute(queries[i % 3]).ok()) failures.fetch_add(1);
    }
  };
  auto writer = [&] {
    for (int k = 0; k < kRows; ++k) {
      const std::string v = std::to_string(k);
      if (!engine.Execute("insert into R values (" + v + ", " + v + ")")
               .ok()) {
        failures.fetch_add(1);
      }
    }
    done.store(true, std::memory_order_release);
  };
  std::vector<std::thread> threads;
  threads.emplace_back(reader, 0);
  threads.emplace_back(reader, 1);
  threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.db().GetRelation("R").value()->size(), kRows);
  EXPECT_EQ(engine.snapshots_live(), 1);
}

}  // namespace
}  // namespace viewauth
