// The shared append-only row store behind Relation (DESIGN.md §16):
// copies share rows and each sees only its own prefix, appends land in
// place without disturbing older copies, diverged copies privatise, the
// hashed row index serves dedup and the key check, rows a discarded
// commit batch left in the store stay inert, and an engine insert under
// a pinned snapshot copies no rows.

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file.h"
#include "engine/durable.h"
#include "engine/engine.h"
#include "storage/relation.h"

namespace viewauth {
namespace {

RelationSchema KeyedSchema() {
  return RelationSchema::Make(
             "R", {{"K", ValueType::kInt64}, {"V", ValueType::kString}}, {0})
      .value();
}

Tuple Row(long long k, const std::string& v) {
  return Tuple({Value::Int64(k), Value::String(v)});
}

TEST(RowStoreTest, PinnedCopySeesExactlyItsOldRowsAfterAppends) {
  Relation head(KeyedSchema());
  for (int k = 0; k < 5; ++k) ASSERT_TRUE(head.Insert(Row(k, "old")).ok());
  const Relation pinned = head;
  const Tuple* pinned_rows = pinned.rows().data();
  const ColumnVector& pinned_keys = pinned.ColumnOn(0);

  // Enough appends to grow the store several times over.
  constexpr int kAppends = 1000;
  for (int k = 5; k < 5 + kAppends; ++k) {
    ASSERT_TRUE(head.Insert(Row(k, "new")).ok());
  }

  ASSERT_EQ(head.size(), 5 + kAppends);
  ASSERT_EQ(pinned.size(), 5);
  // The pinned rows never moved, and their column image stays valid.
  EXPECT_EQ(pinned.rows().data(), pinned_rows);
  EXPECT_EQ(pinned_keys.size(), 5u);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(pinned.rows()[static_cast<size_t>(k)], Row(k, "old"));
    EXPECT_EQ(pinned_keys.value(static_cast<size_t>(k)), Value::Int64(k));
  }
  EXPECT_FALSE(pinned.Contains(Row(5, "new")));
  EXPECT_TRUE(head.Contains(Row(5, "new")));
  EXPECT_EQ(pinned.IndexOn(0).size(), 5u);
  EXPECT_EQ(pinned.OrderedIndexOn(0).size(), 5u);
  // The pinned copy may still insert a key the head has; it privatises
  // and never disturbs the head.
  Relation forked = pinned;
  ASSERT_TRUE(forked.Insert(Row(5, "forked")).ok());
  EXPECT_TRUE(forked.Contains(Row(5, "forked")));
  EXPECT_FALSE(head.Contains(Row(5, "forked")));
  EXPECT_EQ(head.rows()[5], Row(5, "new"));
}

TEST(RowStoreTest, DivergedCopiesEachSeeOnlyTheirOwnRow) {
  Relation base(KeyedSchema());
  for (int k = 0; k < 3; ++k) ASSERT_TRUE(base.Insert(Row(k, "b")).ok());
  Relation left = base;
  Relation right = base;
  ASSERT_TRUE(left.Insert(Row(10, "left")).ok());
  // `right` shares the store but `left` took the next row id.
  ASSERT_TRUE(right.Insert(Row(10, "right")).ok());

  EXPECT_EQ(left.size(), 4);
  EXPECT_EQ(right.size(), 4);
  EXPECT_EQ(base.size(), 3);
  EXPECT_TRUE(left.Contains(Row(10, "left")));
  EXPECT_FALSE(left.Contains(Row(10, "right")));
  EXPECT_TRUE(right.Contains(Row(10, "right")));
  EXPECT_FALSE(right.Contains(Row(10, "left")));
  EXPECT_FALSE(base.Contains(Row(10, "left")));
  EXPECT_FALSE(base.Contains(Row(10, "right")));

  // Both keep appending independently.
  ASSERT_TRUE(left.Insert(Row(11, "left")).ok());
  ASSERT_TRUE(right.Insert(Row(11, "right")).ok());
  EXPECT_EQ(left.rows().back(), Row(11, "left"));
  EXPECT_EQ(right.rows().back(), Row(11, "right"));
  EXPECT_EQ(base.size(), 3);
}

TEST(RowStoreTest, DuplicateAbsorbedAndKeyConflictRejectedAcrossGrowth) {
  Relation rel(KeyedSchema());
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(rel.Insert(Row(k, "v")).ok());
  // Row 3 went in before several store doublings.
  EXPECT_TRUE(rel.Insert(Row(3, "v")).ok());
  EXPECT_EQ(rel.size(), 100);
  EXPECT_TRUE(rel.Insert(Row(3, "other")).IsSchemaMismatch());
  EXPECT_EQ(rel.size(), 100);
  EXPECT_FALSE(rel.Contains(Row(3, "other")));

  // Keyless: the whole tuple is the index key.
  Relation keyless(
      RelationSchema::Make("S", {{"A", ValueType::kInt64}}).value());
  EXPECT_TRUE(keyless.InsertUnchecked(Tuple({Value::Int64(1)})));
  EXPECT_FALSE(keyless.InsertUnchecked(Tuple({Value::Int64(1)})));
  EXPECT_TRUE(keyless.InsertUnchecked(Tuple({Value::Int64(2)})));
  EXPECT_EQ(keyless.size(), 2);
}

TEST(RowStoreTest, AppendsOfADroppedCopyNeitherShowNorInterfere) {
  Relation head(KeyedSchema());
  // At every size up to several store doublings, a copy appends two
  // rows past the head's count (growing the store when it is full) and
  // is dropped. The head then owns a store whose history runs past its
  // count, possibly past its own buffer.
  for (int n = 1; n <= 40; ++n) {
    {
      Relation dropped = head;
      ASSERT_TRUE(dropped.Insert(Row(n, "dropped")).ok());
      ASSERT_TRUE(dropped.Insert(Row(n + 1000, "dropped")).ok());
    }
    EXPECT_FALSE(head.Contains(Row(n, "dropped")));
    ASSERT_TRUE(head.Insert(Row(n, "kept")).ok());
    ASSERT_EQ(head.size(), n);
    EXPECT_TRUE(head.Contains(Row(n, "kept")));
    EXPECT_FALSE(head.Contains(Row(n + 1000, "dropped")));
    EXPECT_TRUE(head.Insert(Row(n, "dropped")).IsSchemaMismatch());
  }
}

TEST(RowStoreTest, EraseOnACopyLeavesTheSharerIntact) {
  Relation base(KeyedSchema());
  for (int k = 0; k < 10; ++k) ASSERT_TRUE(base.Insert(Row(k, "v")).ok());
  Relation copy = base;
  ASSERT_TRUE(copy.Erase(Row(4, "v")));
  EXPECT_EQ(copy.size(), 9);
  EXPECT_FALSE(copy.Contains(Row(4, "v")));
  EXPECT_TRUE(copy.Contains(Row(9, "v")));
  EXPECT_EQ(base.size(), 10);
  EXPECT_TRUE(base.Contains(Row(4, "v")));
  // The freed key takes a new payload in the copy only.
  ASSERT_TRUE(copy.Insert(Row(4, "w")).ok());
  EXPECT_TRUE(base.Insert(Row(4, "w")).IsSchemaMismatch());
}

// A commit batch whose fsync fails leaves its row in the shared store
// past the published count. That row must be invisible, and must
// neither block (key conflict) nor absorb (duplicate) a later insert of
// the same key.
void AbortInsertThen(const std::string& reinsert, const Tuple& expected) {
  const std::string path = ::testing::TempDir() + "viewauth_row_store.log";
  std::remove(path.c_str());
  FaultInjectingFileSystem fs(FileSystem::Default());
  DurableOptions options;
  options.fs = &fs;
  options.transient_retry_attempts = 0;  // one fault aborts the batch
  auto durable = DurableEngine::Open(path, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE((*durable)->Execute("relation R (K int key, V string)").ok());
  ASSERT_TRUE((*durable)->Execute("insert into R values (1, one)").ok());

  fs.ScheduleSyncFailure(1);
  ASSERT_FALSE((*durable)->Execute("insert into R values (2, two)").ok());
  EXPECT_EQ((*durable)->stats().batch_aborts, 1u);

  // The durable wrapper is fail-stop now; write through its engine.
  Engine& engine = (*durable)->engine();
  const Relation* rel = engine.db().GetRelation("R").value();
  EXPECT_EQ(rel->size(), 1);
  EXPECT_FALSE(rel->Contains(Row(2, "two")));

  engine.SetDeferPublication(false);
  ASSERT_TRUE(engine.Execute(reinsert).ok());
  rel = engine.db().GetRelation("R").value();
  EXPECT_EQ(rel->size(), 2);
  EXPECT_TRUE(rel->Contains(expected));
  EXPECT_EQ(rel->rows().back(), expected);
  durable->reset();
  std::remove(path.c_str());
}

TEST(RowStoreTest, DiscardedBatchRowNeitherBlocksNorAbsorbs) {
  AbortInsertThen("insert into R values (2, again)", Row(2, "again"));
  AbortInsertThen("insert into R values (2, two)", Row(2, "two"));
}

TEST(RowStoreTest, EngineInsertsUnderPinnedSnapshotsCopyNoRows) {
  Engine engine;
  ASSERT_TRUE(engine.Execute("relation R (K int key, V string)").ok());
  constexpr int kInserts = 4096;
  std::vector<DatabaseInstance> pinned;
  pinned.reserve(kInserts);
  const Tuple* last = nullptr;
  int moves = 0;
  for (int k = 0; k < kInserts; ++k) {
    // A reader pins the state the next insert forks from.
    pinned.push_back(engine.db());
    ASSERT_TRUE(engine
                    .Execute("insert into R values (" + std::to_string(k) +
                             ", v)")
                    .ok());
    const Tuple* data = engine.db().GetRelation("R").value()->rows().data();
    if (data != last) ++moves;
    last = data;
  }
  // A per-insert clone would move the rows every time; doubling moves
  // them once per power of two.
  EXPECT_LE(moves, std::bit_width(static_cast<unsigned>(kInserts)) + 1);
  EXPECT_EQ(engine.db().GetRelation("R").value()->size(), kInserts);
  for (int k : {0, 1, 7, 8, 1000, kInserts - 1}) {
    const Relation* old =
        pinned[static_cast<size_t>(k)].GetRelation("R").value();
    ASSERT_EQ(old->size(), k);
    if (k > 0) {
      EXPECT_EQ(old->rows().back(), Row(k - 1, "v"));
    }
  }
}

}  // namespace
}  // namespace viewauth
