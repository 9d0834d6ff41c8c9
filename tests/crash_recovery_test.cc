// Crash-point torture tier (run separately by tools/check.sh, and under
// ASan+UBSan/TSan with the full suite).
//
// For a seeded catalog workload, simulates a hard crash at EVERY byte
// boundary while the statement log is being appended, and at every fault
// point of a compaction (each staged byte, the staging fsync, the rename
// commit). After each simulated crash the log is reopened the way a
// restarted process would — on the real filesystem, in salvage mode —
// and the recovered catalog must equal the state produced by a PREFIX of
// the applied mutating statements: crashes may lose the tail, but they
// must never invent, reorder, or corrupt authorization state.

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/file.h"
#include "engine/durable.h"
#include "engine/engine.h"

namespace viewauth {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

// A seeded, deterministic catalog workload in the same spirit as the
// differential-soundness scenario generator: random data, views over
// random predicates, grants/denies for several users, and a guarded
// delete. Every statement mutates state, so the durable log must carry
// exactly this sequence.
std::vector<std::string> SeededWorkload(uint32_t seed) {
  std::mt19937 rng(seed);
  auto value = [&rng](int bound) {
    return std::to_string(static_cast<int>(rng() % bound));
  };
  std::vector<std::string> statements = {
      "relation R (A int key, B int)",
      "relation S (K string key, N int)",
  };
  for (int i = 0; i < 5; ++i) {
    statements.push_back("insert into R values (" + std::to_string(i) +
                         ", " + value(50) + ")");
  }
  for (int i = 0; i < 3; ++i) {
    statements.push_back("insert into S values (k" + std::to_string(i) +
                         ", " + value(9) + ")");
  }
  statements.push_back("view VLOW (R.A, R.B) where R.B < " + value(40));
  statements.push_back("view VALL (S.K, S.N)");
  statements.push_back("permit VLOW to alice");
  statements.push_back("permit VALL to bob");
  statements.push_back("permit VALL to carol");
  statements.push_back("deny VALL to carol");
  statements.push_back("permit VLOW to dave for delete");
  statements.push_back("delete from R where R.B < " + value(25) +
                       " as dave");
  return statements;
}

// DumpScript of the state reached after the first `k` statements, for
// every k — the "prefix states" a crash is allowed to land on.
std::vector<std::string> PrefixDumps(const std::vector<std::string>& stmts) {
  std::vector<std::string> dumps;
  Engine engine;
  auto dump = engine.DumpScript();
  EXPECT_TRUE(dump.ok());
  dumps.push_back(*dump);
  for (const std::string& stmt : stmts) {
    auto executed = engine.Execute(stmt);
    EXPECT_TRUE(executed.ok()) << stmt << ": " << executed.status();
    dump = engine.DumpScript();
    EXPECT_TRUE(dump.ok());
    dumps.push_back(*dump);
  }
  return dumps;
}

class CrashTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "viewauth_torture_" +
            std::to_string(getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string path_;
};

TEST_F(CrashTortureTest, AppendCrashAtEveryByteBoundary) {
  const std::vector<std::string> stmts = SeededWorkload(20260806);
  const std::vector<std::string> prefix_dumps = PrefixDumps(stmts);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Dry run to learn how many bytes the full workload appends.
  uint64_t total_bytes = 0;
  {
    FaultInjectingFileSystem fs(FileSystem::Default());
    DurableOptions options;
    options.fs = &fs;
    auto durable = DurableEngine::Open(path_, options);
    ASSERT_TRUE(durable.ok()) << durable.status();
    for (const std::string& stmt : stmts) {
      ASSERT_TRUE((*durable)->Execute(stmt).ok()) << stmt;
    }
    total_bytes = fs.bytes_written();
  }
  ASSERT_GT(total_bytes, 0u);

  for (uint64_t crash_at = 0; crash_at <= total_bytes; ++crash_at) {
    std::remove(path_.c_str());
    FaultInjectingFileSystem fs(FileSystem::Default());
    fs.set_crash_after_bytes(static_cast<int64_t>(crash_at));
    DurableOptions options;
    options.fs = &fs;
    auto durable = DurableEngine::Open(path_, options);
    if (durable.ok()) {
      for (const std::string& stmt : stmts) {
        auto executed = (*durable)->Execute(stmt);
        if (!executed.ok()) {
          // Fail stop: once an append tears, the engine must refuse
          // further mutations rather than diverge from disk.
          EXPECT_TRUE((*durable)->degraded())
              << "crash offset " << crash_at;
          break;
        }
      }
    }

    // "Restart the process": reopen on the real filesystem in salvage
    // mode, exactly as an operator would after a crash.
    DurableOptions reopen;
    reopen.recovery = RecoveryMode::kSalvage;
    auto recovered = DurableEngine::Open(path_, reopen);
    ASSERT_TRUE(recovered.ok())
        << "crash offset " << crash_at << ": " << recovered.status();
    const RecoveryReport& report = (*recovered)->recovery_report();
    ASSERT_LE(report.records_replayed, stmts.size())
        << "crash offset " << crash_at;
    auto dump = (*recovered)->engine().DumpScript();
    ASSERT_TRUE(dump.ok()) << "crash offset " << crash_at;
    // The recovered catalog is exactly the state after the first
    // `records_replayed` applied statements — a prefix, nothing else.
    EXPECT_EQ(*dump, prefix_dumps[report.records_replayed])
        << "crash offset " << crash_at << " (report: " << report.ToString()
        << ")";
  }
}

TEST_F(CrashTortureTest, CompactionCrashAtEveryFaultPoint) {
  const std::vector<std::string> stmts = SeededWorkload(8062026);

  // Build the pristine pre-compaction log and remember the full state.
  std::string full_dump;
  {
    auto durable = DurableEngine::Open(path_);
    ASSERT_TRUE(durable.ok()) << durable.status();
    for (const std::string& stmt : stmts) {
      ASSERT_TRUE((*durable)->Execute(stmt).ok()) << stmt;
    }
    auto dump = (*durable)->engine().DumpScript();
    ASSERT_TRUE(dump.ok());
    full_dump = *dump;
  }
  const std::string pristine = ReadAll(path_);

  // Dry run to learn how many bytes a compaction stages.
  uint64_t staged_bytes = 0;
  {
    FaultInjectingFileSystem fs(FileSystem::Default());
    DurableOptions options;
    options.fs = &fs;
    auto durable = DurableEngine::Open(path_, options);
    ASSERT_TRUE(durable.ok()) << durable.status();
    ASSERT_TRUE((*durable)->Compact().ok());
    staged_bytes = fs.bytes_written();
  }
  ASSERT_GT(staged_bytes, 0u);

  // Crash while writing <path>.tmp, at every byte boundary. The rename
  // never commits, so the original log must be byte-identical and a
  // strict reopen must see the full pre-crash state.
  for (uint64_t crash_at = 0; crash_at < staged_bytes; ++crash_at) {
    WriteAll(path_, pristine);
    FaultInjectingFileSystem fs(FileSystem::Default());
    fs.set_crash_after_bytes(static_cast<int64_t>(crash_at));
    DurableOptions options;
    options.fs = &fs;
    auto durable = DurableEngine::Open(path_, options);
    ASSERT_TRUE(durable.ok())
        << "crash offset " << crash_at << ": " << durable.status();
    EXPECT_FALSE((*durable)->Compact().ok()) << "crash offset " << crash_at;
    EXPECT_EQ(ReadAll(path_), pristine) << "crash offset " << crash_at;

    auto recovered = DurableEngine::Open(path_);  // strict: no damage
    ASSERT_TRUE(recovered.ok())
        << "crash offset " << crash_at << ": " << recovered.status();
    auto dump = (*recovered)->engine().DumpScript();
    ASSERT_TRUE(dump.ok());
    EXPECT_EQ(*dump, full_dump) << "crash offset " << crash_at;
    // The reopen also cleared the half-staged temp file.
    EXPECT_FALSE(FileSystem::Default()->FileExists(path_ + ".tmp"));
  }

  // Transient fsync failure while staging: compaction reports the error,
  // the engine stays live (the historical closed-handle bug), and later
  // appends land in the original log.
  {
    WriteAll(path_, pristine);
    FaultInjectingFileSystem fs(FileSystem::Default());
    DurableOptions options;
    options.fs = &fs;
    auto durable = DurableEngine::Open(path_, options);
    ASSERT_TRUE(durable.ok());
    fs.FailNextSync();
    EXPECT_FALSE((*durable)->Compact().ok());
    EXPECT_FALSE((*durable)->degraded());
    ASSERT_TRUE((*durable)->Execute("insert into R values (90, 1)").ok());
    auto recovered = DurableEngine::Open(path_);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ((*recovered)->engine().db().GetRelation("R").value()->size(),
              (*durable)->engine().db().GetRelation("R").value()->size());
  }

  // Transient rename failure at the commit point: same liveness
  // guarantees, original log untouched.
  {
    WriteAll(path_, pristine);
    FaultInjectingFileSystem fs(FileSystem::Default());
    DurableOptions options;
    options.fs = &fs;
    auto durable = DurableEngine::Open(path_, options);
    ASSERT_TRUE(durable.ok());
    fs.FailNextRename();
    EXPECT_FALSE((*durable)->Compact().ok());
    EXPECT_FALSE((*durable)->degraded());
    EXPECT_EQ(ReadAll(path_), pristine);
    ASSERT_TRUE((*durable)->Execute("insert into R values (91, 2)").ok());
  }

  // And the no-fault run: compaction commits atomically, the compacted
  // log is framed V3 and reproduces the full state.
  {
    WriteAll(path_, pristine);
    FaultInjectingFileSystem fs(FileSystem::Default());
    DurableOptions options;
    options.fs = &fs;
    auto durable = DurableEngine::Open(path_, options);
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE((*durable)->Compact().ok());
    auto recovered = DurableEngine::Open(path_);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    auto dump = (*recovered)->engine().DumpScript();
    ASSERT_TRUE(dump.ok());
    EXPECT_EQ(*dump, full_dump);
  }
}

}  // namespace
}  // namespace viewauth
