// Tests for the durable (statement-logged) engine: framed-V3 logging
// with batch commit markers, group commit, legacy replay + upgrade,
// salvage recovery, crash-safe compaction and fail-stop degraded mode.

#include "engine/durable.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/file.h"
#include "test_fs_util.h"

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

void AppendRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

DurableOptions Salvage() {
  DurableOptions options;
  options.recovery = RecoveryMode::kSalvage;
  return options;
}

class DurableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "viewauth_durable_" +
            std::to_string(getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(DurableTest, StateSurvivesReopen) {
  {
    auto durable = DurableEngine::Open(path_);
    ASSERT_TRUE(durable.ok()) << durable.status();
    for (const char* stmt :
         {"relation T (A string key, B int)",
          "insert into T values (x, 1)", "insert into T values (y, 2)",
          "view VA (T.A, T.B) where T.B >= 2", "permit VA to u"}) {
      auto out = (*durable)->Execute(stmt);
      ASSERT_TRUE(out.ok()) << stmt << ": " << out.status();
    }
  }
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  Engine& engine = (*reopened)->engine();
  EXPECT_EQ((*engine.db().GetRelation("T"))->size(), 2);
  EXPECT_TRUE(engine.catalog().IsPermitted("u", "VA"));
  auto result = engine.Execute("retrieve (T.A, T.B) as u");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->find("| y | 2 |"), std::string::npos);
}

TEST_F(DurableTest, RetrievesAreNotLogged) {
  auto durable = DurableEngine::Open(path_);
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
  ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());
  ASSERT_TRUE((*durable)->Execute("retrieve (T.A) as nobody").ok());
  std::ifstream in(path_);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents.find("retrieve"), std::string::npos);
  EXPECT_NE(contents.find("insert into T"), std::string::npos);
}

TEST_F(DurableTest, FailedStatementsAreNotLogged) {
  auto durable = DurableEngine::Open(path_);
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
  EXPECT_FALSE((*durable)->Execute("relation T (A int)").ok());  // dup
  EXPECT_FALSE((*durable)->Execute("insert into T values (x)").ok());
  // Reopen must replay cleanly (no duplicate DDL recorded).
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
}

TEST_F(DurableTest, GuardedUpdatesReplayDeterministically) {
  {
    auto durable = DurableEngine::Open(path_);
    ASSERT_TRUE(durable.ok());
    for (const char* stmt :
         {"relation P (N string key, S string, B int)",
          "insert into P values (p1, Acme, 100)",
          "insert into P values (p2, Apex, 200)",
          "view ACME (P.N, P.S, P.B) where P.S = Acme",
          "permit ACME to e for delete",
          "delete from P where P.B < 500 as e"}) {
      auto out = (*durable)->Execute(stmt);
      ASSERT_TRUE(out.ok()) << stmt << ": " << out.status();
    }
    // Only the Acme row was deletable.
    EXPECT_EQ(((*durable)->engine().db().GetRelation("P")).value()->size(),
              1);
  }
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(((*reopened)->engine().db().GetRelation("P")).value()->size(),
            1);
}

TEST_F(DurableTest, CompactionShrinksAndPreservesState) {
  auto durable = DurableEngine::Open(path_);
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        (*durable)
            ->Execute("insert into T values (" + std::to_string(i) + ")")
            .ok());
  }
  ASSERT_TRUE((*durable)->Execute("delete from T where T.A >= 5").ok());
  ASSERT_TRUE((*durable)->Compact().ok());

  std::ifstream in(path_);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  // Deleted rows vanish from the compacted log.
  EXPECT_EQ(contents.find("values (7)"), std::string::npos);
  EXPECT_NE(contents.find("values (3)"), std::string::npos);
  EXPECT_EQ(contents.find("delete"), std::string::npos);

  // State is intact and further statements still log.
  EXPECT_EQ(((*durable)->engine().db().GetRelation("T")).value()->size(),
            5);
  ASSERT_TRUE((*durable)->Execute("insert into T values (99)").ok());
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(((*reopened)->engine().db().GetRelation("T")).value()->size(),
            6);
}

TEST_F(DurableTest, CorruptLogFailsToOpen) {
  {
    std::ofstream out(path_);
    out << "this is not a statement\n";
  }
  auto durable = DurableEngine::Open(path_);
  EXPECT_TRUE(durable.status().IsInternal());
}

TEST_F(DurableTest, NewLogsAreFramedV3) {
  {
    auto durable = DurableEngine::Open(path_);
    ASSERT_TRUE(durable.ok()) << durable.status();
    EXPECT_EQ((*durable)->format(), LogFormat::kFramedV3);
    ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
    ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());
  }
  const std::string contents = ReadAll(path_);
  EXPECT_TRUE(contents.rfind("#viewauth-log v3\n", 0) == 0) << contents;
  EXPECT_NE(contents.find("@1 "), std::string::npos);
  EXPECT_NE(contents.find("@2 "), std::string::npos);
  // Every acknowledged record is covered by a batch commit marker.
  EXPECT_NE(contents.find("=1 1 "), std::string::npos) << contents;
  EXPECT_NE(contents.find("=2 2 "), std::string::npos) << contents;

  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const RecoveryReport& report = (*reopened)->recovery_report();
  EXPECT_EQ(report.format, LogFormat::kFramedV3);
  EXPECT_FALSE(report.salvaged);
  EXPECT_EQ(report.records_replayed, 2u);
  EXPECT_EQ(report.last_good_seq, 2u);
  EXPECT_EQ((*reopened)->engine().db().GetRelation("T").value()->size(), 1);
}

TEST_F(DurableTest, UncommittedBatchTailIsInvisibleAfterSalvage) {
  {
    auto durable = DurableEngine::Open(path_);
    ASSERT_TRUE(durable.ok()) << durable.status();
    ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
    ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());
  }
  // Build a structurally valid framed record with a correct CRC but no
  // commit marker after it — a batch whose frames hit the disk but whose
  // marker didn't. Such a record must not replay.
  {
    auto durable = DurableEngine::Open(path_);
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE((*durable)->Execute("insert into T values (2)").ok());
  }
  // Chop off the final commit marker line, leaving the framed record.
  std::string contents = ReadAll(path_);
  size_t marker = contents.rfind("=3 3 ");
  ASSERT_NE(marker, std::string::npos) << contents;
  WriteAll(path_, contents.substr(0, marker));

  auto strict = DurableEngine::Open(path_);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("salvage"), std::string::npos);

  auto salvaged = DurableEngine::Open(path_, Salvage());
  ASSERT_TRUE(salvaged.ok()) << salvaged.status();
  const RecoveryReport& report = (*salvaged)->recovery_report();
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.records_replayed, 2u);
  EXPECT_EQ(report.dropped_records, 1u);
  EXPECT_NE(report.detail.find("uncommitted batch tail"),
            std::string::npos);
  // Exactly the committed prefix: the unmarked insert is gone.
  EXPECT_EQ((*salvaged)->engine().db().GetRelation("T").value()->size(), 1);
  // The salvage physically truncated to the last committed boundary.
  auto strict_again = DurableEngine::Open(path_);
  ASSERT_TRUE(strict_again.ok()) << strict_again.status();
}

TEST_F(DurableTest, TornHeaderTailSalvages) {
  {
    auto durable = DurableEngine::Open(path_);
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
    ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());
  }
  AppendRaw(path_, "@3 27");  // a record header torn mid-way, no newline

  auto strict = DurableEngine::Open(path_);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsInternal());
  EXPECT_NE(strict.status().message().find("salvage"), std::string::npos);

  auto salvaged = DurableEngine::Open(path_, Salvage());
  ASSERT_TRUE(salvaged.ok()) << salvaged.status();
  const RecoveryReport& report = (*salvaged)->recovery_report();
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.records_replayed, 2u);
  EXPECT_EQ(report.dropped_records, 1u);
  EXPECT_EQ(report.dropped_bytes, 5u);
  EXPECT_NE(report.detail.find("truncated record header"),
            std::string::npos);
  EXPECT_EQ((*salvaged)->engine().db().GetRelation("T").value()->size(), 1);

  // Salvage physically truncated the tail: a strict reopen now works,
  // and appends continue from the salvaged sequence number.
  ASSERT_TRUE((*salvaged)->Execute("insert into T values (2)").ok());
  EXPECT_NE(ReadAll(path_).find("@3 "), std::string::npos);
  auto strict_again = DurableEngine::Open(path_);
  ASSERT_TRUE(strict_again.ok()) << strict_again.status();
  EXPECT_EQ((*strict_again)->engine().db().GetRelation("T").value()->size(),
            2);
}

TEST_F(DurableTest, TornPayloadTailSalvages) {
  {
    auto durable = DurableEngine::Open(path_);
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
  }
  // A full header whose payload (and terminator) never made it to disk.
  AppendRaw(path_, "@2 26 00000000\ninsert into T val");

  EXPECT_FALSE(DurableEngine::Open(path_).ok());
  auto salvaged = DurableEngine::Open(path_, Salvage());
  ASSERT_TRUE(salvaged.ok()) << salvaged.status();
  EXPECT_TRUE((*salvaged)->recovery_report().salvaged);
  EXPECT_EQ((*salvaged)->recovery_report().records_replayed, 1u);
  EXPECT_NE((*salvaged)->recovery_report().detail.find("truncated payload"),
            std::string::npos);
}

TEST_F(DurableTest, MidLogCorruptionIsFatalInBothModes) {
  {
    auto durable = DurableEngine::Open(path_);
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
    ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());
    ASSERT_TRUE((*durable)->Execute("insert into T values (2)").ok());
  }
  // Flip one byte inside the FIRST record's payload; later records stay
  // valid, so this is interior corruption, not a torn tail.
  std::string contents = ReadAll(path_);
  size_t header_end = contents.find('\n', contents.find("@1 "));
  ASSERT_NE(header_end, std::string::npos);
  contents[header_end + 1] ^= 0x01;
  WriteAll(path_, contents);

  auto strict = DurableEngine::Open(path_);
  ASSERT_FALSE(strict.ok());
  auto salvage = DurableEngine::Open(path_, Salvage());
  ASSERT_FALSE(salvage.ok());
  EXPECT_NE(salvage.status().message().find("interior corruption"),
            std::string::npos);
}

TEST_F(DurableTest, FailedSalvageReplayLeavesTheLogUntouched) {
  {
    auto durable = DurableEngine::Open(path_);
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
    ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());
  }
  // Drop the first record (the DDL): the remaining framed record is
  // structurally valid but no longer replays. Add a torn tail that a
  // successful salvage would truncate away.
  std::string contents = ReadAll(path_);
  const std::string magic = contents.substr(0, contents.find('\n') + 1);
  size_t second = contents.find("@2 ");
  ASSERT_NE(second, std::string::npos);
  WriteAll(path_, magic + contents.substr(second) + "@3 12");
  const std::string before = ReadAll(path_);

  auto salvaged = DurableEngine::Open(path_, Salvage());
  ASSERT_FALSE(salvaged.ok());
  EXPECT_NE(salvaged.status().message().find("does not replay cleanly"),
            std::string::npos);
  // The failed open had no side effects: the torn tail is still there.
  EXPECT_EQ(ReadAll(path_), before);
}

TEST_F(DurableTest, FailedLegacySalvageReplayLeavesTheLogUntouched) {
  // The first line parses but cannot replay (no relation T); the torn
  // final line makes this a salvage candidate.
  WriteAll(path_, "insert into T values (1)\nrelation T (A");
  const std::string before = ReadAll(path_);
  auto salvaged = DurableEngine::Open(path_, Salvage());
  ASSERT_FALSE(salvaged.ok());
  EXPECT_EQ(ReadAll(path_), before);
}

TEST_F(DurableTest, FreshLogCreationSyncsTheDirectory) {
  FaultInjectingFileSystem fs(FileSystem::Default());
  DurableOptions options;
  options.fs = &fs;
  auto durable = DurableEngine::Open(path_, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  // One fsync for the magic line, one for the directory entry of the
  // freshly created log file.
  EXPECT_EQ(fs.sync_count(), 2u);
}

TEST_F(DurableTest, LegacyLogReplaysAndAppendsStayLegacy) {
  WriteAll(path_,
           "relation T (A string key, B int)\n"
           "insert into T values (x, 1)\n"
           "view VA (T.A, T.B) where T.B >= 1\n"
           "permit VA to u\n");
  auto durable = DurableEngine::Open(path_);
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ((*durable)->format(), LogFormat::kLegacyText);
  EXPECT_EQ((*durable)->recovery_report().records_replayed, 4u);
  EXPECT_TRUE((*durable)->engine().catalog().IsPermitted("u", "VA"));

  // Appends keep the legacy shape so the file stays consistently
  // parseable without a compaction.
  ASSERT_TRUE((*durable)->Execute("insert into T values (y, 2)").ok());
  const std::string contents = ReadAll(path_);
  EXPECT_EQ(contents.find('@'), std::string::npos);
  EXPECT_NE(contents.find("insert into T values (y, 2)"),
            std::string::npos);
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->engine().db().GetRelation("T").value()->size(), 2);
}

TEST_F(DurableTest, LegacyLogUpgradesToFramedOnCompact) {
  WriteAll(path_,
           "relation T (A int)\n"
           "insert into T values (1)\n"
           "insert into T values (2)\n");
  auto durable = DurableEngine::Open(path_);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE((*durable)->Compact().ok());
  EXPECT_EQ((*durable)->format(), LogFormat::kFramedV3);
  EXPECT_TRUE(ReadAll(path_).rfind("#viewauth-log v3\n", 0) == 0);

  // Post-upgrade appends are framed and the log replays as V3.
  ASSERT_TRUE((*durable)->Execute("insert into T values (3)").ok());
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_report().format, LogFormat::kFramedV3);
  EXPECT_EQ((*reopened)->engine().db().GetRelation("T").value()->size(), 3);
}

TEST_F(DurableTest, LegacyTornFinalLineSalvages) {
  WriteAll(path_,
           "relation T (A int)\n"
           "insert into T values (1)\n"
           "insert into T val");  // torn mid-statement, no newline
  auto strict = DurableEngine::Open(path_);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("salvage"), std::string::npos);

  auto salvaged = DurableEngine::Open(path_, Salvage());
  ASSERT_TRUE(salvaged.ok()) << salvaged.status();
  const RecoveryReport& report = (*salvaged)->recovery_report();
  EXPECT_EQ(report.format, LogFormat::kLegacyText);
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.records_replayed, 2u);
  EXPECT_EQ(report.dropped_records, 1u);
  EXPECT_EQ(report.dropped_bytes, 17u);
  EXPECT_EQ((*salvaged)->engine().db().GetRelation("T").value()->size(), 1);
}

TEST_F(DurableTest, LegacyMidLogGarbageIsFatalEvenInSalvage) {
  WriteAll(path_,
           "relation T (A int)\n"
           "utter garbage line\n"
           "insert into T values (1)\n");
  EXPECT_FALSE(DurableEngine::Open(path_).ok());
  auto salvage = DurableEngine::Open(path_, Salvage());
  ASSERT_FALSE(salvage.ok());
  EXPECT_NE(salvage.status().message().find("interior corruption"),
            std::string::npos);
}

TEST_F(DurableTest, CompactFailureLeavesLogAndAppendHandleUsable) {
  FaultInjectingFileSystem fs(FileSystem::Default());
  DurableOptions options;
  options.fs = &fs;
  auto durable = DurableEngine::Open(path_, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
  ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());
  const std::string before = ReadAll(path_);

  // Failure while fsyncing the staged dump: the original log must be
  // untouched and — the historical bug — the append handle still open.
  fs.FailNextSync();
  EXPECT_FALSE((*durable)->Compact().ok());
  EXPECT_FALSE((*durable)->degraded());
  EXPECT_EQ(ReadAll(path_), before);
  EXPECT_FALSE(fs.FileExists(path_ + ".tmp"));
  ASSERT_TRUE((*durable)->Execute("insert into T values (2)").ok());

  // Failure at the rename commit: same guarantees.
  fs.FailNextRename();
  EXPECT_FALSE((*durable)->Compact().ok());
  EXPECT_FALSE((*durable)->degraded());
  EXPECT_FALSE(fs.FileExists(path_ + ".tmp"));
  ASSERT_TRUE((*durable)->Execute("insert into T values (3)").ok());

  // And with no fault injected, compaction goes through.
  ASSERT_TRUE((*durable)->Compact().ok());
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->engine().db().GetRelation("T").value()->size(), 3);
}

TEST_F(DurableTest, AppendFailureIsFailStopAndRollsBack) {
  FaultInjectingFileSystem fs(FileSystem::Default());
  DurableOptions options;
  options.fs = &fs;
  auto durable = DurableEngine::Open(path_, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
  ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());

  // The next record tears 5 bytes in: the mutation must not survive.
  fs.set_crash_after_bytes(static_cast<int64_t>(fs.bytes_written()) + 5);
  auto failed = (*durable)->Execute("insert into T values (2)");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsUnavailable());
  EXPECT_TRUE((*durable)->degraded());
  EXPECT_FALSE((*durable)->degraded_reason().empty());

  // Fail stop: the uncommitted insert was rolled back in memory...
  EXPECT_EQ((*durable)->engine().db().GetRelation("T").value()->size(), 1);
  // ...retrieves still work against the durable state...
  EXPECT_TRUE((*durable)->Execute("retrieve (T.A) as nobody").ok());
  // ...and every further mutation reports Unavailable.
  auto next = (*durable)->Execute("insert into T values (3)");
  EXPECT_TRUE(next.status().IsUnavailable());
  EXPECT_TRUE((*durable)->Compact().IsUnavailable());

  // A restart on the real filesystem salvages the torn record and lands
  // exactly on the durable prefix.
  auto reopened = DurableEngine::Open(path_, Salvage());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->engine().db().GetRelation("T").value()->size(), 1);
}

TEST_F(DurableTest, StaleCompactionTempIsRemovedOnOpen) {
  WriteAll(path_ + ".tmp", "leftover staged compaction bytes");
  auto durable = DurableEngine::Open(path_);
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_FALSE(FileSystem::Default()->FileExists(path_ + ".tmp"));
}

TEST_F(DurableTest, TornMagicHeaderSalvagesToFreshLog) {
  WriteAll(path_, "#viewauth-log");  // crash while creating the log
  auto strict = DurableEngine::Open(path_);
  ASSERT_FALSE(strict.ok());
  auto salvaged = DurableEngine::Open(path_, Salvage());
  ASSERT_TRUE(salvaged.ok()) << salvaged.status();
  EXPECT_TRUE((*salvaged)->recovery_report().salvaged);
  EXPECT_EQ((*salvaged)->recovery_report().records_replayed, 0u);
  ASSERT_TRUE((*salvaged)->Execute("relation T (A int)").ok());
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
}

TEST_F(DurableTest, StatsReflectDurabilityState) {
  auto durable = DurableEngine::Open(path_);
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
  ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());
  ASSERT_TRUE((*durable)->Compact().ok());
  DurableStats stats = (*durable)->stats();
  EXPECT_EQ(stats.format, LogFormat::kFramedV3);
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.appends, 2u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_GT(stats.log_bytes, 0u);
  EXPECT_EQ(stats.commit_batches, 2u);
  EXPECT_EQ(stats.batched_records, 2u);
  EXPECT_EQ(stats.fsyncs_saved, 0u);
  EXPECT_EQ(stats.batch_aborts, 0u);
  EXPECT_EQ(stats.snapshots_live, 1);
  const std::string rendered = stats.ToString();
  EXPECT_NE(rendered.find("framed-v3"), std::string::npos);
  EXPECT_NE(rendered.find("compactions"), std::string::npos);
  EXPECT_NE(rendered.find("commit batches"), std::string::npos);
  EXPECT_NE(rendered.find("snapshots live"), std::string::npos);
}

TEST_F(DurableTest, TransientFsyncFailureAbortsTheWholeBatch) {
  FaultInjectingFileSystem fs(FileSystem::Default());
  DurableOptions options;
  options.fs = &fs;
  // Retries disabled: this asserts the strict fail-stop behavior a
  // single fault triggers when self-healing is off.
  options.transient_retry_attempts = 0;
  auto durable = DurableEngine::Open(path_, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
  ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());

  // One EIO on the next fsync — the device hiccups, the machine stays
  // up. The batch must abort whole: no waiter acknowledged, staged state
  // rolled back, engine fail-stop.
  fs.ScheduleSyncFailure(1);
  auto failed = (*durable)->Execute("insert into T values (2)");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsUnavailable());
  EXPECT_NE(failed.status().message().find("commit batch aborted"),
            std::string::npos)
      << failed.status();
  EXPECT_TRUE((*durable)->degraded());
  EXPECT_FALSE(fs.crashed());
  EXPECT_EQ((*durable)->stats().batch_aborts, 1u);

  // The aborted insert is invisible to readers...
  EXPECT_EQ((*durable)->engine().db().GetRelation("T").value()->size(), 1);
  EXPECT_TRUE((*durable)->Execute("retrieve (T.A) as nobody").ok());
  // ...and further mutations report Unavailable.
  EXPECT_TRUE(
      (*durable)->Execute("insert into T values (3)").status()
          .IsUnavailable());

  // Degraded entry clipped the unfsynced batch back to the durable
  // prefix, so even a STRICT reopen lands exactly there.
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE((*reopened)->recovery_report().salvaged);
  EXPECT_EQ((*reopened)->engine().db().GetRelation("T").value()->size(), 1);
}

TEST_F(DurableTest, TransientFsyncFailureSelfHealsWithRetries) {
  FaultInjectingFileSystem fs(FileSystem::Default());
  DurableOptions options;
  options.fs = &fs;
  options.transient_retry_backoff_us = 10;  // keep the test fast
  auto durable = DurableEngine::Open(path_, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());
  ASSERT_TRUE((*durable)->Execute("insert into T values (1)").ok());

  // One EIO on the next fsync. With retries on (the default), the commit
  // clips the log back to the durable prefix, re-appends, re-syncs and
  // acknowledges — no degraded mode, no lost mutation.
  fs.ScheduleSyncFailure(1);
  auto healed = (*durable)->Execute("insert into T values (2)");
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_FALSE((*durable)->degraded());
  EXPECT_FALSE(fs.crashed());
  DurableStats stats = (*durable)->stats();
  EXPECT_EQ(stats.batch_aborts, 0u);
  EXPECT_EQ(stats.transient_retries, 1u);
  EXPECT_EQ(stats.transient_recoveries, 1u);
  EXPECT_NE(stats.ToString().find("transient retries"), std::string::npos);

  // The acked mutation is durable: a STRICT reopen replays it.
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE((*reopened)->recovery_report().salvaged);
  EXPECT_EQ((*reopened)->engine().db().GetRelation("T").value()->size(), 2);

  // A second healed commit through the batched path keeps counting.
  fs.ScheduleSyncFailure(1);
  ASSERT_TRUE((*durable)->Execute("insert into T values (3)").ok());
  EXPECT_EQ((*durable)->stats().transient_retries, 2u);
  EXPECT_EQ((*durable)->stats().transient_recoveries, 2u);
  EXPECT_FALSE((*durable)->degraded());
}

TEST_F(DurableTest, CompactionQuiescesGroupCommitQueue) {
  GateFileSystem gate(FileSystem::Default());
  DurableOptions options;
  options.fs = &gate;
  auto durable = DurableEngine::Open(path_, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());

  // Park a commit batch at its fsync.
  gate.CloseGate();
  std::thread writer([&] {
    EXPECT_TRUE((*durable)->Execute("insert into T values (1)").ok());
  });
  gate.AwaitWaiter();

  // Compact() must quiesce: it waits for the in-flight batch to resolve
  // before touching the log, and a mutation arriving mid-compaction
  // blocks at the entry gate instead of staging into a doomed queue.
  std::thread compactor([&] { EXPECT_TRUE((*durable)->Compact().ok()); });
  std::thread late_writer([&] {
    EXPECT_TRUE((*durable)->Execute("insert into T values (2)").ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.OpenGate();
  writer.join();
  compactor.join();
  late_writer.join();

  EXPECT_EQ((*durable)->engine().db().GetRelation("T").value()->size(), 2);
  EXPECT_EQ((*durable)->stats().compactions, 1u);
  EXPECT_FALSE((*durable)->degraded());
  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->engine().db().GetRelation("T").value()->size(), 2);
}

TEST_F(DurableTest, MultiRecordBatchCommitsWithOneFsync) {
  GateFileSystem gate(FileSystem::Default());
  DurableOptions options;
  options.fs = &gate;
  options.group_commit_window_us = 500000;  // plenty for stragglers
  auto durable = DurableEngine::Open(path_, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE((*durable)->Execute("relation T (A int)").ok());

  // Leader parks at its batch fsync; three stragglers pile up at the
  // entry gate behind it.
  gate.CloseGate();
  std::thread leader([&] {
    EXPECT_TRUE((*durable)->Execute("insert into T values (1)").ok());
  });
  gate.AwaitWaiter();
  std::vector<std::thread> stragglers;
  for (int i = 2; i <= 4; ++i) {
    stragglers.emplace_back([&, i] {
      EXPECT_TRUE(
          (*durable)
              ->Execute("insert into T values (" + std::to_string(i) + ")")
              .ok());
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  gate.OpenGate();
  leader.join();
  for (std::thread& t : stragglers) t.join();

  // relation = batch of 1, leader = batch of 1, stragglers = ONE batch
  // of 3 (one append, one fsync for all three).
  DurableStats stats = (*durable)->stats();
  EXPECT_EQ(stats.commit_batches, 3u);
  EXPECT_EQ(stats.batched_records, 5u);
  EXPECT_EQ(stats.fsyncs_saved, 2u);
  EXPECT_EQ(stats.appends, 3u);
  EXPECT_EQ((*durable)->engine().db().GetRelation("T").value()->size(), 4);

  auto reopened = DurableEngine::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->engine().db().GetRelation("T").value()->size(), 4);
}

}  // namespace
}  // namespace viewauth
