// Concurrent crash-torture tier (run separately by tools/check.sh, and
// under ASan+UBSan/TSan).
//
// N mutator threads insert through a group-committing DurableEngine
// while M retriever threads read, over a FaultInjectingFileSystem whose
// byte budget kills the "machine" at EVERY byte boundary of the mutation
// stream — including mid-batch, between a batch's frames and its commit
// marker. After each simulated crash the log is reopened the way a
// restarted process would (strict first, salvage when the tail is torn)
// and the recovered state must be exactly a prefix of the acknowledged
// commit order:
//
//   * acknowledged durability — every insert whose Execute returned OK
//     is present after recovery (no acknowledged-then-lost commit);
//   * batch atomicity — per mutator thread the recovered ids form a
//     contiguous prefix: a torn batch is never applied partially;
//   * reader isolation — every retrieve observes a committed prefix,
//     never a half-applied or later-rolled-back mutation.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/file.h"
#include "engine/durable.h"
#include "engine/engine.h"

namespace viewauth {
namespace {

constexpr int kMutators = 3;
constexpr int kInsertsPerMutator = 5;
constexpr int kRetrievers = 2;

// Mutator t's i-th insert carries id t*100+i, so any id set decomposes
// into per-thread sequences whose contiguity is checkable.
int IdOf(int mutator, int i) { return (mutator + 1) * 100 + i; }

const std::vector<std::string>& SetupStatements() {
  static const std::vector<std::string> stmts = {
      "relation T (I int key)",
      "view ALLT (T.I)",
      "permit ALLT to reader",
  };
  return stmts;
}

// The T ids visible in a rendered retrieve answer (cells like "| 104 |").
std::set<int> IdsInRetrieveOutput(const std::string& out) {
  std::set<int> ids;
  size_t pos = 0;
  while ((pos = out.find("| ", pos)) != std::string::npos) {
    const size_t start = pos + 2;
    const size_t end = out.find(" |", start);
    if (end == std::string::npos) break;
    const std::string cell = out.substr(start, end - start);
    if (!cell.empty() &&
        cell.find_first_not_of("0123456789") == std::string::npos) {
      ids.insert(std::stoi(cell));
    }
    pos = start;
  }
  return ids;
}

// The T ids a recovered engine holds, via its dump script.
std::set<int> IdsInDump(const std::string& dump) {
  std::set<int> ids;
  const std::string needle = "insert into T values (";
  size_t pos = 0;
  while ((pos = dump.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    const size_t end = dump.find(')', pos);
    if (end == std::string::npos) break;
    ids.insert(std::stoi(dump.substr(pos, end - pos)));
  }
  return ids;
}

// True when, for every mutator thread, the present ids are a contiguous
// prefix of that thread's insert sequence (no holes = no partially
// applied batch, no reordering).
::testing::AssertionResult PerThreadContiguousPrefix(
    const std::set<int>& ids) {
  for (int t = 0; t < kMutators; ++t) {
    bool gap = false;
    for (int i = 0; i < kInsertsPerMutator; ++i) {
      const bool present = ids.count(IdOf(t, i)) > 0;
      if (!present) {
        gap = true;
      } else if (gap) {
        return ::testing::AssertionFailure()
               << "id " << IdOf(t, i)
               << " is present but an earlier insert of the same thread "
                  "is missing (hole in the prefix)";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

class ConcurrentCrashTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "viewauth_cct_" +
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

TEST_F(ConcurrentCrashTortureTest, CrashAtEveryByteBoundaryUnderLoad) {
  // Serial dry run: with every mutation its own batch-of-one this is the
  // byte-maximal encoding, so sweeping up to this total covers every
  // boundary any concurrent interleaving can produce.
  uint64_t setup_bytes = 0;
  uint64_t max_mutation_bytes = 0;
  {
    FaultInjectingFileSystem fs(FileSystem::Default());
    DurableOptions options;
    options.fs = &fs;
    auto durable = DurableEngine::Open(path_, options);
    ASSERT_TRUE(durable.ok()) << durable.status();
    for (const std::string& stmt : SetupStatements()) {
      ASSERT_TRUE((*durable)->Execute(stmt).ok()) << stmt;
    }
    setup_bytes = fs.bytes_written();
    for (int t = 0; t < kMutators; ++t) {
      for (int i = 0; i < kInsertsPerMutator; ++i) {
        ASSERT_TRUE((*durable)
                        ->Execute("insert into T values (" +
                                  std::to_string(IdOf(t, i)) + ")")
                        .ok());
      }
    }
    max_mutation_bytes = fs.bytes_written() - setup_bytes;
  }
  ASSERT_GT(max_mutation_bytes, 0u);

  for (uint64_t crash_at = 0; crash_at <= max_mutation_bytes; ++crash_at) {
    std::remove(path_.c_str());
    FaultInjectingFileSystem fs(FileSystem::Default());
    DurableOptions options;
    options.fs = &fs;
    auto opened = DurableEngine::Open(path_, options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    DurableEngine& durable = **opened;
    for (const std::string& stmt : SetupStatements()) {
      ASSERT_TRUE(durable.Execute(stmt).ok()) << stmt;
    }
    fs.set_crash_after_bytes(static_cast<int64_t>(setup_bytes + crash_at));

    // Mutators record the ids the engine ACKNOWLEDGED; a failed insert
    // ends that thread (the engine is fail-stop after a crash).
    std::vector<std::vector<int>> acked(kMutators);
    std::atomic<bool> done{false};
    std::atomic<int> reader_failures{0};
    std::atomic<int> isolation_violations{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kMutators; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kInsertsPerMutator; ++i) {
          auto out = durable.Execute("insert into T values (" +
                                     std::to_string(IdOf(t, i)) + ")");
          if (!out.ok()) break;
          acked[t].push_back(IdOf(t, i));
        }
      });
    }
    for (int r = 0; r < kRetrievers; ++r) {
      threads.emplace_back([&] {
        while (!done.load(std::memory_order_relaxed)) {
          auto out = durable.Execute("retrieve (T.I) as reader");
          if (!out.ok()) {
            reader_failures.fetch_add(1);
            return;
          }
          // Every snapshot a reader sees is a committed prefix.
          if (!PerThreadContiguousPrefix(IdsInRetrieveOutput(*out))) {
            isolation_violations.fetch_add(1);
            return;
          }
        }
      });
    }
    for (int t = 0; t < kMutators; ++t) threads[t].join();
    done.store(true);
    for (size_t t = kMutators; t < threads.size(); ++t) threads[t].join();

    ASSERT_EQ(reader_failures.load(), 0)
        << "a retrieve failed at crash offset " << crash_at
        << " — readers must keep working through a crash";
    ASSERT_EQ(isolation_violations.load(), 0)
        << "a retrieve observed a non-prefix state at crash offset "
        << crash_at;
    std::set<int> acked_ids;
    for (const auto& per_thread : acked) {
      acked_ids.insert(per_thread.begin(), per_thread.end());
    }
    if (fs.crashed()) {
      EXPECT_TRUE(durable.degraded()) << "crash offset " << crash_at;
    } else {
      EXPECT_EQ(acked_ids.size(),
                static_cast<size_t>(kMutators * kInsertsPerMutator));
    }

    // "Restart the process": strict reopen on the real filesystem; when
    // the crash tore the tail, salvage — and the salvaged log must then
    // satisfy a strict reopen (it ends at a committed batch boundary).
    auto recovered = DurableEngine::Open(path_);
    bool salvaged = false;
    if (!recovered.ok()) {
      DurableOptions salvage;
      salvage.recovery = RecoveryMode::kSalvage;
      recovered = DurableEngine::Open(path_, salvage);
      salvaged = true;
    }
    ASSERT_TRUE(recovered.ok())
        << "crash offset " << crash_at << ": " << recovered.status();
    auto dump = (*recovered)->engine().DumpScript();
    ASSERT_TRUE(dump.ok()) << "crash offset " << crash_at;
    const std::set<int> recovered_ids = IdsInDump(*dump);

    // Acknowledged durability: nothing acked may be lost. (The converse
    // — a batch fully on disk whose waiters saw the crash before the
    // ack — is legal: recovery may extend past the acked set, but only
    // in whole batches.)
    for (int id : acked_ids) {
      ASSERT_TRUE(recovered_ids.count(id) > 0)
          << "crash offset " << crash_at << ": acknowledged insert " << id
          << " lost after " << (salvaged ? "salvage" : "strict")
          << " recovery (report: "
          << (*recovered)->recovery_report().ToString() << ")";
    }
    EXPECT_TRUE(PerThreadContiguousPrefix(recovered_ids))
        << "crash offset " << crash_at << " after "
        << (salvaged ? "salvage" : "strict") << " recovery";

    if (salvaged) {
      auto strict_again = DurableEngine::Open(path_);
      ASSERT_TRUE(strict_again.ok())
          << "crash offset " << crash_at
          << ": salvage did not truncate to a committed boundary: "
          << strict_again.status();
    }
  }
}

}  // namespace
}  // namespace viewauth
