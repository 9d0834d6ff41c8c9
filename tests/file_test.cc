// Tests for the injectable file layer: the POSIX filesystem and the
// fault-injecting wrapper the crash-recovery tiers are built on.

#include "common/file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include <unistd.h>

namespace viewauth {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class FileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "viewauth_file_" +
            std::to_string(getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    path_ = base_ + ".dat";
    other_ = base_ + ".other";
    std::remove(path_.c_str());
    std::remove(other_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(other_.c_str());
  }

  std::string base_;
  std::string path_;
  std::string other_;
};

TEST_F(FileTest, AppendFlushSyncClose) {
  FileSystem* fs = FileSystem::Default();
  auto file = fs->NewWritableFile(path_, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  ASSERT_TRUE((*file)->Flush().ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(ReadAll(path_), "hello world");

  // kAppend continues at the end; kTruncate starts over.
  auto appender = fs->NewWritableFile(path_, WriteMode::kAppend);
  ASSERT_TRUE(appender.ok());
  ASSERT_TRUE((*appender)->Append("!").ok());
  ASSERT_TRUE((*appender)->Close().ok());
  EXPECT_EQ(ReadAll(path_), "hello world!");

  auto truncator = fs->NewWritableFile(path_, WriteMode::kTruncate);
  ASSERT_TRUE(truncator.ok());
  ASSERT_TRUE((*truncator)->Append("x").ok());
  ASSERT_TRUE((*truncator)->Close().ok());
  EXPECT_EQ(ReadAll(path_), "x");
}

TEST_F(FileTest, ReadExistsRenameRemoveTruncate) {
  FileSystem* fs = FileSystem::Default();
  EXPECT_FALSE(fs->FileExists(path_));
  EXPECT_TRUE(fs->ReadFileToString(path_).status().IsNotFound());

  auto file = fs->NewWritableFile(path_, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123456789").ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE(fs->FileExists(path_));
  auto contents = fs->ReadFileToString(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "0123456789");

  ASSERT_TRUE(fs->TruncateFile(path_, 4).ok());
  EXPECT_EQ(*fs->ReadFileToString(path_), "0123");

  ASSERT_TRUE(fs->RenameFile(path_, other_).ok());
  EXPECT_FALSE(fs->FileExists(path_));
  EXPECT_EQ(*fs->ReadFileToString(other_), "0123");

  ASSERT_TRUE(fs->RemoveFile(other_).ok());
  EXPECT_FALSE(fs->FileExists(other_));
  EXPECT_TRUE(fs->RemoveFile(other_).IsNotFound());
}

TEST_F(FileTest, CrashBudgetTearsTheCrossingWrite) {
  FaultInjectingFileSystem fs(FileSystem::Default());
  fs.set_crash_after_bytes(7);
  auto file = fs.NewWritableFile(path_, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123").ok());  // 4 of 7
  EXPECT_FALSE(fs.crashed());
  // This write crosses the budget: only 3 more bytes land.
  Status torn = (*file)->Append("abcdef");
  EXPECT_TRUE(torn.IsInternal());
  EXPECT_TRUE(fs.crashed());
  EXPECT_EQ(fs.bytes_written(), 7u);
  EXPECT_EQ(ReadAll(path_), "0123abc");

  // After the crash everything fails, including reads and new files.
  EXPECT_FALSE((*file)->Append("x").ok());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_FALSE(fs.ReadFileToString(path_).ok());
  EXPECT_FALSE(fs.NewWritableFile(other_, WriteMode::kTruncate).ok());
  EXPECT_FALSE(fs.RenameFile(path_, other_).ok());
  EXPECT_FALSE(fs.TruncateFile(path_, 0).ok());
  // The torn bytes stay on disk for the real filesystem to salvage.
  EXPECT_EQ(ReadAll(path_), "0123abc");
}

TEST_F(FileTest, CrashExactlyAtBoundaryWritesNothingMore) {
  FaultInjectingFileSystem fs(FileSystem::Default());
  fs.set_crash_after_bytes(4);
  auto file = fs.NewWritableFile(path_, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123").ok());
  EXPECT_FALSE(fs.crashed());  // budget reached but not crossed
  EXPECT_FALSE((*file)->Append("x").ok());
  EXPECT_TRUE(fs.crashed());
  EXPECT_EQ(ReadAll(path_), "0123");
}

TEST_F(FileTest, TransientSyncAndRenameFaultsAreOneShot) {
  FaultInjectingFileSystem fs(FileSystem::Default());
  auto file = fs.NewWritableFile(path_, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("data").ok());

  fs.FailNextSync();
  EXPECT_TRUE((*file)->Sync().IsInternal());
  EXPECT_TRUE((*file)->Sync().ok());  // the fault does not persist
  EXPECT_FALSE(fs.crashed());
  ASSERT_TRUE((*file)->Close().ok());

  fs.FailNextRename();
  EXPECT_TRUE(fs.RenameFile(path_, other_).IsInternal());
  EXPECT_TRUE(fs.FileExists(path_));  // rename did not happen
  EXPECT_TRUE(fs.RenameFile(path_, other_).ok());
  EXPECT_TRUE(fs.FileExists(other_));
}

TEST_F(FileTest, SyncDirectoryOf) {
  FileSystem* fs = FileSystem::Default();
  auto file = fs->NewWritableFile(path_, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE(fs->SyncDirectoryOf(path_).ok());

  FaultInjectingFileSystem faulty(FileSystem::Default());
  EXPECT_TRUE(faulty.SyncDirectoryOf(path_).ok());
  faulty.FailNextSync();
  EXPECT_TRUE(faulty.SyncDirectoryOf(path_).IsInternal());
  EXPECT_TRUE(faulty.SyncDirectoryOf(path_).ok());  // one-shot fault
}

TEST_F(FileTest, ScheduledSyncFailureHitsTheNthSyncOnce) {
  FaultInjectingFileSystem fs(FileSystem::Default());
  auto file = fs.NewWritableFile(path_, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());

  fs.ScheduleSyncFailure(2);
  EXPECT_TRUE((*file)->Sync().ok());          // 1st sync: before the fault
  EXPECT_TRUE((*file)->Sync().IsInternal());  // 2nd sync: the casualty
  EXPECT_TRUE((*file)->Sync().ok());          // 3rd sync: fault is spent
  EXPECT_FALSE(fs.crashed());                 // a hiccup, not a crash
  // Only successful syncs count.
  EXPECT_EQ(fs.sync_count(), 2u);
  ASSERT_TRUE((*file)->Close().ok());
}

TEST_F(FileTest, ByteBudgetSpansMultipleFiles) {
  FaultInjectingFileSystem fs(FileSystem::Default());
  fs.set_crash_after_bytes(10);
  auto a = fs.NewWritableFile(path_, WriteMode::kTruncate);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*a)->Append("12345678").ok());  // 8 of 10
  auto b = fs.NewWritableFile(other_, WriteMode::kTruncate);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE((*b)->Append("abcdef").ok());  // tears after 2 more bytes
  EXPECT_TRUE(fs.crashed());
  EXPECT_EQ(ReadAll(other_), "ab");
}

}  // namespace
}  // namespace viewauth
