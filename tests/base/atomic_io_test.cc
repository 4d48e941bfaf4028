// WriteFileAtomic / FileExists / RemoveStaleTmpFiles.

#include "base/atomic_io.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace strip::base {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AtomicIoTest, WritesContentsAndLeavesNoTmp) {
  const std::string path = testing::TempDir() + "/atomic_io_basic.json";
  ASSERT_FALSE(WriteFileAtomic(path, "{\"a\": 1}\n").has_value());
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_EQ(ReadAll(path), "{\"a\": 1}\n");
}

TEST(AtomicIoTest, OverwriteReplacesWholeFile) {
  const std::string path = testing::TempDir() + "/atomic_io_over.json";
  ASSERT_FALSE(WriteFileAtomic(path, "long old contents\n").has_value());
  ASSERT_FALSE(WriteFileAtomic(path, "new\n").has_value());
  EXPECT_EQ(ReadAll(path), "new\n");
}

TEST(AtomicIoTest, FailureReportsPath) {
  const auto error =
      WriteFileAtomic("/nonexistent-dir/x.json", "contents");
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("/nonexistent-dir/x.json.tmp"), std::string::npos);
}

TEST(AtomicIoTest, FileExists) {
  EXPECT_FALSE(FileExists(testing::TempDir() + "/atomic_io_missing"));
}

TEST(AtomicIoTest, RemoveStaleTmpFilesOnlyTouchesTmp) {
  const std::string dir = testing::TempDir() + "/atomic_io_stale";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  { std::ofstream(dir + "/cell_UF_00.json") << "done"; }
  { std::ofstream(dir + "/cell_OD_01.json.tmp") << "torn"; }
  const std::vector<std::string> removed = RemoveStaleTmpFiles(dir);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], "cell_OD_01.json.tmp");
  EXPECT_TRUE(FileExists(dir + "/cell_UF_00.json"));
  EXPECT_FALSE(FileExists(dir + "/cell_OD_01.json.tmp"));
  // A missing directory is not an error.
  EXPECT_TRUE(RemoveStaleTmpFiles(dir + "/nope").empty());
}

}  // namespace
}  // namespace strip::base
