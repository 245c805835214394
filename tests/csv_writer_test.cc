#include "common/csv_writer.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace memstream {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CsvWriterTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs each case as its own process, in
  // parallel with the others.
  void SetUp() override {
    path_ = ::testing::TempDir() + "memstream_csv_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"n", "dram_gb"});
    ASSERT_TRUE(w.ok());
    w.AddRow(std::vector<std::string>{"10", "0.5"});
    w.AddRow(std::vector<double>{100, 5.25});
  }
  EXPECT_EQ(ReadAll(path_), "n,dram_gb\n10,0.5\n100,5.25\n");
}

TEST_F(CsvWriterTest, EscapesSpecialCharacters) {
  {
    CsvWriter w(path_, {"text"});
    w.AddRow(std::vector<std::string>{"a,b"});
    w.AddRow(std::vector<std::string>{"say \"hi\""});
  }
  EXPECT_EQ(ReadAll(path_), "text\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
}

TEST(CsvEscapeTest, PlainCellUntouched) {
  EXPECT_EQ(CsvEscape("hello"), "hello");
}

TEST(CsvEscapeTest, NewlineQuoted) {
  EXPECT_EQ(CsvEscape("a\nb"), "\"a\nb\"");
}

TEST_F(CsvWriterTest, BadPathReportsNotOk) {
  CsvWriter w("/nonexistent-dir-xyz/file.csv", {"h"});
  EXPECT_FALSE(w.ok());
}

}  // namespace
}  // namespace memstream
