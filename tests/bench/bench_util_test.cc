// BenchContext's argument parsing. The treatment knobs
// --dbJoin/--dbOpt/--dbBackend are the experiment itself: an unrecognized
// value must surface as a usage error, never as a silent fallback that
// quietly measures the wrong engine. The same holds for unknown
// arguments, bad --order/--isolation values, and database knobs a bench
// does not apply: each exits with status 2 before anything runs.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "db/database.h"

namespace perfeval {
namespace bench {
namespace {

BenchContext MakeContext(std::vector<std::string> extra,
                         unsigned db_knobs = kAllDbKnobs) {
  std::vector<std::string> args = {"bench_test"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return BenchContext("T0", "knob parsing test",
                      static_cast<int>(argv.size()), argv.data(), db_knobs);
}

TEST(BenchUtilTest, DefaultsAreRadixAndOptimizerOff) {
  BenchContext ctx = MakeContext({});
  Result<db::JoinAlgo> join = ctx.DbJoin();
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join.value(), db::JoinAlgo::kRadix);
  Result<bool> opt = ctx.DbOpt();
  ASSERT_TRUE(opt.ok());
  EXPECT_FALSE(opt.value());
}

TEST(BenchUtilTest, ValidKnobValuesParse) {
  BenchContext ctx = MakeContext({"--dbJoin=merge", "--dbOpt=on"});
  Result<db::JoinAlgo> join = ctx.DbJoin();
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join.value(), db::JoinAlgo::kMerge);
  Result<bool> opt = ctx.DbOpt();
  ASSERT_TRUE(opt.ok());
  EXPECT_TRUE(opt.value());
}

TEST(BenchUtilTest, InvalidDbJoinIsAUsageErrorNotAFallback) {
  BenchContext ctx = MakeContext({"--dbJoin=hashh"});
  Result<db::JoinAlgo> join = ctx.DbJoin();
  ASSERT_FALSE(join.ok());
  EXPECT_NE(join.status().message().find("usage: --dbJoin"),
            std::string::npos);
  EXPECT_NE(join.status().message().find("hashh"), std::string::npos);
}

TEST(BenchUtilTest, InvalidDbOptIsAUsageErrorNotAFallback) {
  BenchContext ctx = MakeContext({"--dbOpt=maybe"});
  Result<bool> opt = ctx.DbOpt();
  ASSERT_FALSE(opt.ok());
  EXPECT_NE(opt.status().message().find("usage: --dbOpt"),
            std::string::npos);
  EXPECT_NE(opt.status().message().find("maybe"), std::string::npos);
}

TEST(BenchUtilTest, DbBackendDefaultsToColumnar) {
  BenchContext ctx = MakeContext({});
  Result<db::BackendKind> backend = ctx.DbBackend();
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ(backend.value(), db::BackendKind::kColumnar);
}

TEST(BenchUtilTest, ValidDbBackendValuesParse) {
  for (const char* text : {"row", "rowstore"}) {
    BenchContext ctx = MakeContext({std::string("--dbBackend=") + text});
    Result<db::BackendKind> backend = ctx.DbBackend();
    ASSERT_TRUE(backend.ok()) << text;
    EXPECT_EQ(backend.value(), db::BackendKind::kRowStore) << text;
  }
}

TEST(BenchUtilTest, InvalidDbBackendIsAUsageErrorNotAFallback) {
  BenchContext ctx = MakeContext({"--dbBackend=clo"});
  Result<db::BackendKind> backend = ctx.DbBackend();
  ASSERT_FALSE(backend.ok());
  EXPECT_NE(backend.status().message().find("usage: --dbBackend"),
            std::string::npos);
  EXPECT_NE(backend.status().message().find("clo"), std::string::npos);
}

TEST(BenchUtilTest, ApplyDbKnobsConfiguresTheDatabase) {
  BenchContext ctx = MakeContext({"--dbJoin=hash", "--dbOpt=on",
                                  "--dbThreads=3", "--radixBits=6",
                                  "--dbBackend=row"});
  db::Database database;
  Status status = ctx.ApplyDbKnobs(&database);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(database.join_algo(), db::JoinAlgo::kHash);
  EXPECT_TRUE(database.optimize());
  EXPECT_EQ(database.threads(), 3);
  EXPECT_EQ(database.radix_bits(), 6);
  EXPECT_EQ(database.backend(), db::BackendKind::kRowStore);
}

TEST(BenchUtilTest, ApplyDbKnobsRejectsBadBackend) {
  BenchContext ctx = MakeContext({"--dbBackend=vector"});
  db::Database database;
  Status status = ctx.ApplyDbKnobs(&database);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("usage: --dbBackend"), std::string::npos);
  // The default must be untouched after a rejected apply.
  EXPECT_EQ(database.backend(), db::BackendKind::kColumnar);
}

TEST(BenchUtilTest, ApplyDbKnobsPropagatesTheFirstError) {
  BenchContext ctx = MakeContext({"--dbJoin=bogus"});
  db::Database database;
  Status status = ctx.ApplyDbKnobs(&database);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("usage: --dbJoin"), std::string::npos);
}

TEST(BenchUtilDeathTest, UnknownArgumentIsAUsageError) {
  EXPECT_EXIT(MakeContext({"--dbThread=4"}), ::testing::ExitedWithCode(2),
              "unknown argument '--dbThread=4'");
}

TEST(BenchUtilDeathTest, BadOrderAndIsolationAreUsageErrors) {
  EXPECT_EXIT(MakeContext({"--order=random"}), ::testing::ExitedWithCode(2),
              "usage error");
  EXPECT_EXIT(MakeContext({"--isolation=shared"}),
              ::testing::ExitedWithCode(2), "usage error");
}

TEST(BenchUtilDeathTest, BenchWithoutDbKnobsRejectsEveryDbKnob) {
  for (const char* flag : {"--dbThreads=2", "--dbJoin=hash", "--radixBits=4",
                           "--dbOpt=on", "--dbBackend=row"}) {
    EXPECT_EXIT(MakeContext({flag}, kNoDbKnobs),
                ::testing::ExitedWithCode(2), "T0 does not apply")
        << flag;
  }
  // The property form is the same knob.
  EXPECT_EXIT(MakeContext({"-DdbBackend=row"}, kNoDbKnobs),
              ::testing::ExitedWithCode(2), "does not apply --dbBackend");
}

TEST(BenchUtilDeathTest, BenchRejectsOnlyTheKnobsItDoesNotApply) {
  BenchContext ctx = MakeContext({"--dbThreads=3"}, kDbThreadsKnob);
  EXPECT_EQ(ctx.DbThreads(), 3);
  EXPECT_EXIT(MakeContext({"--dbBackend=row"}, kDbThreadsKnob),
              ::testing::ExitedWithCode(2), "does not apply --dbBackend");
}

TEST(BenchUtilTest, ValidScheduleFlagsParse) {
  BenchContext ctx = MakeContext(
      {"--order=interleaved", "--isolation=concurrent", "--jobs=3"},
      kNoDbKnobs);
  sched::Options options = ctx.ScheduleOptions();
  EXPECT_EQ(options.jobs, 3);
  EXPECT_EQ(options.order, core::RunOrder::kInterleaved);
  EXPECT_EQ(options.isolation, core::IsolationPolicy::kConcurrent);
}

TEST(BenchUtilTest, ApplyDbKnobsSetsOnlyDeclaredKnobs) {
  BenchContext ctx = MakeContext({"--dbThreads=4"}, kDbThreadsKnob);
  db::Database database;
  ASSERT_TRUE(ctx.ApplyDbKnobs(&database).ok());
  EXPECT_EQ(database.threads(), 4);
  EXPECT_EQ(database.backend(), db::BackendKind::kColumnar);
  EXPECT_FALSE(database.optimize());
}

TEST(BenchUtilTest, HeaderEchoesOnlyAppliedKnobs) {
  ::testing::internal::CaptureStdout();
  MakeContext({}, kDbThreadsKnob).PrintHeader("t");
  std::string threads_only = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(threads_only.find("db knobs: threads=1\n"), std::string::npos)
      << threads_only;
  ::testing::internal::CaptureStdout();
  MakeContext({}, kNoDbKnobs).PrintHeader("t");
  std::string none = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(none.find("db knobs"), std::string::npos) << none;
  ::testing::internal::CaptureStdout();
  MakeContext({"--dbBackend=row"}).PrintHeader("t");
  std::string all = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(all.find("backend=row threads=1 join=radix radixBits=auto "
                     "opt=off"),
            std::string::npos)
      << all;
}

}  // namespace
}  // namespace bench
}  // namespace perfeval
