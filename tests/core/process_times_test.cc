#include "core/process_times.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace perfeval {
namespace core {
namespace {

TEST(ProcessTimesTest, SnapshotsAreMonotone) {
  ProcessTimes a = ProcessTimes::Now();
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) {
    sink += i * 1e-9;
  }
  ProcessTimes b = ProcessTimes::Now();
  ProcessTimes delta = b - a;
  EXPECT_GE(delta.real_ns, 0);
  EXPECT_GE(delta.user_ns, 0);
  EXPECT_GE(delta.sys_ns, 0);
  (void)sink;
}

TEST(ProcessTimesTest, CpuBoundWorkShowsUpAsUserTime) {
  ProcessTimes before = ProcessTimes::Now();
  volatile double sink = 0.0;
  // ~50ms of arithmetic.
  for (int i = 0; i < 30000000; ++i) {
    sink += i * 1e-9;
  }
  // Then wait without computing: real time accrues, CPU time does not. An
  // uninterrupted loop alone has user == real up to the 1us resolution of
  // getrusage and the drift between the scheduler's clock and steady_clock,
  // so without the wait real >= user would sit on that edge.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ProcessTimes delta = ProcessTimes::Now() - before;
  // A CPU-bound loop accrues user time, not system time (the slide-22
  // distinction). Assert on the CPU split rather than user/real: under
  // parallel ctest on a small box the process may be descheduled for
  // most of the wall time, but user time counts only while running.
  EXPECT_GT(delta.user_ns, 10'000'000);  // >=10ms of a ~50ms loop.
  EXPECT_GT(delta.user_ns, delta.sys_ns);
  EXPECT_GE(delta.real_ns, delta.user_ns);
  EXPECT_GE(delta.real_ns, delta.user_ns + delta.sys_ns);
  (void)sink;
}

TEST(ProcessTimesTest, ArithmeticIsComponentwise) {
  ProcessTimes a{100, 60, 10};
  ProcessTimes b{40, 30, 5};
  ProcessTimes sum = a + b;
  ProcessTimes diff = a - b;
  EXPECT_EQ(sum.real_ns, 140);
  EXPECT_EQ(sum.user_ns, 90);
  EXPECT_EQ(sum.sys_ns, 15);
  EXPECT_EQ(diff.real_ns, 60);
  EXPECT_EQ(diff.user_ns, 30);
  EXPECT_EQ(diff.sys_ns, 5);
}

TEST(ProcessTimesTest, MillisecondAccessors) {
  ProcessTimes t{2'500'000, 1'000'000, 500'000};
  EXPECT_DOUBLE_EQ(t.real_ms(), 2.5);
  EXPECT_DOUBLE_EQ(t.user_ms(), 1.0);
  EXPECT_DOUBLE_EQ(t.sys_ms(), 0.5);
}

TEST(ProcessTimesTest, ToStringHasAllThreeTimes) {
  std::string text = ProcessTimes{1000000, 2000000, 3000000}.ToString();
  EXPECT_NE(text.find("real="), std::string::npos);
  EXPECT_NE(text.find("user="), std::string::npos);
  EXPECT_NE(text.find("sys="), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace perfeval
