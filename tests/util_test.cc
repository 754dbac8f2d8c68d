#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "src/util/crc32c.h"
#include "src/util/histogram.h"
#include "src/util/random.h"
#include "src/util/retry.h"
#include "src/util/serialize.h"
#include "src/util/status.h"
#include "src/util/threading.h"

namespace tango {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CodeAndMessage) {
  Status st(StatusCode::kNotFound, "missing widget");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.ToString(), "NOT_FOUND: missing widget");
  EXPECT_TRUE(st == StatusCode::kNotFound);
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kInternal); ++i) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(i)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status(StatusCode::kTimeout, "slow"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOut) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// --- serialization -------------------------------------------------------------

TEST(SerializeTest, RoundTripScalars) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-12345);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU8(), 0xab);
  EXPECT_EQ(r.GetU16(), 0xbeef);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI64(), -12345);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializeTest, RoundTripStringsAndBlobs) {
  ByteWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutBlob(std::vector<uint8_t>{1, 2, 3});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_EQ(r.GetString(), "");
  EXPECT_EQ(r.GetBlob(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.ok());
}

TEST(SerializeTest, LittleEndianLayout) {
  ByteWriter w;
  w.PutU32(0x01020304);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(tango::Crc32c(nullptr, 0), 0x00000000u);
  const char* check = "123456789";
  EXPECT_EQ(tango::Crc32c(check, 9), 0xE3069283u);
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(tango::Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(tango::Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendIsIncremental) {
  const char* data = "hello, crc world";
  uint32_t whole = tango::Crc32c(data, 16);
  uint32_t part = tango::Crc32cExtend(0, data, 7);
  part = tango::Crc32cExtend(part, data + 7, 9);
  EXPECT_EQ(part, whole);
  // Any flipped bit changes the sum.
  std::string copy(data, 16);
  copy[5] ^= 0x10;
  EXPECT_NE(tango::Crc32c(copy.data(), copy.size()), whole);
}

TEST(SerializeTest, OverrunMarksFailed) {
  ByteWriter w;
  w.PutU16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU64(), 0u);  // not enough bytes
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializeTest, TruncatedStringFails) {
  ByteWriter w;
  w.PutU32(1000);  // claims 1000 bytes follow
  w.PutU8('x');
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetString(), "");
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, PatchU32) {
  ByteWriter w;
  w.PutU32(0);
  w.PutU8(9);
  w.PatchU32(0, 0xcafebabe);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU32(), 0xcafebabeu);
}

TEST(SerializeTest, BlobViewIsZeroCopy) {
  ByteWriter w;
  w.PutBlob(std::vector<uint8_t>{9, 8, 7});
  ByteReader r(w.bytes());
  auto view = r.GetBlobView();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.data(), w.bytes().data() + 4);
}

// --- rng / zipf ------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolRoughlyCalibrated) {
  Rng rng(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(ZipfTest, StaysInRange) {
  ZipfGenerator zipf(1000, 0.99, 42);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(), 1000u);
  }
}

TEST(ZipfTest, IsSkewed) {
  ZipfGenerator zipf(10000, 0.99, 42);
  uint64_t low = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next() < 100) {  // hottest 1% of the key space
      ++low;
    }
  }
  // Under zipf(0.99), the top 1% draws a large share; uniform would get 1%.
  EXPECT_GT(static_cast<double>(low) / kSamples, 0.3);
}

TEST(ZipfTest, UniformThetaZeroIsFlat) {
  // theta -> 0 approaches uniform; check no single key dominates.
  ZipfGenerator zipf(100, 0.01, 9);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    counts[zipf.Next()]++;
  }
  EXPECT_LT(*std::max_element(counts.begin(), counts.end()), 5000);
}

TEST(PermutationTest, IsAPermutation) {
  auto perm = RandomPermutation(257, 3);
  std::set<uint64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

// --- histogram ----------------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.Percentile(0.5), 100, 5);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) {
    h.Record(v);
  }
  uint64_t p50 = h.Percentile(0.50);
  uint64_t p90 = h.Percentile(0.90);
  uint64_t p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(static_cast<double>(p50), 5000, 300);
  EXPECT_NEAR(static_cast<double>(p99), 9900, 500);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, LargeValuesClamped) {
  Histogram h;
  h.Record(~0ULL);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(1.0), ~0ULL);
}

TEST(HistogramTest, PercentileOnEmptyIsZeroForAllQuantiles) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
  EXPECT_EQ(h.Percentile(2.0), 0u);  // out-of-range quantile, still empty
}

TEST(HistogramTest, PercentileOneIsExactMax) {
  // p100 must return the exact recorded max, not the (coarser) upper bound
  // of the bucket the max landed in.
  Histogram h;
  h.Record(3);
  h.Record(1'000'003);  // not a bucket boundary
  EXPECT_EQ(h.Percentile(1.0), h.max());
  EXPECT_EQ(h.Percentile(1.0), 1'000'003u);
  EXPECT_EQ(h.Percentile(5.0), 1'000'003u);  // quantiles clamp to [0, 1]
  EXPECT_LE(h.Percentile(0.0), h.Percentile(1.0));
}

TEST(HistogramTest, MergePreservesPercentilesAndSentinels) {
  Histogram a, b, both;
  for (uint64_t v = 1; v <= 1000; ++v) {
    (v % 2 == 0 ? a : b).Record(v);
    both.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  for (double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.Percentile(q), both.Percentile(q)) << "q=" << q;
  }

  // Merging an empty histogram must not disturb min/max (empty min is the
  // ~0 sentinel), and merging into an empty one must adopt the source's.
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1000u);
  Histogram fresh;
  fresh.Merge(both);
  EXPECT_EQ(fresh.min(), 1u);
  EXPECT_EQ(fresh.max(), 1000u);
  EXPECT_EQ(fresh.count(), 1000u);
}

TEST(HistogramTest, FromPartsRoundTrips) {
  Histogram h;
  for (uint64_t v : {7u, 80u, 900u, 12345u}) {
    h.Record(v);
  }
  std::vector<uint64_t> buckets(Histogram::kNumBuckets, 0);
  for (uint64_t v : {7u, 80u, 900u, 12345u}) {
    buckets[Histogram::BucketFor(v)]++;
  }
  Histogram rebuilt = Histogram::FromParts(buckets, h.sum(), h.min(), h.max());
  EXPECT_EQ(rebuilt.count(), h.count());
  EXPECT_EQ(rebuilt.min(), h.min());
  EXPECT_EQ(rebuilt.max(), h.max());
  EXPECT_EQ(rebuilt.Percentile(0.5), h.Percentile(0.5));
  EXPECT_EQ(rebuilt.Percentile(1.0), h.Percentile(1.0));

  // Empty parts normalise to the empty-histogram sentinels regardless of the
  // sum/min/max passed in.
  Histogram empty = Histogram::FromParts(
      std::vector<uint64_t>(Histogram::kNumBuckets, 0), 999, 5, 17);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.Percentile(0.5), 0u);
  EXPECT_EQ(empty.Mean(), 0.0);
}

TEST(HistogramTest, BucketBoundsAreMonotoneAndContainValues) {
  // Bounds are strictly increasing over the buckets 64-bit values can land
  // in; past the top of the range they saturate.
  const int top = Histogram::BucketFor(~0ULL);
  uint64_t prev_bound = 0;
  for (int b = 1; b <= top; ++b) {
    uint64_t bound = Histogram::BucketUpperBound(b);
    EXPECT_GT(bound, prev_bound) << "bucket " << b;
    prev_bound = bound;
  }
  EXPECT_EQ(Histogram::BucketUpperBound(top), ~0ULL);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1), ~0ULL);
  for (uint64_t v : {0ull, 1ull, 31ull, 32ull, 33ull, 1000ull, 65535ull,
                     1ull << 40, ~0ull >> 1}) {
    int b = Histogram::BucketFor(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(b)) << "value " << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(b - 1)) << "value " << v;
    }
  }
}

// Histogram::Record is deliberately single-writer (the hot paths keep one
// histogram per thread and Merge on the collector).  In debug builds a
// second recording thread trips a TANGO_CHECK; Reset() and copies release
// the pin so pooled histograms can move between threads between runs.
#ifndef NDEBUG
TEST(HistogramDeathTest, RecordFromSecondThreadAsserts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Histogram h;
  h.Record(1);
  EXPECT_DEATH(
      {
        std::thread t([&] { h.Record(2); });
        t.join();
      },
      "second thread");
}
#endif

TEST(HistogramTest, ResetAndCopyReleaseWriterPin) {
  Histogram h;
  h.Record(1);
  h.Reset();
  std::thread t([&] { h.Record(2); });  // fine: Reset released the pin
  t.join();
  EXPECT_EQ(h.count(), 1u);

  Histogram copy = h;  // copies start unpinned
  std::thread t2([&] { copy.Record(3); });
  t2.join();
  EXPECT_EQ(copy.count(), 2u);
}

TEST(MeterTest, ConcurrentAdds) {
  Meter meter;
  RunParallel(4, [&](int) {
    for (int i = 0; i < 1000; ++i) {
      meter.Add();
    }
  });
  EXPECT_EQ(meter.Read(), 4000u);
}

// --- threading -------------------------------------------------------------------------

TEST(NotificationTest, WaitAndNotify) {
  Notification n;
  EXPECT_FALSE(n.HasBeenNotified());
  std::thread t([&] { n.Notify(); });
  n.WaitForNotification();
  EXPECT_TRUE(n.HasBeenNotified());
  t.join();
}

TEST(NotificationTest, TimeoutExpires) {
  Notification n;
  EXPECT_FALSE(n.WaitForNotificationWithTimeout(std::chrono::milliseconds(5)));
}

TEST(StartBarrierTest, ReleasesAllParties) {
  StartBarrier barrier(3);
  std::atomic<int> released{0};
  RunParallel(3, [&](int) {
    barrier.ArriveAndWait();
    released.fetch_add(1);
  });
  EXPECT_EQ(released.load(), 3);
}

TEST(RunParallelForTest, StopsWorkers) {
  std::atomic<uint64_t> iterations{0};
  RunParallelFor(2, std::chrono::milliseconds(20),
                 [&](int, std::atomic<bool>* stop) {
                   while (!stop->load()) {
                     iterations.fetch_add(1, std::memory_order_relaxed);
                   }
                 });
  EXPECT_GT(iterations.load(), 0u);
}

// --- retry policy ----------------------------------------------------------------------

TEST(RetryPolicyTest, ExponentialGrowthAndCap) {
  RetryPolicy::Options options;
  options.initial_backoff_us = 1000;
  options.max_backoff_us = 8000;
  options.multiplier = 2.0;
  options.jitter = 0.0;  // deterministic delays
  options.max_attempts = 16;
  RetryPolicy policy(options);
  RetryPolicy::Attempt attempt = policy.Begin();
  EXPECT_EQ(attempt.NextDelayMicros(), 1000u);
  EXPECT_EQ(attempt.NextDelayMicros(), 2000u);
  EXPECT_EQ(attempt.NextDelayMicros(), 4000u);
  EXPECT_EQ(attempt.NextDelayMicros(), 8000u);
  EXPECT_EQ(attempt.NextDelayMicros(), 8000u);  // saturated at the ceiling
}

TEST(RetryPolicyTest, JitterStaysInBoundsAndVaries) {
  RetryPolicy::Options options;
  options.initial_backoff_us = 1000;
  options.max_backoff_us = 1000;
  options.jitter = 0.5;
  RetryPolicy policy(options);
  std::set<uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    RetryPolicy::Attempt attempt = policy.Begin();
    uint64_t delay = attempt.NextDelayMicros();
    EXPECT_GE(delay, 500u);
    EXPECT_LE(delay, 1500u);
    seen.insert(delay);
  }
  // Decorrelated streams: the draws are not all identical.
  EXPECT_GT(seen.size(), 1u);
}

TEST(RetryPolicyTest, AttemptBudgetExhausts) {
  RetryPolicy::Options options;
  options.max_attempts = 3;
  options.initial_backoff_us = 1;
  options.max_backoff_us = 1;
  RetryPolicy policy(options);
  RetryPolicy::Attempt attempt = policy.Begin();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(attempt.ShouldRetry()) << "retry " << i;
    attempt.CountAttempt();
  }
  EXPECT_FALSE(attempt.ShouldRetry());
  EXPECT_EQ(attempt.attempts(), 3);
}

TEST(ExecutorTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    Executor pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count] { ++count; });
    }
    // The destructor drains the queue: every task runs before join.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ExecutorTest, TasksRunConcurrently) {
  // The pool is declared last so its destructor joins the workers before the
  // notifications they touch are destroyed.
  Notification first_running;
  Notification second_ran;
  Executor pool(2);
  pool.Submit([&] {
    first_running.Notify();
    // Only terminates if the second task can run on the other worker.
    EXPECT_TRUE(
        second_ran.WaitForNotificationWithTimeout(std::chrono::seconds(10)));
  });
  pool.Submit([&] {
    first_running.WaitForNotification();
    second_ran.Notify();
  });
}

TEST(TaskGroupTest, WaitBlocksUntilAllLaunchedFinish) {
  Executor pool(3);
  TaskGroup group(&pool);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    group.Launch([&count] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++count;
    });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 50);
  // The group is reusable after Wait.
  group.Launch([&count] { ++count; });
  group.Wait();
  EXPECT_EQ(count.load(), 51);
}

TEST(ParallelDispatchTest, CoversEveryIndexOnce) {
  Executor pool(4);
  std::vector<std::atomic<int>> hits(64);
  ParallelDispatch(pool, hits.size(),
                   [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelDispatchTest, ZeroAndOneTaskDegenerate) {
  Executor pool(2);
  std::atomic<int> count{0};
  ParallelDispatch(pool, 0, [&count](size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  ParallelDispatch(pool, 1, [&count](size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelDispatchTest, CallerRunsLegsNoWorkerStarted) {
  // The only worker is parked, so no pool task can start: the caller must
  // claim and run every leg itself instead of waiting for the worker.
  Notification latch;
  Notification dispatched;
  Executor pool(1);  // declared last: joins before the latch is destroyed
  pool.Submit([&latch] { latch.WaitForNotification(); });
  // Opens the latch after 2 s at the latest, so a dispatcher that waits on
  // the parked worker fails below instead of hanging.
  std::thread watchdog([&] {
    dispatched.WaitForNotificationWithTimeout(std::chrono::seconds(2));
    latch.Notify();
  });
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(4);
  ParallelDispatch(pool, ran_on.size(), [&ran_on](size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  EXPECT_FALSE(latch.HasBeenNotified());
  dispatched.Notify();
  watchdog.join();
  for (size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], caller) << "leg " << i;
  }
  // ~Executor now runs the three stale tasks; they find every leg claimed.
}

TEST(ParallelDispatchTest, EveryLegRunsExactlyOnceUnderConcurrentCallers) {
  Executor pool(2);
  std::atomic<uint64_t> total{0};
  uint64_t expected = 0;
  for (int d = 0; d < 1000; ++d) {
    expected += 8 * (1 + d % 5);
  }
  RunParallel(8, [&](int) {
    for (int d = 0; d < 1000; ++d) {
      std::vector<std::atomic<int>> hits(1 + d % 5);
      ParallelDispatch(pool, hits.size(), [&](size_t i) {
        hits[i].fetch_add(1);
        total.fetch_add(1);
      });
      for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "dispatch " << d << " leg " << i;
      }
    }
  });
  EXPECT_EQ(total.load(), expected);
}

TEST(RetryPolicyTest, DeadlineBoundsDelayAndRetry) {
  RetryPolicy::Options options;
  options.initial_backoff_us = 60'000'000;  // would sleep a minute...
  options.max_backoff_us = 60'000'000;
  options.jitter = 0.0;
  options.max_attempts = 1000;
  options.deadline_ms = 20;  // ...but the deadline caps it
  RetryPolicy policy(options);
  RetryPolicy::Attempt attempt = policy.Begin();
  EXPECT_FALSE(attempt.DeadlineExceeded());
  EXPECT_LE(attempt.NextDelayMicros(), 20'000u);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(attempt.DeadlineExceeded());
  EXPECT_FALSE(attempt.ShouldRetry());
  EXPECT_EQ(attempt.NextDelayMicros(), 0u);
}

}  // namespace
}  // namespace tango
