// Tests of the benchmark itself: the histogram's accuracy, short runs of
// every workload passing their checks, and every checker failing when its
// tally is off by one.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "log_histogram.h"
#include "runner.h"

namespace pgssi::bench {
namespace {

TEST(LogHistogramTest, PercentilesWithinOnePercentOfExact) {
  Random rng(42);
  std::vector<uint64_t> sample;
  LogHistogram h;
  for (int i = 0; i < 200'000; i++) {
    // Log-uniform over 1 ns .. ~17 s, plus a dense cluster near 13 us.
    const uint64_t v =
        i % 2 ? static_cast<uint64_t>(std::exp(rng.NextDouble() * 23.5))
              : 12'000 + rng.Uniform(2'000);
    sample.push_back(v);
    h.Add(v);
  }
  std::sort(sample.begin(), sample.end());
  for (double p : {0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sample.size())));
    const double exact = static_cast<double>(sample[std::max<size_t>(rank, 1) - 1]);
    EXPECT_LE(std::abs(h.Percentile(p) - exact), 0.01 * exact + 0.5) << "p" << p;
  }
  EXPECT_EQ(h.count(), sample.size());
}

TEST(LogHistogramTest, SmallValuesAreExactAndMergeAddsCounts) {
  LogHistogram a, b;
  for (uint64_t v = 0; v < 100; v++) a.Add(v);
  b.Add(1'000'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 101u);
  EXPECT_EQ(a.Percentile(50), 50);
  EXPECT_NEAR(a.Percentile(100), 1e6, 1e6 * 0.005);
  a.Clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Percentile(50), 0);
}

class ShortRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    run_dir_ = ".bench_build/ssibench-test-" + std::to_string(::getpid());
    std::filesystem::create_directories(run_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(run_dir_); }

  RoundSpec Spec(Kind kind, bool traced = false) {
    RoundSpec s;
    s.kind = kind;
    s.sizes = DefaultSizes(kind);
    s.sizes.kv_rows = 2'000;
    s.sizes.dbt2_warehouses = 2;
    s.sizes.dbt2_stock = 200;
    s.sizes.rubis_items = 40;
    s.sizes.rubis_preload_bids = 4;
    s.variant = PrimaryVariant(kind);
    s.txns = 600;
    s.seed = 7;
    s.run_dir = run_dir_;
    s.traced = traced;
    return s;
  }

  std::string run_dir_;
};

TEST_F(ShortRunTest, KvChecksHoldAndFailOffByOne) {
  const RoundSpec spec = Spec(Kind::kKv);
  const RoundResult r = RunRound(spec, [&](Workload& w, const RoundResult& r) {
    const uint64_t inc = r.tally[1];
    EXPECT_EQ(CheckKv(w.db(), spec.sizes.kv_rows, inc), "");
    EXPECT_EQ(CheckKv(w.db(), spec.sizes.kv_rows, inc + 1),
              "kv.counter_sum_equals_committed_increments");
    EXPECT_EQ(CheckKv(w.db(), spec.sizes.kv_rows, inc - 1),
              "kv.counter_sum_equals_committed_increments");
  });
  ASSERT_EQ(r.error, "");
  EXPECT_EQ(r.committed, spec.txns);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.tally[1], 0u);
}

TEST_F(ShortRunTest, Dbt2ChecksHoldAfterRecoveryAndFailOffByOne) {
  // Batch fsync, as the traced pass's group-commit twin runs it.
  RoundSpec spec = Spec(Kind::kDbt2);
  spec.variant.group_commit = true;
  const RoundResult r = RunRound(spec, [&](Workload& w, const RoundResult& r) {
    // The workload has already recovered its log: check the recovered
    // database against the clients' tally and tallies off by one.
    EXPECT_GT(w.RecoverSeconds(), 0);
    const uint64_t n = r.tally[0];
    EXPECT_EQ(CheckDbt2(w.db(), n), "");
    EXPECT_EQ(CheckDbt2(w.db(), n + 1),
              "dbt2.order_rows_equal_committed_new_orders");
    EXPECT_EQ(CheckDbt2(w.db(), n - 1),
              "dbt2.order_rows_equal_committed_new_orders");
  });
  ASSERT_EQ(r.error, "");
  EXPECT_EQ(r.committed, spec.txns);
  EXPECT_GT(r.tally[0], 0u);
  EXPECT_GT(r.log_bytes, 0u);
  EXPECT_GT(r.fsyncs, 0u);
}

TEST_F(ShortRunTest, RubisChecksHoldAndFailOffByOne) {
  // Over the wire, as the traced pass's wire twin runs it.
  RoundSpec spec = Spec(Kind::kRubis);
  spec.variant.wire = true;
  const uint64_t preload =
      uint64_t{spec.sizes.rubis_items} * spec.sizes.rubis_preload_bids;
  const RoundResult r = RunRound(spec, [&](Workload& w, const RoundResult& r) {
    const uint64_t bids = r.tally[1], closes = r.tally[2];
    uint64_t v = 0;
    EXPECT_EQ(CheckRubis(w.db(), preload, bids, closes, true, false, &v), "");
    EXPECT_EQ(CheckRubis(w.db(), preload, bids + 1, closes, true, false, &v),
              "rubis.bid_rows_equal_committed_bids");
    EXPECT_EQ(CheckRubis(w.db(), preload, bids - 1, closes, true, false, &v),
              "rubis.bid_rows_equal_committed_bids");
    EXPECT_EQ(CheckRubis(w.db(), preload, bids, closes + 1, true, false, &v),
              "rubis.closing_rows_equal_committed_closes");
    EXPECT_EQ(CheckRubis(w.db(), preload, bids, closes - 1, true, false, &v),
              "rubis.closing_rows_equal_committed_closes");
    EXPECT_EQ(CheckRubis(w.db(), preload, bids, closes, false, false, &v),
              "rubis.check_consistency_agrees");
  });
  ASSERT_EQ(r.error, "");
  EXPECT_EQ(r.committed, spec.txns);
  EXPECT_GT(r.tally[1], 0u);
  EXPECT_GT(r.tally[2], 0u);
  EXPECT_GT(r.net_ops, 3 * r.committed);  // every call is a round trip
}

TEST_F(ShortRunTest, SlicesCoverTheTimedWindow) {
  RoundSpec spec = Spec(Kind::kKv);
  spec.txns = 2 * kSliceTxns + 100;  // two whole slices and a remainder
  const RoundResult r = RunRound(spec);
  ASSERT_EQ(r.error, "");
  ASSERT_EQ(r.slices.size(), 2u);
  double wall = 0;
  for (const Slice& s : r.slices) {
    EXPECT_GT(s.wall_s, 0);
    EXPECT_GT(s.cpu_s, 0);
    EXPECT_GT(s.p50_us, 0);
    EXPECT_LE(s.p50_us, s.p99_us);
    wall += s.wall_s;
  }
  EXPECT_LE(wall, r.timed_s);
}

TEST_F(ShortRunTest, TracedTwinsPassTheirChecks) {
  for (Kind kind : {Kind::kKv, Kind::kDbt2, Kind::kRubis}) {
    RoundSpec spec = Spec(kind, /*traced=*/true);
    spec.variant.iso = IsolationLevel::kRepeatableRead;
    const RoundResult r = RunRound(spec);
    EXPECT_EQ(r.error, "") << KindName(kind);
    EXPECT_EQ(r.committed, spec.txns) << KindName(kind);
    EXPECT_EQ(r.spans.roots, r.attempts) << KindName(kind);
    EXPECT_EQ(r.spans.dropped, 0u) << KindName(kind);
    EXPECT_GT(r.spans.MeanUs(Op::kCommit), 0) << KindName(kind);
  }
}

}  // namespace
}  // namespace pgssi::bench
