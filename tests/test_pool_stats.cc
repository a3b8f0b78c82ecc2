/**
 * @file
 * Tests for the SimThreadPool introspection counters: exact item/epoch
 * accounting between epochs, the caller-side barrier-wait histogram,
 * the process-wide fold on pool destruction and the StatGroup mirror.
 * LATTE_SIM_THREADS_NO_CLAMP is set for the
 * fixture so worker threads exist even on small machines — the same
 * hook the sanitizer CI jobs use.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>

#include "metrics/latency_histogram.hh"
#include "sim/thread_pool.hh"

using namespace latte;

namespace
{

class PoolStats : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        hadNoClamp_ = std::getenv("LATTE_SIM_THREADS_NO_CLAMP") != nullptr;
        ::setenv("LATTE_SIM_THREADS_NO_CLAMP", "1", 1);
    }

    void
    TearDown() override
    {
        if (!hadNoClamp_)
            ::unsetenv("LATTE_SIM_THREADS_NO_CLAMP");
    }

  private:
    bool hadNoClamp_ = false;
};

std::uint64_t
workerSum(const SimPoolStats &stats)
{
    return std::accumulate(stats.workerItems.begin(),
                           stats.workerItems.end(), std::uint64_t{0});
}

TEST_F(PoolStats, CountsItemsEpochsAndBarrierWaits)
{
    SimThreadPool pool(2);
    ASSERT_EQ(pool.workers(), 2u);

    constexpr std::size_t kItems = 16;
    constexpr int kEpochs = 3;
    std::atomic<std::size_t> ran{0};
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
        pool.run(kItems, [&](std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(ran.load(), kItems * kEpochs);

    const SimPoolStats stats = pool.stats();
    EXPECT_EQ(stats.epochs, static_cast<std::uint64_t>(kEpochs));
    EXPECT_EQ(stats.items, kItems * kEpochs);
    EXPECT_EQ(stats.workerItems.size(), 2u);
    EXPECT_EQ(stats.callerItems + workerSum(stats), stats.items);
    // One barrier wait is timed per parallel epoch, by the caller only.
    EXPECT_EQ(stats.barrierWaitNs.count(), stats.epochs);
    EXPECT_GE(stats.barrierWaitNs.max(), 0.0);
}

TEST_F(PoolStats, InlineEpochsAreNotCounted)
{
    // Zero workers: run() executes inline with no epoch machinery, so
    // the counters stay empty — they measure parallel overhead, not
    // work done.
    SimThreadPool pool(0);
    EXPECT_EQ(pool.workers(), 0u);
    std::atomic<std::size_t> ran{0};
    pool.run(8, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 8u);

    const SimPoolStats stats = pool.stats();
    EXPECT_EQ(stats.epochs, 0u);
    EXPECT_EQ(stats.items, 0u);
    EXPECT_EQ(stats.barrierWaitNs.count(), 0u);
}

TEST_F(PoolStats, DestructionFoldsIntoGlobalAggregate)
{
    const SimPoolStats before = simPoolGlobalStats();
    {
        SimThreadPool pool(2);
        std::atomic<std::size_t> ran{0};
        pool.run(24, [&](std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(ran.load(), 24u);
    } // destructor folds this pool's counters into the aggregate
    const SimPoolStats after = simPoolGlobalStats();

    EXPECT_EQ(after.epochs - before.epochs, 1u);
    EXPECT_EQ(after.items - before.items, 24u);
    EXPECT_EQ(after.barrierWaitNs.count() - before.barrierWaitNs.count(),
              1u);
    // The aggregate keeps no per-worker breakdown.
    EXPECT_TRUE(after.workerItems.empty());
}

TEST_F(PoolStats, MergeSumsCountersAndHistograms)
{
    SimPoolStats a;
    a.epochs = 2;
    a.items = 10;
    a.callerItems = 4;
    a.sleepTransitions = 1;
    a.barrierWaitNs.record(100.0);

    SimPoolStats b;
    b.epochs = 3;
    b.items = 20;
    b.callerItems = 5;
    b.sleepTransitions = 2;
    b.barrierWaitNs.record(900.0);
    b.barrierWaitNs.record(300.0);

    a.merge(b);
    EXPECT_EQ(a.epochs, 5u);
    EXPECT_EQ(a.items, 30u);
    EXPECT_EQ(a.callerItems, 9u);
    EXPECT_EQ(a.sleepTransitions, 3u);
    EXPECT_EQ(a.barrierWaitNs.count(), 3u);
    EXPECT_EQ(a.barrierWaitNs.min(), 100.0);
    EXPECT_EQ(a.barrierWaitNs.max(), 900.0);
}

TEST_F(PoolStats, LatencyHistogramMergePreservesMoments)
{
    metrics::LatencyHistogram a;
    metrics::LatencyHistogram b;
    for (int i = 1; i <= 50; ++i)
        a.record(static_cast<double>(i));
    for (int i = 51; i <= 100; ++i)
        b.record(static_cast<double>(i));

    metrics::LatencyHistogram whole;
    for (int i = 1; i <= 100; ++i)
        whole.record(static_cast<double>(i));

    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_DOUBLE_EQ(a.sum(), whole.sum());
    EXPECT_EQ(a.min(), whole.min());
    EXPECT_EQ(a.max(), whole.max());
    EXPECT_EQ(a.percentile(50), whole.percentile(50));
    EXPECT_EQ(a.percentile(99), whole.percentile(99));

    // Merging an empty histogram is a no-op in both directions.
    metrics::LatencyHistogram empty;
    const std::uint64_t count = a.count();
    a.merge(empty);
    EXPECT_EQ(a.count(), count);
    empty.merge(a);
    EXPECT_EQ(empty.count(), count);
}

TEST_F(PoolStats, StatGroupMirrorsTheAggregate)
{
    SimPoolStats stats;
    stats.epochs = 7;
    stats.items = 70;
    stats.callerItems = 30;
    stats.sleepTransitions = 5;
    stats.barrierWaitNs.record(42.0);
    stats.barrierWaitNs.record(43.0);

    SimPoolStatGroup group(stats);
    EXPECT_EQ(group.epochs.count(), 7u);
    EXPECT_EQ(group.items.count(), 70u);
    EXPECT_EQ(group.callerItems.count(), 30u);
    EXPECT_EQ(group.sleepTransitions.count(), 5u);
    EXPECT_EQ(group.barrierWaits.count(), 2u);

    // The group flows through the shared visitor machinery like any
    // other stat tree, rooted at "sim_pool".
    std::map<std::string, double> flat;
    group.collect(flat);
    EXPECT_EQ(flat.at("sim_pool.epochs"), 7.0);
    EXPECT_EQ(flat.at("sim_pool.items"), 70.0);
}

} // namespace
