/**
 * @file
 * The epoch-oriented worker pool behind `--sim-threads`. Unlike the
 * runner's job pool (one long task per thread), the simulator needs a
 * parallel-for that fires once per simulated epoch — potentially
 * millions of times per run — so the pool is built around a reusable
 * barrier: publishing an epoch is one atomic generation bump, workers
 * spin (then sleep) between epochs, items are claimed from a shared
 * atomic cursor, and the caller participates instead of blocking. No
 * memory is allocated after construction.
 *
 * Introspection: every pool counts epochs, per-thread claimed items and
 * worker spin->sleep transitions (relaxed atomics), and the caller
 * records its end-of-epoch barrier wait into a LatencyHistogram. A
 * destroyed pool folds its counters into a process-wide aggregate
 * (simPoolGlobalStats()) that the bench report and perfbench expose —
 * purely observational, never part of results.
 */

#ifndef LATTE_SIM_THREAD_POOL_HH
#define LATTE_SIM_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "metrics/latency_histogram.hh"

namespace latte
{

/**
 * Resolve a `--sim-threads` / `LATTE_SIM_THREADS` value to a thread
 * count. "" consults the environment and defaults to 1 (sequential);
 * "auto" means hardware concurrency; otherwise a positive integer.
 * @return the thread count, or 0 with @p error set when @p text is
 *         malformed.
 */
unsigned resolveSimThreads(std::string_view text, std::string *error);

/** Point-in-time view of one pool's (or the process aggregate's) work. */
struct SimPoolStats
{
    std::uint64_t epochs = 0;           //!< parallel epochs run
    std::uint64_t items = 0;            //!< items executed, all threads
    std::uint64_t callerItems = 0;      //!< items claimed by the caller
    std::uint64_t sleepTransitions = 0; //!< worker spin->sleep falls
    /** Caller-side wait for the last worker at each epoch end, in ns. */
    metrics::LatencyHistogram barrierWaitNs;
    /** Items per worker (empty in the process aggregate). */
    std::vector<std::uint64_t> workerItems;

    /** Fold @p other in (workerItems are summed into items only). */
    void merge(const SimPoolStats &other);
};

/** Aggregate over every destroyed pool since process start. */
SimPoolStats simPoolGlobalStats();

/**
 * The aggregate as a StatGroup ("sim_pool"), so it flows through
 * StatVisitor consumers (bench report, JSON dumps) like any other stat
 * tree. Standalone by design: parenting it to the Gpu would leak
 * wall-clock-dependent values into results and break bit-identity.
 */
class SimPoolStatGroup : public StatGroup
{
  public:
    explicit SimPoolStatGroup(const SimPoolStats &stats);

    Counter epochs;
    Counter items;
    Counter callerItems;
    Counter sleepTransitions;
    Counter barrierWaits;
};

/** Epoch-reusable parallel-for pool; see the file comment. */
class SimThreadPool
{
  public:
    /**
     * Spawn up to @p workers threads — clamped to the machine's cores
     * minus one for the caller of run(), which participates in every
     * epoch. A pool with zero workers runs every epoch inline.
     */
    explicit SimThreadPool(unsigned workers);
    ~SimThreadPool();

    SimThreadPool(const SimThreadPool &) = delete;
    SimThreadPool &operator=(const SimThreadPool &) = delete;

    /**
     * Run job(0..count-1) across the workers and the calling thread;
     * returns when every item has finished. @p job must stay alive for
     * the duration of the call and be safe to invoke concurrently.
     */
    void run(std::size_t count, const std::function<void(std::size_t)> &job);

    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Snapshot this pool's counters. Exact only between epochs (the
     * histogram is written by the run() caller; counters are relaxed
     * atomics), which is when every consumer reads it.
     */
    SimPoolStats stats() const;

  private:
    void workerLoop(unsigned index);
    /** Pull items off the shared cursor until the epoch is drained. */
    void claim(std::atomic<std::uint64_t> &claimed);

    std::vector<std::thread> threads_;
    /**
     * Pause iterations a worker spins for the next epoch before
     * sleeping on cv_. Full budget only when the machine has a core
     * per thread (caller included); oversubscribed pools sleep
     * immediately — spinning there steals the core the caller needs
     * to publish the next epoch.
     */
    int spinBudget_ = 0;

    std::mutex mutex_;
    std::condition_variable cv_;
    /** Bumped (under mutex_, released) to publish a new epoch. */
    std::atomic<std::uint64_t> generation_{0};
    /** Workers currently blocked on cv_ (notify only when > 0). */
    std::atomic<int> sleepers_{0};
    std::atomic<bool> stop_{false};

    // --- Per-epoch state, published by the generation_ bump ----------
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::size_t count_ = 0;
    /** Next unclaimed item. */
    std::atomic<std::size_t> next_{0};
    /** Items fully executed; run() returns when this reaches count_. */
    std::atomic<std::size_t> done_{0};
    /**
     * Workers that have left the claim loop of the current epoch. The
     * next run() resets the cursor only once every worker has checked
     * out, so a straggler can never claim against recycled state.
     */
    std::atomic<unsigned> checkedOut_{0};

    // --- Introspection (observational; never touches results) -------
    /** Items claimed per worker thread; stable addresses for claim(). */
    std::unique_ptr<std::atomic<std::uint64_t>[]> workerClaimed_;
    std::atomic<std::uint64_t> callerClaimed_{0};
    std::atomic<std::uint64_t> sleepTransitions_{0};
    /** Written by the run() caller only. */
    std::uint64_t epochs_ = 0;
    metrics::LatencyHistogram barrierWaitNs_;
};

} // namespace latte

#endif // LATTE_SIM_THREAD_POOL_HH
