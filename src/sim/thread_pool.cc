#include "thread_pool.hh"

#include <chrono>
#include <cstdlib>

#include "common/logging.hh"

namespace latte
{

namespace
{

/** Polite spin: keep the core but free the pipeline. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

/**
 * Spins before a worker gives up and sleeps on the condition variable.
 * Sized to cover the single-threaded commit phase between epochs, so in
 * steady state workers never pay a futex round trip per simulated cycle.
 */
constexpr int kSpinsBeforeSleep = 1 << 14;

/**
 * Spins before a caller-side wait starts yielding its timeslice. The
 * caller is waiting on workers that hold items; on an oversubscribed
 * host (more sim threads than cores) those workers need the caller's
 * core to finish, so a pure pause loop would stall an entire
 * scheduling quantum per epoch.
 */
constexpr int kSpinsBeforeYield = 1 << 10;

/** Caller-side wait: brief pause spin, then yield until @p cond. */
template <typename Cond>
inline void
spinUntil(Cond cond)
{
    int spins = 0;
    while (!cond()) {
        if (++spins < kSpinsBeforeYield)
            cpuRelax();
        else
            std::this_thread::yield();
    }
}

unsigned
parsePositive(std::string_view text)
{
    if (text.empty() || text.size() > 9)
        return 0;
    unsigned value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return 0;
        value = value * 10 + static_cast<unsigned>(c - '0');
    }
    return value;
}

/** Destroyed pools fold their counters here. */
std::mutex g_poolStatsMutex;
SimPoolStats g_poolStats;

void
foldGlobalPoolStats(const SimPoolStats &stats)
{
    std::lock_guard<std::mutex> lock(g_poolStatsMutex);
    g_poolStats.merge(stats);
}

} // namespace

void
SimPoolStats::merge(const SimPoolStats &other)
{
    epochs += other.epochs;
    items += other.items;
    callerItems += other.callerItems;
    sleepTransitions += other.sleepTransitions;
    barrierWaitNs.merge(other.barrierWaitNs);
}

SimPoolStats
simPoolGlobalStats()
{
    std::lock_guard<std::mutex> lock(g_poolStatsMutex);
    return g_poolStats;
}

SimPoolStatGroup::SimPoolStatGroup(const SimPoolStats &stats)
    : StatGroup("sim_pool"),
      epochs(this, "epochs", "parallel epochs run"),
      items(this, "items", "SM ticks executed across all threads"),
      callerItems(this, "caller_items",
                  "SM ticks claimed by the publishing thread"),
      sleepTransitions(this, "sleep_transitions",
                       "worker spin budgets exhausted into cv sleeps"),
      barrierWaits(this, "barrier_waits",
                   "caller end-of-epoch barrier waits recorded")
{
    epochs += stats.epochs;
    items += stats.items;
    callerItems += stats.callerItems;
    sleepTransitions += stats.sleepTransitions;
    barrierWaits += stats.barrierWaitNs.count();
}

unsigned
resolveSimThreads(std::string_view text, std::string *error)
{
    if (text.empty()) {
        const char *env = std::getenv("LATTE_SIM_THREADS");
        if (!env || !*env)
            return 1;
        std::string ignored;
        const unsigned n = resolveSimThreads(env, &ignored);
        if (n == 0) {
            latte_warn("ignoring invalid LATTE_SIM_THREADS='{}' "
                       "(want a positive integer or 'auto')",
                       env);
            return 1;
        }
        return n;
    }
    if (text == "auto")
        return std::max(1u, std::thread::hardware_concurrency());
    const unsigned n = parsePositive(text);
    if (n == 0 && error) {
        *error = strfmt("invalid sim-threads value '{}' "
                        "(want a positive integer or 'auto')",
                        text);
    }
    return n;
}

SimThreadPool::SimThreadPool(unsigned workers)
{
    // Epoch barriers thrash when threads outnumber cores (every epoch
    // pays scheduler round trips instead of atomic handshakes), so
    // never spawn more workers than the machine has spare cores beside
    // the caller. Results are thread-count-invariant, so the clamp is
    // invisible outside wall-clock time.
    // LATTE_SIM_THREADS_NO_CLAMP is a test hook: sanitizer jobs set it
    // so the worker threads and every cross-thread handoff exist even
    // on machines with fewer cores than requested threads.
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && !std::getenv("LATTE_SIM_THREADS_NO_CLAMP"))
        workers = std::min(workers, hw - 1);
    // The pool can still be outnumbered by external load (a -j sweep
    // running one pool per runner thread): spin between epochs only
    // when a core per thread plausibly exists, sleep immediately when
    // the spin would steal the publisher's core. Set before the first
    // worker spawns — they read it unsynchronized.
    if (hw >= workers + 1)
        spinBudget_ = kSpinsBeforeSleep;
    // All workers start checked out of the (nonexistent) epoch 0.
    checkedOut_.store(workers, std::memory_order_relaxed);
    workerClaimed_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(workers);
    for (unsigned i = 0; i < workers; ++i)
        workerClaimed_[i].store(0, std::memory_order_relaxed);
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

SimThreadPool::~SimThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
    foldGlobalPoolStats(stats());
}

SimPoolStats
SimThreadPool::stats() const
{
    SimPoolStats out;
    out.epochs = epochs_;
    out.callerItems = callerClaimed_.load(std::memory_order_relaxed);
    out.items = out.callerItems;
    out.sleepTransitions =
        sleepTransitions_.load(std::memory_order_relaxed);
    out.barrierWaitNs = barrierWaitNs_;
    out.workerItems.reserve(threads_.size());
    for (std::size_t i = 0; i < threads_.size(); ++i) {
        const std::uint64_t claimed =
            workerClaimed_[i].load(std::memory_order_relaxed);
        out.workerItems.push_back(claimed);
        out.items += claimed;
    }
    return out;
}

void
SimThreadPool::claim(std::atomic<std::uint64_t> &claimed)
{
    for (;;) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_acq_rel);
        if (i >= count_)
            return;
        (*job_)(i);
        claimed.fetch_add(1, std::memory_order_relaxed);
        done_.fetch_add(1, std::memory_order_release);
    }
}

void
SimThreadPool::run(std::size_t count,
                   const std::function<void(std::size_t)> &job)
{
    if (count == 0)
        return;
    if (threads_.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            job(i);
        return;
    }

    // A straggler from the previous epoch may still be inside its claim
    // loop; recycling the cursor under it would hand it a bogus item.
    spinUntil([this] {
        return checkedOut_.load(std::memory_order_acquire) == workers();
    });

    job_ = &job;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    checkedOut_.store(0, std::memory_order_relaxed);
    {
        // The bump is taken under the mutex so a worker that just
        // decided to sleep cannot miss the wakeup.
        std::lock_guard<std::mutex> lock(mutex_);
        generation_.fetch_add(1, std::memory_order_release);
    }
    if (sleepers_.load(std::memory_order_acquire) > 0)
        cv_.notify_all();

    claim(callerClaimed_);

    // The release increments of done_ order every item's effects before
    // the barrier-side commit that follows this call. The wait is timed
    // (two clock reads per epoch, noise against an epoch's work): the
    // distribution is the direct measure of barrier-staging overhead
    // that the bench report and /metrics surface.
    const auto wait_start = std::chrono::steady_clock::now();
    spinUntil([this] {
        return done_.load(std::memory_order_acquire) == count_;
    });
    barrierWaitNs_.record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count()));
    ++epochs_;
}

void
SimThreadPool::workerLoop(unsigned index)
{
    setLogThreadName(strfmt("sim-w{}", index));
    std::atomic<std::uint64_t> &claimed = workerClaimed_[index];
    std::uint64_t seen = 0;
    for (;;) {
        std::uint64_t gen;
        int spins = 0;
        while ((gen = generation_.load(std::memory_order_acquire)) ==
               seen) {
            if (stop_.load(std::memory_order_acquire))
                return;
            if (++spins < spinBudget_) {
                cpuRelax();
                continue;
            }
            // One transition per cv wait entered (spin budget spent,
            // or zero budget on an oversubscribed host).
            sleepTransitions_.fetch_add(1, std::memory_order_relaxed);
            sleepers_.fetch_add(1, std::memory_order_acq_rel);
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] {
                    return generation_.load(std::memory_order_acquire) !=
                               seen ||
                           stop_.load(std::memory_order_acquire);
                });
            }
            sleepers_.fetch_sub(1, std::memory_order_acq_rel);
        }
        if (stop_.load(std::memory_order_acquire))
            return;
        seen = gen;
        claim(claimed);
        checkedOut_.fetch_add(1, std::memory_order_release);
    }
}

} // namespace latte
