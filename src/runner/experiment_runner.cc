#include "experiment_runner.hh"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "metrics/profiler.hh"
#include "progress.hh"
#include "resilience.hh"
#include "result_cache.hh"

namespace latte::runner
{

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(std::move(options))
{}

unsigned
ExperimentRunner::effectiveThreads(std::size_t cells) const
{
    unsigned threads = options_.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (cells < threads)
        threads = static_cast<unsigned>(cells);
    return threads ? threads : 1;
}

std::vector<RunOutcome>
ExperimentRunner::runAll(const std::vector<RunRequest> &requests)
{
    stats_ = Stats{};
    cellWallMs_ = metrics::LatencyHistogram();
    std::vector<RunOutcome> outcomes(requests.size());
    if (requests.empty())
        return outcomes;

    std::unique_ptr<ResultCache> cache;
    if (!options_.cacheDir.empty())
        cache = std::make_unique<ResultCache>(options_.cacheDir);
    std::unique_ptr<SweepJournal> journal;
    if (!options_.journalPath.empty())
        journal = std::make_unique<SweepJournal>(options_.journalPath);

    const unsigned threads = effectiveThreads(requests.size());
    ProgressReporter progress(requests.size(), threads,
                              options_.progress);

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> executed{0};
    std::atomic<std::size_t> cache_hits{0};
    std::atomic<std::size_t> journal_skips{0};
    std::atomic<std::size_t> failed{0};
    std::mutex wall_mutex;
    metrics::LatencyHistogram wall_ms;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= requests.size())
                return;
            const RunRequest &request = requests[i];
            const auto start = std::chrono::steady_clock::now();

            // Every log line this cell emits — from the runner or the
            // simulator — carries the same correlation id.
            LogScope cell_ctx("cell-" + std::to_string(i));

            const std::string cell_name =
                (request.workload ? request.workload->abbr
                                  : std::string("?")) +
                "/" + runRequestLabel(request);

            bool shortcut = false;
            // An observed request must actually simulate — a disk hit
            // would return the result without producing any events,
            // metric samples or profile time — so the cache is
            // bypassed entirely for every observational output
            // (tracer, metric registry, self-profiler). None of them
            // is part of RunKey, and an observed result must not
            // shadow an unobserved one.
            const bool observed = request.tracer != nullptr ||
                                  request.metrics != nullptr ||
                                  metrics::profilerEnabled();
            const bool keyed = !observed && request.workload != nullptr;

            const RunKey key =
                keyed && (cache || journal) ? RunKey::of(request) : RunKey{};

            bool done = false;
            if (keyed && journal) {
                // The journal gates resume: ok cells are served from
                // the result cache (the journal stores no result
                // bytes) and failures are reconstructed as-is.
                if (auto entry = journal->find(key.fingerprint())) {
                    if (entry->ok()) {
                        if (cache) {
                            if (auto hit = cache->lookup(key)) {
                                outcomes[i] = std::move(*hit);
                                done = shortcut = true;
                                journal_skips.fetch_add(
                                    1, std::memory_order_relaxed);
                            }
                        }
                    } else {
                        outcomes[i] = std::move(*entry);
                        done = shortcut = true;
                        journal_skips.fetch_add(
                            1, std::memory_order_relaxed);
                        failed.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            }
            if (!done && keyed && cache) {
                if (auto hit = cache->lookup(key)) {
                    outcomes[i] = std::move(*hit);
                    done = shortcut = true;
                    cache_hits.fetch_add(1, std::memory_order_relaxed);
                    if (journal &&
                        !journal->find(key.fingerprint()))
                        journal->record(key.fingerprint(), outcomes[i]);
                }
            }
            if (!done) {
                RunRequest budgeted = request;
                if (budgeted.control.cycleBudget == 0)
                    budgeted.control.cycleBudget =
                        options_.cellCycleBudget;
                outcomes[i] = run(budgeted);
                executed.fetch_add(1, std::memory_order_relaxed);
                if (!outcomes[i].ok())
                    failed.fetch_add(1, std::memory_order_relaxed);
                if (keyed) {
                    if (cache && outcomes[i].ok())
                        cache->store(key, outcomes[i]);
                    if (journal)
                        journal->record(key.fingerprint(), outcomes[i]);
                }
            }

            const double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            {
                std::lock_guard<std::mutex> lock(wall_mutex);
                wall_ms.record(seconds * 1e3);
            }
            progress.completed(cell_name, seconds, shortcut);
        }
    };

    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back([&worker, t] {
                setLogThreadName(strfmt("run-w{}", t));
                worker();
            });
        for (std::thread &thread : pool)
            thread.join();
    }

    stats_.executed = executed.load();
    stats_.cacheHits = cache_hits.load();
    stats_.journalSkips = journal_skips.load();
    stats_.failed = failed.load();
    cellWallMs_ = wall_ms;
    return outcomes;
}

} // namespace latte::runner
