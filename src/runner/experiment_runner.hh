/**
 * @file
 * ExperimentRunner: executes a declarative sweep — a vector of
 * RunRequest cells — across a fixed-size thread pool.
 *
 * Determinism: outcomes are returned in request order, each cell is a
 * pure function of its RunRequest (the simulator has no global mutable
 * state and every stochastic stream is seeded from the request), and
 * the worker threads only race on *which* index they pull next — so
 * the output is bit-identical for any thread count and any completion
 * order.
 *
 * With a cache directory set, each cell is first looked up in the
 * on-disk ResultCache and only simulated on a miss; fresh Ok results
 * are persisted for the next invocation.
 *
 * Resilience (see resilience.hh): a journal path makes finished cells
 * — ok or failed — skippable on resume, and a cycle budget bounds each
 * cell in simulated time. Each cell runs once: it is deterministic, so
 * a failure would repeat. No cell can take the sweep down: every
 * failure is a RunOutcome, not an exception or exit.
 */

#ifndef LATTE_RUNNER_EXPERIMENT_RUNNER_HH
#define LATTE_RUNNER_EXPERIMENT_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "metrics/latency_histogram.hh"

namespace latte::runner
{

struct RunnerOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;
    /** On-disk result cache directory; empty = no persistent cache. */
    std::string cacheDir;
    /** Progress/ETA lines on stderr. */
    bool progress = true;

    // --- Resilience ----------------------------------------------------
    /** Sweep journal path; empty = no checkpoint/resume. */
    std::string journalPath;
    /** Per-cell simulated-cycle budget; 0 = unlimited. Applied only to
     *  cells that don't set their own RunControl::cycleBudget. */
    std::uint64_t cellCycleBudget = 0;
};

class ExperimentRunner
{
  public:
    /** Per-runAll execution counters. */
    struct Stats
    {
        std::size_t executed = 0;     //!< cells actually simulated
        std::size_t cacheHits = 0;    //!< cells served from disk
        std::size_t journalSkips = 0; //!< cells resumed from journal
        std::size_t failed = 0;       //!< cells with a non-Ok outcome
    };

    explicit ExperimentRunner(RunnerOptions options = {});

    /**
     * Execute every request; outcomes[i] corresponds to requests[i].
     * Blocks until the whole sweep is done. Never throws for a cell
     * failure — inspect each RunOutcome.
     */
    std::vector<RunOutcome>
    runAll(const std::vector<RunRequest> &requests);

    /** Counters from the most recent runAll(). */
    const Stats &stats() const { return stats_; }

    /**
     * Wall-time distribution (milliseconds) of every cell completed by
     * the most recent runAll(), shortcut cells included. Observational
     * only — never part of results or RunKeys.
     */
    const metrics::LatencyHistogram &cellWallMs() const
    {
        return cellWallMs_;
    }

    /** The worker count a sweep of @p cells would actually use. */
    unsigned effectiveThreads(std::size_t cells) const;

    const RunnerOptions &options() const { return options_; }

  private:
    RunnerOptions options_;
    Stats stats_;
    metrics::LatencyHistogram cellWallMs_;
};

} // namespace latte::runner

#endif // LATTE_RUNNER_EXPERIMENT_RUNNER_HH
