/**
 * @file
 * Shared declarations of the benchmark driver: the workload grids, the
 * closed-loop cell runner and output checks (perfbench.cc), and the
 * traced run whose per-layer replay lives in replay.cc.
 */

#ifndef LATTE_PERFBENCH_PERFBENCH_HH
#define LATTE_PERFBENCH_PERFBENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <regex>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "runner/result_cache.hh"
#include "trace/tracer.hh"

namespace latte::perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);
double median(std::vector<double> values);

/** A stat of @p result by its flattened path; 0 when absent. */
double stat(const WorkloadRunResult &result, const std::string &key);

/** Sum of the stats of @p result whose paths match @p path. */
double sumStats(const WorkloadRunResult &result, const std::regex &path);

/** Stat path prefix of every SM's L1 data cache, as a regex. */
inline constexpr const char *kL1Stats = R"(gpu\.sm\d+\.l1d\d+\.)";

/** One simulator cell of a workload grid. */
struct Cell
{
    const Workload *workload = nullptr;
    PolicyKind policy = PolicyKind::Baseline;
};

std::string cellName(const Cell &cell);

/** A benchmark workload: a fixed grid run by `jobs` workers. */
struct WorkloadDef
{
    std::vector<Cell> cells;
    DriverOptions options;
    unsigned jobs = 1;
};

/** The grid of @p name; throws on an unknown name. */
WorkloadDef makeWorkload(const std::string &name);

/** The request of one cell, its seed being the benchmark's seed. */
RunRequest requestFor(const WorkloadDef &def, const Cell &cell,
                      std::uint64_t seed);

struct CellRun
{
    RunOutcome outcome;
    double wallS = 0;
};

struct GridRun
{
    std::vector<CellRun> cells; //!< in grid order
    double wallS = 0;
};

/**
 * Call fn(i) for every i < n on @p jobs workers, closed loop: a worker
 * takes the next index only when its previous call has returned.
 */
void forEachCell(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/** Run every cell of the grid, closed loop, on def.jobs workers. */
GridRun runGrid(const WorkloadDef &def, std::uint64_t seed);

/** 48-bit digest of every cell's result JSON, in grid order. */
std::uint64_t resultDigest(const WorkloadDef &def, const GridRun &run);

/** The output checks; each failure names its cell. */
std::vector<std::string> checkGrid(const WorkloadDef &def,
                                   const GridRun &run);

/** Spans of the traced run, kept in memory and written at the end. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Record one finished span; returns its id. */
    int add(const std::string &name, int parent, int cell,
            Clock::time_point start, Clock::time_point end);

    /** Write every span as a JSON array to @p path. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        int parent;
        int cell;
        double startS;
        double endS;
    };
    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<Span> spans_; //!< guarded by mutex_
};

/** Per-layer host seconds and counts, summed over replayed cells. */
struct LayerTotals
{
    double fetchS = 0, fetches = 0, laneAddrs = 0;
    double imageLineS = 0, imageLines = 0;
    double l2AccessS = 0, l2Evictions = 0;
    double dramAccessS = 0, nocTransferS = 0;
    double l1AccessS = 0;
    std::array<double, 3> probeS{}; //!< bdi, sc, bpc
    double probeLines = 0;
    double insertionRatioSum = 0, insertions = 0;
    double observeS = 0, eps = 0, modeChanges = 0;
    double serializeS = 0;
    double simSelfS = 0;
    std::uint64_t dropped = 0;

    void add(const LayerTotals &other);
};

/** One cell run again with a Tracer attached, then replayed. */
struct TracedCell
{
    RunOutcome outcome;
    double wallS = 0;          //!< the traced run's wall time
    double ringFill = 0;       //!< events recorded / ring capacity
    LayerTotals layers;
    std::vector<std::string> errors;
};

/**
 * Run @p request again with a Tracer sized from @p untraced's counts so
 * it drops nothing, replay the recorded streams into each layer's
 * public functions, timing each as a span, and return the layers' self
 * times. Thread-safe: cells of one grid are replayed concurrently.
 */
TracedCell traceAndReplay(const RunRequest &request, const CellRun &untraced,
                          const runner::ResultCache &cache, int cell_id,
                          SpanLog &spans);

} // namespace latte::perfbench

#endif // LATTE_PERFBENCH_PERFBENCH_HH
