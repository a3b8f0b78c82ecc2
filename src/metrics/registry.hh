/**
 * @file
 * MetricRegistry: the in-memory time-series store behind --metrics-out.
 *
 * A registry is attached to one run: the driver points it at the Gpu's
 * StatGroup tree and registers gauges (decompression-queue depth, MSHR
 * occupancy, DRAM backlog, per-mode residency, sampler vote margin...).
 * The Gpu then calls sample() every `interval` simulated cycles, which
 * appends one row — the current value() of every stat in the tree plus
 * every gauge — to the series. The hot caches and the DRAM model also
 * feed free-standing LatencyHistograms (hit/miss latency, queue waits)
 * owned by the registry.
 *
 * Sampling is read-only over simulator state, so attaching a registry
 * never changes results (pinned by the bit-identity golden test). It
 * is therefore, like the tracer, observational: NOT part of the result
 * cache key, and a run that carries one bypasses the disk cache.
 *
 * Performance: the stat tree is walked once, on the first sample, to
 * resolve a flat vector of StatBase pointers; every later sample is a
 * pointer-chase loop with no string work, keeping the overhead at the
 * default interval well under the 5% budget.
 *
 * Exports: Prometheus text (final snapshot, histogram buckets in the
 * cumulative `le` form), CSV (the raw time series), and JSONL (schema
 * line + one line per sample + one line per histogram). The format is
 * inferred from the --metrics-out extension: .prom, .csv, else JSONL.
 */

#ifndef LATTE_METRICS_REGISTRY_HH
#define LATTE_METRICS_REGISTRY_HH

#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "latency_histogram.hh"

namespace latte
{
class StatGroup;
class StatBase;
} // namespace latte

namespace latte::metrics
{

/** Export flavour behind --metrics-out. */
enum class ExportFormat
{
    Jsonl,
    Csv,
    Prometheus,
};

/** Format for @p path by extension: .prom / .csv / anything-else. */
ExportFormat exportFormatForPath(const std::string &path);

/** Label set attached to exported metrics, in emission order. */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class MetricRegistry
{
  public:
    /** ~100 rows on a 10M-cycle run; cheap and detailed enough. */
    static constexpr Cycles kDefaultInterval = 100'000;

    explicit MetricRegistry(Cycles interval = 0)
        : interval_(interval ? interval : kDefaultInterval),
          nextSampleAt_(interval_)
    {}

    Cycles interval() const { return interval_; }

    // --- Wiring (driver-side) -----------------------------------------

    /** Sample @p root's stats from now on (resolved on first sample). */
    void attachStats(const StatGroup *root);

    /**
     * Register (or replace, by name) a gauge evaluated at each sample.
     * Gauges run inside the simulation, so the callable may read any
     * live simulator state — but must not mutate it.
     */
    void addGauge(const std::string &name,
                  std::function<double(Cycles)> fn);

    /** Create-or-get a named histogram; the reference stays valid. */
    LatencyHistogram &histogram(const std::string &name);

    /**
     * Drop stat and gauge bindings (the sampled data stays). Called by
     * the driver when the run ends, because gauges capture pointers
     * into the Gpu that is about to be destroyed. A later attach +
     * addGauge cycle (Kernel-OPT legs) must produce the same series.
     */
    void detach();

    // --- Sampling (simulator-side) ------------------------------------

    bool due(Cycles now) const { return now >= nextSampleAt_; }

    /** Append one row and schedule the next sample. */
    void sample(Cycles now);

    /** Sample unless a row already exists for @p now (run end). */
    void finalSample(Cycles now);

    // --- Reading ------------------------------------------------------

    struct Row
    {
        Cycles cycle = 0;
        std::vector<double> values; //!< aligned with seriesNames()
    };

    /** Stat paths (dotted) followed by gauge names, in column order. */
    std::vector<std::string> seriesNames() const;

    const std::vector<Row> &rows() const { return rows_; }

    /** Value of @p series in the newest row; nullopt if unknown. */
    std::optional<double> lastValue(const std::string &series) const;

    const std::map<std::string, LatencyHistogram> &histograms() const
    {
        return histograms_;
    }

    // --- Exports ------------------------------------------------------

    using Labels = MetricLabels;

    void exportPrometheus(std::ostream &os,
                          const Labels &labels = {}) const;
    void exportCsv(std::ostream &os, const Labels &labels = {}) const;
    void exportJsonl(std::ostream &os, const Labels &labels = {}) const;
    void exportAs(std::ostream &os, ExportFormat format,
                  const Labels &labels = {}) const;

  private:
    struct Gauge
    {
        std::string name;
        std::function<double(Cycles)> fn;
    };

    /** Walk root_ once, caching stat pointers and column names. */
    void resolveSeries();

    Cycles interval_;
    Cycles nextSampleAt_;
    const StatGroup *root_ = nullptr;
    bool resolved_ = false;
    std::vector<const StatBase *> statSeries_;
    std::vector<std::string> statNames_;
    std::vector<Gauge> gauges_;
    std::vector<Row> rows_;
    /** std::map: stable addresses for the cached hot-path pointers. */
    std::map<std::string, LatencyHistogram> histograms_;
};

} // namespace latte::metrics

#endif // LATTE_METRICS_REGISTRY_HH
