/**
 * @file
 * The repository benchmark driver. It runs one named workload (a fixed
 * grid of simulator cells) through the in-process API (latte::run),
 * checks the outputs, and prints one JSON line of metrics:
 *
 *   latte_perfbench --workload csens-l1 --seed 0 --seconds 10 --trace 0
 *
 * --trace 0 prints the end-to-end host-time metrics of untraced runs.
 * --trace 1 prints the per-layer metrics: one untraced pass, then each
 * cell once more with a Tracer attached, whose event streams are
 * replayed into each layer's public functions (replay.cc) and timed.
 * --self-test runs the benchmark's own checks (exit status 0 when all pass).
 *
 * Exit status is 0 only when every output check passed; a failed check
 * names the cell on stderr and no result line is printed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hh"
#include "runner/json.hh"
#include "runner/result_cache.hh"
#include "sim/thread_pool.hh"

namespace latte::perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
stat(const WorkloadRunResult &result, const std::string &key)
{
    const auto it = result.stats.find(key);
    return it == result.stats.end() ? 0.0 : it->second;
}

double
sumStats(const WorkloadRunResult &result, const std::regex &path)
{
    double total = 0;
    for (const auto &[key, value] : result.stats) {
        if (std::regex_match(key, path))
            total += value;
    }
    return total;
}

std::string
cellName(const Cell &cell)
{
    return cell.workload->abbr + "/" + policyName(cell.policy);
}

namespace
{

/** Every metric this driver can print, with its unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"sim_mcycles_per_s", "Mcycles/s"},
    {"sim_minstr_per_s", "Minstr/s"},
    {"cell_p50_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.self_s", "s"},
    {"sim.warp_instructions", "count"},
    {"sim.lsu_accesses", "count"},
    {"sim.lsu_retries", "count"},
    {"sim.pool_epochs", "count"},
    {"sim.pool_barrier_wait_p50_ns", "ns"},
    {"sim.pool_barrier_wait_p99_ns", "ns"},
    {"workloads.fetch_s", "s"},
    {"workloads.fetches", "count"},
    {"workloads.lane_addrs", "count"},
    {"mem.image_line_s", "s"},
    {"mem.image_lines", "count"},
    {"mem.l2_access_s", "s"},
    {"mem.l2_accesses", "count"},
    {"mem.l2_hit_rate", "ratio"},
    {"mem.l2_evictions", "count"},
    {"mem.l2_decomp_queue_pos", "cycles"},
    {"mem.dram_access_s", "s"},
    {"mem.dram_accesses", "count"},
    {"mem.dram_queue_delay", "cycles"},
    {"mem.link_bytes_saved", "bytes"},
    {"mem.noc_transfer_s", "s"},
    {"mem.noc_packets", "count"},
    {"cache.l1_access_s", "s"},
    {"cache.l1_accesses", "count"},
    {"cache.l1_hit_rate", "ratio"},
    {"cache.l1_rejections", "count"},
    {"cache.l1_decomp_queue_pos", "cycles"},
    {"compress.probe_s.bdi", "s"},
    {"compress.probe_s.sc", "s"},
    {"compress.probe_s.bpc", "s"},
    {"compress.probe_lines", "count"},
    {"compress.insertion_ratio", "ratio"},
    {"compress.sc_generation_invalidations", "count"},
    {"compress.memo_hit_rate", "ratio"},
    {"core.observe_s", "s"},
    {"core.eps", "count"},
    {"core.mode_changes", "count"},
    {"core.sim_cycles", "cycles"},
    {"core.sim_instructions", "count"},
    {"core.energy_mj", "mJ"},
    {"core.latte_speedup", "ratio"},
    {"core.l2_speedup", "ratio"},
    {"core.result_digest", "hash"},
    {"runner.serialize_s", "s"},
    {"runner.idle_s", "s"},
    {"runner.fail_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.dropped", "count"},
};

const char *
unitOf(const std::string &name)
{
    for (const MetricDef &m : kEndToEnd)
        if (name == m.name)
            return m.unit;
    for (const MetricDef &m : kPerLayer)
        if (name == m.name)
            return m.unit;
    throw std::logic_error("metric without a unit: " + name);
}

// --- Workloads -----------------------------------------------------------

std::vector<const Workload *>
named(std::initializer_list<const char *> abbrs)
{
    std::vector<const Workload *> out;
    for (const char *abbr : abbrs) {
        const Workload *w = findWorkload(abbr);
        if (!w)
            throw std::runtime_error(std::string("no workload ") + abbr);
        out.push_back(w);
    }
    return out;
}

std::vector<Cell>
grid(const std::vector<const Workload *> &workloads,
     std::initializer_list<PolicyKind> policies)
{
    std::vector<Cell> cells;
    for (const Workload *w : workloads)
        for (const PolicyKind p : policies)
            cells.push_back({w, p});
    return cells;
}

/** Host cores, as the simulator's own "auto" thread count sees them. */
unsigned
hostCores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

WorkloadDef
makeWorkload(const std::string &name)
{
    WorkloadDef def;
    def.options.simThreads = "1";
    if (name == "csens-l1") {
        def.cells = grid(named({"PF", "SS", "MM", "KM", "VM", "BC", "CLR",
                                "FW", "PRK", "DJK", "MIS"}),
                         {PolicyKind::Baseline, PolicyKind::LatteCc});
        def.jobs = 2;
    } else if (name == "insens-l2") {
        def.cells = grid(workloadsByCategory(false),
                         {PolicyKind::Baseline, PolicyKind::L2StaticBdi,
                          PolicyKind::L2Latte});
        def.options.cfg.linkCompress = CompressorId::Bdi;
        def.jobs = 2;
    } else if (name == "gpu16-cell") {
        def.cells = grid(named({"PF", "SS", "KM", "DJK"}),
                         {PolicyKind::LatteCc});
        def.options.cfg.numSms = 16;
        def.options.simThreads = std::to_string(hostCores());
        def.jobs = 1;
    } else if (name == "tiny") {
        // Self-test only: one ~0.2 s cell through every stage.
        def.cells = grid(named({"NW"}), {PolicyKind::Baseline});
        def.jobs = 1;
    } else {
        throw std::runtime_error("unknown workload '" + name +
                                 "' (csens-l1, insens-l2, gpu16-cell)");
    }
    return def;
}

RunRequest
requestFor(const WorkloadDef &def, const Cell &cell, std::uint64_t seed)
{
    RunRequest request;
    request.workload = cell.workload;
    request.policy = cell.policy;
    request.options = def.options;
    // Apply the multi-level rows' config rewrite up front, so the
    // replay builds the same machine the run did (run() sees nothing
    // left to change and runs the request as given).
    if (cell.policy == PolicyKind::L2StaticBdi) {
        request.options.cfg.l2.compress = LevelCompress::Static;
        request.options.cfg.l2.staticAlgo = CompressorId::Bdi;
    } else if (cell.policy == PolicyKind::L2Latte) {
        request.options.cfg.l2.compress = LevelCompress::Latte;
    }
    request.seed = seed;
    return request;
}

void
forEachCell(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    std::vector<std::thread> threads;
    for (unsigned t = 1; t < jobs; ++t)
        threads.emplace_back(worker);
    worker();
    for (auto &thread : threads)
        thread.join();
}

GridRun
runGrid(const WorkloadDef &def, std::uint64_t seed)
{
    GridRun out;
    out.cells.resize(def.cells.size());
    const auto start = Clock::now();
    forEachCell(def.jobs, def.cells.size(), [&](std::size_t i) {
        const RunRequest request = requestFor(def, def.cells[i], seed);
        const auto cell_start = Clock::now();
        out.cells[i].outcome = run(request);
        out.cells[i].wallS = secondsSince(cell_start);
    });
    out.wallS = secondsSince(start);
    return out;
}

std::uint64_t
resultDigest(const WorkloadDef &def, const GridRun &run)
{
    std::string text;
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
        text += cellName(def.cells[i]);
        if (run.cells[i].outcome.result)
            text += runner::toJson(*run.cells[i].outcome.result).dump();
    }
    // 48 bits, so the digest is exact as a JSON number.
    return runner::fnv1a(text) & ((std::uint64_t{1} << 48) - 1);
}

std::vector<std::string>
checkGrid(const WorkloadDef &def, const GridRun &run)
{
    std::vector<std::string> errors;
    std::map<std::string, std::uint64_t> instructions;
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
        const std::string cell = cellName(def.cells[i]);
        const RunOutcome &outcome = run.cells[i].outcome;
        if (!outcome.ok() || !outcome.result) {
            errors.push_back(cell + ": status " +
                             runStatusName(outcome.status) + ": " +
                             to_string(outcome.error));
            continue;
        }
        const WorkloadRunResult &r = *outcome.result;
        for (std::uint32_t sm = 0; sm < def.options.cfg.numSms; ++sm) {
            const std::string l1 =
                "gpu.sm" + std::to_string(sm) + ".l1d" + std::to_string(sm);
            const double loads = stat(r, l1 + ".loads");
            const double rejections = stat(r, l1 + ".rejections");
            const double parts = stat(r, l1 + ".hits") +
                                 stat(r, l1 + ".misses") +
                                 stat(r, l1 + ".merged_misses") + rejections;
            if (loads != parts) {
                errors.push_back(strfmt(
                    "{}: sm{} l1d.loads {} != hits+misses+merged+rejections "
                    "{}", cell, sm, loads, parts));
            }
            // Stores are LSU accesses too, and are never refused.
            const double lsu =
                stat(r, "gpu.sm" + std::to_string(sm) + ".lsu.accesses");
            const double issued =
                loads + stat(r, l1 + ".stores") - rejections;
            if (lsu != issued) {
                errors.push_back(strfmt(
                    "{}: sm{} lsu.accesses {} != loads+stores-rejections {}",
                    cell, sm, lsu, issued));
            }
        }
        const double l2_requests =
            stat(r, "gpu.l2.reads") + stat(r, "gpu.l2.writes");
        const double l2_outcomes =
            stat(r, "gpu.l2.hits") + stat(r, "gpu.l2.misses");
        if (l2_requests != l2_outcomes) {
            errors.push_back(strfmt("{}: l2 reads+writes {} != hits+misses {}",
                                    cell, l2_requests, l2_outcomes));
        }
        const auto [it, fresh] =
            instructions.emplace(r.workload, r.instructions);
        if (!fresh && it->second != r.instructions) {
            errors.push_back(strfmt(
                "{}: {} instructions, other policies of {} ran {}", cell,
                r.instructions, r.workload, it->second));
        }
    }
    return errors;
}

namespace
{

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * Per-cell set-up time: each cell run to a one-cycle budget, so the
 * wall time is the zoo, config validation and GPU/cache/policy
 * construction, plus one simulated cycle and the result collection
 * and teardown of that short run.
 */
std::vector<double>
measureSetup(const WorkloadDef &def, std::uint64_t seed, int repeats,
             std::vector<std::string> &errors)
{
    std::vector<double> samples;
    for (int rep = 0; rep < repeats; ++rep) {
        for (const Cell &cell : def.cells) {
            RunRequest request = requestFor(def, cell, seed);
            request.control.cycleBudget = 1;
            const auto start = Clock::now();
            const RunOutcome outcome = run(request);
            samples.push_back(secondsSince(start));
            if (outcome.error.code != RunErrorCode::CycleBudgetExceeded) {
                errors.push_back(cellName(cell) +
                                 ": one-cycle set-up run ended with " +
                                 to_string(outcome.error));
            }
        }
    }
    return samples;
}

struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, double>> metrics;

    void
    add(const std::string &name, double value)
    {
        metrics.emplace_back(name, value);
    }

    std::string
    line() const
    {
        runner::Json::Object m;
        for (const auto &[name, value] : metrics) {
            runner::Json::Object entry;
            entry["value"] = value;
            entry["unit"] = unitOf(name);
            m[name] = runner::Json(std::move(entry));
        }
        // Built by hand: the counts must print as whole numbers. A
        // result is printed only when every check passed.
        return strfmt(R"({"correct": true, "attempted": {}, "failed": {}, )"
                      R"("metrics": {}})",
                      attempted, failed, runner::Json(std::move(m)).dump());
    }
};

void
countOutcomes(const GridRun &run, Result &result)
{
    for (const CellRun &cell : run.cells) {
        ++result.attempted;
        if (!cell.outcome.ok())
            ++result.failed;
    }
}

bool
report(const std::vector<std::string> &errors)
{
    for (const std::string &e : errors)
        std::cerr << "perfbench: check failed: " << e << "\n";
    return errors.empty();
}

double
geomeanSpeedup(const WorkloadDef &def, const GridRun &run, PolicyKind base,
               std::initializer_list<PolicyKind> others)
{
    std::map<std::string, double> base_cycles;
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
        if (def.cells[i].policy == base && run.cells[i].outcome.result)
            base_cycles[def.cells[i].workload->abbr] =
                static_cast<double>(run.cells[i].outcome.result->cycles);
    }
    double log_sum = 0;
    int n = 0;
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
        const auto &r = run.cells[i].outcome.result;
        if (!r || std::find(others.begin(), others.end(),
                            def.cells[i].policy) == others.end())
            continue;
        const auto it = base_cycles.find(r->workload);
        if (it == base_cycles.end() || r->cycles == 0)
            continue;
        log_sum += std::log(it->second / static_cast<double>(r->cycles));
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

/** Untraced passes: the end-to-end metrics. */
int
runEndToEnd(const WorkloadDef &def, std::uint64_t seed, double seconds)
{
    Result result;
    std::vector<std::string> errors;
    // One discarded round warms the allocator and the zoo, then at
    // least 120 set-up samples, whatever the grid size.
    (void)measureSetup(def, seed, 1, errors);
    const int setup_repeats =
        static_cast<int>((120 + def.cells.size() - 1) / def.cells.size());
    const std::vector<double> setup =
        measureSetup(def, seed, setup_repeats, errors);

    std::vector<double> walls, mcycles, minstr, cell_walls;
    std::uint64_t digest = 0;
    const auto start = Clock::now();
    do {
        const GridRun run = runGrid(def, seed);
        countOutcomes(run, result);
        auto cell_errors = checkGrid(def, run);
        errors.insert(errors.end(), cell_errors.begin(), cell_errors.end());
        const std::uint64_t d = resultDigest(def, run);
        if (!walls.empty() && d != digest)
            errors.push_back("core.result_digest differs between passes");
        digest = d;
        double cycles = 0, instrs = 0;
        for (const CellRun &cell : run.cells) {
            cell_walls.push_back(cell.wallS);
            if (cell.outcome.result) {
                cycles += static_cast<double>(cell.outcome.result->cycles);
                instrs +=
                    static_cast<double>(cell.outcome.result->instructions);
            }
        }
        walls.push_back(run.wallS);
        mcycles.push_back(cycles / run.wallS / 1e6);
        minstr.push_back(instrs / run.wallS / 1e6);
    } while (secondsSince(start) < seconds);

    if (!report(errors))
        return 1;
    result.add("wall_s", median(walls));
    result.add("setup_s", median(setup));
    result.add("sim_mcycles_per_s", median(mcycles));
    result.add("sim_minstr_per_s", median(minstr));
    result.add("cell_p50_s", median(cell_walls));
    result.add("peak_rss_mb", peakRssMb());
    std::cerr << strfmt("perfbench: {} passes of {} cells, {} cell samples, "
                        "{} set-up samples\n",
                        walls.size(), def.cells.size(), cell_walls.size(),
                        setup.size());
    std::cout << result.line() << std::endl;
    return 0;
}

/** Sum over every cell of a grid of the stats whose path matches @p key. */
double
sumStat(const GridRun &run, const std::string &key)
{
    const std::regex path(key);
    double total = 0;
    for (const CellRun &cell : run.cells) {
        if (cell.outcome.result)
            total += sumStats(*cell.outcome.result, path);
    }
    return total;
}

/**
 * Mean over every cell of the stats matched by @p value (group 1 = the
 * stat's group path), each weighted by that group's stat @p weight.
 */
double
weightedMean(const GridRun &run, const std::string &value,
             const std::string &weight)
{
    const std::regex re(value);
    double weighted = 0, total = 0;
    for (const CellRun &cell : run.cells) {
        if (!cell.outcome.result)
            continue;
        const auto &stats = cell.outcome.result->stats;
        for (const auto &[key, v] : stats) {
            std::smatch m;
            if (!std::regex_match(key, m, re))
                continue;
            const auto w = stats.find(m[1].str() + weight);
            if (w == stats.end())
                continue;
            weighted += v * w->second;
            total += w->second;
        }
    }
    return total > 0 ? weighted / total : 0.0;
}

/** One untraced pass, then a traced and replayed pass: per-layer metrics. */
int
runTraced(const WorkloadDef &def, std::uint64_t seed,
          const std::string &work_dir, const std::string &spans_out)
{
    Result result;
    // First in the process, so the pool aggregate covers this pass only.
    const GridRun base = runGrid(def, seed);
    const SimPoolStats pool = simPoolGlobalStats();
    countOutcomes(base, result);
    std::vector<std::string> errors = checkGrid(def, base);
    if (!report(errors))
        return 1;
    const std::uint64_t digest = resultDigest(def, base);

    // Each cell again with a tracer, replayed as soon as it finishes,
    // on the same closed loop of def.jobs workers as the untraced pass.
    SpanLog spans;
    LayerTotals layers;
    GridRun traced;
    traced.cells.resize(def.cells.size());
    std::filesystem::remove_all(work_dir + "/result_cache");
    const runner::ResultCache cache(work_dir + "/result_cache");
    std::mutex mutex; // guards layers, errors and max_fill
    double max_fill = 0;
    forEachCell(def.jobs, def.cells.size(), [&](std::size_t i) {
        const RunRequest request = requestFor(def, def.cells[i], seed);
        TracedCell cell = traceAndReplay(request, base.cells[i], cache,
                                         static_cast<int>(i), spans);
        traced.cells[i].outcome = std::move(cell.outcome);
        traced.cells[i].wallS = cell.wallS;
        const std::lock_guard<std::mutex> lock(mutex);
        max_fill = std::max(max_fill, cell.ringFill);
        layers.add(cell.layers);
        for (const std::string &e : cell.errors)
            errors.push_back(cellName(def.cells[i]) + ": " + e);
    });
    double base_cell_wall = 0, traced_cell_wall = 0;
    for (std::size_t i = 0; i < def.cells.size(); ++i) {
        base_cell_wall += base.cells[i].wallS;
        traced_cell_wall += traced.cells[i].wallS;
    }
    countOutcomes(traced, result);
    if (resultDigest(def, traced) != digest)
        errors.push_back("traced core.result_digest differs from untraced");
    if (layers.simSelfS < 0) {
        errors.push_back(strfmt("sim.self_s is negative ({} s): the "
                                "replays charge more than the cells ran",
                                layers.simSelfS));
    }
    spans.write(spans_out);
    if (!report(errors))
        return 1;

    double cycles = 0, instrs = 0, energy = 0;
    for (const CellRun &cell : base.cells) {
        const WorkloadRunResult &r = *cell.outcome.result;
        cycles += static_cast<double>(r.cycles);
        instrs += static_cast<double>(r.instructions);
        energy += r.energy.totalMj();
    }
    auto share = [](double part, double whole) {
        return whole > 0 ? part / whole : 0.0;
    };
    const std::string l1 = kL1Stats;
    const double l1_loads = sumStat(base, l1 + "loads");
    const double memo_hits = sumStat(base, l1 + "compress_memo\\.hits");
    const double memo_misses = sumStat(base, l1 + "compress_memo\\.misses");
    const double l2_accesses =
        sumStat(base, R"(gpu\.l2\.(reads|writes))");

    result.add("sim.self_s", layers.simSelfS);
    result.add("sim.warp_instructions", instrs);
    result.add("sim.lsu_accesses", sumStat(base, R"(gpu\.sm\d+\.lsu\.accesses)"));
    result.add("sim.lsu_retries", sumStat(base, R"(gpu\.sm\d+\.lsu\.retries)"));
    result.add("sim.pool_epochs", static_cast<double>(pool.epochs));
    result.add("sim.pool_barrier_wait_p50_ns",
               pool.barrierWaitNs.percentile(50));
    result.add("sim.pool_barrier_wait_p99_ns",
               pool.barrierWaitNs.percentile(99));
    result.add("workloads.fetch_s", layers.fetchS);
    result.add("workloads.fetches", layers.fetches);
    result.add("workloads.lane_addrs", layers.laneAddrs);
    result.add("mem.image_line_s", layers.imageLineS);
    result.add("mem.image_lines", layers.imageLines);
    result.add("mem.l2_access_s", layers.l2AccessS);
    result.add("mem.l2_accesses", l2_accesses);
    result.add("mem.l2_hit_rate",
               share(sumStat(base, R"(gpu\.l2\.hits)"), l2_accesses));
    result.add("mem.l2_evictions", layers.l2Evictions);
    result.add("mem.l2_decomp_queue_pos",
               weightedMean(base, R"((gpu\.l2\..*decomp_[a-z]+)\.queue_pos)",
                            ".requests"));
    result.add("mem.dram_access_s", layers.dramAccessS);
    result.add("mem.dram_accesses", sumStat(base, R"(gpu\.dram\.accesses)"));
    result.add("mem.dram_queue_delay",
               weightedMean(base, R"((gpu\.dram)\.queue_delay)",
                            ".accesses"));
    result.add("mem.link_bytes_saved",
               sumStat(base, R"(gpu\.l2\.link\.bytes_saved)"));
    result.add("mem.noc_transfer_s", layers.nocTransferS);
    result.add("mem.noc_packets", sumStat(base, R"(gpu\.noc\.packets)"));
    result.add("cache.l1_access_s", layers.l1AccessS);
    result.add("cache.l1_accesses",
               l1_loads + sumStat(base, l1 + "stores"));
    result.add("cache.l1_hit_rate",
               share(sumStat(base, l1 + "hits"), l1_loads));
    result.add("cache.l1_rejections", sumStat(base, l1 + "rejections"));
    result.add("cache.l1_decomp_queue_pos",
               weightedMean(
                   base, R"((gpu\.sm\d+\.l1d\d+\.decomp_[a-z]+)\.queue_pos)",
                   ".requests"));
    result.add("compress.probe_s.bdi", layers.probeS[0]);
    result.add("compress.probe_s.sc", layers.probeS[1]);
    result.add("compress.probe_s.bpc", layers.probeS[2]);
    result.add("compress.probe_lines", layers.probeLines);
    result.add("compress.insertion_ratio",
               share(layers.insertionRatioSum, layers.insertions));
    result.add("compress.sc_generation_invalidations",
               sumStat(base, l1 + "sc_generation_invalidations"));
    result.add("compress.memo_hit_rate",
               share(memo_hits, memo_hits + memo_misses));
    result.add("core.observe_s", layers.observeS);
    result.add("core.eps", layers.eps);
    result.add("core.mode_changes", layers.modeChanges);
    result.add("core.sim_cycles", cycles);
    result.add("core.sim_instructions", instrs);
    result.add("core.energy_mj", energy);
    const double latte_speedup = geomeanSpeedup(
        def, base, PolicyKind::Baseline, {PolicyKind::LatteCc});
    result.add("core.latte_speedup", latte_speedup);
    result.add("core.l2_speedup",
               geomeanSpeedup(def, base, PolicyKind::Baseline,
                              {PolicyKind::L2StaticBdi,
                               PolicyKind::L2Latte}));
    result.add("core.result_digest", static_cast<double>(digest));
    result.add("runner.serialize_s", layers.serializeS);
    result.add("runner.idle_s",
               std::max(0.0, def.jobs * base.wallS - base_cell_wall));
    result.add("runner.fail_frac",
               share(static_cast<double>(result.failed),
                     static_cast<double>(result.attempted)));
    result.add("trace.overhead_frac", traced_cell_wall / base_cell_wall - 1);
    result.add("trace.dropped", static_cast<double>(layers.dropped));
    std::cerr << strfmt("perfbench: fullest trace ring {}% of capacity\n",
                        100 * max_fill);
    if (latte_speedup > 0) {
        std::cerr << strfmt("perfbench: core.latte_speedup {} (paper C-Sens "
                            "average: LATTE-CC 1.192, Static-BDI 1.137; "
                            "model unvalidated against hardware)\n",
                            latte_speedup);
    }
    std::cout << result.line() << std::endl;
    return 0;
}

// --- Self-test -----------------------------------------------------------

int
selfTest(const std::string &work_dir)
{
    std::vector<std::string> errors;
    const std::regex name_re("[A-Za-z0-9_.-]+");
    for (const auto &group : {std::span<const MetricDef>(kEndToEnd),
                              std::span<const MetricDef>(kPerLayer)}) {
        for (const MetricDef &m : group) {
            if (!std::regex_match(m.name, name_re) || !*m.unit)
                errors.push_back(strfmt("bad metric name or unit: {}",
                                        m.name));
        }
    }

    // gpu16-cell digest must not depend on the intra-cell thread count.
    WorkloadDef gpu16 = makeWorkload("gpu16-cell");
    const std::uint64_t threaded = resultDigest(gpu16, runGrid(gpu16, 0));
    gpu16.options.simThreads = "1";
    const std::uint64_t serial = resultDigest(gpu16, runGrid(gpu16, 0));
    if (threaded != serial) {
        errors.push_back(strfmt("gpu16-cell digest {} at {} threads != {} at "
                                "1 thread", threaded, hostCores(), serial));
    }

    // A tiny cell through measure -> replay -> check.
    const WorkloadDef tiny = makeWorkload("tiny");
    if (runEndToEnd(tiny, 0, 0) != 0)
        errors.push_back("tiny: end-to-end path failed");
    if (runTraced(tiny, 0, work_dir, work_dir + "/self_test_spans.json") != 0)
        errors.push_back("tiny: traced path failed");

    if (!report(errors))
        return 1;
    std::cerr << "perfbench: self-test passed\n";
    return 0;
}

} // namespace

} // namespace latte::perfbench

int
main(int argc, char **argv)
{
    using namespace latte::perfbench;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 20;
    int trace = 0;
    bool self_test = false;
    std::string work_dir = ".bench_build/perfbench/work";
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::runtime_error(arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--workload")
                workload = value();
            else if (arg == "--seed")
                seed = std::stoull(value());
            else if (arg == "--seconds")
                seconds = std::stod(value());
            else if (arg == "--trace")
                trace = std::stoi(value());
            else if (arg == "--work-dir")
                work_dir = value();
            else if (arg == "--self-test")
                self_test = true;
            else
                throw std::runtime_error("unknown argument " + arg);
        }
        if (self_test)
            return selfTest(work_dir);
        if (workload.empty())
            throw std::runtime_error("--workload is required");
        if (trace != 0 && trace != 1)
            throw std::runtime_error("--trace takes 0 or 1");
        const WorkloadDef def = makeWorkload(workload);
        return trace ? runTraced(def, seed, work_dir,
                                 work_dir + "/spans-" + workload + ".json")
                     : runEndToEnd(def, seed, seconds);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
