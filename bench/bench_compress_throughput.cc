/**
 * @file
 * Throughput gate for the compression hot path: lines/second of the
 * size-only probe() vs the full compress() (and decompressInto()) for
 * all five algorithms, over the same mixed value corpus the workloads
 * synthesise. Emits canonical JSON (BENCH_compress.json by default) so
 * CI can keep the per-algorithm rates as an artifact; the acceptance
 * bar is probe >= 2x compress on at least three of the five algorithms.
 *
 *   bench_compress_throughput [--json out.json] [--lines N] [--reps R]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "compress/factory.hh"
#include "compress/sc.hh"
#include "runner/json.hh"
#include "workloads/value_gens.hh"

using namespace latte;
using namespace latte::runner;

namespace
{

using Line = std::array<std::uint8_t, kLineBytes>;
using Clock = std::chrono::steady_clock;

/** The blend of value profiles the workloads use (as in Table I). */
std::vector<Line>
corpus(std::uint64_t seed, unsigned n)
{
    std::vector<std::shared_ptr<LineGenerator>> gens = {
        std::make_shared<IntArrayGen>(seed, 1000, 3, 5),
        std::make_shared<IntArrayGen>(seed ^ 1, 5, 50000, 0),
        std::make_shared<PaletteGen>(seed ^ 2, 64, true, 1.2, 0.15),
        std::make_shared<PointerArrayGen>(seed ^ 3, 0x7f0000000000ull,
                                          1 << 20),
        std::make_shared<ZeroGen>(),
        std::make_shared<FloatNoiseGen>(seed ^ 4, 1.0f, 0.8f),
    };
    std::vector<Line> lines(n);
    for (unsigned i = 0; i < n; ++i)
        gens[i % gens.size()]->generate(i * 128, lines[i]);
    return lines;
}

std::unique_ptr<Compressor>
trainedEngine(CompressorId id, const std::vector<Line> &lines)
{
    auto engine = makeCompressor(id);
    if (id == CompressorId::Sc) {
        auto *sc = static_cast<ScCompressor *>(engine.get());
        for (const auto &line : lines)
            sc->trainLine(line);
        sc->rebuildCodes();
    }
    return engine;
}

/**
 * Run @p op over the corpus @p reps times and return the best
 * lines/second (best-of-reps damps scheduler noise on shared machines).
 * @p op must return a value that depends on its work so the compiler
 * cannot elide the loop; the checksum is folded into @p sink.
 */
template <typename Op>
double
measure(const std::vector<Line> &lines, unsigned reps, std::uint64_t &sink,
        Op &&op)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        std::uint64_t checksum = 0;
        for (const auto &line : lines)
            checksum += op(line);
        const auto stop = Clock::now();
        sink ^= checksum;
        const double seconds =
            std::chrono::duration<double>(stop - start).count();
        if (seconds > 0)
            best = std::max(best,
                            static_cast<double>(lines.size()) / seconds);
    }
    return best;
}

struct AlgoResult
{
    std::string name;
    double probeLinesPerSec = 0;
    double compressLinesPerSec = 0;
    double decompressLinesPerSec = 0;
    double probeSpeedup = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_compress.json";
    unsigned n_lines = 4096;
    unsigned reps = 5;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--lines" && i + 1 < argc) {
            n_lines = static_cast<unsigned>(std::stoul(argv[++i]));
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = static_cast<unsigned>(std::stoul(argv[++i]));
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--json out.json] [--lines N] [--reps R]\n";
            return 2;
        }
    }

    const auto lines = corpus(7, n_lines);
    std::uint64_t sink = 0;
    std::vector<AlgoResult> results;
    unsigned fast_probes = 0;

    for (const CompressorId id : allCompressorIds()) {
        const auto engine = trainedEngine(id, lines);
        AlgoResult res;
        res.name = engine->name();

        res.probeLinesPerSec = measure(
            lines, reps, sink,
            [&](const Line &line) { return engine->probe(line).sizeBits; });
        res.compressLinesPerSec = measure(
            lines, reps, sink, [&](const Line &line) {
                return engine->compress(line).sizeBits;
            });

        std::vector<CompressedLine> compressed;
        compressed.reserve(lines.size());
        for (const auto &line : lines)
            compressed.push_back(engine->compress(line));
        std::size_t i = 0;
        Line scratch;
        res.decompressLinesPerSec = measure(
            lines, reps, sink, [&](const Line &) {
                engine->decompressInto(compressed[i++ % compressed.size()],
                                       scratch);
                return static_cast<std::uint64_t>(scratch[0]);
            });

        res.probeSpeedup = res.compressLinesPerSec > 0
                               ? res.probeLinesPerSec /
                                     res.compressLinesPerSec
                               : 0;
        if (res.probeSpeedup >= 2.0)
            ++fast_probes;
        results.push_back(res);
    }

    std::cout << "=== compression hot-path throughput (" << n_lines
              << " lines, best of " << reps << ") ===\n";
    std::cout << std::left << std::setw(10) << "algo" << std::right
              << std::setw(16) << "probe (l/s)" << std::setw(16)
              << "compress (l/s)" << std::setw(16) << "decomp (l/s)"
              << std::setw(12) << "probe/comp" << "\n";
    for (const auto &res : results) {
        std::cout << std::left << std::setw(10) << res.name << std::right
                  << std::fixed << std::setprecision(0) << std::setw(16)
                  << res.probeLinesPerSec << std::setw(16)
                  << res.compressLinesPerSec << std::setw(16)
                  << res.decompressLinesPerSec << std::setprecision(2)
                  << std::setw(12) << res.probeSpeedup << "\n";
    }

    std::cout << fast_probes
              << "/5 algorithms with probe >= 2x compress (gate: >= 3)\n"
              << "(checksum " << sink << ")\n";

    Json::Object algos;
    for (const auto &res : results) {
        algos.emplace(
            res.name,
            Json(Json::Object{
                {"probeLinesPerSec", Json(res.probeLinesPerSec)},
                {"compressLinesPerSec", Json(res.compressLinesPerSec)},
                {"decompressLinesPerSec", Json(res.decompressLinesPerSec)},
                {"probeSpeedup", Json(res.probeSpeedup)},
            }));
    }
    const Json doc(Json::Object{
        {"benchmark", Json(std::string("compress_throughput"))},
        {"lineBytes", Json(std::uint64_t{kLineBytes})},
        {"lines", Json(std::uint64_t{n_lines})},
        {"reps", Json(std::uint64_t{reps})},
        {"probeAtLeast2xCount", Json(std::uint64_t{fast_probes})},
        {"algorithms", Json(std::move(algos))},
    });

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    out << doc.dump() << "\n";
    std::cout << "wrote " << json_path << "\n";
    return 0;
}
