#include "zoo.hh"

#include "common/logging.hh"
#include "value_gens.hh"

namespace latte
{

namespace
{

constexpr Addr kBase = 0x10000000;
constexpr std::uint64_t kRegion = 32ull << 20;
constexpr std::uint64_t kKiB = 1024;

// ---- Pattern builders -------------------------------------------------

Pattern
hotPat(std::uint64_t slice, std::uint64_t hot, double frac)
{
    Pattern p;
    p.kind = PatternKind::HotReuse;
    p.base = kBase;
    p.sizeBytes = kRegion;
    p.sliceBytes = slice;
    p.hotBytes = hot;
    p.hotFraction = frac;
    return p;
}

Pattern
irregPat(std::uint64_t slice, std::uint64_t hot, double frac,
         std::uint32_t divergent)
{
    Pattern p = hotPat(slice, hot, frac);
    p.kind = PatternKind::Irregular;
    p.divergentLanes = divergent;
    return p;
}

Pattern
streamPat(std::uint64_t span)
{
    Pattern p;
    p.kind = PatternKind::Streaming;
    p.base = kBase;
    p.sizeBytes = span;
    p.elemBytes = 4;
    return p;
}

Pattern
tiledPat(std::uint64_t slice)
{
    Pattern p;
    p.kind = PatternKind::Tiled;
    p.base = kBase;
    p.sizeBytes = kRegion;
    p.sliceBytes = slice;
    return p;
}

PhaseSpec
phase(std::uint32_t iters, std::uint32_t loads, std::uint32_t alus,
      Cycles alu_lat, std::uint32_t stores, Pattern pattern)
{
    PhaseSpec ph;
    ph.iterations = iters;
    ph.loadsPerIter = loads;
    ph.aluPerIter = alus;
    ph.aluLatency = alu_lat;
    ph.storesPerIter = stores;
    ph.pattern = pattern;
    return ph;
}

KernelSpec
kernel(std::string name, std::uint32_t ctas, std::uint32_t wpc,
       std::uint64_t seed, std::vector<PhaseSpec> phases)
{
    KernelSpec spec;
    spec.name = std::move(name);
    spec.ctas = ctas;
    spec.warpsPerCta = wpc;
    spec.seed = seed;
    spec.phases = std::move(phases);
    return spec;
}

// ---- Value-profile builders -------------------------------------------

/** Small-delta integers: BDI-friendly (and BPC-friendly). */
std::function<void(MemoryImage &)>
intData(std::uint64_t seed, std::uint32_t scale, std::uint32_t noise)
{
    return [=](MemoryImage &mem) {
        mem.addRegion(kBase, kRegion,
                      std::make_shared<IntArrayGen>(seed, 1000, scale,
                                                    noise));
    };
}

/**
 * Mostly large-stride ramps with a small-delta component: BPC achieves
 * the best ratio, BDI/SC a moderate one — the CLR/MIS profile of
 * Figure 2 ("show affinity to BPC" but still compressible elsewhere).
 */
std::function<void(MemoryImage &)>
rampMixData(std::uint64_t seed, std::uint32_t scale)
{
    return [=](MemoryImage &mem) {
        auto ramp =
            std::make_shared<IntArrayGen>(seed, 12345, scale, 0);
        auto small = std::make_shared<IntArrayGen>(seed ^ 0x9d, 77, 2, 5);
        mem.addRegion(kBase, kRegion,
                      std::make_shared<MixGen>(seed ^ 0x31, ramp, small,
                                               0.55));
    };
}

/** Repeated (quantised) float values: SC-friendly, BDI-resistant. */
std::function<void(MemoryImage &)>
paletteData(std::uint64_t seed, std::uint32_t palette,
            double noise = 0.18)
{
    return [=](MemoryImage &mem) {
        mem.addRegion(kBase, kRegion,
                      std::make_shared<PaletteGen>(seed, palette, true,
                                                   1.2, noise));
    };
}

/** High-entropy floats: nearly incompressible. */
std::function<void(MemoryImage &)>
floatData(std::uint64_t seed, float mean, float noise)
{
    return [=](MemoryImage &mem) {
        mem.addRegion(kBase, kRegion,
                      std::make_shared<FloatNoiseGen>(seed, mean, noise));
    };
}

/**
 * Integer + palette blend: strong spatial locality (BDI) with a modest
 * temporal component, so SC achieves a small ratio — it pays its
 * latency without a matching capacity benefit (the BC/FW/DJK profile).
 */
std::function<void(MemoryImage &)>
graphData(std::uint64_t seed, double int_fraction)
{
    return [=](MemoryImage &mem) {
        auto ints =
            std::make_shared<IntArrayGen>(seed, 4096, 3, 6);
        auto pal = std::make_shared<PaletteGen>(seed ^ 0xa5, 48, false,
                                                1.2, 0.25);
        mem.addRegion(kBase, kRegion,
                      std::make_shared<MixGen>(seed ^ 0x11, ints, pal,
                                               int_fraction));
    };
}

/** Pointer-rich node records: BDI 8-byte-base friendly. */
std::function<void(MemoryImage &)>
pointerData(std::uint64_t seed)
{
    return [=](MemoryImage &mem) {
        auto ptrs = std::make_shared<PointerArrayGen>(
            seed, 0x7f0000000000ull, 1ull << 20);
        auto ints = std::make_shared<IntArrayGen>(seed ^ 0x3, 7, 2, 4);
        mem.addRegion(kBase, kRegion,
                      std::make_shared<MixGen>(seed ^ 0x29, ptrs, ints,
                                               0.6));
    };
}

/** Zero-dominated text processing buffers. */
std::function<void(MemoryImage &)>
zeroHeavyData(std::uint64_t seed)
{
    return [=](MemoryImage &mem) {
        auto zeros = std::make_shared<ZeroGen>();
        auto ints = std::make_shared<IntArrayGen>(seed, 32, 1, 200);
        mem.addRegion(kBase, kRegion,
                      std::make_shared<MixGen>(seed ^ 0x55, zeros, ints,
                                               0.55));
    };
}

std::vector<Workload>
buildZoo()
{
    std::vector<Workload> zoo;
    auto add = [&zoo](Workload w) { zoo.push_back(std::move(w)); };

    // ================= Cache-insensitive workloads =================

    add({"BO", "Binomial Options", "NVIDIA SDK", false, 101,
         floatData(101, 50.0f, 0.8f),
         {kernel("bo_price", 60, 8, 101,
                 {phase(180, 1, 10, 3, 1, streamPat(2 << 20))})}});

    add({"PTH", "Path Finder", "Rodinia", false, 102,
         intData(102, 2, 5),
         {kernel("pth_dynproc", 100, 6, 102,
                 {phase(200, 2, 3, 3, 1, streamPat(8 << 20))})}});

    add({"HOT", "Hotspot", "Rodinia", false, 103,
         floatData(103, 340.0f, 0.2f),
         {kernel("hot_stencil", 96, 6, 103,
                 {phase(240, 2, 4, 4, 1, tiledPat(1536))})}});

    add({"FWT", "Fast Walsh Transform", "NVIDIA SDK", false, 104,
         floatData(104, 1.0f, 1.5f),
         {kernel("fwt_pass", 80, 8, 104,
                 {phase(150, 2, 4, 3, 1, streamPat(4 << 20))})}});

    add({"BP", "Back Propagation", "Rodinia", false, 105,
         floatData(105, 0.5f, 1.0f),
         {kernel("bp_forward", 90, 8, 105,
                 {phase(140, 2, 5, 3, 1, hotPat(1536, 512, 0.5))}),
          kernel("bp_adjust", 90, 8, 1105,
                 {phase(110, 2, 4, 3, 1, streamPat(4 << 20))})}});

    add({"NW", "Needleman-Wunsch", "Rodinia", false, 106,
         intData(106, 3, 8),
         {kernel("nw_wavefront", 40, 2, 106,
                 {phase(400, 2, 3, 6, 1, tiledPat(2048))})}});

    add({"SR1", "SRAD1", "Rodinia", false, 107,
         floatData(107, 0.1f, 1.2f),
         {kernel("srad_main", 90, 8, 107,
                 {phase(150, 2, 6, 3, 1, streamPat(8 << 20))})}});

    add({"HW", "Heartwall", "Rodinia", false, 108,
         floatData(108, 128.0f, 0.6f),
         {kernel("hw_track", 45, 3, 108,
                 {phase(1000, 3, 3, 5, 0, tiledPat(1792))})}});

    add({"STC", "Streamcluster", "Rodinia", false, 109,
         paletteData(109, 96),
         {kernel("stc_gain", 60, 4, 109,
                 {phase(900, 2, 4, 5, 0, hotPat(1280, 512, 0.75))})}});

    add({"BT", "B+Tree", "Rodinia", false, 110,
         pointerData(110),
         {kernel("bt_findk", 80, 6, 110,
                 {phase(450, 2, 3, 3, 0,
                        irregPat(2048, 1024, 0.75, 8))})}});

    add({"WC", "Word Count", "Mars", false, 111,
         zeroHeavyData(111),
         {kernel("wc_map", 80, 8, 111,
                 {phase(150, 2, 3, 3, 1, streamPat(8 << 20))})}});

    add({"BFS", "Breadth First Search", "Rodinia", false, 112,
         graphData(112, 0.6),
         {kernel("bfs_frontier", 100, 8, 112,
                 {phase(40, 2, 2, 3, 1,
                        irregPat(64 * kKiB, 32 * kKiB, 0.3, 8))})}});

    // ================= Cache-sensitive workloads =================

    add({"PF", "Particle Filter", "Rodinia", true, 201,
         intData(201, 2, 3),
         {kernel("pf_likelihood", 90, 6, 201,
                 {phase(400, 2, 3, 2, 0,
                        hotPat(12 * kKiB, 4 * kKiB, 0.85)),
                  phase(300, 2, 5, 1, 0,
                        hotPat(12 * kKiB, 4 * kKiB, 0.9))})}});

    add({"SS", "Similarity Score", "Mars", true, 202,
         paletteData(202, 96),
         {kernel("ss_score", 90, 8, 202,
                 {// High tolerance: plenty of ready warps, SC worthwhile.
                  phase(200, 2, 6, 1, 0,
                        hotPat(10 * kKiB, 3 * kKiB, 0.85)),
                  // Moderate tolerance.
                  phase(150, 2, 4, 2, 0,
                        hotPat(10 * kKiB, 3 * kKiB, 0.85)),
                  // Low tolerance: dependence-bound over a small hot set
                  // that fits uncompressed (plus a thin incompressible
                  // cold spread) — here SC only adds hit latency.
                  phase(120, 1, 3, 12, 0,
                        hotPat(64 * kKiB, 3584, 0.94))})}});

    add({"MM", "Matrix Multiplication", "Mars", true, 203,
         paletteData(203, 128),
         {kernel("mm_tiles", 90, 8, 203,
                 {phase(180, 2, 6, 1, 0, tiledPat(8 * kKiB)),
                  phase(70, 1, 3, 12, 0,
                        hotPat(64 * kKiB, 3584, 0.94)),
                  phase(150, 2, 6, 1, 0, tiledPat(8 * kKiB))})}});

    add({"KM", "Kmeans", "Rodinia", true, 204,
         paletteData(204, 64),
         {kernel("km_assign", 90, 8, 204,
                 {phase(100, 2, 4, 1, 0,
                        hotPat(10 * kKiB, 3 * kKiB, 0.85)),
                  phase(60, 1, 3, 12, 0,
                        hotPat(64 * kKiB, 3584, 0.94)),
                  phase(100, 2, 4, 1, 0,
                        hotPat(10 * kKiB, 3 * kKiB, 0.85)),
                  phase(60, 1, 3, 12, 0,
                        hotPat(64 * kKiB, 3584, 0.94)),
                  phase(100, 2, 4, 1, 0,
                        hotPat(10 * kKiB, 3 * kKiB, 0.85))})}});

    add({"VM", "Vector Median", "Mars", true, 205,
         paletteData(205, 80),
         {kernel("vm_filter", 90, 8, 205,
                 {phase(140, 2, 5, 1, 0,
                        hotPat(10 * kKiB, 3 * kKiB, 0.85)),
                  phase(60, 1, 3, 12, 0,
                        hotPat(64 * kKiB, 3584, 0.94)),
                  phase(120, 2, 5, 1, 0,
                        hotPat(10 * kKiB, 3 * kKiB, 0.85))})}});

    add({"BC", "Betweenness Centrality", "Pannotia", true, 206,
         graphData(206, 0.7),
         {kernel("bc_forward", 120, 3, 206,
                 {phase(650, 2, 2, 4, 0,
                        hotPat(8 * kKiB, 3 * kKiB, 0.9))}),
          kernel("bc_backward", 120, 3, 1206,
                 {phase(500, 2, 3, 4, 0,
                        hotPat(8 * kKiB, 3 * kKiB, 0.9))})}});

    add({"CLR", "Graph Coloring", "Pannotia", true, 207,
         rampMixData(207, 50000),
         {kernel("clr_color", 90, 8, 207,
                 {phase(500, 2, 4, 1, 0,
                        hotPat(12 * kKiB, 4 * kKiB, 0.9))})}});

    add({"FW", "Floyd Warshall", "Pannotia", true, 208,
         graphData(208, 0.7),
         {kernel("fw_relax", 50, 2, 208,
                 {phase(500, 2, 1, 6, 1,
                        hotPat(12 * kKiB, 5 * kKiB, 0.85))})}});

    add({"PRK", "Pagerank (SPMV)", "Pannotia", true, 209,
         paletteData(209, 48),
         {kernel("prk_spmv", 120, 8, 209,
                 {phase(200, 2, 6, 1, 0,
                        hotPat(14 * kKiB, 5 * kKiB, 0.85))})}});

    add({"DJK", "Dijkstra-ALL", "Pannotia", true, 210,
         pointerData(210),
         {kernel("djk_init", 100, 4, 210,
                 {phase(300, 2, 3, 3, 0,
                        hotPat(8 * kKiB, 3 * kKiB, 0.8))}),
          kernel("djk_relax", 100, 4, 1210,
                 {phase(550, 2, 2, 4, 0,
                        irregPat(8 * kKiB, 3 * kKiB, 0.85, 4))})}});

    add({"MIS", "Maximal Independent Set", "Pannotia", true, 211,
         rampMixData(211, 65000),
         {kernel("mis_select", 90, 8, 211,
                 {phase(450, 2, 4, 1, 0,
                        hotPat(12 * kKiB, 4 * kKiB, 0.9))})}});

    return zoo;
}

} // namespace

const std::vector<Workload> &
workloadZoo()
{
    static const std::vector<Workload> zoo = buildZoo();
    return zoo;
}

const Workload *
findWorkload(const std::string &abbr)
{
    for (const auto &workload : workloadZoo()) {
        if (workload.abbr == abbr)
            return &workload;
    }
    return nullptr;
}

std::vector<const Workload *>
workloadsByCategory(bool cache_sensitive)
{
    std::vector<const Workload *> out;
    for (const auto &workload : workloadZoo()) {
        if (workload.cacheSensitive == cache_sensitive)
            out.push_back(&workload);
    }
    return out;
}

std::vector<std::unique_ptr<SyntheticKernel>>
makeKernels(const Workload &workload, std::uint64_t seed_mix)
{
    std::vector<std::unique_ptr<SyntheticKernel>> kernels;
    kernels.reserve(workload.kernels.size());
    for (const auto &spec : workload.kernels) {
        if (seed_mix == 0) {
            kernels.push_back(std::make_unique<SyntheticKernel>(spec));
            continue;
        }
        KernelSpec mixed = spec;
        // splitmix64 finalizer keeps remixed seeds well-distributed.
        std::uint64_t z = mixed.seed ^ seed_mix;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        mixed.seed = z ^ (z >> 31);
        kernels.push_back(std::make_unique<SyntheticKernel>(mixed));
    }
    return kernels;
}

} // namespace latte
