/**
 * @file
 * Unit and integration tests for the SIMT core model: the GTO/LRR
 * schedulers, CTA placement, end-to-end kernel execution, idle-gap
 * skipping, the memory pipeline under the full GPU, and the
 * barrier-synchronous parallel SM stepping (SimThreadPool, the
 * --sim-threads resolver, and parallel-vs-sequential bit-identity).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <tuple>
#include <vector>

#include "sim/gpu.hh"
#include "sim/scheduler.hh"
#include "sim/thread_pool.hh"
#include "workloads/synthetic_kernel.hh"
#include "workloads/value_gens.hh"
#include "workloads/zoo.hh"

using namespace latte;

// ---------------------------------------------------------- scheduler

namespace
{

std::vector<Warp>
makeWarps(unsigned n, Cycles ready_at = 0)
{
    std::vector<Warp> warps(n);
    for (unsigned i = 0; i < n; ++i) {
        warps[i].slot = i;
        warps[i].state = WarpState::Active;
        warps[i].readyAt = ready_at;
        warps[i].age = i;
    }
    return warps;
}

} // namespace

TEST(Scheduler, GtoStaysGreedy)
{
    WarpScheduler sched(GpuConfig::SchedPolicy::GTO, 0);
    for (unsigned i = 0; i < 4; ++i)
        sched.addSlot(i);
    auto warps = makeWarps(4);

    SchedulerPick pick = sched.pick(warps, 0);
    EXPECT_EQ(pick.ready, 4u);
    EXPECT_EQ(pick.slot, 0); // oldest first
    sched.noteIssued(2); // pretend 2 became the greedy warp
    pick = sched.pick(warps, 1);
    EXPECT_EQ(pick.slot, 2) << "GTO sticks with the greedy warp while ready";
}

TEST(Scheduler, GtoFallsBackToOldest)
{
    WarpScheduler sched(GpuConfig::SchedPolicy::GTO, 0);
    for (unsigned i = 0; i < 4; ++i)
        sched.addSlot(i);
    auto warps = makeWarps(4);
    warps[0].age = 100; // make warp 1 the oldest
    sched.noteIssued(3);
    warps[3].readyAt = 50; // greedy stalls

    const SchedulerPick pick = sched.pick(warps, 0);
    EXPECT_EQ(pick.slot, 1);
    EXPECT_EQ(pick.ready, 3u);
    EXPECT_EQ(pick.wake, 50u);
}

TEST(Scheduler, NoReadyWarps)
{
    WarpScheduler sched(GpuConfig::SchedPolicy::GTO, 0);
    sched.addSlot(0);
    auto warps = makeWarps(1, /*ready_at=*/100);
    const SchedulerPick pick = sched.pick(warps, 0);
    EXPECT_EQ(pick.slot, -1);
    EXPECT_EQ(pick.ready, 0u);
    EXPECT_EQ(pick.wake, 100u);
}

TEST(Scheduler, LrrRotates)
{
    WarpScheduler sched(GpuConfig::SchedPolicy::LRR, 0);
    for (unsigned i = 0; i < 3; ++i)
        sched.addSlot(i);
    auto warps = makeWarps(3);

    SchedulerPick pick = sched.pick(warps, 0);
    EXPECT_EQ(pick.slot, 0);
    sched.noteIssued(0);
    pick = sched.pick(warps, 1);
    EXPECT_EQ(pick.slot, 1);
    sched.noteIssued(1);
    pick = sched.pick(warps, 2);
    EXPECT_EQ(pick.slot, 2);
}

namespace
{

/**
 * Warps of every kind pick() sees, at cycle 10: two ready, two
 * sleeping (wake 25 and 40), one waiting on memory with no known ready
 * cycle, and a Finished and an Unassigned warp whose stale readyAt lies
 * in the future. Only the sleeping ones may set the wake.
 */
std::vector<Warp>
mixedWarps()
{
    auto warps = makeWarps(7);
    warps[0].readyAt = 10;                 // ready
    warps[1].readyAt = 40;                 // sleeping
    warps[2].state = WarpState::WaitMem;   // unresolved load
    warps[2].readyAt = kNoCycle;
    warps[3].state = WarpState::Finished;
    warps[3].readyAt = 12;
    warps[4].readyAt = 25;                 // sleeping, earliest
    warps[5].state = WarpState::Unassigned;
    warps[5].readyAt = 11;
    warps[6].readyAt = 3;                  // ready
    return warps;
}

void
expectWakeIsEarliestSleeper(GpuConfig::SchedPolicy policy)
{
    WarpScheduler sched(policy, 0);
    for (unsigned i = 0; i < 7; ++i)
        sched.addSlot(i);
    auto warps = mixedWarps();
    constexpr Cycles kNow = 10;

    Cycles expected = kNoCycle;
    for (const Warp &warp : warps) {
        if (warp.sleeping(kNow))
            expected = std::min(expected, warp.readyAt);
    }
    ASSERT_EQ(expected, 25u);

    // The wake does not depend on the scheduler's rotation or greedy
    // state, nor on which warp is picked.
    for (const std::uint32_t issued : {0u, 6u, 4u}) {
        const SchedulerPick pick = sched.pick(warps, kNow);
        EXPECT_EQ(pick.ready, 2u);
        EXPECT_TRUE(pick.slot == 0 || pick.slot == 6) << pick.slot;
        EXPECT_EQ(pick.wake, expected);
        sched.noteIssued(issued);
    }

    // With the sleepers gone, nothing can wake this scheduler.
    warps[1].state = WarpState::Finished;
    warps[4].state = WarpState::WaitMem;
    warps[4].readyAt = kNoCycle;
    EXPECT_EQ(sched.pick(warps, kNow).wake, kNoCycle);
}

} // namespace

TEST(Scheduler, GtoWakeIsEarliestSleeper)
{
    expectWakeIsEarliestSleeper(GpuConfig::SchedPolicy::GTO);
}

TEST(Scheduler, LrrWakeIsEarliestSleeper)
{
    expectWakeIsEarliestSleeper(GpuConfig::SchedPolicy::LRR);
}

// ----------------------------------------------------- whole-GPU runs

namespace
{

KernelSpec
tinyKernel(std::uint32_t ctas, std::uint32_t wpc, std::uint32_t iters)
{
    KernelSpec spec;
    spec.name = "tiny";
    spec.ctas = ctas;
    spec.warpsPerCta = wpc;
    spec.seed = 42;
    PhaseSpec phase;
    phase.iterations = iters;
    phase.loadsPerIter = 1;
    phase.aluPerIter = 2;
    phase.aluLatency = 2;
    phase.storesPerIter = 0;
    phase.pattern.kind = PatternKind::Streaming;
    phase.pattern.base = 0x10000000;
    phase.pattern.sizeBytes = 1 << 20;
    spec.phases.push_back(phase);
    return spec;
}

} // namespace

TEST(Gpu, RunsTinyKernelToCompletion)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);

    SyntheticKernel kernel(tinyKernel(4, 2, 5));
    const RunResult result = gpu.runKernel(kernel);
    EXPECT_TRUE(result.completed);
    // 4 CTAs x 2 warps x 5 iters x 3 instructions.
    EXPECT_EQ(result.instructions, 4u * 2 * 5 * 3);
    EXPECT_GT(result.cycles, 0u);
}

TEST(Gpu, InstructionBudgetStopsEarly)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);

    SyntheticKernel kernel(tinyKernel(64, 8, 100));
    const RunResult result = gpu.runKernel(kernel, /*max instrs=*/1000);
    EXPECT_FALSE(result.completed);
    EXPECT_GE(result.instructions, 1000u);
    EXPECT_LT(result.instructions, 64u * 8 * 100 * 3);
}

TEST(Gpu, DeterministicAcrossRuns)
{
    const auto run = [] {
        MemoryImage mem;
        GpuConfig cfg;
        Gpu gpu(cfg, &mem);
        SyntheticKernel kernel(tinyKernel(8, 4, 20));
        return gpu.runKernel(kernel).cycles;
    };
    EXPECT_EQ(run(), run());
}

TEST(Gpu, CtaLimitsRespected)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);

    // 8 warps per CTA: at most 6 CTAs (48 warp slots) fit per SM even
    // though the block limit is 8.
    SyntheticKernel kernel(tinyKernel(200, 8, 3));
    auto &sm = gpu.sm(0);
    sm.startKernel(&kernel);
    std::uint32_t placed = 0;
    while (sm.canTakeCta()) {
        sm.assignCta(0, placed);
        ++placed;
    }
    EXPECT_EQ(placed, 6u);
    EXPECT_EQ(sm.activeWarps(), 48u);
}

TEST(Gpu, WarpSlotLimitWithSmallCtas)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);

    // 2 warps per CTA: the 8-block limit binds first -> 16 warps.
    SyntheticKernel kernel(tinyKernel(200, 2, 3));
    auto &sm = gpu.sm(0);
    sm.startKernel(&kernel);
    std::uint32_t placed = 0;
    while (sm.canTakeCta()) {
        sm.assignCta(0, placed);
        ++placed;
    }
    EXPECT_EQ(placed, 8u);
    EXPECT_EQ(sm.activeWarps(), 16u);
}

TEST(Gpu, MultipleKernelsAccumulateClock)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);
    SyntheticKernel kernel(tinyKernel(4, 2, 5));

    const RunResult first = gpu.runKernel(kernel);
    const Cycles after_first = gpu.now();
    const RunResult second = gpu.runKernel(kernel);
    EXPECT_EQ(gpu.now(), after_first + second.cycles);
    EXPECT_EQ(first.instructions, second.instructions);
}

TEST(Gpu, MemoryTrafficReachesL2AndDram)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);
    SyntheticKernel kernel(tinyKernel(16, 4, 20));
    gpu.runKernel(kernel);

    EXPECT_GT(gpu.totalL1Misses(), 0u);
    EXPECT_GT(gpu.l2().reads.count(), 0u);
    EXPECT_GT(gpu.dram().accesses.count(), 0u);
    EXPECT_GT(gpu.noc().bytesMoved.count(), 0u);
    // Streaming has no reuse: essentially everything misses.
    EXPECT_GT(gpu.totalL1Misses(), gpu.totalL1Hits());
}

TEST(Gpu, StoresAreWriteAvoid)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);

    KernelSpec spec = tinyKernel(8, 2, 10);
    spec.phases[0].storesPerIter = 2;
    SyntheticKernel kernel(spec);
    gpu.runKernel(kernel);

    std::uint64_t stores = 0;
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i)
        stores += gpu.sm(i).cache().stores.count();
    EXPECT_GT(stores, 0u);
    EXPECT_GT(gpu.l2().writes.count(), 0u);
}

TEST(SyntheticKernel, FetchIsDeterministic)
{
    SyntheticKernel kernel(tinyKernel(4, 2, 8));
    for (std::uint64_t pc = 0; pc < kernel.instructionsPerWarp(); ++pc) {
        const auto a = kernel.fetch(3, pc);
        const auto b = kernel.fetch(3, pc);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.laneAddrs, b.laneAddrs);
    }
    EXPECT_EQ(kernel.fetch(3, kernel.instructionsPerWarp()).op,
              Op::Exit);
}

TEST(SyntheticKernel, PhaseTransitionsChangeBody)
{
    KernelSpec spec = tinyKernel(1, 1, 4);
    PhaseSpec second = spec.phases[0];
    second.loadsPerIter = 0;
    second.aluPerIter = 1;
    second.iterations = 2;
    spec.phases.push_back(second);
    SyntheticKernel kernel(spec);

    // Phase 1 bodies contain loads; phase 2 bodies are pure ALU.
    EXPECT_EQ(kernel.fetch(0, 0).op, Op::Load);
    const std::uint64_t phase2_start = 4 * 3;
    EXPECT_EQ(kernel.fetch(0, phase2_start).op, Op::Alu);
    EXPECT_EQ(kernel.instructionsPerWarp(), 4u * 3 + 2);
}

TEST(SyntheticKernel, AddressesStayInRegion)
{
    KernelSpec spec = tinyKernel(8, 2, 16);
    spec.phases[0].pattern.kind = PatternKind::Irregular;
    spec.phases[0].pattern.sliceBytes = 4096;
    spec.phases[0].pattern.hotBytes = 1024;
    spec.phases[0].pattern.divergentLanes = 8;
    SyntheticKernel kernel(spec);

    const Addr base = spec.phases[0].pattern.base;
    const Addr end = base + spec.phases[0].pattern.sizeBytes;
    for (std::uint32_t warp = 0; warp < 16; ++warp) {
        for (std::uint64_t pc = 0; pc < 8; ++pc) {
            const auto instr = kernel.fetch(warp, pc);
            if (instr.op != Op::Load)
                continue;
            for (const Addr addr : instr.laneAddrs) {
                EXPECT_GE(addr, base);
                EXPECT_LT(addr, end);
            }
        }
    }
}

namespace
{

/**
 * Test-only reference: the per-lane address definition the generator
 * must reproduce, one lane at a time, with the warp hash recomputed for
 * every lane.
 */
Addr
referenceLaneAddr(const KernelSpec &spec, const Pattern &pattern,
                  std::uint32_t global_warp, std::uint64_t iter,
                  std::uint32_t mem_idx, std::uint32_t lane)
{
    constexpr std::uint32_t kWarpLanes = 32;
    constexpr std::uint64_t kLine = 128;
    const std::uint32_t cta = global_warp / spec.warpsPerCta;
    const std::uint64_t h =
        mixHash(spec.seed + mem_idx * 0x1000193u,
                (static_cast<std::uint64_t>(global_warp) << 24) ^ iter);

    switch (pattern.kind) {
      case PatternKind::Streaming: {
        const std::uint64_t total_threads =
            static_cast<std::uint64_t>(spec.ctas) * spec.warpsPerCta *
            kWarpLanes;
        const std::uint64_t tid =
            static_cast<std::uint64_t>(global_warp) * kWarpLanes + lane;
        const std::uint64_t idx =
            (tid + iter * total_threads + mem_idx * 977) *
            pattern.elemBytes;
        return pattern.base + idx % pattern.sizeBytes;
      }

      case PatternKind::HotReuse: {
        const std::uint64_t slices =
            std::max<std::uint64_t>(1,
                                    pattern.sizeBytes /
                                        pattern.sliceBytes);
        const std::uint64_t slice_off =
            (cta % slices) * pattern.sliceBytes;
        const bool hot =
            (h % 1024) <
            static_cast<std::uint64_t>(pattern.hotFraction * 1024.0);
        const std::uint64_t span =
            std::max<std::uint64_t>(kLine,
                                    hot ? pattern.hotBytes
                                        : pattern.sliceBytes);
        const std::uint64_t line_idx =
            mixHash(h, 0x51u) % (span / kLine);
        return pattern.base + slice_off + line_idx * kLine +
               (lane * 4) % kLine;
      }

      case PatternKind::Irregular: {
        const std::uint64_t slices =
            std::max<std::uint64_t>(1,
                                    pattern.sizeBytes /
                                        pattern.sliceBytes);
        const std::uint64_t slice_off =
            (cta % slices) * pattern.sliceBytes;
        const std::uint32_t lanes_per_group = std::max<std::uint32_t>(
            1, kWarpLanes / std::max<std::uint32_t>(
                   1, pattern.divergentLanes));
        const std::uint32_t group = lane / lanes_per_group;
        const std::uint64_t hg = mixHash(h, group + 11);
        const bool hot =
            (hg % 1024) <
            static_cast<std::uint64_t>(pattern.hotFraction * 1024.0);
        const std::uint64_t span =
            std::max<std::uint64_t>(kLine,
                                    hot ? pattern.hotBytes
                                        : pattern.sliceBytes);
        const std::uint64_t line_idx = mixHash(hg, 0x7fu) % (span / kLine);
        return pattern.base + slice_off + line_idx * kLine +
               (lane * 4) % kLine;
      }

      case PatternKind::Tiled: {
        const std::uint64_t slices =
            std::max<std::uint64_t>(1,
                                    pattern.sizeBytes /
                                        pattern.sliceBytes);
        const std::uint64_t slice_off =
            (cta % slices) * pattern.sliceBytes;
        const std::uint64_t lines_in_slice =
            std::max<std::uint64_t>(1, pattern.sliceBytes / kLine);
        const std::uint64_t line_idx =
            (iter + mem_idx * 7 +
             (global_warp % spec.warpsPerCta) * 3) % lines_in_slice;
        return pattern.base + slice_off + line_idx * kLine +
               (lane * 4) % kLine;
      }
    }
    ADD_FAILURE() << "unknown pattern kind";
    return kBadAddr;
}

/** Reference lane addresses of (warp, pc); none for non-memory ops. */
std::vector<Addr>
referenceLanes(const KernelSpec &spec, std::uint32_t warp,
               std::uint64_t pc)
{
    std::uint64_t first_iter = 0;
    for (const PhaseSpec &phase : spec.phases) {
        const std::uint64_t body =
            phase.loadsPerIter + phase.aluPerIter + phase.storesPerIter;
        if (pc >= body * phase.iterations) {
            pc -= body * phase.iterations;
            first_iter += phase.iterations;
            continue;
        }
        const std::uint64_t iter = first_iter + pc / body;
        const auto slot = static_cast<std::uint32_t>(pc % body);
        if (slot >= phase.loadsPerIter &&
            slot < phase.loadsPerIter + phase.aluPerIter)
            return {};
        const std::uint32_t mem_idx =
            slot < phase.loadsPerIter ? slot : slot + 64;
        std::vector<Addr> lanes(32);
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            lanes[lane] = referenceLaneAddr(spec, phase.pattern, warp,
                                            iter, mem_idx, lane);
        }
        return lanes;
    }
    return {};
}

/**
 * Compare fetch() against the reference on a sample of (warp, pc): the
 * first 64 pcs, ~400 more spread over the body, and Exit.
 * @return how many fetches of each Op were checked
 */
std::map<Op, unsigned>
expectFetchMatchesReference(SyntheticKernel &kernel)
{
    std::map<Op, unsigned> seen;
    const KernelSpec &spec = kernel.spec();
    const std::uint32_t warps = spec.ctas * spec.warpsPerCta;
    const std::uint64_t last = kernel.instructionsPerWarp();
    const std::uint64_t pc_stride = std::max<std::uint64_t>(1, last / 397);
    const std::uint32_t warp_stride = std::max<std::uint32_t>(1, warps / 5);
    for (std::uint32_t w = 0; w < warps; w += warp_stride) {
        for (std::uint64_t pc = 0; pc <= last;
             pc += pc < 64 ? 1 : pc_stride) {
            const DecodedInstr instr = kernel.fetch(w, pc);
            ++seen[instr.op];
            const bool mem =
                instr.op == Op::Load || instr.op == Op::Store;
            EXPECT_EQ(instr.laneAddrs.size(), mem ? 32u : 0u)
                << spec.name << " warp " << w << " pc " << pc;
            const auto ref = referenceLanes(spec, w, pc);
            EXPECT_TRUE(std::equal(instr.laneAddrs.begin(),
                                   instr.laneAddrs.end(), ref.begin(),
                                   ref.end()))
                << spec.name << " warp " << w << " pc " << pc;
            if (::testing::Test::HasFailure())
                return seen;
        }
        const DecodedInstr exit = kernel.fetch(w, last);
        EXPECT_EQ(exit.op, Op::Exit);
        EXPECT_EQ(exit.laneAddrs.size(), 0u);
    }
    return seen;
}

} // namespace

TEST(SyntheticKernel, LaneAddrsMatchPerLaneReference)
{
    // Every zoo kernel, at the canonical seeds and one sweep seed.
    for (const Workload &workload : workloadZoo()) {
        for (const std::uint64_t seed_mix : {0ull, 7919ull}) {
            for (auto &kernel : makeKernels(workload, seed_mix)) {
                expectFetchMatchesReference(*kernel);
                ASSERT_FALSE(HasFailure()) << workload.abbr;
            }
        }
    }

    // One hand-built kernel per pattern kind and divergence, with a
    // store slot and a Streaming region small enough to wrap.
    for (const PatternKind kind :
         {PatternKind::Streaming, PatternKind::HotReuse,
          PatternKind::Irregular, PatternKind::Tiled}) {
        for (const std::uint32_t divergent : {1u, 3u, 5u, 8u, 32u}) {
            KernelSpec spec = tinyKernel(4, 3, 24);
            PhaseSpec &phase = spec.phases[0];
            phase.loadsPerIter = 2;
            phase.storesPerIter = 1;
            phase.pattern.kind = kind;
            phase.pattern.sizeBytes = 16 * 1024;
            phase.pattern.sliceBytes = 4096;
            phase.pattern.hotBytes = 1024;
            phase.pattern.hotFraction = 0.5;
            phase.pattern.divergentLanes = divergent;
            SyntheticKernel kernel(spec);
            const auto seen = expectFetchMatchesReference(kernel);
            ASSERT_FALSE(HasFailure())
                << static_cast<int>(kind) << " x" << divergent;
            for (const Op op : {Op::Load, Op::Alu, Op::Store, Op::Exit})
                EXPECT_GT(seen.count(op), 0u) << static_cast<int>(op);
        }
    }
}

// ------------------------------------------------- parallel SM stepping

TEST(SimParallel, ResolveSimThreads)
{
    std::string error;

    // Explicit counts and the "auto" keyword.
    EXPECT_EQ(resolveSimThreads("1", &error), 1u);
    EXPECT_EQ(resolveSimThreads("4", &error), 4u);
    EXPECT_GE(resolveSimThreads("auto", &error), 1u);

    // Rejections carry a message and return 0.
    for (const char *bad : {"0", "-2", "four", "4x", " 4"}) {
        error.clear();
        EXPECT_EQ(resolveSimThreads(bad, &error), 0u) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }

    // Empty defers to LATTE_SIM_THREADS, defaulting to 1; an invalid
    // environment value warns and falls back instead of failing the run.
    ::unsetenv("LATTE_SIM_THREADS");
    EXPECT_EQ(resolveSimThreads("", nullptr), 1u);
    ::setenv("LATTE_SIM_THREADS", "3", 1);
    EXPECT_EQ(resolveSimThreads("", nullptr), 3u);
    ::setenv("LATTE_SIM_THREADS", "banana", 1);
    EXPECT_EQ(resolveSimThreads("", nullptr), 1u);
    ::unsetenv("LATTE_SIM_THREADS");
}

TEST(SimParallel, ThreadPoolRunsEveryItemExactlyOnce)
{
    SimThreadPool pool(3);
    // Spawn count is clamped to spare cores; zero workers means every
    // epoch runs inline on the caller, which this test still covers.
    EXPECT_LE(pool.workers(), 3u);

    // Many epochs of varying width against the same pool: every item
    // index must be visited exactly once per epoch, including widths
    // below, equal to and above the worker count, and width 0/1 (which
    // run inline on the caller).
    for (const std::size_t count : {0u, 1u, 2u, 3u, 4u, 7u, 64u, 257u}) {
        std::vector<std::atomic<int>> visits(count ? count : 1);
        for (auto &v : visits)
            v.store(0);
        pool.run(count, [&](std::size_t i) {
            visits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(visits[i].load(), 1) << "count " << count
                                           << " item " << i;
    }
}

TEST(SimParallel, GpuMatchesSequentialBitForBit)
{
    // The barrier-synchronous parallel loop must be indistinguishable
    // from the sequential one: same cycle count, same instruction
    // count, same L1 totals, same full stat dump. 16 SMs so epochs
    // clear the kMinParallelDue inline threshold and actually exercise
    // the pool.
    const auto runOnce = [](unsigned threads) {
        MemoryImage mem;
        GpuConfig cfg;
        cfg.numSms = 16;
        Gpu gpu(cfg, &mem);
        gpu.setSimThreads(threads);
        SyntheticKernel kernel(tinyKernel(32, 2, 16));
        const RunResult result = gpu.runKernel(kernel);
        std::map<std::string, double> stats;
        gpu.collect(stats);
        return std::tuple(result.cycles, result.instructions,
                          gpu.totalL1Hits(), gpu.totalL1Misses(),
                          std::move(stats));
    };

    const auto sequential = runOnce(1);
    for (const unsigned threads : {2u, 4u, 8u})
        EXPECT_EQ(runOnce(threads), sequential)
            << "sim-threads " << threads;
}
