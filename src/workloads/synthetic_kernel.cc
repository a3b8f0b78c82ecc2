#include "synthetic_kernel.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mem/memory_image.hh"
#include "value_gens.hh"

namespace latte
{

namespace
{

constexpr std::uint32_t kWarpLanes = 32;
constexpr std::uint64_t kLine = 128;

std::uint64_t
bodyLength(const PhaseSpec &phase)
{
    return phase.loadsPerIter + phase.aluPerIter + phase.storesPerIter;
}

} // namespace

SyntheticKernel::SyntheticKernel(KernelSpec spec)
    : spec_(std::move(spec))
{
    latte_assert(!spec_.phases.empty(), "kernel needs at least one phase");
    latte_assert(spec_.warpsPerCta >= 1 && spec_.ctas >= 1);

    std::uint64_t instr = 0;
    std::uint64_t iter = 0;
    for (const auto &phase : spec_.phases) {
        latte_assert(bodyLength(phase) > 0,
                     "phase body must not be empty");
        latte_assert(phase.pattern.sizeBytes >= kLine);
        phaseInstrStart_.push_back(instr);
        phaseIterStart_.push_back(iter);
        instr += bodyLength(phase) * phase.iterations;
        iter += phase.iterations;
    }
    totalInstrs_ = instr;
}

DecodedInstr
SyntheticKernel::fetch(std::uint32_t global_warp, std::uint64_t pc)
{
    if (pc >= totalInstrs_)
        return DecodedInstr{}; // Op::Exit

    // Locate the phase containing pc.
    std::size_t p = phaseInstrStart_.size() - 1;
    while (phaseInstrStart_[p] > pc)
        --p;
    const PhaseSpec &phase = spec_.phases[p];
    const std::uint64_t body = bodyLength(phase);
    const std::uint64_t rel = pc - phaseInstrStart_[p];
    const std::uint64_t iter = phaseIterStart_[p] + rel / body;
    const std::uint64_t slot = rel % body;

    DecodedInstr instr;
    if (slot < phase.loadsPerIter) {
        instr.op = Op::Load;
        fillLaneAddrs(instr, phase.pattern, global_warp, iter,
                      static_cast<std::uint32_t>(slot));
    } else if (slot < phase.loadsPerIter + phase.aluPerIter) {
        instr.op = Op::Alu;
        instr.latency = phase.aluLatency;
    } else {
        instr.op = Op::Store;
        fillLaneAddrs(instr, phase.pattern, global_warp, iter,
                      static_cast<std::uint32_t>(slot) + 64);
    }
    return instr;
}

void
SyntheticKernel::fillLaneAddrs(DecodedInstr &instr, const Pattern &pattern,
                               std::uint32_t global_warp,
                               std::uint64_t iter,
                               std::uint32_t mem_idx) const
{
    LaneAddrs &addrs = instr.laneAddrs;
    addrs.resize(kWarpLanes);

    if (pattern.kind == PatternKind::Streaming) {
        // Consecutive threads read consecutive elements.
        const std::uint64_t total_threads =
            static_cast<std::uint64_t>(spec_.ctas) * spec_.warpsPerCta *
            kWarpLanes;
        const std::uint64_t first =
            static_cast<std::uint64_t>(global_warp) * kWarpLanes +
            iter * total_threads + mem_idx * 977;
        for (std::uint32_t lane = 0; lane < kWarpLanes; ++lane) {
            addrs[lane] = pattern.base +
                          (first + lane) * pattern.elemBytes %
                              pattern.sizeBytes;
        }
        return;
    }

    // The other patterns stay inside the CTA's slice and give each
    // lane a 4 B word of a line picked once per warp (or per divergent
    // lane group), so the hashing is per instruction, not per lane.
    const std::uint32_t cta = global_warp / spec_.warpsPerCta;
    const std::uint64_t slices =
        std::max<std::uint64_t>(1, pattern.sizeBytes / pattern.sliceBytes);
    const Addr slice_base =
        pattern.base + (cta % slices) * pattern.sliceBytes;
    const auto fill = [&](Addr line, std::uint32_t lane_begin,
                          std::uint32_t lane_end) {
        for (std::uint32_t lane = lane_begin; lane < lane_end; ++lane)
            addrs[lane] = line + (lane * 4) % kLine;
    };

    if (pattern.kind == PatternKind::Tiled) {
        const std::uint64_t lines_in_slice =
            std::max<std::uint64_t>(1, pattern.sliceBytes / kLine);
        const std::uint64_t line_idx =
            (iter + mem_idx * 7 +
             (global_warp % spec_.warpsPerCta) * 3) % lines_in_slice;
        fill(slice_base + line_idx * kLine, 0, kWarpLanes);
        return;
    }

    latte_assert(pattern.kind == PatternKind::HotReuse ||
                 pattern.kind == PatternKind::Irregular);
    const std::uint64_t h =
        mixHash(spec_.seed + mem_idx * 0x1000193u,
                (static_cast<std::uint64_t>(global_warp) << 24) ^ iter);
    const auto hot_threshold =
        static_cast<std::uint64_t>(pattern.hotFraction * 1024.0);
    const auto pick_line = [&](std::uint64_t hash, std::uint64_t salt) {
        const bool hot = (hash % 1024) < hot_threshold;
        const std::uint64_t span =
            std::max<std::uint64_t>(kLine,
                                    hot ? pattern.hotBytes
                                        : pattern.sliceBytes);
        return slice_base + mixHash(hash, salt) % (span / kLine) * kLine;
    };

    if (pattern.kind == PatternKind::HotReuse) {
        fill(pick_line(h, 0x51u), 0, kWarpLanes);
        return;
    }

    // Irregular: lanes split into groups of lanes_per_group, each on
    // its own line; the last group is short when the size does not
    // divide the warp.
    const std::uint32_t lanes_per_group = std::max<std::uint32_t>(
        1, kWarpLanes / std::max<std::uint32_t>(1, pattern.divergentLanes));
    for (std::uint32_t lane = 0, group = 0; lane < kWarpLanes;
         lane += lanes_per_group, ++group) {
        const std::uint64_t hg = mixHash(h, group + 11);
        fill(pick_line(hg, 0x7fu), lane,
             std::min(lane + lanes_per_group, kWarpLanes));
    }
}

} // namespace latte
