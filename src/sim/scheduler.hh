/**
 * @file
 * Warp schedulers. The paper's baseline uses Greedy-Then-Oldest (GTO,
 * Rogers et al., MICRO 2012): keep issuing from the current warp until it
 * stalls, then switch to the oldest ready warp. Loose round-robin (LRR)
 * is provided for comparison studies.
 */

#ifndef LATTE_SIM_SCHEDULER_HH
#define LATTE_SIM_SCHEDULER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "warp.hh"

namespace latte
{

/** What one WarpScheduler::pick pass found. */
struct SchedulerPick
{
    /** Slot of the warp to issue, or -1 if none is ready. */
    int slot = -1;
    /** Warps that could issue this cycle. */
    std::uint32_t ready = 0;
    /** Earliest readyAt among sleeping warps; kNoCycle if none. */
    Cycles wake = kNoCycle;
};

/** One of an SM's warp schedulers; owns a subset of the warp slots. */
class WarpScheduler
{
  public:
    WarpScheduler(GpuConfig::SchedPolicy policy, std::uint32_t id)
        : policy_(policy), id_(id)
    {}

    std::uint32_t id() const { return id_; }

    /** Register a warp slot as belonging to this scheduler. */
    void addSlot(std::uint32_t slot) { slots_.push_back(slot); }

    const std::vector<std::uint32_t> &slots() const { return slots_; }

    /**
     * One pass over this scheduler's warps: count the ready ones, pick
     * the one to issue this cycle, and find the earliest future cycle a
     * sleeping one becomes ready.
     * @param warps the SM's full warp array
     */
    SchedulerPick
    pick(std::span<const Warp> warps, Cycles now) const
    {
        SchedulerPick out;
        const auto note_sleeper = [&](const Warp &warp) {
            if (warp.sleeping(now) && warp.readyAt < out.wake)
                out.wake = warp.readyAt;
        };
        if (policy_ == GpuConfig::SchedPolicy::GTO) {
            std::uint64_t best_age = ~std::uint64_t{0};
            bool greedy_ready = false;
            for (const std::uint32_t slot : slots_) {
                const Warp &warp = warps[slot];
                if (!warp.ready(now)) {
                    note_sleeper(warp);
                    continue;
                }
                ++out.ready;
                if (static_cast<int>(slot) == greedy_) {
                    greedy_ready = true;
                } else if (warp.age < best_age) {
                    best_age = warp.age;
                    out.slot = static_cast<int>(slot);
                }
            }
            if (greedy_ready)
                out.slot = greedy_;
            return out;
        }

        // LRR: next ready slot after the last issued one, in slot order.
        const std::size_t n = slots_.size();
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t slot = slots_[(rrNext_ + k) % n];
            const Warp &warp = warps[slot];
            if (!warp.ready(now)) {
                note_sleeper(warp);
                continue;
            }
            ++out.ready;
            if (out.slot < 0)
                out.slot = static_cast<int>(slot);
        }
        return out;
    }

    /** Record the issue decision (updates greedy/rotation state). */
    void
    noteIssued(std::uint32_t slot)
    {
        greedy_ = static_cast<int>(slot);
        for (std::size_t k = 0; k < slots_.size(); ++k) {
            if (slots_[k] == slot) {
                rrNext_ = (k + 1) % slots_.size();
                break;
            }
        }
    }

  private:
    GpuConfig::SchedPolicy policy_;
    std::uint32_t id_;
    std::vector<std::uint32_t> slots_;
    int greedy_ = -1;
    mutable std::size_t rrNext_ = 0;
};

} // namespace latte

#endif // LATTE_SIM_SCHEDULER_HH
