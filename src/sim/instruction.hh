/**
 * @file
 * The abstract instruction stream executed by warps. Workloads supply a
 * KernelProgram that deterministically produces each warp's instructions;
 * the SIMT core model executes them against the timing model. This plays
 * the role GPGPU-Sim's PTX front end plays for the paper, at the
 * granularity that matters for the study: ALU work, per-lane memory
 * addresses, and control of warp-level parallelism over time.
 */

#ifndef LATTE_SIM_INSTRUCTION_HH
#define LATTE_SIM_INSTRUCTION_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace latte
{

/** Instruction classes the timing model distinguishes. */
enum class Op : std::uint8_t
{
    Alu,    //!< arithmetic; completes after `latency` cycles
    Sfu,    //!< special function; like Alu but typically longer latency
    Load,   //!< global load; warp waits for all coalesced accesses
    Store,  //!< global store; fire-and-forget (write-avoid L1)
    Exit,   //!< warp terminates
};

/**
 * Per-lane byte addresses of one warp instruction, stored inline so a
 * fetch allocates nothing. Holds up to one address per lane.
 */
class LaneAddrs
{
  public:
    static constexpr std::size_t kCapacity = 32;

    using iterator = Addr *;
    using const_iterator = const Addr *;

    std::size_t size() const { return size_; }

    /** Set the lane count; the caller writes every lane it adds. */
    void
    resize(std::size_t n)
    {
        latte_assert(n <= kCapacity);
        size_ = static_cast<std::uint8_t>(n);
    }

    Addr &operator[](std::size_t i) { return addrs_[i]; }
    Addr operator[](std::size_t i) const { return addrs_[i]; }

    iterator begin() { return addrs_.data(); }
    iterator end() { return addrs_.data() + size_; }
    const_iterator begin() const { return addrs_.data(); }
    const_iterator end() const { return addrs_.data() + size_; }

    friend bool
    operator==(const LaneAddrs &a, const LaneAddrs &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    std::array<Addr, kCapacity> addrs_{};
    std::uint8_t size_ = 0;
};

/** One decoded warp instruction. */
struct DecodedInstr
{
    Op op = Op::Exit;
    /** Completion latency for Alu/Sfu. */
    Cycles latency = 1;
    /**
     * Per-lane byte addresses: one per lane for Load/Store, none for
     * the other ops. An inactive lane holds kBadAddr.
     */
    LaneAddrs laneAddrs;
};

/**
 * A kernel: a grid of CTAs, each of `warpsPerCta` warps, whose
 * instruction stream is a deterministic function of (global warp id, pc).
 */
class KernelProgram
{
  public:
    virtual ~KernelProgram() = default;

    virtual std::string name() const = 0;
    virtual std::uint32_t numCtas() const = 0;
    virtual std::uint32_t warpsPerCta() const = 0;

    /**
     * Produce the instruction at @p pc of @p global_warp. Must be
     * deterministic: re-fetching the same (warp, pc) yields the same
     * instruction.
     */
    virtual DecodedInstr fetch(std::uint32_t global_warp,
                               std::uint64_t pc) = 0;
};

} // namespace latte

#endif // LATTE_SIM_INSTRUCTION_HH
