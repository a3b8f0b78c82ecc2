/**
 * @file
 * Canonical Huffman coding over 32-bit symbols, used by the statistical
 * compressor (SC). Supports an escape symbol for values outside the
 * code table.
 */

#ifndef LATTE_COMPRESS_HUFFMAN_HH
#define LATTE_COMPRESS_HUFFMAN_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bit_utils.hh"

namespace latte
{

/** An immutable Huffman code book with escape support. */
class HuffmanCode
{
  public:
    /** (symbol value, weight) training pair. */
    using Freq = std::pair<std::uint32_t, std::uint64_t>;

    HuffmanCode() = default;

    /**
     * Build a code book over @p freqs plus an escape symbol of weight
     * @p escape_weight (>= 1). Zero-weight symbols are dropped.
     */
    static HuffmanCode build(const std::vector<Freq> &freqs,
                             std::uint64_t escape_weight);

    /** True once build() populated the book. */
    bool valid() const { return !nodes_.empty(); }

    /** Number of coded symbols, not counting the escape. */
    std::size_t numSymbols() const { return codes_.size(); }

    /**
     * Emit the code for @p value if it is in the book; otherwise emit the
     * escape prefix followed by the raw 32-bit value. @p Sink is
     * BitWriter (materialise) or BitCounter (size-only probe).
     * @return true if the value was in the book.
     */
    template <typename Sink>
    bool
    encode(std::uint32_t value, Sink &sink) const
    {
        latte_assert(valid(), "encode on an empty code book");
        // rbits holds the code bit-reversed so one word-at-a-time write
        // emits it MSB-first on the LSB-first wire.
        if (const Slot *slot = findFast(value)) {
            sink.write(slot->rbits, slot->length);
            return true;
        }
        sink.write(escapeCode_.rbits, escapeCode_.length);
        sink.write(value, 32);
        return false;
    }

    /** Bits the encoder would emit for @p value. */
    unsigned encodedBits(std::uint32_t value) const;

    /**
     * Hot-path variant of encodedBits() backed by a compact flat table
     * (8-byte slots, half the cache footprint of the encode table) —
     * the whole cost of an SC size-only probe is this lookup.
     */
    unsigned
    encodedBitsFast(std::uint32_t value) const
    {
        if (lens_.empty())
            return escapeCode_.length + 32;
        const std::uint32_t hash = value * 0x9e3779b9u;
        std::size_t i = hash & lenMask_;
        // First slot load issues in parallel with the filter load — the
        // two addresses are independent, so a hit pays one load latency
        // instead of two.
        LenSlot slot = lens_[i];
        if (!mayHaveCode(hash))
            return escapeCode_.length + 32;
        while (slot.bits != 0) {
            if (slot.symbol == value)
                return slot.bits;
            i = (i + 1) & lenMask_;
            slot = lens_[i];
        }
        return escapeCode_.length + 32;
    }

    /** True if @p value has a dedicated code (no escape needed). */
    bool
    hasCode(std::uint32_t value) const
    {
        return codes_.contains(value);
    }

    /** Decode one symbol; reads the raw value itself after an escape. */
    std::uint32_t decode(BitReader &br) const;

    /** Length in bits of the longest code (diagnostics). */
    unsigned maxCodeBits() const { return maxBits_; }

  private:
    struct CodeWord
    {
        std::uint64_t bits = 0;   //!< canonical code, MSB-first
        std::uint64_t rbits = 0;  //!< same code bit-reversed (wire order)
        unsigned length = 0;
    };

    struct Node
    {
        int left = -1;        //!< child on bit 0
        int right = -1;       //!< child on bit 1
        bool leaf = false;
        bool escape = false;
        std::uint32_t symbol = 0;
    };

    /**
     * One entry of the open-addressing symbol->code table that backs
     * encode(). 16 bytes so four slots share a cache line; length == 0
     * marks an empty slot (no real code is shorter than one bit).
     */
    struct Slot
    {
        std::uint64_t rbits = 0;
        std::uint32_t symbol = 0;
        std::uint32_t length = 0;
    };

    /** Length-only slot for encodedBitsFast(); bits == 0 marks empty. */
    struct LenSlot
    {
        std::uint32_t symbol = 0;
        std::uint32_t bits = 0;
    };

    /** Membership pre-check; false means "definitely not in the book". */
    bool
    mayHaveCode(std::uint32_t hash) const
    {
        const std::size_t bit = hash & filterMask_;
        return (filter_[bit / 64] >> (bit % 64)) & 1;
    }

    /** Flat-table lookup; nullptr means "escape this value". */
    const Slot *
    findFast(std::uint32_t value) const
    {
        if (fast_.empty())
            return nullptr;
        // Fibonacci mix spreads clustered values (small ints, pointers).
        const std::uint32_t hash = value * 0x9e3779b9u;
        if (!mayHaveCode(hash))
            return nullptr;
        std::size_t i = hash & fastMask_;
        while (fast_[i].length != 0) {
            if (fast_[i].symbol == value)
                return &fast_[i];
            i = (i + 1) & fastMask_;
        }
        return nullptr;
    }

    void insertCode(const CodeWord &code, bool escape,
                    std::uint32_t symbol);
    void buildFastTable();

    std::unordered_map<std::uint32_t, CodeWord> codes_;
    CodeWord escapeCode_;
    std::vector<Slot> fast_;    //!< open-addressing view of codes_
    std::size_t fastMask_ = 0;
    std::vector<LenSlot> lens_; //!< length-only view for size probes
    std::size_t lenMask_ = 0;
    std::vector<std::uint64_t> filter_; //!< membership bitmap
    std::size_t filterMask_ = 0;
    std::vector<Node> nodes_;   //!< decode trie; node 0 is the root
    unsigned maxBits_ = 0;
};

} // namespace latte

#endif // LATTE_COMPRESS_HUFFMAN_HH
