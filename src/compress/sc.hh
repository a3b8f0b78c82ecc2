/**
 * @file
 * Huffman-based statistical compression (SC; Arelakis & Stenström,
 * ISCA 2014), the paper's high-capacity compression mode. A 1024-entry
 * value-frequency table (VFT) with 12-bit saturating counters samples the
 * 32-bit words of inserted lines; a canonical Huffman code book is built
 * from the VFT at period boundaries (Section IV-C2). Lines encoded under
 * a retired code generation can no longer be decoded and must be
 * invalidated by the cache.
 */

#ifndef LATTE_COMPRESS_SC_HH
#define LATTE_COMPRESS_SC_HH

#include <cstdint>
#include <unordered_map>

#include "common/config.hh"
#include "compressor.hh"
#include "huffman.hh"

namespace latte
{

/** The value-frequency table feeding SC's code construction. */
class ValueFrequencyTable
{
  public:
    explicit ValueFrequencyTable(std::uint32_t entries = 1024,
                                 std::uint32_t counter_bits = 12);

    /** Record one 32-bit word from an inserted line. */
    void record(std::uint32_t value);

    /** Record all words of a 128 B line. */
    void recordLine(std::span<const std::uint8_t> line);

    /** Clear all entries (start of a new sampling window). */
    void clear();

    std::size_t size() const { return counts_.size(); }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t samples() const { return samples_; }

    /** Snapshot for Huffman construction. */
    std::vector<HuffmanCode::Freq> snapshot() const;

  private:
    std::uint32_t capacity_;
    std::uint32_t counterMax_;
    std::unordered_map<std::uint32_t, std::uint32_t> counts_;
    std::uint64_t misses_ = 0;   //!< inserts rejected because table full
    std::uint64_t samples_ = 0;
};

/** SC compressor/decompressor engine with generational code books. */
class ScCompressor : public Compressor
{
  public:
    explicit ScCompressor(const CompressorTimings &timings = {},
                          const LatteParams &params = {});

    CompressorId id() const override { return CompressorId::Sc; }
    std::string name() const override { return "SC"; }

    CompressedLine compress(std::span<const std::uint8_t> line) override;
    LineMeta probe(std::span<const std::uint8_t> line) override;
    void decompressInto(const CompressedLine &line,
                        std::span<std::uint8_t> out) const override;

    Cycles compressLatency() const override { return compressLat_; }
    Cycles decompressLatency() const override { return decompressLat_; }
    double compressEnergyNj() const override { return compressNj_; }
    double decompressEnergyNj() const override { return decompressNj_; }

    /** Train the VFT on a line streaming into the cache. */
    void trainLine(std::span<const std::uint8_t> line);

    /**
     * Build a new code book from the VFT, retire the old generation and
     * clear the VFT for the next sampling window.
     * @return the new generation number.
     */
    std::uint32_t rebuildCodes();

    /** Generation of the code book compress() currently uses. */
    std::uint32_t generation() const { return generation_; }

    /** True once a code book exists (before that, lines go raw). */
    bool hasCodes() const { return codes_.valid(); }

    /**
     * How much the sampled value distribution has drifted from the
     * current code book: the fraction of the VFT's most frequent values
     * (up to 64) that have no code. 1.0 when no codes exist. The policy
     * layer uses this to skip rebuilds (and the costly invalidation of
     * all SC lines) when the value palette is stable.
     */
    double codeDivergence() const;

    /** Discard the sampling window without touching the code book. */
    void discardVft() { vft_.clear(); }

    const ValueFrequencyTable &vft() const { return vft_; }

  private:
    ValueFrequencyTable vft_;
    HuffmanCode codes_;
    std::uint32_t generation_ = 0;
    Cycles compressLat_;
    Cycles decompressLat_;
    double compressNj_;
    double decompressNj_;
};

} // namespace latte

#endif // LATTE_COMPRESS_SC_HH
