#include "sc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace latte
{

ValueFrequencyTable::ValueFrequencyTable(std::uint32_t entries,
                                         std::uint32_t counter_bits)
    : capacity_(entries),
      counterMax_((1u << counter_bits) - 1)
{
    latte_assert(entries > 0 && counter_bits > 0 && counter_bits <= 31);
}

void
ValueFrequencyTable::record(std::uint32_t value)
{
    ++samples_;
    const auto it = counts_.find(value);
    if (it != counts_.end()) {
        if (it->second < counterMax_)
            ++it->second;
        return;
    }
    if (counts_.size() < capacity_) {
        counts_.emplace(value, 1);
    } else {
        // A hardware VFT drops values once full; the table is rebuilt
        // every period so the staleness window is bounded.
        ++misses_;
    }
}

void
ValueFrequencyTable::recordLine(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() % 4 == 0);
    for (std::size_t off = 0; off < line.size(); off += 4)
        record(static_cast<std::uint32_t>(loadLe(line.data() + off, 4)));
}

void
ValueFrequencyTable::clear()
{
    counts_.clear();
    misses_ = 0;
    samples_ = 0;
}

std::vector<HuffmanCode::Freq>
ValueFrequencyTable::snapshot() const
{
    std::vector<HuffmanCode::Freq> freqs;
    freqs.reserve(counts_.size());
    for (const auto &[value, count] : counts_)
        freqs.emplace_back(value, count);
    // Deterministic order regardless of hash iteration.
    std::sort(freqs.begin(), freqs.end());
    return freqs;
}

ScCompressor::ScCompressor(const CompressorTimings &timings,
                           const LatteParams &params)
    : vft_(params.vftEntries, params.vftCounterBits),
      compressLat_(timings.scCompress),
      decompressLat_(timings.scDecompress),
      compressNj_(timings.scCompressNj),
      decompressNj_(timings.scDecompressNj)
{}

void
ScCompressor::trainLine(std::span<const std::uint8_t> line)
{
    vft_.recordLine(line);
}

std::uint32_t
ScCompressor::rebuildCodes()
{
    const std::uint64_t escape_weight = std::max<std::uint64_t>(
        1, vft_.misses() / 4);
    codes_ = HuffmanCode::build(vft_.snapshot(), escape_weight);
    vft_.clear();
    return ++generation_;
}

double
ScCompressor::codeDivergence() const
{
    if (!codes_.valid())
        return 1.0;
    auto freqs = vft_.snapshot();
    if (freqs.empty())
        return 0.0;
    std::sort(freqs.begin(), freqs.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    const std::size_t top = std::min<std::size_t>(freqs.size(), 64);
    std::size_t missing = 0;
    for (std::size_t i = 0; i < top; ++i) {
        if (!codes_.hasCode(freqs[i].first))
            ++missing;
    }
    return static_cast<double>(missing) / static_cast<double>(top);
}

LineMeta
ScCompressor::probe(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);
    if (!codes_.valid())
        return makeProbedMeta(CompressorId::Sc, 0, kLineBits, generation_);

    // No per-word early exit: the running size is monotone, so the
    // total crosses kLineBits iff compress()'s capped stream does, and
    // both sides then report the same raw line.
    std::uint32_t bits = 0;
    for (unsigned off = 0; off < kLineBytes; off += 4) {
        bits += codes_.encodedBitsFast(
            static_cast<std::uint32_t>(loadLe(line.data() + off, 4)));
    }
    return makeProbedMeta(CompressorId::Sc, 0, std::min(bits, kLineBits),
                          generation_);
}

CompressedLine
ScCompressor::compress(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);
    if (!codes_.valid()) {
        auto out = makeRawLine(CompressorId::Sc, line);
        out.generation = generation_;
        return out;
    }

    BitWriter bw;
    for (unsigned off = 0; off < kLineBytes; off += 4) {
        // Bail before the stream can outgrow the writer's inline
        // capacity — a stream at >= kLineBits falls back to raw anyway.
        if (bw.bitSize() >= kLineBits)
            break;
        codes_.encode(
            static_cast<std::uint32_t>(loadLe(line.data() + off, 4)), bw);
    }

    if (bw.bitSize() >= kLineBits) {
        auto out = makeRawLine(CompressorId::Sc, line);
        out.generation = generation_;
        return out;
    }

    CompressedLine out;
    out.algo = CompressorId::Sc;
    out.encoding = 0;
    out.sizeBits = static_cast<std::uint32_t>(bw.bitSize());
    out.payload.assign(bw.bytes());
    out.generation = generation_;
    return out;
}

void
ScCompressor::decompressInto(const CompressedLine &line,
                             std::span<std::uint8_t> out) const
{
    latte_assert(line.algo == CompressorId::Sc);
    latte_assert(out.size() == kLineBytes);
    if (line.encoding == kRawEncoding) {
        decodeRawLineInto(line, out);
        return;
    }

    latte_assert(line.generation == generation_,
                 "decoding an SC line from a retired code generation");

    BitReader br(line.payload, line.sizeBits);
    for (unsigned off = 0; off < kLineBytes; off += 4)
        storeLe(out.data() + off, codes_.decode(br), 4);
}

} // namespace latte
