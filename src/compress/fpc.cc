#include "fpc.hh"

#include <bit>

#include "common/logging.hh"

namespace latte
{

namespace
{

/**
 * Encode every word of @p line into @p sink. Shared by compress()
 * (sink = BitWriter) and probe() (sink = BitCounter) so the two can
 * never disagree on a size.
 */
template <typename Sink>
void
encodeWords(std::span<const std::uint8_t> line, Sink &sink)
{
    const unsigned n_words = kLineBytes / 4;
    unsigned i = 0;
    while (i < n_words) {
        const std::uint32_t word =
            static_cast<std::uint32_t>(loadLe(line.data() + 4 * i, 4));

        if (word == 0) {
            // Zero run of up to 8 words.
            unsigned run = 1;
            while (i + run < n_words && run < 8 &&
                   loadLe(line.data() + 4 * (i + run), 4) == 0) {
                ++run;
            }
            sink.write(FpcCompressor::kZeroRun, 3);
            sink.write(run - 1, 3);
            i += run;
            continue;
        }

        const std::int64_t value = signExtend(word, 32);
        const std::uint16_t lo = word & 0xffff;
        const std::uint16_t hi = word >> 16;

        if (value >= -8 && value <= 7) {
            sink.write(FpcCompressor::kSigned4, 3);
            sink.write(static_cast<std::uint64_t>(value) & 0xf, 4);
        } else if (fitsSigned(value, 1)) {
            sink.write(FpcCompressor::kSigned8, 3);
            sink.write(static_cast<std::uint64_t>(value) & 0xff, 8);
        } else if (fitsSigned(value, 2)) {
            sink.write(FpcCompressor::kSigned16, 3);
            sink.write(static_cast<std::uint64_t>(value) & 0xffff, 16);
        } else if (lo == 0) {
            sink.write(FpcCompressor::kZeroPadded, 3);
            sink.write(hi, 16);
        } else if (fitsSigned(signExtend(lo, 16), 1) &&
                   fitsSigned(signExtend(hi, 16), 1)) {
            sink.write(FpcCompressor::kTwoHalfSigned8, 3);
            sink.write(lo & 0xff, 8);
            sink.write(hi & 0xff, 8);
        } else if (word == (word & 0xff) * 0x01010101u) {
            sink.write(FpcCompressor::kRepeatedByte, 3);
            sink.write(word & 0xff, 8);
        } else {
            sink.write(FpcCompressor::kUncompressed, 3);
            sink.write(word, 32);
        }
        ++i;
    }
}

/**
 * The size-only twin of encodeWords(): the exact FPC encoded bit count
 * of one kLineBytes line, without the per-word branches.
 */
std::uint32_t
countBits(const std::uint8_t *line)
{
    // Bits for one nonzero word. folded == value for positives, ~value
    // for negatives, so the narrow signed ranges become plain width
    // thresholds (width 0 is word == 0xffffffff, i.e. kSigned4's -1).
    const auto classify = [](std::uint32_t word) -> std::uint32_t {
        const std::uint32_t folded =
            word ^ static_cast<std::uint32_t>(
                       static_cast<std::int32_t>(word) >> 31);
        if (folded < 0x8000) {
            // kSigned4 (7 bits) below 8, kSigned8 (11) below 128,
            // kSigned16 (19) below 32768 — flag arithmetic keeps the
            // narrow band branch-free, with no bit-scan in the chain.
            return 7 + 4u * (folded > 7) + 8u * (folded > 127);
        }

        // Branchless pick of the wide classes — which one a noisy word
        // lands in is data-dependent, so branches here mispredict.
        // Priority order inverted: later assignments win. The only
        // overlap (kZeroPadded vs kTwoHalfSigned8 when lo == 0 and hi
        // is a small signed half) selects 19 bits either way.
        const std::uint16_t lo = word & 0xffff;
        const std::uint16_t hi = word >> 16;
        std::uint32_t wide = 35; // kUncompressed
        if (word == (word & 0xff) * 0x01010101u)
            wide = 11; // kRepeatedByte
        if (fitsSigned(signExtend(lo, 16), 1) &&
            fitsSigned(signExtend(hi, 16), 1))
            wide = 19; // kTwoHalfSigned8
        if (lo == 0)
            wide = 19; // kZeroPadded
        return wide;
    };

    // Single pass: classify every word as it streams by (each word is
    // one half of a 64-bit load) and collect a map of the zero ones.
    // Zero words classify as kSigned4 (7 bits); that contribution is
    // subtracted below and replaced by the zero-run tokens, keeping the
    // loop free of data-dependent branches.
    std::uint64_t zero_mask = 0;
    std::uint32_t bits = 0;
    for (unsigned k = 0; k < kLineBytes / 8; ++k) {
        const std::uint64_t pair = loadLe(line + 8 * k, 8);
        const auto w0 = static_cast<std::uint32_t>(pair);
        const auto w1 = static_cast<std::uint32_t>(pair >> 32);
        const std::uint64_t lo_zero = w0 == 0;
        const std::uint64_t hi_zero = w1 == 0;
        zero_mask |= (lo_zero | (hi_zero << 1)) << (2 * k);
        bits += classify(w0) + classify(w1);
    }

    // Zero runs: a maximal run of L zero words emits ceil(L/8) tokens of
    // 6 bits each (kZeroRun prefix + 3-bit length), exactly matching
    // the encoder's greedy up-to-8 scan. The "- 7 * run" retracts the
    // kSigned4 bits the branch-free loop above charged per zero word.
    while (zero_mask) {
        zero_mask >>= std::countr_zero(zero_mask);
        const unsigned run = std::countr_one(zero_mask);
        zero_mask >>= run;
        bits += 6 * static_cast<std::uint32_t>(divCeil(run, 8)) -
                7 * run;
    }
    return bits;
}

} // namespace

FpcCompressor::FpcCompressor(const CompressorTimings &timings)
    : decompressLat_(timings.fpcDecompress)
{}

LineMeta
FpcCompressor::probe(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);
    // test_properties pins probe() == compress() across all profiles.
    return makeProbedMeta(CompressorId::Fpc, 0, countBits(line.data()));
}

CompressedLine
FpcCompressor::compress(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);

    BitWriter bw;
    encodeWords(line, bw);
    if (bw.bitSize() >= kLineBits)
        return makeRawLine(CompressorId::Fpc, line);

    CompressedLine out;
    out.algo = CompressorId::Fpc;
    out.encoding = 0;
    out.sizeBits = static_cast<std::uint32_t>(bw.bitSize());
    out.payload.assign(bw.bytes());
    return out;
}

void
FpcCompressor::decompressInto(const CompressedLine &line,
                              std::span<std::uint8_t> out) const
{
    latte_assert(line.algo == CompressorId::Fpc);
    latte_assert(out.size() == kLineBytes);
    if (line.encoding == kRawEncoding) {
        decodeRawLineInto(line, out);
        return;
    }

    const unsigned n_words = kLineBytes / 4;
    BitReader br(line.payload, line.sizeBits);

    unsigned i = 0;
    while (i < n_words) {
        const auto prefix = static_cast<Prefix>(br.read(3));
        switch (prefix) {
          case kZeroRun: {
            const unsigned run = static_cast<unsigned>(br.read(3)) + 1;
            latte_assert(i + run <= n_words);
            for (unsigned k = 0; k < run; ++k)
                storeLe(out.data() + 4 * (i + k), 0, 4);
            i += run;
            break;
          }
          case kSigned4: {
            const auto v = signExtend(br.read(4), 4);
            storeLe(out.data() + 4 * i,
                    static_cast<std::uint64_t>(v), 4);
            ++i;
            break;
          }
          case kSigned8: {
            const auto v = signExtend(br.read(8), 8);
            storeLe(out.data() + 4 * i,
                    static_cast<std::uint64_t>(v), 4);
            ++i;
            break;
          }
          case kSigned16: {
            const auto v = signExtend(br.read(16), 16);
            storeLe(out.data() + 4 * i,
                    static_cast<std::uint64_t>(v), 4);
            ++i;
            break;
          }
          case kZeroPadded: {
            const std::uint32_t hi =
                static_cast<std::uint32_t>(br.read(16));
            storeLe(out.data() + 4 * i, hi << 16, 4);
            ++i;
            break;
          }
          case kTwoHalfSigned8: {
            const std::uint16_t lo = static_cast<std::uint16_t>(
                signExtend(br.read(8), 8));
            const std::uint16_t hi = static_cast<std::uint16_t>(
                signExtend(br.read(8), 8));
            storeLe(out.data() + 4 * i,
                    (static_cast<std::uint32_t>(hi) << 16) | lo, 4);
            ++i;
            break;
          }
          case kRepeatedByte: {
            const std::uint32_t b =
                static_cast<std::uint32_t>(br.read(8));
            storeLe(out.data() + 4 * i,
                    b | (b << 8) | (b << 16) | (b << 24), 4);
            ++i;
            break;
          }
          case kUncompressed: {
            storeLe(out.data() + 4 * i, br.read(32), 4);
            ++i;
            break;
          }
          default:
            latte_panic("bad FPC prefix");
        }
    }
}

} // namespace latte
