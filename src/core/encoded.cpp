#include "numarck/core/encoded.hpp"

#include "numarck/lossless/fpc.hpp"
#include "numarck/lossless/huffman.hpp"
#include "numarck/lossless/rans.hpp"
#include "numarck/lossless/rle.hpp"
#include "numarck/metrics/metrics.hpp"
#include "numarck/util/bitpack.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::core {

namespace {
constexpr std::uint32_t kMagic = 0x4E4D4B31u;  // "NMK1"

// Stream-coding flags stored in the record. The index-stream coders are
// mutually exclusive (docs/FORMAT.md §2 lists the full postpass-id table).
constexpr std::uint8_t kFlagHuffmanIndices = 0x01;
constexpr std::uint8_t kFlagRleBitmap = 0x02;
constexpr std::uint8_t kFlagFpcExact = 0x04;
constexpr std::uint8_t kFlagRansIndices = 0x08;
}

double EncodedIteration::paper_compression_ratio() const {
  if (point_count == 0) return 0.0;
  return metrics::numarck_compression_ratio_percent(
      point_count, stats.incompressible_ratio(), index_bits);
}

std::size_t EncodedIteration::serialized_size_bytes() const {
  // Header fields are fixed-size except varints; compute exactly by
  // serializing the header skeleton. Cheap relative to the payload.
  return serialize().size();
}

double EncodedIteration::true_compression_ratio() const {
  if (point_count == 0) return 0.0;
  return metrics::compression_ratio_percent(point_count * sizeof(double),
                                            serialize().size());
}

std::vector<std::uint8_t> EncodedIteration::serialize(
    const Postpass& postpass) const {
  // Apply each requested stream coder, but keep it only when it wins.
  std::uint8_t flags = 0;
  std::vector<std::uint8_t> idx_stream = indices;
  if ((postpass.huffman_indices || postpass.rans_indices) &&
      compressible_count() > 0) {
    const auto symbols =
        util::unpack_indices(indices, index_bits, compressible_count());
    // With rANS enabled the flatness heuristic arbitrates (and may skip
    // coding outright); Huffman-only keeps the original always-try
    // behaviour so pre-rANS archives re-encode byte-identically.
    const lossless::IndexCoder coder =
        postpass.rans_indices
            ? lossless::choose_index_coder(symbols, index_bits,
                                           postpass.huffman_indices,
                                           /*allow_rans=*/true)
            : lossless::IndexCoder::kHuffman;
    if (coder == lossless::IndexCoder::kHuffman) {
      auto coded = lossless::huffman_encode(
          symbols, static_cast<std::uint32_t>(1) << index_bits);
      if (coded.size() < idx_stream.size()) {
        idx_stream = std::move(coded);
        flags |= kFlagHuffmanIndices;
      }
    } else if (coder == lossless::IndexCoder::kRans) {
      auto coded = lossless::rans_encode(
          symbols, static_cast<std::uint32_t>(1) << index_bits);
      if (coded.size() < idx_stream.size()) {
        idx_stream = std::move(coded);
        flags |= kFlagRansIndices;
      }
    }
  }
  std::vector<std::uint8_t> zeta_stream = zeta;
  if (postpass.rle_bitmap && point_count > 0) {
    auto coded = lossless::rle_encode_bits(zeta, point_count);
    if (coded.size() < zeta_stream.size()) {
      zeta_stream = std::move(coded);
      flags |= kFlagRleBitmap;
    }
  }
  util::ByteWriter exact_plain;
  exact_plain.put_vector(exact_values);
  std::vector<std::uint8_t> exact_stream = exact_plain.take();
  if (postpass.fpc_exact && !exact_values.empty()) {
    auto coded = lossless::fpc_compress(exact_values);
    if (coded.size() < exact_stream.size()) {
      exact_stream = std::move(coded);
      flags |= kFlagFpcExact;
    }
  }

  util::ByteWriter w;
  w.put_u32(kMagic);
  w.put_u8(static_cast<std::uint8_t>(index_bits));
  w.put_u8(static_cast<std::uint8_t>(strategy));
  w.put_u8(static_cast<std::uint8_t>(predictor));
  w.put_u8(flags);
  w.put_f64(error_bound);
  w.put_varint(point_count);
  w.put_vector(centers);
  w.put_vector(zeta_stream);
  w.put_vector(idx_stream);
  w.put_vector(exact_stream);
  // Stats travel with the record so reports survive a round-trip.
  w.put_varint(stats.total_points);
  w.put_varint(stats.below_threshold);
  w.put_varint(stats.small_value);
  w.put_varint(stats.binned);
  w.put_varint(stats.exact_undefined);
  w.put_varint(stats.exact_out_of_bound);
  w.put_f64(stats.mean_ratio_error);
  w.put_f64(stats.max_ratio_error);
  return w.take();
}

std::optional<EncodedIteration::Prefix> EncodedIteration::peek(
    std::span<const std::uint8_t> bytes) noexcept {
  // magic u32 | index_bits u8 | strategy u8 | predictor u8 | flags u8
  if (bytes.size() < 8 || util::ByteReader(bytes).get_u32() != kMagic) {
    return std::nullopt;
  }
  return Prefix{static_cast<Predictor>(bytes[6]), bytes[7]};
}

EncodedIteration EncodedIteration::deserialize(
    std::span<const std::uint8_t> bytes, std::size_t max_point_count) {
  util::ByteReader r(bytes);
  NUMARCK_EXPECT(r.get_u32() == kMagic, "EncodedIteration: bad magic");
  EncodedIteration e;
  e.index_bits = r.get_u8();
  NUMARCK_EXPECT(e.index_bits >= 2 && e.index_bits <= 16,
                 "EncodedIteration: bad index width");
  e.strategy = static_cast<Strategy>(r.get_u8());
  NUMARCK_EXPECT(e.strategy == Strategy::kEqualWidth ||
                     e.strategy == Strategy::kLogScale ||
                     e.strategy == Strategy::kClustering,
                 "EncodedIteration: unknown strategy");
  e.predictor = static_cast<Predictor>(r.get_u8());
  NUMARCK_EXPECT(e.predictor == Predictor::kPrevious ||
                     e.predictor == Predictor::kLinear,
                 "EncodedIteration: unknown predictor");
  const std::uint8_t flags = r.get_u8();
  NUMARCK_EXPECT((flags & ~(kFlagHuffmanIndices | kFlagRleBitmap |
                            kFlagFpcExact | kFlagRansIndices)) == 0,
                 "EncodedIteration: unknown stream flags");
  NUMARCK_EXPECT((flags & (kFlagHuffmanIndices | kFlagRansIndices)) !=
                     (kFlagHuffmanIndices | kFlagRansIndices),
                 "EncodedIteration: conflicting index coders");
  e.error_bound = r.get_f64();
  e.point_count = r.get_varint();
  NUMARCK_EXPECT(e.point_count <= max_point_count,
                 "EncodedIteration: point count exceeds caller bound");
  // With a raw ζ bitmap the record must physically hold one bit per point,
  // so a forged count is rejected before it can size any allocation. Fully
  // coded records (RLE ζ + 0-bit index frames) have no such floor — there
  // max_point_count, the RLE run-sum validation and the index coders' own
  // forged-count checks bound what the count can materialize.
  if (!(flags & kFlagRleBitmap)) {
    NUMARCK_EXPECT(e.point_count <= bytes.size() * 8,
                   "EncodedIteration: point count exceeds record capacity");
  }
  e.centers = r.get_vector<double>();
  NUMARCK_EXPECT(e.centers.size() < (std::size_t{1} << e.index_bits),
                 "EncodedIteration: center table exceeds index space");
  const auto zeta_stream = r.get_vector<std::uint8_t>();
  e.zeta = (flags & kFlagRleBitmap)
               ? lossless::rle_decode_bits(zeta_stream, e.point_count)
               : zeta_stream;
  NUMARCK_EXPECT(e.zeta.size() >= (e.point_count + 7) / 8,
                 "EncodedIteration: bitmap too small for point count");
  const auto idx_stream = r.get_vector<std::uint8_t>();
  const auto exact_stream = r.get_vector<std::uint8_t>();
  if (flags & kFlagFpcExact) {
    e.exact_values = lossless::fpc_decompress(exact_stream);
  } else {
    util::ByteReader er(exact_stream);
    e.exact_values = er.get_vector<double>();
  }
  NUMARCK_EXPECT(e.exact_values.size() <= e.point_count,
                 "EncodedIteration: more exact values than points");
  if (flags & (kFlagHuffmanIndices | kFlagRansIndices)) {
    // Both coders take the expected symbol count so a forged frame header
    // is rejected before the symbol vector is allocated.
    const auto symbols =
        (flags & kFlagHuffmanIndices)
            ? lossless::huffman_decode(idx_stream, e.compressible_count())
            : lossless::rans_decode(idx_stream, e.compressible_count());
    NUMARCK_EXPECT(symbols.size() == e.compressible_count(),
                   "EncodedIteration: index count mismatch after decode");
    for (const std::uint32_t s : symbols) {
      NUMARCK_EXPECT(s < (std::uint32_t{1} << e.index_bits),
                     "EncodedIteration: decoded index exceeds width");
    }
    e.indices = util::pack_indices(symbols, e.index_bits);
  } else {
    e.indices = idx_stream;
    NUMARCK_EXPECT(e.indices.size() * 8 >=
                       e.compressible_count() * std::size_t{e.index_bits},
                   "EncodedIteration: index stream too small");
  }
  e.stats.total_points = r.get_varint();
  e.stats.below_threshold = r.get_varint();
  e.stats.small_value = r.get_varint();
  e.stats.binned = r.get_varint();
  e.stats.exact_undefined = r.get_varint();
  e.stats.exact_out_of_bound = r.get_varint();
  e.stats.mean_ratio_error = r.get_f64();
  e.stats.max_ratio_error = r.get_f64();
  return e;
}

}  // namespace numarck::core
