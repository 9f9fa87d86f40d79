#include "numarck/lossless/fpc.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::lossless {

namespace {

constexpr std::uint32_t kMagic = 0x46504331u;  // "FPC1"

/// Tables up to this size (the FpcOptions default, 512 KiB each) live in a
/// per-thread pool; larger ones are allocated per call, so a forged 2^24
/// header cannot pin 256 MiB to a thread.
constexpr unsigned kPooledLog2 = 16;

/// The calling thread's reusable FCM/DFCM pair, all zero between calls.
/// `dirty` marks a call that exited by exception before clearing what it
/// wrote; the next call then clears the whole pair.
struct PooledTables {
  std::vector<std::uint64_t> fcm;
  std::vector<std::uint64_t> dfcm;
  bool dirty = false;
};

/// Zeroed predictor tables of 2^table_log2 entries for one compress or
/// decompress call; at most one is alive per thread (neither call nests).
class PredictorTables {
 public:
  explicit PredictorTables(unsigned table_log2)
      : entries_(std::size_t{1} << table_log2) {
    if (table_log2 > kPooledLog2) {
      own_fcm_.assign(entries_, 0);
      own_dfcm_.assign(entries_, 0);
      fcm_ = own_fcm_.data();
      dfcm_ = own_dfcm_.data();
      return;
    }
    thread_local PooledTables tls;
    if (tls.fcm.empty()) {
      tls.fcm.assign(std::size_t{1} << kPooledLog2, 0);
      tls.dfcm.assign(std::size_t{1} << kPooledLog2, 0);
    } else if (tls.dirty) {
      std::fill(tls.fcm.begin(), tls.fcm.end(), 0);
      std::fill(tls.dfcm.begin(), tls.dfcm.end(), 0);
    }
    tls.dirty = true;
    pooled_ = &tls;
    fcm_ = tls.fcm.data();
    dfcm_ = tls.dfcm.data();
  }

  PredictorTables(const PredictorTables&) = delete;
  PredictorTables& operator=(const PredictorTables&) = delete;

  [[nodiscard]] std::uint64_t* fcm() const noexcept { return fcm_; }
  [[nodiscard]] std::uint64_t* dfcm() const noexcept { return dfcm_; }
  [[nodiscard]] std::uint64_t mask() const noexcept { return entries_ - 1; }

  /// Hands pooled tables back zeroed after a call that advanced the
  /// predictors over exactly `values`. A short stream replays its hash
  /// sequence and clears only the entries it set; a long one clears the
  /// tables in one pass. The mode is picked from the count alone, so the
  /// hot loop never tracks its writes.
  void release(std::span<const double> values);

 private:
  std::size_t entries_;
  std::uint64_t* fcm_ = nullptr;
  std::uint64_t* dfcm_ = nullptr;
  PooledTables* pooled_ = nullptr;
  std::vector<std::uint64_t> own_fcm_;
  std::vector<std::uint64_t> own_dfcm_;
};

/// Predictor pair with the hash-update constants from the FPC paper, over
/// borrowed tables.
class Predictors {
 public:
  explicit Predictors(const PredictorTables& t)
      : mask_(t.mask()), fcm_(t.fcm()), dfcm_(t.dfcm()) {}

  [[nodiscard]] std::uint64_t predict_fcm() const { return fcm_[fcm_hash_]; }
  [[nodiscard]] std::uint64_t predict_dfcm() const {
    return dfcm_[dfcm_hash_] + last_;
  }

  /// Advances both predictor states with the true value (must be called with
  /// the identical sequence on compressor and decompressor).
  void update(std::uint64_t v) { step<false>(v); }

  /// Advances exactly as update(v) but stores zeros: replaying a call's
  /// values from a fresh Predictors clears every entry that call set.
  void erase(std::uint64_t v) { step<true>(v); }

 private:
  template <bool kErase>
  void step(std::uint64_t v) {
    fcm_[fcm_hash_] = kErase ? 0 : v;
    fcm_hash_ = ((fcm_hash_ << 6) ^ (v >> 48)) & mask_;
    const std::uint64_t delta = v - last_;
    dfcm_[dfcm_hash_] = kErase ? 0 : delta;
    dfcm_hash_ = ((dfcm_hash_ << 2) ^ (delta >> 40)) & mask_;
    last_ = v;
  }

  std::uint64_t mask_;
  std::uint64_t* fcm_;
  std::uint64_t* dfcm_;
  std::uint64_t fcm_hash_ = 0;
  std::uint64_t dfcm_hash_ = 0;
  std::uint64_t last_ = 0;
};

std::uint64_t bits_of(double d) {
  std::uint64_t v;
  std::memcpy(&v, &d, sizeof v);
  return v;
}

void PredictorTables::release(std::span<const double> values) {
  if (pooled_ == nullptr) return;
  if (values.size() * 4 <= entries_) {
    Predictors trail(*this);
    for (const double d : values) trail.erase(bits_of(d));
  } else {
    std::fill_n(fcm_, entries_, 0);
    std::fill_n(dfcm_, entries_, 0);
  }
  pooled_->dirty = false;
}

/// Residual bytes stored per 3-bit code: FPC's code maps to
/// {0,1,2,3,5,6,7,8} leading zero bytes (4 is not representable), the
/// inverse of lzb_to_code.
constexpr unsigned kStoredBytes[8] = {8, 7, 6, 5, 3, 2, 1, 0};

/// Leading zero bytes of x, 0..8, with no zero test that could compile to
/// a branch.
unsigned leading_zero_bytes(std::uint64_t x) {
  return static_cast<unsigned>(std::countl_zero(x | 1u)) / 8 +
         static_cast<unsigned>(x == 0);
}

/// The 3-bit code of a leading-zero-byte count 0..8: a count of 4 is
/// demoted to 3 (one extra residual byte), as in the original encoder.
unsigned lzb_to_code(unsigned lzb) {
  return lzb - static_cast<unsigned>(lzb >= 4);
}

/// Values per compress block: the scratch arrays stay L1-resident.
constexpr std::size_t kFpcBlock = 256;

/// Little-endian u64 store at an unaligned byte pointer.
void store_le64(std::uint8_t* dst, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &v, sizeof v);
  } else {
    for (unsigned b = 0; b < 8; ++b) {
      dst[b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
}

/// The 4-bit header entry of value i: selector in bit 0, code in bits 1-3.
unsigned nibble_at(const std::uint8_t* header, std::size_t i) {
  return (header[i >> 1] >> ((i & 1) * 4)) & 0xfu;
}

}  // namespace

namespace detail {

void fpc_xor_lzc(const std::uint64_t* values, const std::uint64_t* pred_fcm,
                 const std::uint64_t* pred_dfcm, std::size_t n,
                 std::uint64_t* xr, std::uint8_t* nibble) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x_fcm = values[i] ^ pred_fcm[i];
    const std::uint64_t x_dfcm = values[i] ^ pred_dfcm[i];
    const unsigned lzb_fcm = leading_zero_bytes(x_fcm);
    const unsigned lzb_dfcm = leading_zero_bytes(x_dfcm);
    // DFCM only when strictly better. The pick is unpredictable on noisy
    // values, so it is applied with masks rather than a branch.
    const unsigned use_dfcm = lzb_dfcm > lzb_fcm ? 1u : 0u;
    const unsigned lzb = lzb_fcm + ((lzb_dfcm - lzb_fcm) & (0u - use_dfcm));
    xr[i] = x_fcm ^ ((x_fcm ^ x_dfcm) & (0 - std::uint64_t{use_dfcm}));
    nibble[i] = static_cast<std::uint8_t>(use_dfcm | (lzb_to_code(lzb) << 1));
  }
}

}  // namespace detail

std::vector<std::uint8_t> fpc_compress(std::span<const double> values,
                                       const FpcOptions& opts) {
  NUMARCK_EXPECT(opts.table_log2 >= 4 && opts.table_log2 <= 24,
                 "fpc table_log2 out of [4,24]");
  PredictorTables tables(opts.table_log2);
  Predictors pred(tables);
  // Two 4-bit entries per header byte, value i in the low nibble when i is
  // even: the LSB-first bit order of the format.
  std::vector<std::uint8_t> header((values.size() + 1) / 2, 0);
  std::vector<std::uint8_t> residual;
  residual.reserve(values.size() * 4);

  // Blocked three-stage loop. The predictor tables advance on every true
  // value, so predictions must be drawn serially; that loop is kept small so
  // many of its table loads are in flight at once. Selecting the better
  // residual is then a separate pass over the block, and its nibble is the
  // header entry. Each residual is stored as a whole word and the cursor
  // advances by its stored bytes, so the next store overwrites the zero
  // high bytes.
  std::uint64_t vbuf[kFpcBlock];
  std::uint64_t pf[kFpcBlock];
  std::uint64_t pd[kFpcBlock];
  std::uint64_t xr[kFpcBlock];
  std::uint8_t nib[kFpcBlock];
  std::uint8_t rbuf[kFpcBlock * 8];
  for (std::size_t base = 0; base < values.size(); base += kFpcBlock) {
    const std::size_t m = std::min(kFpcBlock, values.size() - base);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t v = bits_of(values[base + i]);
      vbuf[i] = v;
      pf[i] = pred.predict_fcm();
      pd[i] = pred.predict_dfcm();
      pred.update(v);
    }
    detail::fpc_xor_lzc(vbuf, pf, pd, m, xr, nib);
    std::size_t rlen = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t at = base + i;
      header[at >> 1] |= static_cast<std::uint8_t>(nib[i] << ((at & 1) * 4));
      store_le64(rbuf + rlen, xr[i]);
      rlen += kStoredBytes[nib[i] >> 1];
    }
    residual.insert(residual.end(), rbuf, rbuf + rlen);
  }
  tables.release(values);

  numarck::util::ByteWriter out;
  out.put_u32(kMagic);
  out.put_u8(static_cast<std::uint8_t>(opts.table_log2));
  out.put_varint(values.size());
  out.put_varint(header.size());
  out.put_bytes(header.data(), header.size());
  out.put_varint(residual.size());
  out.put_bytes(residual.data(), residual.size());
  return out.take();
}

std::vector<double> fpc_decompress(std::span<const std::uint8_t> stream) {
  numarck::util::ByteReader in(stream);
  NUMARCK_EXPECT(in.get_u32() == kMagic, "fpc: bad magic");
  const unsigned table_log2 = in.get_u8();
  NUMARCK_EXPECT(table_log2 >= 4 && table_log2 <= 24, "fpc: bad table size");
  const std::size_t count = in.get_varint();
  const std::size_t hdr_size = in.get_varint();
  NUMARCK_EXPECT(hdr_size <= in.remaining(), "fpc: truncated header");
  // Every value owns a 4-bit header entry, so a forged count larger than the
  // header can describe is rejected before the output allocation.
  NUMARCK_EXPECT(count <= hdr_size * 2, "fpc: count exceeds header capacity");
  const std::uint8_t* header = stream.data() + in.position();
  // Skip over the header region, then read the residual byte vector.
  in.skip(hdr_size);
  const std::size_t res_size = in.get_varint();
  NUMARCK_EXPECT(res_size <= in.remaining(), "fpc: truncated residual");
  const std::uint8_t* res = stream.data() + in.position();
  std::size_t res_pos = 0;

  PredictorTables tables(table_log2);
  Predictors pred(tables);
  std::vector<double> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned nib = nibble_at(header, i);
    const unsigned stored_bytes = kStoredBytes[nib >> 1];
    NUMARCK_EXPECT(res_pos + stored_bytes <= res_size, "fpc: residual overrun");
    std::uint64_t xr = 0;
    if (std::endian::native == std::endian::little &&
        res_pos + 8 <= res_size) {
      std::memcpy(&xr, res + res_pos, sizeof xr);
      xr &= stored_bytes == 8 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (8 * stored_bytes)) - 1;
    } else {
      for (unsigned b = 0; b < stored_bytes; ++b) {
        xr |= static_cast<std::uint64_t>(res[res_pos + b]) << (8 * b);
      }
    }
    res_pos += stored_bytes;
    const std::uint64_t p =
        (nib & 1u) != 0 ? pred.predict_dfcm() : pred.predict_fcm();
    const std::uint64_t v = xr ^ p;
    pred.update(v);
    std::memcpy(&out[i], &v, sizeof v);
  }
  tables.release(out);
  return out;
}

std::size_t fpc_validate(std::span<const std::uint8_t> stream) {
  numarck::util::ByteReader in(stream);
  NUMARCK_EXPECT(in.get_u32() == kMagic, "fpc: bad magic");
  const unsigned table_log2 = in.get_u8();
  NUMARCK_EXPECT(table_log2 >= 4 && table_log2 <= 24, "fpc: bad table size");
  const std::size_t count = in.get_varint();
  const std::size_t hdr_size = in.get_varint();
  NUMARCK_EXPECT(hdr_size <= in.remaining(), "fpc: truncated header");
  NUMARCK_EXPECT(count <= hdr_size * 2, "fpc: count exceeds header capacity");
  const std::uint8_t* header = stream.data() + in.position();
  in.skip(hdr_size);
  const std::size_t res_size = in.get_varint();
  NUMARCK_EXPECT(res_size <= in.remaining(), "fpc: truncated residual");
  std::size_t res_needed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    res_needed += kStoredBytes[nibble_at(header, i) >> 1];
  }
  NUMARCK_EXPECT(res_needed <= res_size, "fpc: residual overrun");
  return count;
}

}  // namespace numarck::lossless
