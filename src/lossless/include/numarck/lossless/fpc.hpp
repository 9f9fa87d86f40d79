// FPC: lossless double-precision floating-point compression
// (Burtscher & Ratanaworabhan, IEEE ToC 2009 — reference [4] of the paper).
//
// NUMARCK's Algorithm 1 stores the first checkpoint D0 losslessly; the paper
// cites FPC as the compressor of choice for scientific doubles, so this module
// implements it from scratch. Per value, two hash-table predictors — FCM
// (finite context method over recent values) and DFCM (FCM over value deltas)
// — each guess the next 64-bit pattern; the actual value is XORed with the
// better prediction and only the non-zero low-order bytes of the residual are
// stored, prefixed by a 1-bit predictor selector and a 3-bit leading-zero-byte
// code. Identical predictor state evolves on both sides, so decompression is
// exact and bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace numarck::lossless {

struct FpcOptions {
  /// log2 of the predictor hash-table size. The original FPC exposes the same
  /// knob; 16 (65536 entries, 512 KiB per table) is a good default for the
  /// checkpoint sizes in this repository. Up to 16, compress and decompress
  /// reuse one table pair per thread (1 MiB, kept from a thread's first FPC
  /// call until it exits); larger tables are allocated per call.
  unsigned table_log2 = 16;
};

/// Compresses `values` into a self-describing byte stream (carries the count
/// and the table size so the decompressor needs no side channel).
std::vector<std::uint8_t> fpc_compress(std::span<const double> values,
                                       const FpcOptions& opts = {});

/// Exact inverse of fpc_compress. Throws on a malformed stream.
std::vector<double> fpc_decompress(std::span<const std::uint8_t> stream);

/// Structural validation without reconstruction: parses the stream header,
/// walks every per-value 4-bit code and checks the residual region covers
/// the bytes they claim — no predictor tables, no output allocation.
/// Accepts exactly the streams fpc_decompress accepts; returns the value
/// count. Throws ContractViolation on malformed input.
std::size_t fpc_validate(std::span<const std::uint8_t> stream);

/// Compressed size in bytes for reporting (stream.size()), exposed for
/// symmetry with the lossy compressors' accounting.
inline std::size_t fpc_compressed_bytes(const std::vector<std::uint8_t>& s) {
  return s.size();
}

namespace detail {

/// fpc_compress's selection pass, exposed for the kernel tests: xr[i] is
/// the better predictor residual of values[i] and nibble[i] its 4-bit
/// header entry (bit 0 = use_dfcm, bits 1..3 = the leading-zero-byte code).
void fpc_xor_lzc(const std::uint64_t* values, const std::uint64_t* pred_fcm,
                 const std::uint64_t* pred_dfcm, std::size_t n,
                 std::uint64_t* xr, std::uint8_t* nibble);

}  // namespace detail

}  // namespace numarck::lossless
