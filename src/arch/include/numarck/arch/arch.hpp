// numarck_arch — what the codec's per-point loops were built for.
//
// The hot loops are plain portable C++ living next to the format they serve
// (classify and decode in core/codec.cpp, unpack and popcount in
// util/bitpack.cpp, the interleaved rANS decode in lossless/rans.cpp, the
// FPC residual selection in lossless/fpc.cpp). There is one kernel set and
// no runtime dispatch, so the only thing to report is the target the
// compiler built for. Logs and bench JSONs print describe().
#pragma once

#include <string>
#include <string_view>

namespace numarck::arch {

/// The architecture this binary was compiled for.
constexpr std::string_view target() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
  return "aarch64";
#else
  return "other";
#endif
}

/// One-line summary for logs and bench JSONs, e.g.
/// "arch: target=x86_64 portable kernels, no runtime dispatch".
inline std::string describe() {
  std::string out = "arch: target=";
  out += target();
  out += " portable kernels, no runtime dispatch";
  return out;
}

}  // namespace numarck::arch
