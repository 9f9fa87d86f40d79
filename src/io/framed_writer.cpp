#include "numarck/io/framed_writer.hpp"

#include <cstring>
#include <type_traits>

#include "numarck/util/crc32.hpp"

namespace numarck::io {

namespace {

// Records up to this payload size are coalesced (header + payload + CRC)
// into the scratch buffer and hit the sink as a single write; larger
// payloads are written in place to avoid copying bulk data through it. The cut
// only changes syscall granularity, never the byte stream — a FaultPlan's
// crash point is byte-based, so torn-write tests see identical prefixes.
constexpr std::size_t kCoalesceLimit = 64u << 10;

template <typename T>
void append(std::vector<std::uint8_t>& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &v, sizeof(T));
}

void append_varint(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  buf.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

void FramedWriter::write_raw(const void* data, std::size_t size) {
  sink_.write(data, size);
  bytes_ += size;
}

void FramedWriter::write_header(const std::vector<std::string>& variables) {
  std::vector<std::uint8_t>& buf = scratch_;
  buf.clear();
  append(buf, kContainerMagic);
  append(buf, kContainerVersion);
  append_varint(buf, variables.size());
  for (const std::string& v : variables) {
    append_varint(buf, v.size());
    buf.insert(buf.end(), v.begin(), v.end());
  }
  write_raw(buf.data(), buf.size());
}

void FramedWriter::write_record(std::size_t var_id, std::size_t iteration,
                                RecordType type, std::uint8_t codec_id,
                                double sim_time,
                                std::span<const std::uint8_t> payload) {
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  std::vector<std::uint8_t>& buf = scratch_;
  buf.clear();
  append(buf, kRecordMarker);
  append_varint(buf, var_id);
  append_varint(buf, iteration);
  append(buf, static_cast<std::uint8_t>(type));
  append(buf, codec_id);
  append(buf, sim_time);
  append_varint(buf, payload.size());
  if (payload.size() <= kCoalesceLimit) {
    buf.insert(buf.end(), payload.begin(), payload.end());
    append(buf, crc);
    write_raw(buf.data(), buf.size());
    return;
  }
  write_raw(buf.data(), buf.size());
  write_raw(payload.data(), payload.size());
  write_raw(&crc, sizeof crc);
}

}  // namespace numarck::io
