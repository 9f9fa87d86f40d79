// Streaming I/O layer tests: ByteSource implementations, the incremental
// ContainerScanner's chunk-independence contract (docs/FORMAT.md §10 — the
// event sequence must be identical for EVERY chunking of the same stream),
// the pooled FramedWriter's byte-identity with the historical framing, and
// the zero-copy guarantee of the span-backed CheckpointReader.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "numarck/core/compressor.hpp"
#include "numarck/io/buffer_pool.hpp"
#include "numarck/io/byte_source.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/io/container_scanner.hpp"
#include "numarck/io/fault.hpp"
#include "numarck/io/framed_writer.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/crc32.hpp"
#include "numarck/util/expect.hpp"

namespace nio = numarck::io;
namespace nk = numarck::core;
namespace util = numarck::util;

namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string("/tmp/numarck_scanner_") + name + "_" +
             std::to_string(::getpid()) + ".ckpt") {}
  ~TempFile() { std::remove(path.c_str()); }
};

void write_bytes(const std::string& path, std::span<const std::uint8_t> data) {
  nio::FileSink sink(path);
  sink.write(data.data(), data.size());
  sink.close();
}

/// ByteSink that appends into a caller-owned vector — the in-memory dual of
/// FileSink, used to capture exact container images.
struct VectorSink final : nio::ByteSink {
  explicit VectorSink(std::vector<std::uint8_t>& out) : out_(out) {}
  void write(const void* data, std::size_t size) override {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + size);
  }
  void sync() override {}
  void close() override {}
  std::vector<std::uint8_t>& out_;
};

std::vector<double> snap(std::size_t n, double t) {
  std::vector<double> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = 2.0 + std::sin(0.05 * static_cast<double>(j) + t);
  }
  return v;
}

/// A small 2-variable, 3-iteration container image (full + deltas per var).
std::vector<std::uint8_t> build_container() {
  std::vector<std::uint8_t> bytes;
  nk::Options opts;
  nk::VariableCompressor ca(opts), cb(opts);
  nio::CheckpointWriter w(std::make_unique<VectorSink>(bytes), {"a", "b"});
  for (int it = 0; it < 3; ++it) {
    w.append("a", static_cast<std::size_t>(it), it * 1.0,
             ca.push(snap(256, it * 0.3)));
    w.append("b", static_cast<std::size_t>(it), it * 1.0,
             cb.push(snap(256, it * 0.4 + 1.0)));
  }
  w.close();
  return bytes;
}

/// Serializes every scan event to a string so whole sequences compare with
/// one EXPECT (sim_time via bit pattern: NaN-safe, no rounding).
struct Recorder final : nio::ScanEvents {
  std::vector<std::string> events;

  void on_header(std::uint32_t version,
                 const std::vector<std::string>& variables) override {
    std::ostringstream os;
    os << "H|" << version;
    for (const auto& v : variables) os << "|" << v;
    events.push_back(os.str());
  }
  void on_record(const nio::RecordInfo& info) override {
    std::uint64_t time_bits = 0;
    std::memcpy(&time_bits, &info.sim_time, sizeof time_bits);
    std::ostringstream os;
    os << "R|" << info.variable << "|" << info.iteration << "|"
       << static_cast<int>(info.type) << "|" << static_cast<int>(info.codec_id)
       << "|" << time_bits << "|" << info.payload_offset << "|"
       << info.payload_size;
    events.push_back(os.str());
  }
  void on_damage(const nio::ScanDamage& damage) override {
    std::ostringstream os;
    os << "D|" << static_cast<int>(damage.phase) << "|" << damage.offset << "|"
       << damage.detail;
    events.push_back(os.str());
  }
};

std::vector<std::string> scan_whole(std::span<const std::uint8_t> image,
                                    std::optional<std::uint64_t> expected) {
  Recorder rec;
  nio::ContainerScanner s(rec, expected);
  s.feed(image);
  s.finish();
  return rec.events;
}

std::vector<std::string> scan_split(std::span<const std::uint8_t> image,
                                    std::optional<std::uint64_t> expected,
                                    std::size_t split) {
  Recorder rec;
  nio::ContainerScanner s(rec, expected);
  s.feed(image.subspan(0, split));
  if (!s.done()) s.feed(image.subspan(split));
  s.finish();
  return rec.events;
}

std::vector<std::string> scan_bytewise(std::span<const std::uint8_t> image,
                                       std::optional<std::uint64_t> expected) {
  Recorder rec;
  nio::ContainerScanner s(rec, expected);
  for (std::size_t i = 0; i < image.size() && !s.done(); ++i) {
    s.feed(image.subspan(i, 1));
  }
  s.finish();
  return rec.events;
}

/// The chunk-independence contract over one fixture: the whole-buffer event
/// sequence must survive a split at EVERY byte boundary, a full one-byte-
/// chunk sweep, and (for record-phase damage or clean files) the loss of the
/// size bound.
void expect_chunk_invariant(std::span<const std::uint8_t> image) {
  const auto whole = scan_whole(image, image.size());
  for (std::size_t split = 0; split <= image.size(); ++split) {
    const auto split_events = scan_split(image, image.size(), split);
    ASSERT_EQ(whole, split_events) << "split at byte " << split;
  }
  EXPECT_EQ(whole, scan_bytewise(image, image.size()));
  EXPECT_EQ(whole, scan_bytewise(image, std::nullopt));
}

}  // namespace

// ---------------------------------------------------------------------------
// ContainerScanner: chunk-split differential.

TEST(ScannerDifferential, EverySplitPointOnCleanContainer) {
  const auto image = build_container();
  expect_chunk_invariant(image);
  // A clean container ends on a record boundary: no damage event, one header,
  // six records.
  const auto whole = scan_whole(image, image.size());
  ASSERT_EQ(whole.size(), 7u);
  EXPECT_EQ(whole.front(), "H|2|a|b");
  for (std::size_t k = 1; k < whole.size(); ++k) {
    EXPECT_EQ(whole[k].front(), 'R');
  }
}

TEST(ScannerDifferential, EverySplitPointOnTornTail) {
  auto image = build_container();
  image.resize(image.size() - 37);  // rip into the last record
  expect_chunk_invariant(image);
  const auto whole = scan_whole(image, image.size());
  EXPECT_EQ(whole.back().find("D|1|"), 0u) << whole.back();
  EXPECT_NE(whole.back().find("truncated checkpoint record"),
            std::string::npos);
}

TEST(ScannerDifferential, EverySplitPointOnBitFlippedMarker) {
  auto image = build_container();
  // Locate the third record's header via a clean scan, then corrupt its
  // marker: payload_offset/payload_size of record 2 put the next marker at
  // payload end + 4 CRC bytes.
  std::vector<nio::RecordInfo> records;
  {
    struct Collect final : nio::ScanEvents {
      std::vector<nio::RecordInfo>& out;
      explicit Collect(std::vector<nio::RecordInfo>& o) : out(o) {}
      void on_header(std::uint32_t, const std::vector<std::string>&) override {}
      void on_record(const nio::RecordInfo& info) override {
        out.push_back(info);
      }
      void on_damage(const nio::ScanDamage&) override { FAIL(); }
    } collect(records);
    nio::ContainerScanner s(collect, image.size());
    s.feed(image);
    s.finish();
  }
  ASSERT_GE(records.size(), 3u);
  const std::size_t marker_at = static_cast<std::size_t>(
      records[1].payload_offset + records[1].payload_size + 4);
  image[marker_at] ^= 0x40u;
  expect_chunk_invariant(image);
  const auto whole = scan_whole(image, image.size());
  // Two intact records, then record-phase damage at the flipped marker.
  ASSERT_EQ(whole.size(), 4u);
  std::ostringstream want;
  want << "D|1|" << marker_at << "|corrupt record marker";
  EXPECT_EQ(whole.back(), want.str());
}

TEST(ScannerDifferential, EverySplitPointOnGarbage) {
  std::vector<std::uint8_t> image(64, 0xa5);
  expect_chunk_invariant(image);
  const auto whole = scan_whole(image, image.size());
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole.front(), "D|0|0|not a NUMARCK checkpoint file");
}

// ---------------------------------------------------------------------------
// ContainerScanner: API edges.

TEST(ScannerApi, EmptyStreamReportsTruncatedHeader) {
  Recorder rec;
  nio::ContainerScanner s(rec, std::uint64_t{0});
  s.finish();
  ASSERT_EQ(rec.events.size(), 1u);
  EXPECT_EQ(rec.events.front(), "D|0|0|truncated checkpoint header");
  EXPECT_TRUE(s.done());
}

TEST(ScannerApi, FeedAfterFinishThrows) {
  Recorder rec;
  nio::ContainerScanner s(rec);
  s.finish();
  const std::uint8_t byte = 0;
  EXPECT_THROW(s.feed({&byte, 1}), numarck::ContractViolation);
}

TEST(ScannerApi, FeedingPastExpectedSizeThrows) {
  Recorder rec;
  nio::ContainerScanner s(rec, std::uint64_t{4});
  const std::vector<std::uint8_t> chunk(5, 0);
  EXPECT_THROW(s.feed(chunk), numarck::ContractViolation);
}

TEST(ScannerApi, BytesAfterDamageAreIgnored) {
  std::vector<std::uint8_t> garbage(16, 0xff);
  Recorder rec;
  nio::ContainerScanner s(rec);
  s.feed(std::span<const std::uint8_t>(garbage).subspan(0, 8));
  EXPECT_TRUE(s.done());  // magic mismatch is terminal
  s.feed(std::span<const std::uint8_t>(garbage).subspan(8));  // dropped
  s.finish();
  ASSERT_EQ(rec.events.size(), 1u);  // exactly one damage event, ever
}

TEST(ScannerApi, CountsConsumedBytesAndRecords) {
  const auto image = build_container();
  Recorder rec;
  nio::ContainerScanner s(rec, image.size());
  s.feed(image);
  s.finish();
  EXPECT_EQ(s.bytes_consumed(), image.size());
  EXPECT_EQ(s.records(), 6u);
}

// ---------------------------------------------------------------------------
// Reader differential: streamed FileSource scan vs whole-buffer span scan.

TEST(ReaderDifferential, FileAndSpanReadersBuildIdenticalIndexes) {
  const auto image = build_container();
  TempFile tmp("rdiff");
  write_bytes(tmp.path, image);

  const nio::CheckpointReader by_file(tmp.path);
  const std::span<const std::uint8_t> view(image);
  const nio::CheckpointReader by_span(view);
  ASSERT_EQ(by_file.variables(), by_span.variables());
  EXPECT_EQ(by_file.iteration_count(), by_span.iteration_count());
  EXPECT_EQ(by_file.last_complete_iteration(),
            by_span.last_complete_iteration());
  EXPECT_EQ(by_file.container_bytes(), image.size());
  EXPECT_EQ(by_span.container_bytes(), image.size());
  for (const auto& v : by_file.variables()) {
    for (std::size_t it = 0; it < by_file.iteration_count(); ++it) {
      const auto a = by_file.info(v, it);
      const auto b = by_span.info(v, it);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a) continue;
      EXPECT_EQ(a->payload_offset, b->payload_offset);
      EXPECT_EQ(a->payload_size, b->payload_size);
      EXPECT_EQ(a->codec_id, b->codec_id);
      EXPECT_EQ(a->type, b->type);
      const auto loaded_a = by_file.load(v, it);
      const auto loaded_b = by_span.load(v, it);
      EXPECT_EQ(loaded_a.payload, loaded_b.payload);
    }
  }
}

TEST(ReaderDifferential, FileAndSpanReadersAgreeOnTornTail) {
  auto image = build_container();
  image.resize(image.size() - 51);
  TempFile tmp("rtorn");
  write_bytes(tmp.path, image);

  EXPECT_THROW(nio::CheckpointReader(tmp.path, nio::TailPolicy::kStrict),
               numarck::ContractViolation);
  const nio::CheckpointReader by_file(tmp.path, nio::TailPolicy::kSalvage);
  const nio::CheckpointReader by_span(std::span<const std::uint8_t>(image),
                                      nio::TailPolicy::kSalvage);
  EXPECT_TRUE(by_file.tail_was_damaged());
  EXPECT_TRUE(by_span.tail_was_damaged());
  EXPECT_EQ(by_file.last_complete_iteration(),
            by_span.last_complete_iteration());
  EXPECT_EQ(by_file.iteration_count(), by_span.iteration_count());
}

// ---------------------------------------------------------------------------
// Zero-copy span reader: mutations in the caller's buffer are visible (and
// CRC-rejected) — proof no private copy exists.

TEST(ZeroCopy, SpanReaderSeesCallerMutations) {
  auto image = build_container();
  const std::span<const std::uint8_t> view(image);
  const nio::CheckpointReader reader(view);
  const auto info = reader.info("a", 1);
  ASSERT_TRUE(info.has_value());
  const auto clean = reader.load("a", 1);

  // Flip one payload byte AFTER construction: a copying reader would keep
  // loading the stale clean bytes; the zero-copy reader must re-read the
  // caller's buffer and fail the CRC.
  const std::size_t victim = static_cast<std::size_t>(info->payload_offset) +
                             static_cast<std::size_t>(info->payload_size) / 2;
  image[victim] ^= 0x01u;
  EXPECT_THROW((void)reader.load("a", 1), numarck::ContractViolation);

  // Restoring the byte heals the load — same buffer, same reader.
  image[victim] ^= 0x01u;
  EXPECT_EQ(reader.load("a", 1).payload, clean.payload);
}

// ---------------------------------------------------------------------------
// ByteSource implementations.

TEST(ByteSourceTest, FileSourceReadsExactRanges) {
  const std::vector<std::uint8_t> data = {10, 20, 30, 40, 50, 60};
  TempFile tmp("fsrc");
  write_bytes(tmp.path, data);

  nio::FileSource src(tmp.path);
  EXPECT_EQ(src.size(), data.size());
  EXPECT_EQ(src.name(), tmp.path);
  EXPECT_TRUE(src.contiguous().empty());  // files expose no resident image
  std::uint8_t buf[3] = {};
  src.read_at(2, buf, 3);
  EXPECT_EQ(buf[0], 30);
  EXPECT_EQ(buf[2], 50);
  src.read_at(0, buf, 0);  // empty read anywhere in range is fine
  EXPECT_THROW(src.read_at(4, buf, 3), numarck::ContractViolation);
  EXPECT_THROW(src.read_at(7, buf, 0), numarck::ContractViolation);
}

TEST(ByteSourceTest, FileSourceMissingFileNamesPath) {
  try {
    nio::FileSource src("/nonexistent/numarck_nope.ckpt");
    FAIL() << "open should have thrown";
  } catch (const numarck::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("numarck_nope.ckpt"),
              std::string::npos);
  }
}

TEST(ByteSourceTest, MemorySourceIsZeroCopyAndBounded) {
  std::vector<std::uint8_t> data = {1, 2, 3, 4};
  nio::MemorySource src(data, "unit");
  EXPECT_EQ(src.size(), 4u);
  EXPECT_EQ(src.contiguous().data(), data.data());  // the same bytes, no copy
  std::uint8_t buf[2] = {};
  src.read_at(1, buf, 2);
  EXPECT_EQ(buf[0], 2);
  EXPECT_THROW(src.read_at(3, buf, 2), numarck::ContractViolation);
  data[1] = 99;  // mutations flow straight through
  src.read_at(1, buf, 1);
  EXPECT_EQ(buf[0], 99);
}

TEST(ByteSourceTest, FaultySourceFailsScheduledReadPersistently) {
  std::vector<std::uint8_t> data(32, 7);
  auto plan = std::make_shared<nio::FaultPlan>();
  plan->fail(nio::FaultPlan::Op::kRead, 1, EIO);
  nio::FaultySource src(std::make_unique<nio::MemorySource>(data), plan);
  std::uint8_t buf[4] = {};
  src.read_at(0, buf, 4);  // read #1 passes through
  EXPECT_EQ(buf[0], 7);
  EXPECT_THROW(src.read_at(4, buf, 4), numarck::ContractViolation);
  // The disk stays bad: later reads keep failing.
  EXPECT_THROW(src.read_at(0, buf, 1), numarck::ContractViolation);
  EXPECT_EQ(src.size(), 32u);  // metadata still passes through
}

TEST(ByteSourceTest, ReadAllRoundTrips) {
  const std::vector<std::uint8_t> data = {9, 8, 7, 6, 5};
  TempFile tmp("rall");
  write_bytes(tmp.path, data);
  nio::FileSource src(tmp.path);
  EXPECT_EQ(nio::read_all(src), data);
}

TEST(ByteSourceTest, ReaderOverFaultySourceSurfacesLoadFailure) {
  const auto image = build_container();
  TempFile tmp("esrc");
  write_bytes(tmp.path, image);
  // The whole scan fits in one 256 KiB streamed read; the next read — the
  // first payload load — hits the injected EIO. Restart paths must surface
  // it, never fabricate data.
  auto plan = std::make_shared<nio::FaultPlan>();
  plan->fail(nio::FaultPlan::Op::kRead, 1, EIO);
  auto source = std::make_shared<nio::FaultySource>(
      std::make_unique<nio::FileSource>(tmp.path), plan);
  const nio::CheckpointReader reader(source);
  EXPECT_EQ(reader.variables().size(), 2u);
  EXPECT_THROW((void)reader.load("a", 0), numarck::ContractViolation);
}

// ---------------------------------------------------------------------------
// BufferPool.

TEST(BufferPoolTest, LeasesArriveEmptyAndRetainCapacity) {
  nio::BufferPool pool(2, 1u << 20);
  EXPECT_EQ(pool.idle(), 0u);
  {
    auto lease = pool.acquire();
    lease.buffer().resize(5000);
  }
  EXPECT_EQ(pool.idle(), 1u);
  auto lease = pool.acquire();
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_TRUE(lease.buffer().empty());           // cleared on return…
  EXPECT_GE(lease.buffer().capacity(), 5000u);  // …but the allocation lives on
}

TEST(BufferPoolTest, PoolDropsBeyondCaps) {
  nio::BufferPool pool(1, 100);
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    a.buffer().resize(10);
    b.buffer().resize(10);
  }
  EXPECT_EQ(pool.idle(), 1u);  // max_buffers=1: the second return is dropped
  {
    auto big = pool.acquire();  // takes the parked buffer out again
    big.buffer().resize(4096);  // grows it past max_retained_bytes
  }
  EXPECT_EQ(pool.idle(), 0u);  // the oversized buffer was not parked
}

TEST(BufferPoolTest, SharedPoolIsAProcessSingleton) {
  EXPECT_EQ(&nio::shared_buffer_pool(), &nio::shared_buffer_pool());
}

// ---------------------------------------------------------------------------
// FramedWriter: byte-identity with the historical hand-built framing.

TEST(FramedWriterTest, MatchesHandBuiltFramingByteForByte) {
  std::vector<std::uint8_t> small(100);
  for (std::size_t i = 0; i < small.size(); ++i) {
    small[i] = static_cast<std::uint8_t>(i * 13);
  }
  std::vector<std::uint8_t> large((64u << 10) + 333);  // over the coalesce cap
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }

  std::vector<std::uint8_t> got;
  {
    VectorSink sink(got);
    nio::BufferPool pool;
    nio::FramedWriter writer(sink, pool);
    writer.write_header({"rho", "vel"});
    writer.write_record(0, 0, nio::RecordType::kFull, 1, 0.25, small);
    writer.write_record(1, 3, nio::RecordType::kDelta, 0, 1.5, large);
    EXPECT_EQ(writer.bytes_written(), got.size());
  }

  util::ByteWriter want;
  want.put_u64(nio::kContainerMagic);
  want.put_u32(nio::kContainerVersion);
  want.put_varint(2);
  want.put_string("rho");
  want.put_string("vel");
  for (int rec = 0; rec < 2; ++rec) {
    const auto& payload = rec == 0 ? small : large;
    want.put_u32(nio::kRecordMarker);
    want.put_varint(rec == 0 ? 0u : 1u);
    want.put_varint(rec == 0 ? 0u : 3u);
    want.put_u8(rec == 0 ? 0u : 1u);  // kFull / kDelta
    want.put_u8(rec == 0 ? 1u : 0u);  // codec id
    want.put_f64(rec == 0 ? 0.25 : 1.5);
    want.put_varint(payload.size());
    want.put_bytes(payload.data(), payload.size());
    want.put_u32(util::crc32(payload.data(), payload.size()));
  }
  const std::vector<std::uint8_t> expect(want.bytes().begin(),
                                         want.bytes().end());
  EXPECT_EQ(got, expect);
}

TEST(FramedWriterTest, OutputParsesBackThroughTheScanner) {
  std::vector<std::uint8_t> bytes;
  {
    VectorSink sink(bytes);
    nio::FramedWriter writer(sink);  // shared pool default
    writer.write_header({"x"});
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    writer.write_record(0, 0, nio::RecordType::kFull, 1, 0.0, payload);
  }
  const auto events = scan_whole(bytes, bytes.size());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "H|2|x");
  EXPECT_EQ(events[1].find("R|x|0|0|1|"), 0u) << events[1];
}
