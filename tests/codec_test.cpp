// Pluggable codec layer tests: the registry, every backend round-tripping
// within its error bound through the Codec interface and through the full
// container + RestartEngine path, v1 golden-file backward compatibility,
// NUMARCK byte-identity across the refactor, forged codec-id rejection,
// exact stored-bytes accounting, and the adaptive kAuto floor.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unistd.h>
#include <string>
#include <vector>

#include "harness_common.hpp"
#include "numarck/adaptive/checkpointer.hpp"
#include "numarck/codec/codec.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/tools/cli.hpp"
#include "numarck/util/expect.hpp"

namespace nk = numarck::core;
namespace nc = numarck::codec;
namespace nio = numarck::io;

namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/numarck_codec_test_" + name + "_" +
              std::to_string(::getpid())) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The per-point contract of the error-bounded codecs: relative error within
/// E, or absolute error within E near zero.
void expect_within_bound(std::span<const double> truth,
                         std::span<const double> recon, double bound) {
  ASSERT_EQ(truth.size(), recon.size());
  for (std::size_t j = 0; j < truth.size(); ++j) {
    const double err = std::abs(recon[j] - truth[j]);
    EXPECT_TRUE(err <= bound * std::abs(truth[j]) || err <= bound)
        << "point " << j << ": " << truth[j] << " -> " << recon[j];
  }
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  return buf;
}

/// Byte offset of a record's codec byte inside a container image: marker u32,
/// then var-id and iteration varints (1 byte each for small values), type u8.
constexpr std::size_t kCodecByteOffset = 4 + 1 + 1 + 1;

/// Offsets of every record marker ("REC1") in a container image.
std::vector<std::size_t> record_offsets(std::span<const std::uint8_t> image) {
  const std::uint8_t marker[4] = {0x31, 0x43, 0x45, 0x52};  // u32 LE "REC1"
  std::vector<std::size_t> offs;
  for (std::size_t i = 0; i + 4 <= image.size(); ++i) {
    if (std::memcmp(image.data() + i, marker, 4) == 0) offs.push_back(i);
  }
  return offs;
}

/// The series the v1 golden container (tests/data/golden_v1.ckpt) was built
/// from: variables "dens" = golden_series(512, it) and "pres" =
/// golden_series(512, it + 7), iterations 0..3, default Options,
/// Postpass::v1() (the era's all()), sim_time = 0.1 * it.
std::vector<double> golden_series(std::size_t points, std::size_t iter) {
  std::vector<double> v(points);
  for (std::size_t j = 0; j < points; ++j) {
    v[j] = 3.0 + std::sin(0.01 * static_cast<double>(j) +
                          0.2 * static_cast<double>(iter)) +
           0.5 * std::cos(0.003 * static_cast<double>(j));
  }
  return v;
}

}  // namespace

// ------------------------------------------------------------- registry --

TEST(CodecRegistry, AllFourBackendsRegistered) {
  const auto codecs = nc::all();
  ASSERT_EQ(codecs.size(), 4u);
  EXPECT_STREQ(nc::require(nc::kNumarckId).name(), "numarck");
  EXPECT_STREQ(nc::require(nc::kFpcId).name(), "fpc");
  EXPECT_STREQ(nc::require(nc::kIsabelaId).name(), "isabela");
  EXPECT_STREQ(nc::require(nc::kBsplineId).name(), "bspline");
}

TEST(CodecRegistry, LookupByNameAndId) {
  for (const nc::Codec* c : nc::all()) {
    EXPECT_EQ(nc::find(c->id()), c);
    EXPECT_EQ(nc::find(std::string_view(c->name())), c);
  }
  EXPECT_EQ(nc::find(std::uint8_t{42}), nullptr);
  EXPECT_EQ(nc::find(std::string_view("lz4")), nullptr);
  EXPECT_THROW((void)nc::require(42), numarck::ContractViolation);
}

TEST(CodecRegistry, AutoIdIsASentinelNotACodec) {
  EXPECT_EQ(nc::find(nc::kAutoId), nullptr);
  EXPECT_THROW((void)nc::require(nc::kAutoId), numarck::ContractViolation);
}

TEST(CodecRegistry, CapabilityFlags) {
  EXPECT_TRUE(nc::require(nc::kNumarckId).caps().temporal);
  EXPECT_FALSE(nc::require(nc::kNumarckId).caps().lossless);
  EXPECT_TRUE(nc::require(nc::kFpcId).caps().lossless);
  EXPECT_FALSE(nc::require(nc::kFpcId).caps().temporal);
  for (auto id : {nc::kIsabelaId, nc::kBsplineId}) {
    EXPECT_FALSE(nc::require(id).caps().temporal);
    EXPECT_TRUE(nc::require(id).caps().error_bounded);
    EXPECT_FALSE(nc::require(id).caps().lossless);
  }
}

// ------------------------------------- round trips, Codec interface only --

TEST(CodecRoundTrip, SpatialCodecsMeetBoundOnFlashFixture) {
  const auto flash = numarck::bench::flash_series(3, {"pres"});
  nk::Options opts;
  opts.error_bound = 0.001;
  for (auto id : {nc::kIsabelaId, nc::kBsplineId}) {
    const nc::Codec& c = nc::require(id);
    for (const auto& snap : flash.at("pres")) {
      const auto res = c.encode(snap, {}, {}, opts);
      const auto back = c.decode(res.payload, {}, {}, snap.size());
      expect_within_bound(snap, back, opts.error_bound);
      EXPECT_EQ(c.validate_payload(res.payload, snap.size()), snap.size());
      EXPECT_THROW((void)c.validate_payload(res.payload, snap.size() - 1),
                   numarck::ContractViolation);
    }
  }
}

TEST(CodecRoundTrip, SpatialCodecsMeetBoundOnClimateFixture) {
  const auto series = numarck::bench::climate_series(
      numarck::sim::climate::Variable::kRlus, 3);
  nk::Options opts;
  opts.error_bound = 0.001;
  for (auto id : {nc::kIsabelaId, nc::kBsplineId}) {
    const nc::Codec& c = nc::require(id);
    for (const auto& snap : series) {
      const auto res = c.encode(snap, {}, {}, opts);
      const auto back = c.decode(res.payload, {}, {}, snap.size());
      expect_within_bound(snap, back, opts.error_bound);
    }
  }
}

TEST(CodecRoundTrip, FpcIsLossless) {
  const auto flash = numarck::bench::flash_series(2, {"dens"});
  const nc::Codec& c = nc::require(nc::kFpcId);
  nk::Options opts;
  for (const auto& snap : flash.at("dens")) {
    const auto res = c.encode(snap, {}, {}, opts);
    const auto back = c.decode(res.payload, {}, {}, snap.size());
    EXPECT_EQ(back, snap);
  }
}

TEST(CodecRoundTrip, NumarckDeltaMeetsRatioBound) {
  const auto flash = numarck::bench::flash_series(3, {"pres"});
  const auto& snaps = flash.at("pres");
  const nc::Codec& c = nc::require(nc::kNumarckId);
  nk::Options opts;
  opts.error_bound = 0.001;
  const auto res = c.encode(snaps[1], snaps[0], {}, opts);
  EXPECT_LE(res.stats.max_ratio_error, opts.error_bound * 1.0001);
  const auto back = c.decode(res.payload, snaps[0], {}, snaps[1].size());
  expect_within_bound(snaps[1], back, opts.error_bound * 1.01);
}

// ------------------------------ round trips through container + restart --

TEST(CodecContainer, EveryCodecRestoresWithinBoundThroughRestartEngine) {
  const auto flash = numarck::bench::flash_series(4, {"pres"});
  const auto& snaps = flash.at("pres");
  for (const nc::Codec* c : nc::all()) {
    TempFile tmp(std::string("container_") + c->name());
    nk::Options opts;
    opts.error_bound = 0.001;
    opts.codec_id = c->id();
    // Closed loop so the temporal codec's chain error stays within ~E too.
    opts.reference = nk::Reference::kReconstructedPrevious;
    {
      nk::VariableCompressor comp(opts);
      nio::CheckpointWriter w(tmp.path(), {"pres"});
      for (std::size_t it = 0; it < snaps.size(); ++it) {
        w.append("pres", it, 0.1 * static_cast<double>(it), comp.push(snaps[it]));
      }
      w.close();
    }
    nio::CheckpointReader r(tmp.path());
    const nio::RestartEngine engine(r);
    for (std::size_t it = 0; it < snaps.size(); ++it) {
      const auto recon = engine.reconstruct_variable("pres", it);
      expect_within_bound(snaps[it], recon, opts.error_bound * 1.02);
    }
    // Delta records must be tagged with the configured codec.
    const auto info = r.info("pres", 1);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->codec_id, c->id());
  }
}

TEST(CodecContainer, SpatialRecordsRestoreWithoutReplayingTheChain) {
  // A non-temporal record is its own restart point: the engine must start
  // replay at the latest spatial record, not at the full checkpoint.
  const auto flash = numarck::bench::flash_series(3, {"pres"});
  const auto& snaps = flash.at("pres");
  TempFile tmp("spatial_restart");
  nk::Options opts;
  opts.error_bound = 0.001;
  opts.codec_id = nc::kIsabelaId;
  {
    nk::VariableCompressor comp(opts);
    nio::CheckpointWriter w(tmp.path(), {"pres"});
    for (std::size_t it = 0; it < snaps.size(); ++it) {
      w.append("pres", it, 0.0, comp.push(snaps[it]));
    }
    w.close();
  }
  nio::CheckpointReader r(tmp.path());
  const auto recon = nio::RestartEngine(r).reconstruct_variable("pres", 2);
  expect_within_bound(snaps[2], recon, opts.error_bound);
}

// ------------------------------------------------- stored-byte accounting --

TEST(CodecContainer, StoredBytesMatchOnDiskPayloadSizeExactly) {
  const auto flash = numarck::bench::flash_series(3, {"pres"});
  const auto& snaps = flash.at("pres");
  for (const nc::Codec* c : nc::all()) {
    TempFile tmp(std::string("bytes_") + c->name());
    nk::Options opts;
    opts.codec_id = c->id();
    opts.postpass = nk::Postpass::all();  // must already be in the payload
    std::vector<std::size_t> written_sizes;
    {
      nk::VariableCompressor comp(opts);
      nio::CheckpointWriter w(tmp.path(), {"pres"});
      for (std::size_t it = 0; it < snaps.size(); ++it) {
        const auto step = comp.push(snaps[it]);
        written_sizes.push_back(step.stored_bytes());
        w.append("pres", it, 0.0, step);
      }
      w.close();
    }
    nio::CheckpointReader r(tmp.path());
    for (std::size_t it = 0; it < snaps.size(); ++it) {
      const auto info = r.info("pres", it);
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->payload_size, written_sizes[it]) << c->name();
      const auto step = r.load("pres", it);
      EXPECT_EQ(step.stored_bytes(), written_sizes[it]) << c->name();
      EXPECT_EQ(step.point_count, snaps[it].size()) << c->name();
    }
  }
}

// ------------------------------------------------ v1 backward compat ------

TEST(CodecGolden, V1ContainerReadsAsImplicitCodecs) {
  nio::CheckpointReader r(NUMARCK_GOLDEN_V1);
  ASSERT_EQ(r.variables(), (std::vector<std::string>{"dens", "pres"}));
  ASSERT_EQ(r.iteration_count(), 4u);
  for (const auto& v : r.variables()) {
    for (std::size_t it = 0; it < 4; ++it) {
      const auto info = r.info(v, it);
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->codec_id, it == 0 ? nc::kFpcId : nc::kNumarckId);
    }
  }
}

TEST(CodecGolden, V1ContainerRestoresWithinBound) {
  nio::CheckpointReader r(NUMARCK_GOLDEN_V1);
  const nio::RestartEngine engine(r);
  const nk::Options defaults;
  for (std::size_t it = 0; it < 4; ++it) {
    // The golden chain was written open-loop (paper mode): per-step error is
    // bounded against the *true* previous snapshot, so replay error compounds
    // by up to ~E per delta applied.
    const double tol = it == 0 ? 1e-12
                               : defaults.error_bound *
                                     (static_cast<double>(it) + 1.0);
    expect_within_bound(golden_series(512, it),
                        engine.reconstruct_variable("dens", it), tol);
    expect_within_bound(golden_series(512, it + 7),
                        engine.reconstruct_variable("pres", it), tol);
  }
}

TEST(CodecGolden, NumarckPayloadsAreByteIdenticalAcrossTheRefactor) {
  // Re-encode the golden series with today's pipeline and compare payload
  // bytes against the pre-refactor container: the NUMARCK wire format must
  // not have moved.
  nio::CheckpointReader r(NUMARCK_GOLDEN_V1);
  nk::Options opts;  // the golden file was written with default Options
  // The golden container predates the rANS index coder; v1() is the exact
  // pass combination it was written with (all() now also arms rANS, whose
  // heuristic may legitimately pick a different coder for these payloads).
  opts.postpass = nk::Postpass::v1();
  for (const auto& v : r.variables()) {
    nk::VariableCompressor comp(opts);
    const std::size_t phase = v == "dens" ? 0 : 7;
    for (std::size_t it = 0; it < 4; ++it) {
      const auto step = comp.push(golden_series(512, it + phase));
      const auto golden = r.load(v, it);
      ASSERT_EQ(step.payload, golden.payload)
          << v << " iteration " << it << " payload diverged";
    }
  }
}

// ----------------------------------------------- forged codec rejection --

TEST(CodecForgery, UnknownCodecIdRejectedBeforeLoad) {
  const auto flash = numarck::bench::flash_series(3, {"pres"});
  const auto& snaps = flash.at("pres");
  TempFile tmp("forged");
  {
    nk::Options opts;
    nk::VariableCompressor comp(opts);
    nio::CheckpointWriter w(tmp.path(), {"pres"});
    for (std::size_t it = 0; it < snaps.size(); ++it) {
      w.append("pres", it, 0.0, comp.push(snaps[it]));
    }
    w.close();
  }
  auto image = file_bytes(tmp.path());
  const auto offs = record_offsets(image);
  ASSERT_EQ(offs.size(), 3u);
  ASSERT_EQ(image[offs[1] + kCodecByteOffset], nc::kNumarckId);
  image[offs[1] + kCodecByteOffset] = 7;  // unregistered id

  EXPECT_THROW(nio::CheckpointReader(image, nio::TailPolicy::kStrict),
               numarck::ContractViolation);
  // Salvage keeps everything before the forged record readable.
  const nio::CheckpointReader salvage(image, nio::TailPolicy::kSalvage);
  EXPECT_TRUE(salvage.tail_was_damaged());
  EXPECT_EQ(salvage.load("pres", 0).point_count, snaps[0].size());
}

TEST(CodecForgery, FullRecordWithTemporalCodecRejected) {
  const auto flash = numarck::bench::flash_series(1, {"pres"});
  TempFile tmp("forged_full");
  {
    nk::Options opts;
    nk::VariableCompressor comp(opts);
    nio::CheckpointWriter w(tmp.path(), {"pres"});
    w.append("pres", 0, 0.0, comp.push(flash.at("pres")[0]));
    w.close();
  }
  auto image = file_bytes(tmp.path());
  const auto offs = record_offsets(image);
  ASSERT_EQ(offs.size(), 1u);
  ASSERT_EQ(image[offs[0] + kCodecByteOffset], nc::kFpcId);
  image[offs[0] + kCodecByteOffset] = nc::kNumarckId;  // temporal on a full
  EXPECT_THROW(nio::CheckpointReader(image, nio::TailPolicy::kStrict),
               numarck::ContractViolation);
}

TEST(CodecForgery, WriterRefusesUnregisteredCodecId) {
  TempFile tmp("bad_append");
  nio::CheckpointWriter w(tmp.path(), {"v"});
  nk::CompressedStep step = nk::CompressedStep::full_from(
      std::vector<double>{1.0, 2.0, 3.0, 4.0});
  step.codec_id = 99;
  EXPECT_THROW(w.append("v", 0, 0.0, step), numarck::ContractViolation);
}

// ---------------------------------------------- restore codec mismatch ---

TEST(CodecRestore, WrongExpectedCodecFailsWithClearMessage) {
  const auto flash = numarck::bench::flash_series(3, {"pres"});
  const auto& snaps = flash.at("pres");
  TempFile ckpt("restore_mismatch");
  TempFile out("restore_out");
  {
    nk::Options opts;
    nk::VariableCompressor comp(opts);
    nio::CheckpointWriter w(ckpt.path(), {"pres"});
    for (std::size_t it = 0; it < snaps.size(); ++it) {
      w.append("pres", it, 0.0, comp.push(snaps[it]));
    }
    w.close();
  }
  numarck::tools::RestoreJob job;
  job.checkpoint_path = ckpt.path();
  job.output_path = out.path();
  job.expected_codec = "isabela";
  try {
    (void)numarck::tools::restore_file(job);
    FAIL() << "mismatched --codec must throw";
  } catch (const numarck::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("use codec numarck"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("expected isabela"),
              std::string::npos);
  }
  job.expected_codec = "numarck";
  EXPECT_EQ(numarck::tools::restore_file(job).points, snaps[0].size());
}

TEST(CodecRestore, ParseCodecCoversEveryBackendAndAuto) {
  EXPECT_EQ(numarck::tools::parse_codec("numarck"), nc::kNumarckId);
  EXPECT_EQ(numarck::tools::parse_codec("fpc"), nc::kFpcId);
  EXPECT_EQ(numarck::tools::parse_codec("isabela"), nc::kIsabelaId);
  EXPECT_EQ(numarck::tools::parse_codec("bspline"), nc::kBsplineId);
  EXPECT_EQ(numarck::tools::parse_codec("auto"), nc::kAutoId);
  EXPECT_THROW((void)numarck::tools::parse_codec("zfp"),
               numarck::ContractViolation);
}

// --------------------------------------------------------- adaptive auto --

TEST(CodecAuto, NeverLargerThanFixedNumarckOnFlashSod) {
  const auto flash = numarck::bench::flash_series(8, {"pres"});
  const auto& snaps = flash.at("pres");
  auto total_bytes = [&](std::uint8_t codec_id) {
    numarck::adaptive::AdaptiveOptions opts;
    opts.codec.error_bound = 0.001;
    opts.codec.codec_id = codec_id;
    opts.drift_budget = 1e-12;  // write a record every snapshot
    opts.max_interval = 1;
    opts.gamma_rebase = 1.0;    // no quality rebase: pure codec comparison
    opts.rebase_interval = 1000;
    numarck::adaptive::AdaptiveCheckpointer cp(opts);
    for (const auto& s : snaps) (void)cp.push(s);
    EXPECT_EQ(cp.stats().deltas, snaps.size() - 1);
    return cp.stats().bytes_written;
  };
  const std::size_t fixed = total_bytes(nc::kNumarckId);
  const std::size_t automatic = total_bytes(nc::kAutoId);
  EXPECT_LE(automatic, fixed);
}

TEST(CodecAuto, RejectsUnknownFixedCodec) {
  numarck::adaptive::AdaptiveOptions opts;
  opts.codec.codec_id = 42;
  EXPECT_THROW(numarck::adaptive::AdaptiveCheckpointer cp(opts),
               numarck::ContractViolation);
}
