// Tests for the CLI implementation library (compress / inspect / restore on
// raw float64 files) plus an end-to-end CLI-binary round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "numarck/io/checkpoint_file.hpp"
#include "numarck/metrics/metrics.hpp"
#include "numarck/tools/cli.hpp"
#include "numarck/util/expect.hpp"

namespace nt = numarck::tools;

namespace {

class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("/tmp/numarck_tool_" + name + "_" + std::to_string(::getpid())) {}
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::vector<double> make_series(std::size_t points, std::size_t iterations) {
  std::vector<double> raw;
  raw.reserve(points * iterations);
  for (std::size_t it = 0; it < iterations; ++it) {
    for (std::size_t j = 0; j < points; ++j) {
      raw.push_back(3.0 +
                    std::sin(0.01 * static_cast<double>(j) +
                             0.2 * static_cast<double>(it)));
    }
  }
  return raw;
}

void write_raw(const std::string& path, const std::vector<double>& v) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
}

std::vector<double> read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<double> v(size / sizeof(double));
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(size));
  return v;
}

}  // namespace

TEST(Tools, CompressInspectRestoreRoundTrip) {
  TempPath input("in"), ckpt("ck"), output("out");
  const std::size_t points = 4096, iterations = 5;
  const auto raw = make_series(points, iterations);
  write_raw(input.str(), raw);

  nt::CompressJob job;
  job.input_path = input.str();
  job.output_path = ckpt.str();
  job.points_per_iteration = points;
  job.options.error_bound = 0.001;
  const auto report = nt::compress_file(job);
  EXPECT_EQ(report.iterations, iterations);
  EXPECT_EQ(report.points_per_iteration, points);
  EXPECT_LT(report.output_bytes, report.input_bytes);

  std::ostringstream inspect;
  nt::inspect_file(ckpt.str(), inspect);
  EXPECT_NE(inspect.str().find("iterations: 5"), std::string::npos);
  EXPECT_NE(inspect.str().find("full"), std::string::npos);
  EXPECT_NE(inspect.str().find("delta"), std::string::npos);

  nt::RestoreJob rjob;
  rjob.checkpoint_path = ckpt.str();
  rjob.output_path = output.str();
  rjob.iteration = iterations - 1;
  EXPECT_EQ(nt::restore_file(rjob).points, points);

  const auto restored = read_raw(output.str());
  const std::vector<double> truth(raw.end() - points, raw.end());
  EXPECT_LT(numarck::metrics::max_relative_error(truth, restored), 0.01);
}

TEST(Tools, WholeFileAsSingleIteration) {
  TempPath input("single"), ckpt("singleck");
  write_raw(input.str(), make_series(1000, 1));
  nt::CompressJob job;
  job.input_path = input.str();
  job.output_path = ckpt.str();
  const auto report = nt::compress_file(job);
  EXPECT_EQ(report.iterations, 1u);
  EXPECT_EQ(report.points_per_iteration, 1000u);
}

TEST(Tools, PostpassShrinksOutput) {
  TempPath input("pp"), with("ppw"), without("ppo");
  write_raw(input.str(), make_series(8192, 6));
  nt::CompressJob job;
  job.input_path = input.str();
  job.points_per_iteration = 8192;
  job.output_path = with.str();
  job.postpass = nt::PostpassMode::kAuto;
  const auto a = nt::compress_file(job);
  job.output_path = without.str();
  job.postpass = nt::PostpassMode::kNone;
  const auto b = nt::compress_file(job);
  EXPECT_LT(a.output_bytes, b.output_bytes);
}

TEST(Tools, RansContainerRestoreRoundTrip) {
  // A FLASH-like smooth series produces the skewed index histogram the
  // adaptive policy routes to rANS. The container must carry the rANS
  // frames end to end: compress -> inspect (postpass column says so) ->
  // restore within the error bound.
  TempPath input("rans"), ckpt("ransck"), output("ransout");
  const std::size_t points = 16384, iterations = 4;
  const auto raw = make_series(points, iterations);
  write_raw(input.str(), raw);

  nt::CompressJob job;
  job.input_path = input.str();
  job.output_path = ckpt.str();
  job.points_per_iteration = points;
  job.options.error_bound = 0.001;
  job.postpass = nt::PostpassMode::kRans;
  const auto report = nt::compress_file(job);
  EXPECT_EQ(report.iterations, iterations);

  std::ostringstream inspect;
  nt::inspect_file(ckpt.str(), inspect);
  EXPECT_NE(inspect.str().find("postpass"), std::string::npos);
  EXPECT_NE(inspect.str().find("rans"), std::string::npos);

  nt::RestoreJob rjob;
  rjob.checkpoint_path = ckpt.str();
  rjob.output_path = output.str();
  rjob.iteration = iterations - 1;
  EXPECT_EQ(nt::restore_file(rjob).points, points);
  const auto restored = read_raw(output.str());
  const std::vector<double> truth(raw.end() - points, raw.end());
  EXPECT_LT(numarck::metrics::max_relative_error(truth, restored), 0.01);
}

TEST(Tools, ParsePostpassNames) {
  EXPECT_EQ(nt::parse_postpass("none"), nt::PostpassMode::kNone);
  EXPECT_EQ(nt::parse_postpass("huffman"), nt::PostpassMode::kHuffman);
  EXPECT_EQ(nt::parse_postpass("rans"), nt::PostpassMode::kRans);
  EXPECT_EQ(nt::parse_postpass("auto"), nt::PostpassMode::kAuto);
  EXPECT_THROW(nt::parse_postpass("zstd"), numarck::ContractViolation);
  // The modes map onto the documented coder sets.
  EXPECT_FALSE(nt::to_postpass(nt::PostpassMode::kNone).rle_bitmap);
  EXPECT_FALSE(nt::to_postpass(nt::PostpassMode::kHuffman).rans_indices);
  EXPECT_FALSE(nt::to_postpass(nt::PostpassMode::kRans).huffman_indices);
  EXPECT_TRUE(nt::to_postpass(nt::PostpassMode::kRans).rans_indices);
  EXPECT_TRUE(nt::to_postpass(nt::PostpassMode::kAuto).huffman_indices);
  EXPECT_TRUE(nt::to_postpass(nt::PostpassMode::kAuto).rans_indices);
}

TEST(Tools, ParseKMeansEngineNames) {
  EXPECT_EQ(nt::parse_kmeans_engine("histogram"),
            numarck::cluster::KMeansEngine::kHistogramLloyd);
  EXPECT_EQ(nt::parse_kmeans_engine("exact"),
            numarck::cluster::KMeansEngine::kSortedBoundary);
  EXPECT_THROW(nt::parse_kmeans_engine("lloyd"), numarck::ContractViolation);
  EXPECT_THROW(nt::parse_kmeans_engine("kmeans++"),
               numarck::ContractViolation);
}

TEST(Tools, MisalignedInputThrows) {
  TempPath input("mis"), ckpt("misck");
  write_raw(input.str(), make_series(100, 3));
  nt::CompressJob job;
  job.input_path = input.str();
  job.output_path = ckpt.str();
  job.points_per_iteration = 97;  // 300 % 97 != 0
  EXPECT_THROW(nt::compress_file(job), numarck::ContractViolation);
}

TEST(Tools, MissingInputThrows) {
  nt::CompressJob job;
  job.input_path = "/tmp/definitely_not_here.f64";
  job.output_path = "/tmp/never_written.ckpt";
  EXPECT_THROW(nt::compress_file(job), numarck::ContractViolation);
}

TEST(Tools, RestoreNeedsVarWhenAmbiguous) {
  // Single-variable containers resolve implicitly; requesting a bogus name
  // fails loudly.
  TempPath input("amb"), ckpt("ambck"), out("ambout");
  write_raw(input.str(), make_series(500, 2));
  nt::CompressJob job;
  job.input_path = input.str();
  job.output_path = ckpt.str();
  job.points_per_iteration = 500;
  (void)nt::compress_file(job);
  nt::RestoreJob rjob;
  rjob.checkpoint_path = ckpt.str();
  rjob.output_path = out.str();
  rjob.variable = "nope";
  rjob.iteration = 1;
  EXPECT_THROW(nt::restore_file(rjob), numarck::ContractViolation);
}

TEST(Tools, ParseStrategyNames) {
  EXPECT_EQ(nt::parse_strategy("equal-width"),
            numarck::core::Strategy::kEqualWidth);
  EXPECT_EQ(nt::parse_strategy("log-scale"), numarck::core::Strategy::kLogScale);
  EXPECT_EQ(nt::parse_strategy("clustering"),
            numarck::core::Strategy::kClustering);
  EXPECT_THROW(nt::parse_strategy("zfp"), numarck::ContractViolation);
}

TEST(Tools, CompactKeepsStrideAndShrinks) {
  TempPath input("cin"), full("cfull"), thin("cthin");
  const std::size_t points = 4096, iterations = 9;
  write_raw(input.str(), make_series(points, iterations));
  nt::CompressJob cjob;
  cjob.input_path = input.str();
  cjob.output_path = full.str();
  cjob.points_per_iteration = points;
  (void)nt::compress_file(cjob);

  nt::CompactJob kjob;
  kjob.input_path = full.str();
  kjob.output_path = thin.str();
  kjob.keep_stride = 4;
  const auto r = nt::compact_file(kjob);
  EXPECT_EQ(r.input_iterations, 9u);
  EXPECT_EQ(r.kept_iterations, 3u);  // iterations 0, 4, 8
  EXPECT_LT(r.output_bytes, r.input_bytes);

  // The compacted container restores iteration 2 (originally 8) close to
  // the original final snapshot (bounds compound: original + recompress).
  nt::RestoreJob rjob;
  rjob.checkpoint_path = thin.str();
  rjob.output_path = input.str() + ".out";
  rjob.iteration = 2;
  EXPECT_EQ(nt::restore_file(rjob).points, points);
  const auto restored = read_raw(input.str() + ".out");
  const auto raw = make_series(points, iterations);
  const std::vector<double> truth(raw.end() - points, raw.end());
  EXPECT_LT(numarck::metrics::max_relative_error(truth, restored), 0.02);
  std::remove((input.str() + ".out").c_str());
}

TEST(Tools, CompactStrideOneIsRecompression) {
  TempPath input("sin"), full("sfull"), same("ssame");
  write_raw(input.str(), make_series(1024, 3));
  nt::CompressJob cjob;
  cjob.input_path = input.str();
  cjob.output_path = full.str();
  cjob.points_per_iteration = 1024;
  (void)nt::compress_file(cjob);
  nt::CompactJob kjob;
  kjob.input_path = full.str();
  kjob.output_path = same.str();
  kjob.keep_stride = 1;
  const auto r = nt::compact_file(kjob);
  EXPECT_EQ(r.kept_iterations, 3u);
}

TEST(Tools, CompactInvalidStrideThrows) {
  nt::CompactJob kjob;
  kjob.input_path = "/tmp/x";
  kjob.output_path = "/tmp/y";
  kjob.keep_stride = 0;
  EXPECT_THROW(nt::compact_file(kjob), numarck::ContractViolation);
}

TEST(Tools, ParsePredictorNames) {
  EXPECT_EQ(nt::parse_predictor("previous"),
            numarck::core::Predictor::kPrevious);
  EXPECT_EQ(nt::parse_predictor("linear"), numarck::core::Predictor::kLinear);
  EXPECT_THROW(nt::parse_predictor("cubic"), numarck::ContractViolation);
}

#if defined(NUMARCK_INSPECT_BIN) && defined(NUMARCK_RESTORE_BIN)

namespace {

/// Runs `cmd` (stderr folded into stdout), returning {exit status, output}.
std::pair<int, std::string> run_cli(const std::string& cmd) {
  FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (pipe && std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = pipe ? ::pclose(pipe) : -1;
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

std::vector<char> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void write_file_bytes(const std::string& path, const std::vector<char>& b) {
  std::ofstream out(path, std::ios::binary);
  out.write(b.data(), static_cast<std::streamsize>(b.size()));
}

std::string make_checkpoint(const TempPath& input, const TempPath& ckpt) {
  write_raw(input.str(), make_series(1024, 3));
  nt::CompressJob job;
  job.input_path = input.str();
  job.output_path = ckpt.str();
  job.points_per_iteration = 1024;
  (void)nt::compress_file(job);
  return ckpt.str();
}

}  // namespace

TEST(ToolsCli, InspectRejectsTruncatedContainer) {
  TempPath input("ctrin"), ckpt("ctrck");
  const auto path = make_checkpoint(input, ckpt);
  auto bytes = read_file_bytes(path);
  bytes.resize(bytes.size() - bytes.size() / 3);
  write_file_bytes(path, bytes);
  const auto [rc, out] = run_cli(std::string(NUMARCK_INSPECT_BIN) + " " + path);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST(ToolsCli, InspectRejectsBitFlippedContainer) {
  TempPath input("cbfin"), ckpt("cbfck");
  const auto path = make_checkpoint(input, ckpt);
  auto bytes = read_file_bytes(path);
  // Flip one payload bit of the iteration-0 record: the scan still succeeds,
  // so only the per-record CRC check in load() can catch it.
  const numarck::io::CheckpointReader reader(path);
  const auto info = reader.info(reader.variables().front(), 0);
  ASSERT_TRUE(info.has_value());
  bytes[static_cast<std::size_t>(info->payload_offset) + 1] ^= 0x10;
  write_file_bytes(path, bytes);
  const auto [rc, out] = run_cli(std::string(NUMARCK_INSPECT_BIN) + " " + path);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST(ToolsCli, RestoreRejectsTruncatedContainer) {
  TempPath input("rtrin"), ckpt("rtrck"), out_path("rtrout");
  const auto path = make_checkpoint(input, ckpt);
  auto bytes = read_file_bytes(path);
  bytes.resize(bytes.size() / 2);
  write_file_bytes(path, bytes);
  const auto [rc, out] =
      run_cli(std::string(NUMARCK_RESTORE_BIN) + " --checkpoint " + path +
              " --iteration 2 --output " + out_path.str());
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST(ToolsCli, RestoreRejectsBitFlippedContainer) {
  TempPath input("rbfin"), ckpt("rbfck"), out_path("rbfout");
  const auto path = make_checkpoint(input, ckpt);
  auto bytes = read_file_bytes(path);
  const numarck::io::CheckpointReader reader(path);
  const auto info = reader.info(reader.variables().front(), 1);
  ASSERT_TRUE(info.has_value());
  bytes[static_cast<std::size_t>(info->payload_offset) + 2] ^= 0x04;
  write_file_bytes(path, bytes);
  const auto [rc, out] =
      run_cli(std::string(NUMARCK_RESTORE_BIN) + " --checkpoint " + path +
              " --iteration 2 --output " + out_path.str());
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST(ToolsCli, RestoreSucceedsOnIntactContainer) {
  // Control: the same invocation exits 0 before corruption, proving the
  // nonzero statuses above come from the damage, not the harness.
  TempPath input("okin"), ckpt("okck"), out_path("okout");
  const auto path = make_checkpoint(input, ckpt);
  const auto [rc, out] =
      run_cli(std::string(NUMARCK_RESTORE_BIN) + " --checkpoint " + path +
              " --iteration 2 --output " + out_path.str());
  EXPECT_EQ(rc, 0) << out;
}

TEST(ToolsCli, RestoreSalvagesTornTailByDefault) {
  // A torn final record models a crash mid-checkpoint. Without --iteration
  // the tool restores the last complete iteration and exits 0 — restart
  // must succeed precisely when the file is damaged.
  TempPath input("slvin"), ckpt("slvck"), out_path("slvout");
  const auto path = make_checkpoint(input, ckpt);
  auto bytes = read_file_bytes(path);
  bytes.resize(bytes.size() - 5);
  write_file_bytes(path, bytes);
  const auto [rc, out] =
      run_cli(std::string(NUMARCK_RESTORE_BIN) + " --checkpoint " + path +
              " --output " + out_path.str());
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("restored iteration 1"), std::string::npos) << out;
  EXPECT_NE(out.find("torn tail salvaged"), std::string::npos) << out;
}

TEST(ToolsCli, RestoreStrictRejectsTornTail) {
  TempPath input("strin"), ckpt("strck"), out_path("strout");
  const auto path = make_checkpoint(input, ckpt);
  auto bytes = read_file_bytes(path);
  bytes.resize(bytes.size() - 5);
  write_file_bytes(path, bytes);
  const auto [rc, out] =
      run_cli(std::string(NUMARCK_RESTORE_BIN) + " --checkpoint " + path +
              " --strict --output " + out_path.str());
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST(ToolsCli, RestoreWrongCodecExitsNonzeroWithClearMessage) {
  // The container's deltas are NUMARCK; demanding --codec isabela must abort
  // with a message naming both codecs, not silently restore.
  TempPath input("wcin"), ckpt("wcck"), out_path("wcout");
  const auto path = make_checkpoint(input, ckpt);
  const auto [rc, out] =
      run_cli(std::string(NUMARCK_RESTORE_BIN) + " --checkpoint " + path +
              " --codec isabela --output " + out_path.str());
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("expected isabela"), std::string::npos) << out;
  // The matching codec restores fine.
  const auto [rc_ok, out_ok] =
      run_cli(std::string(NUMARCK_RESTORE_BIN) + " --checkpoint " + path +
              " --codec numarck --output " + out_path.str());
  EXPECT_EQ(rc_ok, 0) << out_ok;
}

TEST(ToolsCli, RestoreUnknownCodecNameExitsNonzero) {
  TempPath input("ucin"), ckpt("ucck"), out_path("ucout");
  const auto path = make_checkpoint(input, ckpt);
  const auto [rc, out] =
      run_cli(std::string(NUMARCK_RESTORE_BIN) + " --checkpoint " + path +
              " --codec zfp --output " + out_path.str());
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("unknown codec"), std::string::npos) << out;
}

#endif  // NUMARCK_INSPECT_BIN && NUMARCK_RESTORE_BIN

TEST(Tools, CompressWithLinearPredictorRestores) {
  TempPath input("lin"), ckpt("linck"), out("linout");
  const std::size_t points = 2048, iterations = 6;
  const auto raw = make_series(points, iterations);
  write_raw(input.str(), raw);
  nt::CompressJob job;
  job.input_path = input.str();
  job.output_path = ckpt.str();
  job.points_per_iteration = points;
  job.options.predictor = numarck::core::Predictor::kLinear;
  (void)nt::compress_file(job);
  nt::RestoreJob rjob;
  rjob.checkpoint_path = ckpt.str();
  rjob.output_path = out.str();
  rjob.iteration = iterations - 1;
  EXPECT_EQ(nt::restore_file(rjob).points, points);
  const auto restored = read_raw(out.str());
  const std::vector<double> truth(raw.end() - points, raw.end());
  EXPECT_LT(numarck::metrics::max_relative_error(truth, restored), 0.01);
}
