// Checkpoint container and restart-engine tests, including corruption
// detection (CRC) and equivalence with in-memory reconstruction.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <unistd.h>
#include <string>
#include <vector>

#include "numarck/adaptive/checkpointer.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/io/byte_source.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/io/fault.hpp"
#include "numarck/sim/flash/simulator.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"

namespace nio = numarck::io;
namespace nk = numarck::core;

namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/numarck_test_" + name + "_" +
              std::to_string(::getpid()) + ".ckpt") {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<double> snap(std::size_t n, double t, std::uint64_t seed) {
  numarck::util::Pcg32 rng(seed);
  std::vector<double> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = 1.0 + 0.1 * std::sin(0.01 * static_cast<double>(j) + t) +
           rng.normal() * 1e-4;
  }
  return v;
}

/// Each variable of `r` replayed alone and in order: a VariableReconstructor
/// fed every record from the variable's latest chain start to `target`,
/// with no lookahead — the serial replay RestartEngine::reconstruct must
/// reproduce bit for bit.
std::map<std::string, std::vector<double>> serial_replay(
    const nio::CheckpointReader& r, std::size_t target) {
  std::map<std::string, std::vector<double>> out;
  for (const auto& var : r.variables()) {
    std::size_t start = target;
    while (!nk::starts_chain(r.info(var, start)->type == nio::RecordType::kFull,
                             r.info(var, start)->codec_id)) {
      --start;
    }
    nk::VariableReconstructor rec;
    for (std::size_t it = start; it <= target; ++it) rec.push(r.read(var, it));
    out[var] = rec.state();
  }
  return out;
}

/// A plan whose reads pass `after` times, then fail with EIO persistently.
std::shared_ptr<nio::FaultPlan> failing_reads(std::size_t after) {
  auto plan = std::make_shared<nio::FaultPlan>();
  plan->fail(nio::FaultPlan::Op::kRead, after, EIO);
  return plan;
}

/// Bitwise equality, so a NaN payload or a signed zero cannot hide.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// reconstruct() and reconstruct_variable() at every iteration of the
/// container at `path` against the serial replay.
void expect_restores_match_serial_replay(const std::string& path) {
  nio::CheckpointReader r(path);
  nio::RestartEngine eng(r);
  ASSERT_GT(r.iteration_count(), 2u);
  for (std::size_t it = 0; it < r.iteration_count(); ++it) {
    const auto want = serial_replay(r, it);
    const auto got = eng.reconstruct(it);
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [var, state] : want) {
      EXPECT_TRUE(same_bits(got.at(var), state))
          << var << " at iteration " << it;
      EXPECT_TRUE(same_bits(eng.reconstruct_variable(var, it), state))
          << var << " at iteration " << it;
    }
  }
}

}  // namespace

TEST(CheckpointFile, WriteReadRoundTrip) {
  TempFile tmp("roundtrip");
  nk::Options opts;
  nk::VariableCompressor ca(opts), cb(opts);
  {
    nio::CheckpointWriter w(tmp.path(), {"alpha", "beta"});
    for (int it = 0; it < 4; ++it) {
      w.append("alpha", it, it * 0.5, ca.push(snap(2048, it * 0.3, 1)));
      w.append("beta", it, it * 0.5, cb.push(snap(2048, it * 0.7, 2)));
    }
  }
  nio::CheckpointReader r(tmp.path());
  EXPECT_EQ(r.variables(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(r.iteration_count(), 4u);
  EXPECT_DOUBLE_EQ(r.sim_time(3), 1.5);
  const auto info = r.info("alpha", 0);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->type, nio::RecordType::kFull);
  EXPECT_EQ(r.info("alpha", 1)->type, nio::RecordType::kDelta);
  EXPECT_FALSE(r.info("alpha", 9).has_value());
}

TEST(CheckpointFile, RestartMatchesInMemoryReconstruction) {
  TempFile tmp("equiv");
  nk::Options opts;
  opts.strategy = nk::Strategy::kClustering;
  nk::VariableCompressor comp(opts);
  nk::VariableReconstructor mem;
  {
    nio::CheckpointWriter w(tmp.path(), {"v"});
    for (int it = 0; it < 5; ++it) {
      const auto step = comp.push(snap(4096, it * 0.4, 3));
      mem.push(step);
      w.append("v", it, it * 1.0, step);
    }
  }
  nio::CheckpointReader r(tmp.path());
  nio::RestartEngine eng(r);
  EXPECT_EQ(eng.reconstruct_variable("v", 4), mem.state());
  const auto all = eng.reconstruct(4);
  EXPECT_EQ(all.at("v"), mem.state());
}

TEST(CheckpointFile, IntermediateIterationReconstructs) {
  TempFile tmp("mid");
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  std::vector<std::vector<double>> truths;
  {
    nio::CheckpointWriter w(tmp.path(), {"v"});
    for (int it = 0; it < 6; ++it) {
      truths.push_back(snap(1024, it * 0.5, 4));
      w.append("v", it, 0.0, comp.push(truths.back()));
    }
  }
  nio::CheckpointReader r(tmp.path());
  nio::RestartEngine eng(r);
  const auto mid = eng.reconstruct_variable("v", 2);
  // Within the error bound of the truth at iteration 2 (small accumulation).
  for (std::size_t j = 0; j < mid.size(); ++j) {
    EXPECT_NEAR(mid[j], truths[2][j], std::abs(truths[2][j]) * 0.01);
  }
}

TEST(CheckpointFile, CrcDetectsCorruption) {
  TempFile tmp("crc");
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  {
    nio::CheckpointWriter w(tmp.path(), {"v"});
    w.append("v", 0, 0.0, comp.push(snap(1024, 0.0, 5)));
    w.append("v", 1, 1.0, comp.push(snap(1024, 0.5, 5)));
  }
  // Flip one byte inside the second record's payload.
  {
    std::fstream f(tmp.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekp(size - 100);
    char c;
    f.seekg(size - 100);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x55);
    f.seekp(size - 100);
    f.write(&c, 1);
  }
  nio::CheckpointReader r(tmp.path());
  EXPECT_THROW((void)r.load("v", 1), numarck::ContractViolation);
  // The first record is untouched and still loads.
  EXPECT_NO_THROW((void)r.load("v", 0));
}

TEST(CheckpointFile, UnknownVariableThrows) {
  TempFile tmp("unknown");
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  {
    nio::CheckpointWriter w(tmp.path(), {"v"});
    EXPECT_THROW(w.append("nope", 0, 0.0, comp.push(snap(64, 0, 6))),
                 numarck::ContractViolation);
    w.append("v", 0, 0.0, comp.push(snap(64, 0, 6)));
  }
  nio::CheckpointReader r(tmp.path());
  EXPECT_THROW((void)r.load("nope", 0), numarck::ContractViolation);
}

TEST(CheckpointFile, MissingFileThrows) {
  EXPECT_THROW(nio::CheckpointReader("/tmp/definitely_not_here.ckpt"),
               numarck::ContractViolation);
}

TEST(CheckpointFile, GarbageFileThrows) {
  TempFile tmp("garbage");
  {
    std::ofstream f(tmp.path(), std::ios::binary);
    f << "this is not a checkpoint";
  }
  EXPECT_THROW(nio::CheckpointReader{tmp.path()}, numarck::ContractViolation);
}

TEST(CheckpointFile, RestartBeyondHistoryThrows) {
  TempFile tmp("beyond");
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  {
    nio::CheckpointWriter w(tmp.path(), {"v"});
    w.append("v", 0, 0.0, comp.push(snap(64, 0, 7)));
  }
  nio::CheckpointReader r(tmp.path());
  nio::RestartEngine eng(r);
  EXPECT_THROW((void)eng.reconstruct_variable("v", 5),
               numarck::ContractViolation);
}

TEST(CheckpointFile, BytesWrittenGrows) {
  TempFile tmp("bytes");
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  nio::CheckpointWriter w(tmp.path(), {"v"});
  const auto before = w.bytes_written();
  w.append("v", 0, 0.0, comp.push(snap(1024, 0, 8)));
  EXPECT_GT(w.bytes_written(), before);
}

TEST(CheckpointFile, RestartReplaysFromLatestFullRebase) {
  // Containers produced by the adaptive controller contain mid-stream full
  // records; restart must start from the latest full at or before the
  // target, not from record 0.
  TempFile tmp("rebase");
  nk::Options opts;
  {
    nio::CheckpointWriter w(tmp.path(), {"v"});
    nk::VariableCompressor c1(opts);
    w.append("v", 0, 0.0, c1.push(snap(512, 0.0, 9)));
    w.append("v", 1, 1.0, c1.push(snap(512, 0.3, 9)));
    // Rebase: a fresh compressor emits a full at iteration 2.
    nk::VariableCompressor c2(opts);
    const auto truth2 = snap(512, 7.0, 10);
    w.append("v", 2, 2.0, c2.push(truth2));
    w.append("v", 3, 3.0, c2.push(snap(512, 7.3, 10)));
  }
  nio::CheckpointReader r(tmp.path());
  nio::RestartEngine eng(r);
  // Iteration 2 is bit-exact (it IS the rebase full).
  EXPECT_EQ(eng.reconstruct_variable("v", 2), snap(512, 7.0, 10));
  // Iteration 3 decodes against the rebase, not the original chain.
  const auto s3 = eng.reconstruct_variable("v", 3);
  const auto truth3 = snap(512, 7.3, 10);
  for (std::size_t j = 0; j < s3.size(); ++j) {
    EXPECT_NEAR(s3[j], truth3[j], std::abs(truth3[j]) * 0.002);
  }
}

// ------------------------------------------------------ parallel restore --
// RestartEngine::reconstruct decodes each variable's chain start on the
// caller, then replays the deltas of all variables across the pool, each
// in place. Whatever the chain shape, it must equal the serial replay.

TEST(ParallelRestore, FlashSedovMatchesSerialReplay) {
  namespace nf = numarck::sim::flash;
  nf::SimulatorConfig cfg;
  cfg.mesh.blocks_per_dim = 2;
  cfg.mesh.block_interior = 12;  // 24^3 points: several decode chunks
  cfg.mesh.guard = 4;
  cfg.problem.problem = nf::Problem::kSedov;
  cfg.steps_per_checkpoint = 2;
  nf::Simulator sim(cfg);
  const auto& vars = nf::Simulator::variable_names();
  TempFile tmp("par_sedov");
  {
    nk::Options opts;
    std::vector<nk::VariableCompressor> comps(vars.size(),
                                              nk::VariableCompressor(opts));
    nio::CheckpointWriter w(tmp.path(), vars);
    for (std::size_t it = 0; it < 7; ++it) {
      if (it > 0) sim.advance_checkpoint();
      for (std::size_t v = 0; v < vars.size(); ++v) {
        w.append(vars[v], it, sim.time(), comps[v].push(sim.snapshot(vars[v])));
      }
    }
    w.close();
  }
  expect_restores_match_serial_replay(tmp.path());
}

TEST(ParallelRestore, LinearPredictorChainsMatchSerialReplay) {
  // Linear-coded deltas read D'_{i-2}: the replay keeps it only for them.
  TempFile tmp("par_linear");
  {
    nk::Options opts;
    opts.predictor = nk::Predictor::kLinear;
    nk::VariableCompressor ca(opts), cb(opts), cc(opts);
    nio::CheckpointWriter w(tmp.path(), {"a", "b", "c"});
    for (std::size_t it = 0; it < 7; ++it) {
      const double t = static_cast<double>(it);
      w.append("a", it, t, ca.push(snap(9000, 0.2 * t, 21)));
      w.append("b", it, t, cb.push(snap(9000, 0.5 * t, 22)));
      w.append("c", it, t, cc.push(snap(300, 0.1 * t, 23)));
    }
    w.close();
  }
  {
    nio::CheckpointReader r(tmp.path());
    ASSERT_TRUE(nk::reads_previous2(r.read("a", 3)));
  }
  expect_restores_match_serial_replay(tmp.path());
}

TEST(ParallelRestore, AdaptiveChainsRebasingAtDifferentIterationsMatchSerialReplay) {
  // One adaptive controller per variable, each rebasing on its own
  // interval, so the chain starts differ from variable to variable. A tiny
  // drift budget writes every snapshot, numbering records densely.
  TempFile tmp("par_adaptive");
  const std::vector<std::string> vars = {"p", "q", "r"};
  {
    nio::CheckpointWriter w(tmp.path(), vars);
    std::vector<std::unique_ptr<numarck::adaptive::AdaptiveCheckpointer>>
        ckpts;
    for (const std::size_t interval : {2u, 3u, 5u}) {
      numarck::adaptive::AdaptiveOptions o;
      o.drift_budget = 1e-12;
      o.rebase_interval = interval;
      ckpts.push_back(
          std::make_unique<numarck::adaptive::AdaptiveCheckpointer>(o));
    }
    for (std::size_t it = 0; it < 9; ++it) {
      for (std::size_t v = 0; v < vars.size(); ++v) {
        auto d = ckpts[v]->push(snap(6000, 0.3 * static_cast<double>(it),
                                    31 + v));
        ASSERT_NE(d.action, numarck::adaptive::Action::kSkip);
        w.append(vars[v], it, 0.0, d.step);
      }
    }
    w.close();
  }
  {
    nio::CheckpointReader r(tmp.path());
    EXPECT_EQ(r.info("p", 2)->type, nio::RecordType::kFull);
    EXPECT_EQ(r.info("q", 2)->type, nio::RecordType::kDelta);
  }
  expect_restores_match_serial_replay(tmp.path());
}

TEST(CheckpointFile, LoadValidatesEachChainStartOnce) {
  // One full and kDeltas deltas: loading every record reads each payload
  // exactly once. The chain start's validated point count is remembered,
  // not re-read for every delta that it bounds.
  TempFile tmp("load_reads");
  constexpr std::size_t kDeltas = 12;
  {
    nk::VariableCompressor comp{nk::Options{}};
    nio::CheckpointWriter w(tmp.path(), {"v"});
    for (std::size_t it = 0; it <= kDeltas; ++it) {
      w.append("v", it, 0.0,
               comp.push(snap(2000, 0.3 * static_cast<double>(it), 5)));
    }
    w.close();
  }
  auto plan = std::make_shared<nio::FaultPlan>();
  const nio::CheckpointReader r(std::make_shared<nio::FaultySource>(
      std::make_unique<nio::FileSource>(tmp.path()), plan));
  ASSERT_EQ(r.info("v", 0)->type, nio::RecordType::kFull);
  ASSERT_EQ(r.info("v", kDeltas)->type, nio::RecordType::kDelta);
  const std::size_t scan_reads = plan->calls(nio::FaultPlan::Op::kRead);
  for (std::size_t it = 0; it <= kDeltas; ++it) {
    EXPECT_EQ(r.load("v", it).point_count, 2000u);
  }
  EXPECT_EQ(plan->calls(nio::FaultPlan::Op::kRead) - scan_reads, kDeltas + 1);
}

TEST(ParallelRestore, ReadFailureOnAnyRecordThrowsNamingEio) {
  // The scan is one bulk read. Every later read — chain starts on the
  // caller, deltas on the pool — fails from its scheduled one on: the
  // restore throws EIO, never hangs or returns part of the map.
  TempFile tmp("par_eio");
  const std::vector<std::string> vars = {"a", "b", "c", "d"};
  constexpr std::size_t kIters = 4;
  {
    nk::Options opts;
    std::vector<nk::VariableCompressor> comps(vars.size(),
                                              nk::VariableCompressor(opts));
    nio::CheckpointWriter w(tmp.path(), vars);
    for (std::size_t it = 0; it < kIters; ++it) {
      for (std::size_t v = 0; v < vars.size(); ++v) {
        w.append(vars[v], it, 0.0,
                 comps[v].push(snap(3000, 0.4 * static_cast<double>(it), v)));
      }
    }
    w.close();
  }
  // Small enough for the scan's single 256 KiB read.
  ASSERT_LT(nio::FileSource(tmp.path()).size(), 256u << 10);
  const auto want = nio::RestartEngine(nio::CheckpointReader(tmp.path()))
                        .reconstruct(kIters - 1);
  const std::size_t payload_reads = vars.size() * kIters;
  for (std::size_t ok = 1; ok <= payload_reads; ++ok) {
    const nio::CheckpointReader r(std::make_shared<nio::FaultySource>(
        std::make_unique<nio::FileSource>(tmp.path()), failing_reads(ok)));
    try {
      (void)nio::RestartEngine(r).reconstruct(kIters - 1);
      ADD_FAILURE() << "restore succeeded with read " << ok + 1 << " failing";
    } catch (const numarck::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(std::strerror(EIO)),
                std::string::npos)
          << e.what();
    }
  }
  const nio::CheckpointReader r(std::make_shared<nio::FaultySource>(
      std::make_unique<nio::FileSource>(tmp.path()),
      failing_reads(1 + payload_reads)));
  EXPECT_EQ(nio::RestartEngine(r).reconstruct(kIters - 1), want);
}
