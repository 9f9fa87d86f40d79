// Tests for the adaptive checkpoint-frequency controller (§V extension).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "numarck/adaptive/checkpointer.hpp"
#include "numarck/codec/codec.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/sim/flash/simulator.hpp"
#include "numarck/util/crc32.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"

namespace nc = numarck::codec;
namespace nd = numarck::adaptive;
namespace nk = numarck::core;

namespace {

std::vector<double> drifting_snapshot(std::size_t n, double drift) {
  std::vector<double> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = 2.0 + 0.5 * std::sin(0.01 * static_cast<double>(j)) + drift;
  }
  return v;
}

nd::AdaptiveOptions quick_options() {
  nd::AdaptiveOptions o;
  o.codec.error_bound = 0.001;
  o.drift_budget = 0.01;
  o.max_interval = 5;
  return o;
}

}  // namespace

TEST(Adaptive, FirstSnapshotIsAlwaysFull) {
  nd::AdaptiveCheckpointer cp(quick_options());
  const auto d = cp.push(drifting_snapshot(4096, 0.0));
  EXPECT_EQ(d.action, nd::Action::kFull);
  EXPECT_GT(d.bytes_written, 0u);
}

TEST(Adaptive, StaticDataOnlyWritesAtMaxInterval) {
  auto opts = quick_options();
  opts.max_interval = 4;
  nd::AdaptiveCheckpointer cp(opts);
  const auto snap = drifting_snapshot(4096, 0.0);
  (void)cp.push(snap);  // full
  int writes = 0;
  for (int it = 0; it < 12; ++it) {
    const auto d = cp.push(snap);
    if (d.action != nd::Action::kSkip) ++writes;
  }
  // Exactly every 4th snapshot is forced out.
  EXPECT_EQ(writes, 3);
  EXPECT_EQ(cp.stats().skips, 9u);
}

TEST(Adaptive, FastDriftWritesEveryStep) {
  nd::AdaptiveCheckpointer cp(quick_options());
  double drift = 0.0;
  (void)cp.push(drifting_snapshot(4096, drift));
  for (int it = 0; it < 6; ++it) {
    drift += 0.2;  // 10 %-ish change per step, way over the 1 % budget
    const auto d = cp.push(drifting_snapshot(4096, drift));
    EXPECT_NE(d.action, nd::Action::kSkip) << "iteration " << it;
  }
  EXPECT_EQ(cp.stats().skips, 0u);
}

TEST(Adaptive, SlowDriftAccumulatesThenWrites) {
  nd::AdaptiveCheckpointer cp(quick_options());
  double drift = 0.0;
  (void)cp.push(drifting_snapshot(4096, drift));
  std::vector<nd::Action> actions;
  for (int it = 0; it < 8; ++it) {
    drift += 0.008;  // ~0.4 % per step against a 1 % budget
    actions.push_back(cp.push(drifting_snapshot(4096, drift)).action);
  }
  // The first write happens once the accumulated drift crosses the budget
  // (about every 3 steps), not every step and not only at max_interval.
  int writes = 0;
  for (auto a : actions) {
    if (a != nd::Action::kSkip) ++writes;
  }
  EXPECT_GE(writes, 2);
  EXPECT_LE(writes, 4);
}

TEST(Adaptive, DistributionCollapseTriggersRebase) {
  auto opts = quick_options();
  opts.gamma_rebase = 0.3;
  nd::AdaptiveCheckpointer cp(opts);
  numarck::util::Pcg32 rng(3);
  std::vector<double> base(8192);
  for (auto& x : base) x = rng.uniform(1.0, 2.0);
  (void)cp.push(base);
  // Scramble: every point changes by an independent large random ratio —
  // incompressible under any 255-bin table.
  std::vector<double> scrambled(base.size());
  for (std::size_t j = 0; j < base.size(); ++j) {
    scrambled[j] = base[j] * rng.uniform(0.2, 5.0);
  }
  const auto d = cp.push(scrambled);
  EXPECT_EQ(d.action, nd::Action::kFull) << "degraded delta must rebase";
  EXPECT_EQ(cp.stats().fulls, 2u);
}

TEST(Adaptive, RebaseIntervalForcesPeriodicFulls) {
  auto opts = quick_options();
  opts.rebase_interval = 3;
  opts.drift_budget = 1e-9;  // write every step
  nd::AdaptiveCheckpointer cp(opts);
  double drift = 0.0;
  (void)cp.push(drifting_snapshot(2048, drift));
  std::size_t fulls = 0;
  for (int it = 0; it < 9; ++it) {
    drift += 0.05;
    if (cp.push(drifting_snapshot(2048, drift)).action == nd::Action::kFull) {
      ++fulls;
    }
  }
  EXPECT_GE(fulls, 2u);  // every 3rd write rebases
}

TEST(Adaptive, MinIntervalSuppressesWrites) {
  auto opts = quick_options();
  opts.min_interval = 3;
  opts.max_interval = 10;
  nd::AdaptiveCheckpointer cp(opts);
  double drift = 0.0;
  (void)cp.push(drifting_snapshot(2048, drift));
  drift += 0.5;  // massive drift immediately
  EXPECT_EQ(cp.push(drifting_snapshot(2048, drift)).action, nd::Action::kSkip);
  EXPECT_EQ(cp.push(drifting_snapshot(2048, drift)).action, nd::Action::kSkip);
  EXPECT_NE(cp.push(drifting_snapshot(2048, drift)).action, nd::Action::kSkip);
}

TEST(Adaptive, WrittenStreamReconstructs) {
  // The records a controller emits must replay exactly like a plain
  // compressor stream (skips simply do not appear).
  nd::AdaptiveCheckpointer cp(quick_options());
  nk::VariableReconstructor rec;
  double drift = 0.0;
  std::vector<double> last_written;
  for (int it = 0; it < 10; ++it) {
    drift += (it % 3 == 0) ? 0.05 : 0.001;
    const auto snap = drifting_snapshot(4096, drift);
    const auto d = cp.push(snap);
    if (d.action == nd::Action::kFull) {
      rec = nk::VariableReconstructor{};
      rec.push(d.step);
      last_written = snap;
    } else if (d.action == nd::Action::kDelta) {
      rec.push(d.step);
      last_written = snap;
    }
  }
  ASSERT_FALSE(last_written.empty());
  const auto& state = rec.state();
  for (std::size_t j = 0; j < state.size(); ++j) {
    EXPECT_NEAR(state[j], last_written[j],
                std::abs(last_written[j]) * 0.002 + 1e-12);
  }
}

TEST(Adaptive, StalenessTracksSkips) {
  nd::AdaptiveCheckpointer cp(quick_options());
  const auto snap = drifting_snapshot(1024, 0.0);
  (void)cp.push(snap);
  EXPECT_EQ(cp.staleness(), 0u);
  (void)cp.push(snap);
  EXPECT_EQ(cp.staleness(), 1u);
  (void)cp.push(snap);
  EXPECT_EQ(cp.staleness(), 2u);
}

TEST(Adaptive, InvalidOptionsThrow) {
  nd::AdaptiveOptions o;
  o.drift_budget = 0.0;
  EXPECT_THROW(nd::AdaptiveCheckpointer{o}, numarck::ContractViolation);
  o = {};
  o.min_interval = 5;
  o.max_interval = 2;
  EXPECT_THROW(nd::AdaptiveCheckpointer{o}, numarck::ContractViolation);
  o = {};
  o.sample_stride = 0;
  EXPECT_THROW(nd::AdaptiveCheckpointer{o}, numarck::ContractViolation);
}

TEST(Adaptive, LengthChangeThrows) {
  nd::AdaptiveCheckpointer cp(quick_options());
  (void)cp.push(drifting_snapshot(1024, 0.0));
  EXPECT_THROW(cp.push(drifting_snapshot(512, 0.0)),
               numarck::ContractViolation);
}

TEST(Adaptive, RestartChainForcesAFull) {
  nd::AdaptiveCheckpointer cp(quick_options());
  const auto snap = drifting_snapshot(1024, 0.0);
  (void)cp.push(snap);
  EXPECT_EQ(cp.push(snap).action, nd::Action::kSkip);
  cp.restart_chain();
  const auto d = cp.push(snap);
  EXPECT_EQ(d.action, nd::Action::kFull);
  EXPECT_TRUE(d.step.is_full);
  EXPECT_EQ(cp.stats().fulls, 2u);
  EXPECT_EQ(cp.staleness(), 0u);
}

TEST(Adaptive, ConcurrentPushesKeepOneConsistentStream) {
  // The controller is documented as safe to drive from any thread: four
  // writers share one stream, and every push lands in exactly one counter.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPushes = 24;
  std::vector<std::vector<double>> snaps;
  for (std::size_t k = 0; k < 6; ++k) {
    snaps.push_back(drifting_snapshot(1024, 0.02 * static_cast<double>(k)));
  }
  nd::AdaptiveCheckpointer cp(quick_options());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cp, &snaps, t] {
      for (std::size_t i = 0; i < kPushes; ++i) {
        (void)cp.push(snaps[(t + i) % snaps.size()]);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = cp.stats();
  EXPECT_EQ(s.snapshots, kThreads * kPushes);
  EXPECT_EQ(s.fulls + s.deltas + s.skips, s.snapshots);
  EXPECT_GE(s.fulls, 1u);
}

// ------------------------------------------------------- golden records --
// Size + CRC-32 of every record a controller writes for a FLASH
// smooth-waves series (the flash-adaptive bench configuration) with skips,
// gamma rebases and interval rebases, in auto and fixed-NUMARCK mode. Auto
// mode once trial-encoded every codec per delta and picked NUMARCK each
// time; these pins hold it to the same records.

namespace {

struct Pin {
  const char* name;
  std::size_t size;
  std::uint32_t crc;
};

/// Checks `bytes` against the pin called `name`; on a mismatch (or a missing
/// pin) prints the row that would pin the current bytes.
void expect_pinned(std::span<const Pin> pins, const std::string& name,
                   const std::vector<std::uint8_t>& bytes) {
  const std::uint32_t crc = numarck::util::crc32(bytes.data(), bytes.size());
  char row[160];
  std::snprintf(row, sizeof row, "{\"%s\", %zu, 0x%08xu},", name.c_str(),
                bytes.size(), crc);
  for (const Pin& p : pins) {
    if (name != p.name) continue;
    EXPECT_EQ(bytes.size(), p.size) << row;
    EXPECT_EQ(crc, p.crc) << row;
    return;
  }
  ADD_FAILURE() << "no pin: " << row;
}

constexpr std::size_t kGoldenSnapshots = 16;

const std::map<std::string, std::vector<std::vector<double>>>&
smooth_waves_series() {
  static const auto series = [] {
    numarck::sim::flash::SimulatorConfig cfg;
    cfg.mesh.blocks_per_dim = 2;
    cfg.mesh.block_interior = 16;
    cfg.mesh.guard = 4;
    cfg.problem.problem = numarck::sim::flash::Problem::kSmoothWaves;
    cfg.problem.wave_mach = 0.3;
    cfg.problem.wave_bulk_mach = 0.5;
    cfg.problem.wave_density_contrast = 0.2;
    cfg.steps_per_checkpoint = 3;
    numarck::sim::flash::Simulator sim(cfg);
    std::map<std::string, std::vector<std::vector<double>>> out;
    for (std::size_t it = 0; it < kGoldenSnapshots; ++it) {
      if (it > 0) sim.advance_checkpoint();
      for (const char* v : {"dens", "pres"}) out[v].push_back(sim.snapshot(v));
    }
    return out;
  }();
  return series;
}

nd::AdaptiveOptions golden_options(std::uint8_t codec_id) {
  nd::AdaptiveOptions o;
  o.codec.codec_id = codec_id;
  o.codec.postpass = nk::Postpass::all();
  o.drift_budget = 0.01;
  o.max_interval = 3;
  o.gamma_rebase = 0.015;  // deltas spanning a skip cross it
  o.rebase_interval = 5;
  return o;
}

/// Pins every record written for dens and pres, named tag/var/snapshot/
/// action, and checks the series covers a skip, a gamma rebase and an
/// interval rebase.
void expect_series_pinned(std::span<const Pin> pins, std::uint8_t codec_id,
                          const std::string& tag) {
  const nd::AdaptiveOptions opts = golden_options(codec_id);
  bool skipped = false;
  bool gamma_rebase = false;
  bool interval_rebase = false;
  for (const auto& [var, snaps] : smooth_waves_series()) {
    nd::AdaptiveCheckpointer cp(opts);
    std::size_t writes_since_full = 0;
    for (std::size_t it = 0; it < snaps.size(); ++it) {
      const auto d = cp.push(snaps[it]);
      char name[96];
      std::snprintf(name, sizeof name, "%s/%s/%02zu/%s", tag.c_str(),
                    var.c_str(), it, nd::to_string(d.action));
      if (d.action == nd::Action::kSkip) {
        skipped = true;
        continue;
      }
      expect_pinned(pins, name, d.step.payload);
      if (d.action == nd::Action::kDelta) {
        ++writes_since_full;
        continue;
      }
      if (it > 0) {
        (writes_since_full + 1 >= opts.rebase_interval ? interval_rebase
                                                       : gamma_rebase) = true;
      }
      writes_since_full = 0;
    }
  }
  EXPECT_TRUE(skipped);
  EXPECT_TRUE(gamma_rebase);
  EXPECT_TRUE(interval_rebase);
}

constexpr Pin kAutoPins[] = {
    {"auto/dens/00/full", 202923, 0x8a1bef4bu},
    {"auto/dens/01/delta", 35882, 0x36fcc093u},
    {"auto/dens/02/delta", 36108, 0x63b4e6c3u},
    {"auto/dens/03/delta", 36463, 0xb2c3da4cu},
    {"auto/dens/04/delta", 36860, 0x4b8c34d5u},
    {"auto/dens/05/full", 220181, 0x1534fc29u},
    {"auto/dens/06/delta", 37387, 0x013a07c9u},
    {"auto/dens/07/delta", 37439, 0x682d47ddu},
    {"auto/dens/08/delta", 36840, 0x8af346d7u},
    {"auto/dens/09/delta", 36232, 0xebd5fd48u},
    {"auto/dens/10/full", 218670, 0x1cdcbb2bu},
    {"auto/dens/11/delta", 35615, 0x5b29b545u},
    {"auto/dens/12/delta", 35436, 0x1d0966dau},
    {"auto/dens/14/full", 218501, 0x4016c33eu},
    {"auto/pres/00/full", 201785, 0x0e13984fu},
    {"auto/pres/01/delta", 36942, 0x5b06615du},
    {"auto/pres/02/delta", 36383, 0x35585dd1u},
    {"auto/pres/03/delta", 36290, 0xe39f48e1u},
    {"auto/pres/04/delta", 36199, 0x778d1c08u},
    {"auto/pres/05/full", 218958, 0x9b702760u},
    {"auto/pres/06/delta", 36542, 0x61f6de92u},
    {"auto/pres/07/delta", 36717, 0x0321013fu},
    {"auto/pres/08/delta", 36566, 0x068b2a0fu},
    {"auto/pres/09/delta", 36375, 0xfd554d3bu},
    {"auto/pres/11/full", 218507, 0x6b4b399bu},
    {"auto/pres/13/full", 218382, 0x1b5ee7f6u},
    {"auto/pres/15/full", 218589, 0xe10054beu},
};

constexpr Pin kNumarckPins[] = {
    {"numarck/dens/00/full", 202923, 0x8a1bef4bu},
    {"numarck/dens/01/delta", 35882, 0x36fcc093u},
    {"numarck/dens/02/delta", 36108, 0x63b4e6c3u},
    {"numarck/dens/03/delta", 36463, 0xb2c3da4cu},
    {"numarck/dens/04/delta", 36860, 0x4b8c34d5u},
    {"numarck/dens/05/full", 220181, 0x1534fc29u},
    {"numarck/dens/06/delta", 37387, 0x013a07c9u},
    {"numarck/dens/07/delta", 37439, 0x682d47ddu},
    {"numarck/dens/08/delta", 36840, 0x8af346d7u},
    {"numarck/dens/09/delta", 36232, 0xebd5fd48u},
    {"numarck/dens/10/full", 218670, 0x1cdcbb2bu},
    {"numarck/dens/11/delta", 35615, 0x5b29b545u},
    {"numarck/dens/12/delta", 35436, 0x1d0966dau},
    {"numarck/dens/14/full", 218501, 0x4016c33eu},
    {"numarck/pres/00/full", 201785, 0x0e13984fu},
    {"numarck/pres/01/delta", 36942, 0x5b06615du},
    {"numarck/pres/02/delta", 36383, 0x35585dd1u},
    {"numarck/pres/03/delta", 36290, 0xe39f48e1u},
    {"numarck/pres/04/delta", 36199, 0x778d1c08u},
    {"numarck/pres/05/full", 218958, 0x9b702760u},
    {"numarck/pres/06/delta", 36542, 0x61f6de92u},
    {"numarck/pres/07/delta", 36717, 0x0321013fu},
    {"numarck/pres/08/delta", 36566, 0x068b2a0fu},
    {"numarck/pres/09/delta", 36375, 0xfd554d3bu},
    {"numarck/pres/11/full", 218507, 0x6b4b399bu},
    {"numarck/pres/13/full", 218382, 0x1b5ee7f6u},
    {"numarck/pres/15/full", 218589, 0xe10054beu},
};

/// Feeds the controller's written snapshots to a plain VariableCompressor
/// (a fresh one at every full) and expects the same records, byte for byte.
void expect_matches_plain_compressor(nk::Reference reference) {
  nd::AdaptiveOptions opts = golden_options(nc::kNumarckId);
  opts.codec.reference = reference;
  std::size_t deltas = 0;
  for (const auto& [var, snaps] : smooth_waves_series()) {
    SCOPED_TRACE(var);
    nd::AdaptiveCheckpointer cp(opts);
    std::optional<nk::VariableCompressor> plain;
    for (const auto& snap : snaps) {
      const auto d = cp.push(snap);
      if (d.action == nd::Action::kSkip) continue;
      if (d.action == nd::Action::kFull) plain.emplace(opts.codec);
      ASSERT_TRUE(plain.has_value());
      const auto step = plain->push(snap);
      EXPECT_EQ(d.step.is_full, step.is_full);
      EXPECT_EQ(d.step.codec_id, step.codec_id);
      EXPECT_EQ(d.step.payload, step.payload);
      if (d.action == nd::Action::kDelta) ++deltas;
    }
  }
  EXPECT_GT(deltas, 0u);
}

}  // namespace

TEST(AdaptiveGolden, AutoRecordsArePinned) {
  expect_series_pinned(kAutoPins, nc::kAutoId, "auto");
}

TEST(AdaptiveGolden, FixedNumarckRecordsArePinned) {
  expect_series_pinned(kNumarckPins, nc::kNumarckId, "numarck");
}

TEST(Adaptive, RecordsMatchPlainCompressorOpenLoop) {
  expect_matches_plain_compressor(nk::Reference::kTruePrevious);
}

TEST(Adaptive, RecordsMatchPlainCompressorClosedLoop) {
  expect_matches_plain_compressor(nk::Reference::kReconstructedPrevious);
}
