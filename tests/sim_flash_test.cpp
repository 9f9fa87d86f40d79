// FLASH-like simulator tests: mesh/guard-cell correctness, EOS consistency,
// hydro conservation and physical sanity, snapshot/restore round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "numarck/sim/flash/simulator.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/thread_pool.hpp"
#include "pool_nesting.hpp"

namespace nf = numarck::sim::flash;

namespace {

nf::SimulatorConfig small_config(nf::Problem p,
                                 nf::Boundary b = nf::Boundary::kOutflow) {
  nf::SimulatorConfig cfg;
  cfg.mesh.blocks_per_dim = 2;
  cfg.mesh.block_interior = 8;
  cfg.mesh.guard = 4;
  cfg.mesh.boundary = b;
  cfg.problem.problem = p;
  cfg.steps_per_checkpoint = 1;
  return cfg;
}

}  // namespace

// -------------------------------------------------------------------- EOS --

TEST(Eos, PressureInternalEnergyInverse) {
  nf::Eos eos;
  for (double rho : {0.1, 1.0, 5.0}) {
    for (double p : {0.01, 1.0, 50.0}) {
      const double e = eos.internal_energy(rho, p);
      EXPECT_NEAR(eos.pressure(rho, e), p, p * 1e-6);
    }
  }
}

TEST(Eos, GameMatchesDefinition) {
  nf::Eos eos;
  const double rho = 2.0, p = 3.0;
  const double e = eos.internal_energy(rho, p);
  EXPECT_NEAR(eos.game(rho, p), p / (rho * e) + 1.0, 1e-12);
}

TEST(Eos, GammaDecreasesWithTemperature) {
  nf::Eos eos;
  EXPECT_GT(eos.gamma_of_temperature(0.1), eos.gamma_of_temperature(100.0));
  EXPECT_LE(eos.gamma_of_temperature(1e9),
            eos.config().gamma0);
  EXPECT_GE(eos.gamma_of_temperature(1e9),
            eos.config().gamma0 - eos.config().gamma_drop);
}

TEST(Eos, SoundSpeedPositiveAndScales) {
  nf::Eos eos;
  EXPECT_GT(eos.sound_speed(1.0, 1.0), 0.0);
  EXPECT_GT(eos.sound_speed(1.0, 4.0), eos.sound_speed(1.0, 1.0));
}

TEST(Eos, TemperatureIdealGas) {
  nf::Eos eos;
  EXPECT_DOUBLE_EQ(eos.temperature(2.0, 6.0), 3.0);
}

// -------------------------------------------------------------- Block/Mesh --

TEST(Block, IndexingIsConsistent) {
  nf::Block b(8, 4);
  EXPECT_EQ(b.total(), 16u);
  EXPECT_EQ(b.lo(), 4u);
  EXPECT_EQ(b.hi(), 12u);
  EXPECT_EQ(b.interior_cells(), 512u);
  b.at(nf::kRho, 5, 6, 7) = 3.25;
  EXPECT_DOUBLE_EQ(b.field(nf::kRho)[b.idx(5, 6, 7)], 3.25);
}

TEST(Block, RejectsTinyGeometry) {
  EXPECT_THROW(nf::Block(1, 4), numarck::ContractViolation);
  EXPECT_THROW(nf::Block(8, 1), numarck::ContractViolation);
}

TEST(Mesh, CellCentersTileTheDomain) {
  nf::MeshConfig mc;
  mc.blocks_per_dim = 2;
  mc.block_interior = 8;
  nf::BlockMesh mesh(mc);
  // First interior cell of block 0 is at dx/2.
  const auto c0 = mesh.cell_center(0, mesh.block(0).lo(), mesh.block(0).lo(),
                                   mesh.block(0).lo());
  EXPECT_NEAR(c0[0], mesh.dx() / 2, 1e-15);
  // Last interior cell of the last block is at L - dx/2.
  const std::size_t last = mesh.block_count() - 1;
  const auto c1 = mesh.cell_center(last, mesh.block(last).hi() - 1,
                                   mesh.block(last).hi() - 1,
                                   mesh.block(last).hi() - 1);
  EXPECT_NEAR(c1[0], mc.domain_length - mesh.dx() / 2, 1e-15);
}

TEST(Mesh, PeriodicGuardFillWrapsValues) {
  nf::MeshConfig mc;
  mc.blocks_per_dim = 2;
  mc.block_interior = 8;
  mc.guard = 4;
  mc.boundary = nf::Boundary::kPeriodic;
  nf::BlockMesh mesh(mc);
  // Tag each interior cell with its global x index.
  for (std::size_t b = 0; b < mesh.block_count(); ++b) {
    auto& blk = mesh.block(b);
    const std::size_t bx = b % 2;
    for (std::size_t k = blk.lo(); k < blk.hi(); ++k) {
      for (std::size_t j = blk.lo(); j < blk.hi(); ++j) {
        for (std::size_t i = blk.lo(); i < blk.hi(); ++i) {
          blk.at(nf::kRho, i, j, k) =
              static_cast<double>(bx * 8 + (i - blk.lo()));
        }
      }
    }
  }
  mesh.fill_guards();
  // Low-x guard of block 0 must hold the wrap of the global high end
  // (indices 12..15 for a 16-cell domain).
  const auto& blk0 = mesh.block(0);
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_DOUBLE_EQ(blk0.at(nf::kRho, g, blk0.lo(), blk0.lo()),
                     static_cast<double>(12 + g));
  }
}

TEST(Mesh, OutflowGuardCopiesNearestInterior) {
  nf::MeshConfig mc;
  mc.blocks_per_dim = 1;
  mc.block_interior = 8;
  mc.boundary = nf::Boundary::kOutflow;
  nf::BlockMesh mesh(mc);
  auto& blk = mesh.block(0);
  for (std::size_t k = blk.lo(); k < blk.hi(); ++k) {
    for (std::size_t j = blk.lo(); j < blk.hi(); ++j) {
      for (std::size_t i = blk.lo(); i < blk.hi(); ++i) {
        blk.at(nf::kRho, i, j, k) = static_cast<double>(i);
      }
    }
  }
  mesh.fill_guards();
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_DOUBLE_EQ(blk.at(nf::kRho, g, blk.lo(), blk.lo()),
                     static_cast<double>(blk.lo()));
    EXPECT_DOUBLE_EQ(blk.at(nf::kRho, blk.hi() + g, blk.lo(), blk.lo()),
                     static_cast<double>(blk.hi() - 1));
  }
}

TEST(Mesh, ReflectingGuardFlipsNormalMomentum) {
  nf::MeshConfig mc;
  mc.blocks_per_dim = 1;
  mc.block_interior = 8;
  mc.boundary = nf::Boundary::kReflecting;
  nf::BlockMesh mesh(mc);
  auto& blk = mesh.block(0);
  for (std::size_t k = blk.lo(); k < blk.hi(); ++k) {
    for (std::size_t j = blk.lo(); j < blk.hi(); ++j) {
      for (std::size_t i = blk.lo(); i < blk.hi(); ++i) {
        blk.at(nf::kMomX, i, j, k) = 2.0;
        blk.at(nf::kMomY, i, j, k) = 3.0;
      }
    }
  }
  mesh.fill_guards();
  // Low-x guard: x momentum mirrored with flipped sign, y momentum intact.
  EXPECT_DOUBLE_EQ(blk.at(nf::kMomX, 3, blk.lo(), blk.lo()), -2.0);
  EXPECT_DOUBLE_EQ(blk.at(nf::kMomY, 3, blk.lo(), blk.lo()), 3.0);
}

TEST(Mesh, InteriorVisitCountsEveryCellOnce) {
  nf::MeshConfig mc;
  mc.blocks_per_dim = 2;
  mc.block_interior = 6;
  mc.guard = 4;
  nf::BlockMesh mesh(mc);
  std::size_t count = 0;
  std::size_t max_flat = 0;
  mesh.for_each_interior([&](std::size_t, std::size_t, std::size_t,
                             std::size_t, std::size_t flat) {
    ++count;
    max_flat = std::max(max_flat, flat);
  });
  EXPECT_EQ(count, mesh.interior_cells());
  EXPECT_EQ(max_flat + 1, mesh.interior_cells());
}

// ------------------------------------------------------------------ hydro --

TEST(Hydro, MassConservedInPeriodicBox) {
  auto cfg = small_config(nf::Problem::kSmoothWaves, nf::Boundary::kPeriodic);
  nf::Simulator sim(cfg);
  const double m0 = sim.total_mass();
  for (int s = 0; s < 10; ++s) sim.step();
  EXPECT_NEAR(sim.total_mass(), m0, std::abs(m0) * 1e-12);
}

TEST(Hydro, EnergyConservedInPeriodicBox) {
  auto cfg = small_config(nf::Problem::kSmoothWaves, nf::Boundary::kPeriodic);
  nf::Simulator sim(cfg);
  const double e0 = sim.total_energy();
  for (int s = 0; s < 10; ++s) sim.step();
  EXPECT_NEAR(sim.total_energy(), e0, std::abs(e0) * 1e-12);
}

TEST(Hydro, DensityStaysPositive) {
  auto cfg = small_config(nf::Problem::kSedov);
  nf::Simulator sim(cfg);
  for (int s = 0; s < 15; ++s) sim.step();
  for (double d : sim.snapshot("dens")) EXPECT_GT(d, 0.0);
  for (double p : sim.snapshot("pres")) EXPECT_GT(p, 0.0);
}

TEST(Hydro, SedovBlastExpandsOutward) {
  auto cfg = small_config(nf::Problem::kSedov);
  nf::Simulator sim(cfg);
  const auto before = sim.snapshot("pres");
  double max_before = 0;
  for (double p : before) max_before = std::max(max_before, p);
  for (int s = 0; s < 12; ++s) sim.step();
  const auto after = sim.snapshot("pres");
  double max_after = 0;
  for (double p : after) max_after = std::max(max_after, p);
  // The central spike must have decayed as the shock expands.
  EXPECT_LT(max_after, max_before);
  // And some kinetic energy must now exist.
  double ke = 0;
  for (double v : sim.snapshot("velx")) ke += v * v;
  EXPECT_GT(ke, 0.0);
}

TEST(Hydro, StateIsBitIdenticalAcrossPoolSizes) {
  // Blocks are independent within a sweep and compute_dt reduces per-block
  // slots in block order, so the pool size must not reach any value.
  std::map<std::string, std::vector<double>> reference;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    numarck::util::ThreadPool pool(workers);
    nf::Simulator sim(small_config(nf::Problem::kSedov), &pool);
    for (int s = 0; s < 4; ++s) sim.step();
    const auto state = sim.snapshot_all();
    if (reference.empty()) {
      reference = state;
      continue;
    }
    for (const auto& [name, values] : state) {
      const auto& want = reference.at(name);
      ASSERT_EQ(values.size(), want.size());
      EXPECT_EQ(std::memcmp(values.data(), want.data(),
                            values.size() * sizeof(double)),
                0)
          << name << " workers=" << workers;
    }
  }
}

TEST(Hydro, StepInsideAChunkOfItsOwnPoolFinishes) {
  // Every thread of a 2-worker pool holds a chunk, and each steps a
  // simulator whose mesh runs on that same pool.
  numarck::test_support::expect_finishes_inside_every_chunk(
      2,
      [](numarck::util::ThreadPool& pool) {
        nf::Simulator sim(small_config(nf::Problem::kSedov), &pool);
        for (int s = 0; s < 2; ++s) sim.step();
      });
}

TEST(Hydro, SodShockMovesRight) {
  auto cfg = small_config(nf::Problem::kSod);
  cfg.mesh.block_interior = 12;
  nf::Simulator sim(cfg);
  for (int s = 0; s < 10; ++s) sim.step();
  // Mean x velocity must be positive (flow from high- to low-pressure side).
  double mean_vx = 0;
  const auto vx = sim.snapshot("velx");
  for (double v : vx) mean_vx += v;
  mean_vx /= static_cast<double>(vx.size());
  EXPECT_GT(mean_vx, 0.0);
}

TEST(Hydro, StationaryUniformStateStaysStationary) {
  auto cfg = small_config(nf::Problem::kSmoothWaves);
  cfg.problem.wave_density_contrast = 0.0;
  cfg.problem.wave_mach = 0.0;
  cfg.problem.wave_bulk_mach = 0.0;
  nf::Simulator sim(cfg);
  for (int s = 0; s < 5; ++s) sim.step();
  for (double v : sim.snapshot("velx")) EXPECT_NEAR(v, 0.0, 1e-12);
  for (double d : sim.snapshot("dens")) EXPECT_NEAR(d, 1.0, 1e-12);
}

TEST(Hydro, UniformAdvectionStaysUniform) {
  // A constant state moving at bulk speed through a periodic box is an exact
  // solution; the scheme must preserve it to round-off.
  auto cfg = small_config(nf::Problem::kSmoothWaves, nf::Boundary::kPeriodic);
  cfg.problem.wave_density_contrast = 0.0;
  cfg.problem.wave_mach = 0.0;
  cfg.problem.wave_bulk_mach = 0.5;
  nf::Simulator sim(cfg);
  for (int s = 0; s < 5; ++s) sim.step();
  for (double d : sim.snapshot("dens")) EXPECT_NEAR(d, 1.0, 1e-10);
  const auto vx = sim.snapshot("velx");
  for (std::size_t j = 1; j < vx.size(); ++j) {
    EXPECT_NEAR(vx[j], vx[0], 1e-10);
  }
}

TEST(Hydro, TimestepPositiveAndCflScaled) {
  auto cfg = small_config(nf::Problem::kSod);
  nf::Simulator sim(cfg);
  const double t0 = sim.time();
  sim.step();
  EXPECT_GT(sim.time(), t0);
}

// -------------------------------------------------------------- snapshots --

TEST(Snapshot, TenVariablesInPaperOrder) {
  const auto& names = nf::Simulator::variable_names();
  ASSERT_EQ(names.size(), 10u);
  EXPECT_EQ(names[0], "dens");
  EXPECT_EQ(names[5], "pres");
  EXPECT_EQ(names[9], "velz");
}

TEST(Snapshot, DerivedVariablesAreConsistent) {
  auto cfg = small_config(nf::Problem::kSmoothWaves);
  nf::Simulator sim(cfg);
  for (int s = 0; s < 3; ++s) sim.step();
  const auto dens = sim.snapshot("dens");
  const auto pres = sim.snapshot("pres");
  const auto temp = sim.snapshot("temp");
  const auto eint = sim.snapshot("eint");
  const auto ener = sim.snapshot("ener");
  const auto vx = sim.snapshot("velx");
  const auto vy = sim.snapshot("vely");
  const auto vz = sim.snapshot("velz");
  const auto game = sim.snapshot("game");
  for (std::size_t j = 0; j < dens.size(); j += 37) {
    // temp = p / (R rho) with R = 1.
    EXPECT_NEAR(temp[j], pres[j] / dens[j], 1e-10);
    // ener = eint + kinetic.
    const double kin =
        0.5 * (vx[j] * vx[j] + vy[j] * vy[j] + vz[j] * vz[j]);
    EXPECT_NEAR(ener[j], eint[j] + kin, 1e-10 * std::abs(ener[j]) + 1e-12);
    // game definition: p = (game-1) rho eint.
    EXPECT_NEAR(pres[j], (game[j] - 1.0) * dens[j] * eint[j],
                1e-8 * pres[j]);
  }
}

TEST(Snapshot, UnknownVariableThrows) {
  auto cfg = small_config(nf::Problem::kSod);
  nf::Simulator sim(cfg);
  EXPECT_THROW(sim.snapshot("vorticity"), numarck::ContractViolation);
}

TEST(Restore, ExactRestoreReproducesTrajectory) {
  auto cfg = small_config(nf::Problem::kSmoothWaves);
  nf::Simulator a(cfg);
  for (int s = 0; s < 4; ++s) a.step();
  const auto state = a.snapshot_all();
  const double t = a.time();

  nf::Simulator b(cfg);
  b.restore(state, t, a.step_count());
  // Continue both and compare: restore from exact primitives is exact up to
  // the EOS round-trip (pressure <-> eint fixed point), so allow tiny slack.
  a.step();
  b.step();
  const auto da = a.snapshot("dens");
  const auto db = b.snapshot("dens");
  for (std::size_t j = 0; j < da.size(); ++j) {
    EXPECT_NEAR(db[j], da[j], 1e-9 * std::abs(da[j]) + 1e-12);
  }
}

TEST(Restore, MissingVariableThrows) {
  auto cfg = small_config(nf::Problem::kSod);
  nf::Simulator sim(cfg);
  std::map<std::string, std::vector<double>> incomplete;
  incomplete["dens"] = sim.snapshot("dens");
  EXPECT_THROW(sim.restore(incomplete, 0.0, 0), numarck::ContractViolation);
}

TEST(Restore, WrongLengthThrows) {
  auto cfg = small_config(nf::Problem::kSod);
  nf::Simulator sim(cfg);
  auto state = sim.snapshot_all();
  state["dens"].resize(10);
  EXPECT_THROW(sim.restore(state, 0.0, 0), numarck::ContractViolation);
}

TEST(Simulator, CheckpointIntervalAdvancesMultipleSteps) {
  auto cfg = small_config(nf::Problem::kSod);
  cfg.steps_per_checkpoint = 3;
  nf::Simulator sim(cfg);
  sim.advance_checkpoint();
  EXPECT_EQ(sim.step_count(), 3u);
}

TEST(Simulator, InitializeResetsClock) {
  auto cfg = small_config(nf::Problem::kSod);
  nf::Simulator sim(cfg);
  sim.step();
  sim.initialize();
  EXPECT_EQ(sim.step_count(), 0u);
  EXPECT_DOUBLE_EQ(sim.time(), 0.0);
}
