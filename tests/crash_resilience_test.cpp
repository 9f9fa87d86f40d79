// End-to-end crash-resilience tests: randomized fault-injection campaigns
// over the full checkpoint stack (torn byte streams, SIGKILLed writer
// processes, simulated node deaths in the mpisim world), plus directed
// coverage of the degraded distributed restart path. This is the repo's
// executable statement of the paper's resiliency claim: a crash costs at
// most the iteration in flight.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "numarck/core/compressor.hpp"
#include "numarck/io/distributed_checkpoint.hpp"
#include "numarck/io/fault.hpp"
#include "numarck/mpisim/world.hpp"
#include "numarck/tools/crashtest.hpp"
#include "numarck/tools/store_crashtest.hpp"
#include "numarck/util/expect.hpp"

namespace nio = numarck::io;
namespace nk = numarck::core;
namespace nt = numarck::tools;
namespace nm = numarck::mpisim;

namespace {

/// Unique checkpoint base per test; removes every trial file on scope exit.
struct TrialBase {
  nt::CrashTrialConfig cfg;
  explicit TrialBase(const char* name) {
    cfg.base = std::string("/tmp/numarck_crash_") + name + "_" +
               std::to_string(::getpid());
  }
  ~TrialBase() { nt::remove_trial_files(cfg); }
};

std::vector<double> snap(std::size_t n, double t) {
  std::vector<double> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = 2.0 + 0.5 * static_cast<double>(j % 7) + 0.01 * t;
  }
  return v;
}

/// Writes a clean `ranks`-rank distributed checkpoint with `iters`
/// iterations of one variable and returns the manifest used.
nio::Manifest write_distributed(const std::string& base, std::size_t ranks,
                                std::size_t iters, std::size_t points) {
  nio::Manifest m;
  m.ranks = ranks;
  m.variables = {"state"};
  m.partition_sizes.assign(ranks, points);
  for (std::size_t r = 0; r < ranks; ++r) {
    nio::RankCheckpointWriter writer(base, r, m);
    nk::VariableCompressor comp{nk::Options{}};
    for (std::size_t i = 0; i < iters; ++i) {
      writer.append("state", i, static_cast<double>(i),
                    comp.push(snap(points, static_cast<double>(i + r))));
    }
    writer.close();
  }
  return m;
}

void truncate_file(const std::string& path, std::size_t drop_bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.good());
  const auto size = static_cast<std::size_t>(in.tellg());
  ASSERT_GT(size, drop_bytes);
  std::vector<char> buf(size - drop_bytes);
  in.seekg(0);
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace

// ------------------------------------------------ randomized crash trials --

TEST(CrashResilience, InjectedCrashTrials) {
  TrialBase t("injected");
  for (std::uint64_t s = 0; s < 40; ++s) {
    t.cfg.seed = 1000 + s;
    const auto result = nt::run_injected_crash_trial(t.cfg);
    EXPECT_TRUE(result.ok()) << "seed " << t.cfg.seed << ": " << result.failure;
    EXPECT_TRUE(result.crash_fired);
  }
}

TEST(CrashResilience, SigkillCrashTrials) {
  TrialBase t("sigkill");
  for (std::uint64_t s = 0; s < 12; ++s) {
    t.cfg.seed = 2000 + s;
    const auto result = nt::run_sigkill_crash_trial(t.cfg);
    EXPECT_TRUE(result.ok()) << "seed " << t.cfg.seed << ": " << result.failure;
    EXPECT_TRUE(result.crash_fired);
  }
}

TEST(CrashResilience, WorldFaultTrials) {
  TrialBase t("world");
  for (std::uint64_t s = 0; s < 12; ++s) {
    t.cfg.seed = 3000 + s;
    const auto result = nt::run_world_fault_trial(t.cfg);
    EXPECT_TRUE(result.ok()) << "seed " << t.cfg.seed << ": " << result.failure;
    EXPECT_TRUE(result.crash_fired);
    // The fault schedule pins the recovered iteration exactly.
    ASSERT_TRUE(result.recovered_iteration.has_value());
    EXPECT_EQ(*result.recovered_iteration, result.crash_point / 4);
  }
}

TEST(CrashResilience, StoreCrashTrials) {
  // The store campaign's three death mechanisms, ten seeds each.
  nt::StoreCrashTrialConfig cfg;
  cfg.dir = "/tmp/numarck_crash_store_" + std::to_string(::getpid());
  for (std::uint64_t s = 0; s < 10; ++s) {
    cfg.seed = 4000 + s;
    const auto thrown = nt::run_store_throw_trial(cfg);
    EXPECT_TRUE(thrown.ok()) << "throw seed " << cfg.seed << ": "
                             << thrown.failure;
    EXPECT_TRUE(thrown.crash_fired);
    const auto killed = nt::run_store_sigkill_trial(cfg);
    EXPECT_TRUE(killed.ok()) << "sigkill seed " << cfg.seed << ": "
                             << killed.failure;
    EXPECT_TRUE(killed.crash_fired);
    // The compactor's merge stream depends on thread timing, so its run
    // may finish unkilled; the verification holds either way.
    const auto compactor = nt::run_store_compactor_trial(cfg);
    EXPECT_TRUE(compactor.ok()) << "compactor seed " << cfg.seed << ": "
                                << compactor.failure;
  }
  nt::remove_store_trial_files(cfg);
}

// -------------------------------------------------- byte-exact fault sink --

TEST(CrashResilience, FaultySinkTearsAtExactBudget) {
  TrialBase t("faulty");
  const std::string path = t.cfg.base + ".rank0.ckpt";
  auto plan = std::make_shared<nio::FaultPlan>();
  plan->crash_at(37, nio::FaultPlan::Death::kThrow);
  nio::FaultySink sink(std::make_unique<nio::FileSink>(path), plan);
  const std::vector<std::uint8_t> chunk(25, 0xAB);
  sink.write(chunk.data(), chunk.size());
  EXPECT_THROW(sink.write(chunk.data(), chunk.size()), nio::InjectedCrash);
  // Post-death writes vanish silently, like writes of a dead process.
  sink.write(chunk.data(), chunk.size());
  sink.close();
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_EQ(static_cast<std::size_t>(in.tellg()), 37u);
}

TEST(CrashResilience, FaultPlanCountsAndTearsOnlyMatchingFiles) {
  // One plan across two files of one process: the filtered-out file is a
  // plain FileSink, neither counted nor torn; the budget spans the rest.
  TrialBase t("filter");
  auto plan = std::make_shared<nio::FaultPlan>();
  plan->crash_at(30, nio::FaultPlan::Death::kThrow).only_paths_ending(".tmp");
  const auto files = nio::faulty_files(plan);
  const std::vector<std::uint8_t> chunk(20, 0xCD);
  auto skipped = files(t.cfg.base + ".rank0.ckpt");
  auto first = files(t.cfg.base + ".manifest.tmp");
  skipped->write(chunk.data(), chunk.size());
  skipped->write(chunk.data(), chunk.size());
  first->write(chunk.data(), chunk.size());
  EXPECT_EQ(plan->bytes_written(), 20u);
  EXPECT_EQ(plan->calls(nio::FaultPlan::Op::kWrite), 1u);
  first->close();
  auto second = files(t.cfg.base + ".manifest.tmp");
  EXPECT_THROW(second->write(chunk.data(), chunk.size()), nio::InjectedCrash);
  EXPECT_EQ(plan->bytes_written(), 40u);  // the torn write counts whole
  second->close();
  skipped->close();
  std::ifstream in(t.cfg.base + ".manifest.tmp",
                   std::ios::binary | std::ios::ate);
  EXPECT_EQ(static_cast<std::size_t>(in.tellg()), 10u);
}

// -------------------------------------------- degraded distributed restart --

TEST(CrashResilience, TornTailInOneRankDegradesToGlobalMinimum) {
  TrialBase t("torn");
  write_distributed(t.cfg.base, 3, 5, 64);
  // Tear rank 1 a few bytes short: its final record is damaged, so the
  // global restart target drops to iteration 3.
  truncate_file(nio::Manifest::rank_path(t.cfg.base, 1), 5);

  nio::DistributedRestartEngine engine(t.cfg.base);
  EXPECT_TRUE(engine.degraded());
  ASSERT_TRUE(engine.last_complete_iteration().has_value());
  EXPECT_EQ(*engine.last_complete_iteration(), 3u);
  EXPECT_EQ(engine.iteration_count(), 4u);
  const auto& damage = engine.damage_report();
  ASSERT_EQ(damage.size(), 3u);
  EXPECT_EQ(damage[0].state, nio::RankFileState::kIntact);
  EXPECT_EQ(damage[1].state, nio::RankFileState::kTornTail);
  EXPECT_EQ(damage[2].state, nio::RankFileState::kIntact);
  EXPECT_EQ(damage[0].last_complete, 4u);
  EXPECT_EQ(damage[1].last_complete, 3u);

  const auto state = engine.reconstruct_variable("state", 3);
  EXPECT_EQ(state.size(), 3u * 64u);
  EXPECT_THROW((void)engine.reconstruct_variable("state", 4),
               numarck::ContractViolation);
}

TEST(CrashResilience, MissingRankFileRefusesButReportsDamage) {
  TrialBase t("missing");
  write_distributed(t.cfg.base, 3, 4, 48);
  std::remove(nio::Manifest::rank_path(t.cfg.base, 2).c_str());

  // Strict restart aborts, as before.
  EXPECT_THROW(nio::DistributedRestartEngine(t.cfg.base,
                                             nio::TailPolicy::kStrict),
               numarck::ContractViolation);

  // Salvage restart constructs, itemizes the damage, and refuses only the
  // reconstruction itself: with a rank gone there is no complete iteration.
  nio::DistributedRestartEngine engine(t.cfg.base);
  EXPECT_TRUE(engine.degraded());
  EXPECT_FALSE(engine.last_complete_iteration().has_value());
  EXPECT_EQ(engine.iteration_count(), 0u);
  EXPECT_EQ(engine.damage_report()[2].state, nio::RankFileState::kMissing);
  EXPECT_THROW((void)engine.reconstruct_variable("state", 0),
               numarck::ContractViolation);
}

TEST(CrashResilience, StaleManifestIgnoresExtraRankFiles) {
  TrialBase t("stale");
  // Four rank files on disk, but the manifest — stale, from before a
  // shrink — names only three. The engine trusts the manifest: the orphan
  // file is ignored and the restart covers exactly the manifest's ranks.
  write_distributed(t.cfg.base, 4, 4, 32);
  nio::Manifest stale;
  stale.ranks = 3;
  stale.variables = {"state"};
  stale.partition_sizes.assign(3, 32);
  stale.save(nio::Manifest::manifest_path(t.cfg.base));

  nio::DistributedRestartEngine engine(t.cfg.base);
  EXPECT_FALSE(engine.degraded());
  ASSERT_TRUE(engine.last_complete_iteration().has_value());
  EXPECT_EQ(*engine.last_complete_iteration(), 3u);
  EXPECT_EQ(engine.reconstruct_variable("state", 3).size(), 3u * 32u);
}

TEST(CrashResilience, ManifestClaimingMoreRanksThanFilesRefuses) {
  TrialBase t("overclaim");
  write_distributed(t.cfg.base, 2, 3, 32);
  nio::Manifest over;
  over.ranks = 3;  // rank 2 was never written
  over.variables = {"state"};
  over.partition_sizes.assign(3, 32);
  over.save(nio::Manifest::manifest_path(t.cfg.base));

  nio::DistributedRestartEngine engine(t.cfg.base);
  EXPECT_TRUE(engine.degraded());
  EXPECT_FALSE(engine.last_complete_iteration().has_value());
  EXPECT_EQ(engine.damage_report()[2].state, nio::RankFileState::kMissing);
}

// ------------------------------------------------------- durable manifest --

TEST(CrashResilience, ManifestSaveIsAtomicAndCrcProtected) {
  TrialBase t("manifest");
  const std::string path = nio::Manifest::manifest_path(t.cfg.base);
  nio::Manifest m;
  m.ranks = 2;
  m.variables = {"state"};
  m.partition_sizes = {10, 12};
  m.save(path);
  // No temp residue after a successful publish.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  const auto loaded = nio::Manifest::load(path);
  EXPECT_EQ(loaded.ranks, 2u);
  EXPECT_EQ(loaded.partition_sizes, m.partition_sizes);

  // Any flipped body byte fails the CRC — a torn or forged manifest can
  // never parse as a slightly-wrong topology.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x40);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_THROW((void)nio::Manifest::load(path), numarck::ContractViolation);
}

// ------------------------------------------------ writer error surfacing --

TEST(CrashResilience, WriterSurfacesUnwritablePath) {
  const std::string bad = "/nonexistent-dir-numarck/x.ckpt";
  try {
    nio::CheckpointWriter writer(bad, {"state"});
    FAIL() << "open of an unwritable path did not throw";
  } catch (const numarck::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
        << "error does not name the failing path: " << e.what();
  }
}

TEST(CrashResilience, AppendAfterCloseThrows) {
  TrialBase t("closed");
  const std::string path = t.cfg.base + ".rank0.ckpt";
  nk::VariableCompressor comp{nk::Options{}};
  const auto step = comp.push(snap(32, 0.0));
  nio::CheckpointWriter writer(path, {"state"});
  writer.append("state", 0, 0.0, step);
  writer.close();
  writer.close();  // idempotent
  EXPECT_THROW(writer.append("state", 1, 1.0, step),
               numarck::ContractViolation);
}

// ------------------------------------------------------ mpisim fault model --

TEST(CrashResilience, RecvFromDeadRankFails) {
  nm::World world(2);
  world.set_fault_plan({1, 0});  // rank 1 dies at its first operation
  world.run([](nm::Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW((void)comm.recv(1, 7), nm::RankFailedError);
    } else {
      comm.send(0, 7, {1, 2, 3});  // never happens: op 0 kills this rank
    }
  });
  EXPECT_EQ(world.failed_ranks(), std::vector<int>{1});
}

TEST(CrashResilience, MessagePostedBeforeDeathIsStillDeliverable) {
  nm::World world(2);
  world.set_fault_plan({1, 1});  // rank 1 dies at its SECOND operation
  world.run([](nm::Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.recv(1, 7).size(), 3u);  // the completed send
      EXPECT_THROW((void)comm.recv(1, 8), nm::RankFailedError);
    } else {
      comm.send(0, 7, {1, 2, 3});
      comm.send(0, 8, {4});  // op 1: killed before the payload is posted
    }
  });
}

TEST(CrashResilience, CollectiveWithDeadRankFailsOnEverySurvivor) {
  nm::World world(3);
  world.set_fault_plan({2, 0});
  std::atomic<int> failures{0};
  world.run([&](nm::Communicator& comm) {
    try {
      (void)comm.allreduce_sum(1.0);
    } catch (const nm::RankFailedError& e) {
      EXPECT_EQ(e.rank(), 2);
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 2);
}

TEST(CrashResilience, TimeoutRaisesInsteadOfDeadlocking) {
  nm::World world(2);
  world.set_timeout(std::chrono::milliseconds(100));
  world.run([](nm::Communicator& comm) {
    if (comm.rank() == 0) {
      try {
        (void)comm.recv(1, 3);  // rank 1 never sends
        FAIL() << "recv returned without a message";
      } catch (const nm::RankFailedError& e) {
        EXPECT_EQ(e.rank(), -1);  // timeout, not an observed death
      }
    }
  });
}
