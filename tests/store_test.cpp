// Tiered checkpoint store tests: put/get round trips over delta chains,
// retention pruning with standalone rewrites, tier promotion, synchronous
// and background compaction, and the open-time recovery matrix (stale tmp
// sweep, orphan quarantine, torn/missing containers, broken chains). The
// store's contract is the PR's headline: an acknowledged checkpoint survives
// any crash, and the manifest never names a file that cannot restore.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "numarck/adaptive/store_backed.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/io/distributed_checkpoint.hpp"
#include "numarck/io/durable_file.hpp"
#include "numarck/store/checkpoint_store.hpp"
#include "numarck/util/expect.hpp"

namespace fs = std::filesystem;
namespace nk = numarck::core;
namespace nio = numarck::io;
namespace ns = numarck::store;

namespace {

constexpr const char* kVar = "state";

/// Unique store directory per test; removed on scope exit.
struct StoreDir {
  std::string dir;
  explicit StoreDir(const char* name) {
    dir = std::string("/tmp/numarck_store_") + name + "_" +
          std::to_string(::getpid());
    fs::remove_all(dir);
  }
  ~StoreDir() { fs::remove_all(dir); }
};

nk::Options chain_options() {
  nk::Options opts;
  opts.error_bound = 0.01;
  opts.index_bits = 6;
  opts.strategy = nk::Strategy::kEqualWidth;
  opts.reference = nk::Reference::kReconstructedPrevious;
  return opts;
}

std::vector<double> snap(std::size_t n, double t) {
  std::vector<double> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = 2.0 + 0.4 * static_cast<double>(j % 9) + 0.02 * t;
  }
  return v;
}

/// Feeds `count` iterations of one closed-loop compressed stream into the
/// store and returns the decoder ground truth per iteration.
std::map<std::size_t, std::vector<double>> put_chain(ns::CheckpointStore& s,
                                                     std::size_t count,
                                                     std::size_t points = 64) {
  nk::VariableCompressor comp(chain_options());
  nk::VariableReconstructor recon;
  std::map<std::size_t, std::vector<double>> expected;
  for (std::size_t i = 0; i < count; ++i) {
    const auto step = comp.push(snap(points, static_cast<double>(i)));
    recon.push(step);
    expected[i] = recon.state();
    std::map<std::string, nk::CompressedStep> steps;
    steps.emplace(kVar, step);
    s.put(i, static_cast<double>(i), steps);
  }
  return expected;
}

std::set<std::size_t> listed_iterations(const ns::CheckpointStore& s) {
  std::set<std::size_t> out;
  for (const auto& e : s.list()) out.insert(e.iteration);
  return out;
}

/// The invariant prune/compact/recovery must uphold: every manifest entry
/// names an existing, intact, restorable container.
void expect_manifest_closed(const std::string& dir) {
  const auto insp = ns::inspect_store(dir);
  for (const auto& f : insp.files) {
    EXPECT_EQ(f.health, ns::FileHealth::kIntact)
        << f.entry.file << ": " << f.detail;
  }
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

void truncate_tail(const std::string& path, std::uint64_t drop) {
  const auto size = fs::file_size(path);
  ASSERT_GT(size, drop);
  fs::resize_file(path, size - drop);
}

}  // namespace

// ------------------------------------------------------------- round trips --

TEST(Store, PutGetRoundTripsBitExactlyOverDeltaChains) {
  StoreDir t("roundtrip");
  ns::CheckpointStore s(t.dir, {kVar});
  const auto expected = put_chain(s, 6);

  ASSERT_EQ(s.list().size(), 6u);
  EXPECT_EQ(s.latest().value(), 5u);
  for (const auto& [it, want] : expected) {
    EXPECT_EQ(s.get_variable(kVar, it), want) << "iteration " << it;
  }
  // Only the first entry is reference-free; the rest chain.
  const auto entries = s.list();
  EXPECT_TRUE(entries.front().reference_free);
  EXPECT_FALSE(entries.back().reference_free);
  // The newest entry carries the kLatest tier.
  EXPECT_EQ(entries.back().tier, ns::Tier::kLatest);
  EXPECT_EQ(entries.front().tier, ns::Tier::kRolling);

  const auto all = s.get(3);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.at(kVar), expected.at(3));
}

TEST(Store, ReopenSeesEveryAcknowledgedEntry) {
  StoreDir t("reopen");
  std::map<std::size_t, std::vector<double>> expected;
  {
    ns::CheckpointStore s(t.dir, {kVar});
    expected = put_chain(s, 4);
  }
  ns::CheckpointStore s(t.dir);
  EXPECT_TRUE(s.recovery_report().empty());
  ASSERT_EQ(s.list().size(), 4u);
  for (const auto& [it, want] : expected) {
    EXPECT_EQ(s.get_variable(kVar, it), want);
  }
  EXPECT_EQ(s.variables(), std::vector<std::string>{kVar});
}

TEST(Store, PutEnforcesTheStreamContract) {
  StoreDir t("contract");
  ns::CheckpointStore s(t.dir, {kVar});
  nk::VariableCompressor comp(chain_options());

  // First entry must be reference-free: a delta has nothing to chain to.
  const auto first = comp.push(snap(32, 0.0));
  auto delta = comp.push(snap(32, 1.0));
  ASSERT_FALSE(delta.is_full);
  {
    std::map<std::string, nk::CompressedStep> steps;
    steps.emplace(kVar, delta);
    EXPECT_THROW(s.put(0, 0.0, steps), numarck::ContractViolation);
  }
  {
    std::map<std::string, nk::CompressedStep> steps;
    steps.emplace(kVar, first);
    s.put(0, 0.0, steps);
  }
  // Iterations must strictly ascend.
  {
    std::map<std::string, nk::CompressedStep> steps;
    steps.emplace(kVar, first);
    EXPECT_THROW(s.put(0, 0.0, steps), numarck::ContractViolation);
  }
  // Every store variable exactly once.
  {
    std::map<std::string, nk::CompressedStep> steps;
    steps.emplace("other", first);
    EXPECT_THROW(s.put(1, 1.0, steps), numarck::ContractViolation);
  }
  EXPECT_THROW((void)s.get_variable(kVar, 7), numarck::ContractViolation);
  EXPECT_THROW((void)s.get_variable("other", 0), numarck::ContractViolation);
}

TEST(Store, CreateRefusesAnExistingStore) {
  StoreDir t("exists");
  { ns::CheckpointStore s(t.dir, {kVar}); }
  EXPECT_THROW(ns::CheckpointStore(t.dir, {kVar}), numarck::ContractViolation);
  // And open refuses a directory that was never a store.
  StoreDir u("nostore");
  fs::create_directories(u.dir);
  EXPECT_THROW(ns::CheckpointStore{u.dir}, numarck::ContractViolation);
}

// --------------------------------------------------------------- retention --

TEST(Store, PruneKeepsWindowEpochsAndPins) {
  StoreDir t("prune");
  ns::CheckpointStore s(t.dir, {kVar});
  const auto expected = put_chain(s, 10);
  s.promote(1, ns::Tier::kBest);

  const auto report = s.prune(/*keep_last=*/2, /*keep_every=*/4);
  // Kept: window {8, 9}, epochs {0, 4, 8}, pin {1}.
  const std::set<std::size_t> want = {0, 1, 4, 8, 9};
  EXPECT_EQ(listed_iterations(s), want);
  EXPECT_EQ(report.kept, want.size());
  EXPECT_EQ(report.dropped, 10u - want.size());

  // Retained entries whose chain crossed a dropped one were rewritten
  // standalone — every survivor restores bit-exactly, alone.
  for (const auto it : want) {
    EXPECT_EQ(s.get_variable(kVar, it), expected.at(it)) << "iteration " << it;
  }
  EXPECT_GE(report.rewritten, 1u);
  expect_manifest_closed(t.dir);

  // Tiers were recomputed: newest is kLatest, the pin survived as kBest,
  // keep_every-divisible entries are kEpoch.
  for (const auto& e : s.list()) {
    if (e.iteration == 9) {
      EXPECT_EQ(e.tier, ns::Tier::kLatest);
    } else if (e.iteration == 1) {
      EXPECT_EQ(e.tier, ns::Tier::kBest);
    } else if (e.iteration % 4 == 0) {
      EXPECT_EQ(e.tier, ns::Tier::kEpoch);
    }
  }

  // Survivors persist across a reopen (the shrunken manifest is durable).
  ns::CheckpointStore reopened(t.dir);
  EXPECT_EQ(listed_iterations(reopened), want);
  EXPECT_TRUE(reopened.recovery_report().empty());
}

TEST(Store, PruneNeverDropsTheNewestEntry) {
  StoreDir t("newest");
  ns::CheckpointStore s(t.dir, {kVar});
  const auto expected = put_chain(s, 3);
  (void)s.prune(/*keep_last=*/1, /*keep_every=*/0);
  EXPECT_EQ(listed_iterations(s), std::set<std::size_t>{2});
  EXPECT_EQ(s.get_variable(kVar, 2), expected.at(2));
  // Pruning an already-minimal store is a no-op, not an error.
  const auto report = s.prune(1, 0);
  EXPECT_EQ(report.kept, 1u);
  EXPECT_EQ(report.dropped, 0u);
}

TEST(Store, PromoteIsAManifestOnlyTransaction) {
  StoreDir t("promote");
  ns::CheckpointStore s(t.dir, {kVar});
  (void)put_chain(s, 3);
  const auto file_bytes = fs::file_size(fs::path(t.dir) / s.list()[1].file);
  s.promote(1, ns::Tier::kBest);
  EXPECT_EQ(s.list()[1].tier, ns::Tier::kBest);
  // The container itself is untouched.
  EXPECT_EQ(fs::file_size(fs::path(t.dir) / s.list()[1].file), file_bytes);
  EXPECT_THROW(s.promote(77, ns::Tier::kBest), numarck::ContractViolation);
  // The pin persists.
  ns::CheckpointStore reopened(t.dir);
  EXPECT_EQ(reopened.list()[1].tier, ns::Tier::kBest);
}

// -------------------------------------------------------------- compaction --

TEST(Store, CompactOnceMergesPinnedChainsStandalone) {
  StoreDir t("compact");
  ns::CheckpointStore s(t.dir, {kVar});
  const auto expected = put_chain(s, 5);
  s.promote(2, ns::Tier::kBest);
  s.promote(3, ns::Tier::kEpoch);

  // Two eligible delta entries (2 and 3); the newest (4) is never compacted.
  EXPECT_TRUE(s.compact_once());
  EXPECT_TRUE(s.compact_once());
  EXPECT_FALSE(s.compact_once());

  for (const auto& e : s.list()) {
    if (e.iteration == 2 || e.iteration == 3) {
      EXPECT_TRUE(e.reference_free) << "iteration " << e.iteration;
      EXPECT_EQ(s.get_variable(kVar, e.iteration), expected.at(e.iteration));
    }
  }
  expect_manifest_closed(t.dir);
  // No merge temporaries or doomed old containers left behind.
  const auto insp = ns::inspect_store(t.dir);
  EXPECT_TRUE(insp.stale_tmps.empty());
  EXPECT_TRUE(insp.orphans.empty());
}

TEST(Store, BackgroundCompactorDrainsEpochMerges) {
  StoreDir t("bgcompact");
  ns::StoreOptions opts;
  opts.epoch_every = 2;  // entries 0,2,4,... are epoch-eligible
  opts.compact_interval = std::chrono::milliseconds(1);
  ns::CheckpointStore s(t.dir, {kVar}, opts);
  const auto expected = put_chain(s, 7);

  s.start_compactor();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto status = s.compactor_status();
    if (status.compactions >= 2) break;  // deltas at 2 and 4 (6 is newest)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  s.stop_compactor();
  s.stop_compactor();  // idempotent

  const auto status = s.compactor_status();
  EXPECT_GE(status.cycles, 1u);
  EXPECT_FALSE(status.parked);
  EXPECT_TRUE(status.last_error.empty()) << status.last_error;
  for (const auto& e : s.list()) {
    if (e.iteration % 2 == 0 && e.iteration != 6) {
      EXPECT_TRUE(e.reference_free) << "iteration " << e.iteration;
      EXPECT_EQ(e.tier == ns::Tier::kLatest, e.iteration == 6u);
    }
    EXPECT_EQ(s.get_variable(kVar, e.iteration), expected.at(e.iteration));
  }
  expect_manifest_closed(t.dir);
}

TEST(Store, CompactorParksAfterPersistentFailuresAndPutsStillWork) {
  StoreDir t("parked");
  { ns::CheckpointStore create(t.dir, {kVar}); }
  ns::StoreOptions opts;
  opts.compact_interval = std::chrono::milliseconds(1);
  opts.compact_backoff = std::chrono::milliseconds(1);
  opts.compact_retry_limit = 3;
  // Every standalone-merge temporary fails its first write, as a disk that
  // errors persistently would; regular container puts pass through.
  opts.sink_factory =
      [](const std::string& path) -> std::unique_ptr<nio::ByteSink> {
    auto inner = std::make_unique<nio::FileSink>(path);
    if (path.size() >= 14 &&
        path.compare(path.size() - 14, 14, ".epoch.nck.tmp") == 0) {
      return std::make_unique<nio::ErringFile>(
          std::move(inner), nio::ErringFile::Op::kWrite, 0, ENOSPC);
    }
    return inner;
  };
  ns::CheckpointStore s(t.dir, opts);
  const auto expected = put_chain(s, 4);
  s.promote(1, ns::Tier::kBest);  // delta entry: compaction work that fails

  s.start_compactor();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (s.compactor_status().parked) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto status = s.compactor_status();
  EXPECT_TRUE(status.parked);
  EXPECT_GE(status.consecutive_failures, 3u);
  EXPECT_NE(status.last_error.find("No space left"), std::string::npos)
      << status.last_error;

  // A parked compactor does not take the store down: puts still acknowledge,
  // reads still restore, and the failed merges left no residue behind.
  nk::VariableCompressor comp(chain_options());
  std::map<std::string, nk::CompressedStep> steps;
  steps.emplace(kVar, comp.push(snap(64, 99.0)));
  s.put(99, 99.0, steps);
  EXPECT_EQ(s.list().back().iteration, 99u);
  EXPECT_EQ(s.get_variable(kVar, 1), expected.at(1));
  s.stop_compactor();
  expect_manifest_closed(t.dir);
  EXPECT_TRUE(ns::inspect_store(t.dir).stale_tmps.empty());
}

TEST(Store, PruneAndCompactRewritesMatchAnIndependentReplay) {
  // Three variables; a 13-delta chain (0 full, 1..13 deltas), a rebase at
  // 14 and a 5-delta chain after it. Pins 5 and 9 sit on the long chain, so
  // prune(6, 0) drops 0..4, 6..8, 10..13 and rewrites both pins standalone
  // from one replay of that chain; pin 17 keeps its whole chain and is left
  // for the compactor.
  StoreDir t("oracle");
  const std::vector<std::string> vars = {"dens", "pres", "temp"};
  ns::CheckpointStore s(t.dir, vars);
  std::vector<nk::VariableCompressor> comps(
      vars.size(), nk::VariableCompressor(chain_options()));
  std::vector<nk::VariableReconstructor> oracle(vars.size());
  std::map<std::size_t, std::vector<std::vector<double>>> replayed;
  for (std::size_t i = 0; i < 20; ++i) {
    std::map<std::string, nk::CompressedStep> steps;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      std::vector<double> x(96);
      for (std::size_t j = 0; j < x.size(); ++j) {
        x[j] = 2.0 + static_cast<double>(v) +
               0.5 * std::sin(0.3 * static_cast<double>(i) +
                              0.1 * static_cast<double>(j * (v + 1)));
      }
      if (i == 14) comps[v] = nk::VariableCompressor(chain_options());
      const nk::CompressedStep step = comps[v].push(x);
      ASSERT_EQ(step.is_full, i == 0 || i == 14);
      oracle[v].push(step);
      replayed[i].push_back(oracle[v].state());
      steps.emplace(vars[v], step);
    }
    s.put(i, 0.5 * static_cast<double>(i), steps);
  }
  for (const std::size_t pin : {5u, 9u, 17u}) s.promote(pin, ns::Tier::kBest);

  // Restores of the entries that survive, before any rewrite.
  const std::set<std::size_t> survivors = {5, 9, 14, 15, 16, 17, 18, 19};
  std::map<std::size_t, std::map<std::string, std::vector<double>>> before;
  for (const auto it : survivors) before[it] = s.get(it);

  const auto report = s.prune(6, 0);
  EXPECT_EQ(report.kept, 8u);
  EXPECT_EQ(report.dropped, 12u);
  EXPECT_EQ(report.rewritten, 2u);
  ASSERT_TRUE(s.compact_once());
  EXPECT_FALSE(s.compact_once());
  EXPECT_EQ(listed_iterations(s), survivors);

  // Every standalone rewrite is byte-identical to a container written from
  // the independent replay.
  std::set<std::size_t> rewritten;
  for (const auto& e : s.list()) {
    if (e.file.find(".epoch.nck") == std::string::npos) continue;
    rewritten.insert(e.iteration);
    const std::string want = t.dir + "/oracle.nck";
    {
      nio::CheckpointWriter w(want, vars, nio::Durability::kNone);
      for (std::size_t v = 0; v < vars.size(); ++v) {
        w.append(vars[v], 0, e.sim_time,
                 nk::CompressedStep::full_from(replayed.at(e.iteration)[v]));
      }
      w.close();
    }
    EXPECT_EQ(file_bytes(t.dir + "/" + e.file), file_bytes(want))
        << "iteration " << e.iteration;
    fs::remove(want);
  }
  EXPECT_EQ(rewritten, (std::set<std::size_t>{5, 9, 17}));

  // Restores are bit-identical before and after, through get and get_variable.
  for (const auto it : survivors) {
    EXPECT_EQ(s.get(it), before.at(it)) << "iteration " << it;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      EXPECT_EQ(s.get_variable(vars[v], it), replayed.at(it)[v])
          << vars[v] << " at iteration " << it;
    }
  }
  expect_manifest_closed(t.dir);
}

TEST(Store, RejectsLinearPredictedDeltas) {
  // A rewritten standalone entry cannot give replay the second state a
  // linear-predicted delta decodes against, so put refuses such deltas and
  // every acknowledged entry stays restorable across prune and compaction.
  nk::Options linear = chain_options();
  linear.predictor = nk::Predictor::kLinear;
  const auto put_linear = [&](ns::CheckpointStore& s, std::size_t i,
                              nk::VariableCompressor& comp) {
    std::map<std::string, nk::CompressedStep> steps;
    steps.emplace(kVar, comp.push(snap(64, static_cast<double>(i))));
    try {
      s.put(i, static_cast<double>(i), steps);
      return true;
    } catch (const numarck::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("linear-predicted delta"),
                std::string::npos)
          << e.what();
      return false;
    }
  };
  {
    // Eight puts, prune(3, 0), one more put.
    StoreDir t("linear_prune");
    ns::CheckpointStore s(t.dir, {kVar});
    nk::VariableCompressor comp(linear);
    std::vector<std::size_t> rejected;
    for (std::size_t i = 0; i < 9; ++i) {
      if (i == 8) (void)s.prune(3, 0);
      if (!put_linear(s, i, comp)) rejected.push_back(i);
    }
    // Iteration 2 is the first delta with two states of history.
    ASSERT_FALSE(rejected.empty());
    EXPECT_EQ(rejected.front(), 2u);
    for (const auto& e : s.list()) {
      EXPECT_NO_THROW((void)s.get(e.iteration)) << "iteration " << e.iteration;
    }
  }
  {
    // epoch_every = 3, then one compaction.
    StoreDir t("linear_compact");
    ns::StoreOptions opts;
    opts.epoch_every = 3;
    ns::CheckpointStore s(t.dir, {kVar}, opts);
    nk::VariableCompressor comp(linear);
    std::size_t acked = 0;
    for (std::size_t i = 0; i < 7; ++i) acked += put_linear(s, i, comp) ? 1 : 0;
    EXPECT_EQ(acked, 2u);
    (void)s.compact_once();
    for (const auto& e : s.list()) {
      EXPECT_NO_THROW((void)s.get(e.iteration)) << "iteration " << e.iteration;
    }
    EXPECT_TRUE(ns::inspect_store(t.dir).orphans.empty());
  }
}

TEST(ManifestEnvelope, GoldenBytesOfBothManifests) {
  // Both manifests share one CRC'd envelope; these images pin the bytes the
  // format had before the envelope was shared (docs/FORMAT.md §5, §8).
  StoreDir t("golden");
  fs::create_directories(t.dir);
  nio::Manifest m;
  m.ranks = 3;
  m.variables = {"dens", "pres"};
  m.partition_sizes = {10, 20, 7};
  m.save(t.dir + "/dist.manifest");
  EXPECT_EQ(hex(file_bytes(t.dir + "/dist.manifest")),
            "46494e414d4b4d4e0f23635003020464656e7304707265730a1407");
  EXPECT_FALSE(fs::exists(t.dir + "/dist.manifest.tmp"));

  ns::CheckpointStore s(t.dir + "/store", {"a", "b"});
  for (std::size_t i = 0; i < 3; ++i) {
    std::map<std::string, nk::CompressedStep> steps;
    const auto time = static_cast<double>(i);
    steps.emplace("a", nk::CompressedStep::full_from(snap(4, time)));
    steps.emplace("b", nk::CompressedStep::full_from(snap(4, 2.0 * time)));
    s.put(2 * i + 1, 0.5 * static_cast<double>(i), steps);
  }
  s.promote(3, ns::Tier::kBest);
  EXPECT_EQ(
      hex(file_bytes(t.dir + "/store/" + ns::CheckpointStore::kManifestName)),
      "31524f54534b4d4ebe591c930102016101620301010100000000000000000e69743030"
      "3030303030312e6e636b030301000000000000e03f0e697430303030303030332e6e63"
      "6b050001000000000000f03f0e697430303030303030352e6e636b");
}

// ---------------------------------------------------------------- recovery --

TEST(Store, OpenSweepsStaleTemporaries) {
  StoreDir t("staletmp");
  { ns::CheckpointStore create(t.dir, {kVar}); }
  const auto tmp = fs::path(t.dir) / "it00000009.nck.tmp";
  std::ofstream(tmp, std::ios::binary) << "torn publish";
  ASSERT_TRUE(fs::exists(tmp));

  // Read-only inspection reports it but must not remove it.
  EXPECT_EQ(ns::inspect_store(t.dir).stale_tmps,
            std::vector<std::string>{"it00000009.nck.tmp"});
  ASSERT_TRUE(fs::exists(tmp));

  ns::CheckpointStore s(t.dir);
  EXPECT_FALSE(fs::exists(tmp));
  ASSERT_EQ(s.recovery_report().size(), 1u);
  EXPECT_EQ(s.recovery_report()[0].issue, ns::RecoveryIssue::kStaleTmp);
  EXPECT_EQ(s.recovery_report()[0].action, "deleted");
}

TEST(Store, OpenQuarantinesUnacknowledgedContainers) {
  StoreDir t("orphan");
  {
    ns::CheckpointStore s(t.dir, {kVar});
    (void)put_chain(s, 2);
  }
  // A container whose manifest publish never happened: renamed into place,
  // then the process died. It must not silently join the store.
  const auto orphan = fs::path(t.dir) / "it00000002.nck";
  std::ofstream(orphan, std::ios::binary) << "never acknowledged";

  ns::CheckpointStore s(t.dir);
  EXPECT_EQ(listed_iterations(s), (std::set<std::size_t>{0, 1}));
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(
      fs::exists(fs::path(t.dir) / "quarantine" / "it00000002.nck"));
  ASSERT_EQ(s.recovery_report().size(), 1u);
  EXPECT_EQ(s.recovery_report()[0].issue, ns::RecoveryIssue::kOrphan);
  EXPECT_EQ(s.recovery_report()[0].action, "quarantined");
  // The quarantined name is visible to inspection afterwards.
  EXPECT_EQ(ns::inspect_store(t.dir).quarantined,
            std::vector<std::string>{"it00000002.nck"});
}

TEST(Store, OpenDropsTornEntriesAndTheChainsAcrossThem) {
  StoreDir t("torn");
  std::map<std::size_t, std::vector<double>> expected;
  {
    ns::CheckpointStore s(t.dir, {kVar});
    expected = put_chain(s, 5);
    // Make iteration 3 standalone so only iteration 2's damage decides who
    // survives: 0 (full), 3, 4 keep restoring; 1 is fine too (chains 0<-1).
    s.promote(3, ns::Tier::kBest);
    ASSERT_TRUE(s.compact_once());
  }
  std::string file2;
  for (const auto& f : ns::inspect_store(t.dir).files) {
    if (f.entry.iteration == 2) file2 = f.entry.file;
  }
  ASSERT_FALSE(file2.empty());
  truncate_tail((fs::path(t.dir) / file2).string(), 5);

  ns::CheckpointStore s(t.dir);
  EXPECT_EQ(listed_iterations(s), (std::set<std::size_t>{0, 1, 3, 4}));
  for (const auto it : {0u, 1u, 3u, 4u}) {
    EXPECT_EQ(s.get_variable(kVar, it), expected.at(it)) << "iteration " << it;
  }
  bool saw_torn = false;
  for (const auto& e : s.recovery_report()) {
    if (e.issue == ns::RecoveryIssue::kTorn) saw_torn = true;
  }
  EXPECT_TRUE(saw_torn);
  // The damaged container went to quarantine, and the repaired manifest is
  // closed over intact files again.
  EXPECT_TRUE(fs::exists(fs::path(t.dir) / "quarantine" / file2));
  expect_manifest_closed(t.dir);
  // Recovery survives its own reopen with nothing left to repair.
  ns::CheckpointStore again(t.dir);
  EXPECT_TRUE(again.recovery_report().empty());
}

TEST(Store, OpenDropsDeltasWhoseChainCrossesAMissingEntry) {
  StoreDir t("chain");
  std::map<std::size_t, std::vector<double>> expected;
  {
    ns::CheckpointStore s(t.dir, {kVar});
    expected = put_chain(s, 4);  // 0 full <- 1 <- 2 <- 3 deltas
  }
  std::string file1;
  for (const auto& f : ns::inspect_store(t.dir).files) {
    if (f.entry.iteration == 1) file1 = f.entry.file;
  }
  fs::remove(fs::path(t.dir) / file1);

  ns::CheckpointStore s(t.dir);
  // 1 is gone; 2 and 3 are intact on disk but unrestorable without it.
  EXPECT_EQ(listed_iterations(s), std::set<std::size_t>{0});
  EXPECT_EQ(s.get_variable(kVar, 0), expected.at(0));
  std::size_t missing = 0;
  std::size_t chain_broken = 0;
  for (const auto& e : s.recovery_report()) {
    missing += e.issue == ns::RecoveryIssue::kMissing ? 1u : 0u;
    chain_broken += e.issue == ns::RecoveryIssue::kChainBroken ? 1u : 0u;
  }
  EXPECT_EQ(missing, 1u);
  EXPECT_EQ(chain_broken, 2u);
  // The store keeps working: the next put must rebase reference-free.
  nk::VariableCompressor comp(chain_options());
  std::map<std::string, nk::CompressedStep> steps;
  steps.emplace(kVar, nk::CompressedStep::full_from(expected.at(3)));
  s.put(4, 4.0, steps);
  EXPECT_EQ(s.get_variable(kVar, 4), expected.at(3));
}

TEST(Store, CorruptManifestRefusesToOpen) {
  StoreDir t("badmanifest");
  { ns::CheckpointStore create(t.dir, {kVar}); }
  const auto path = fs::path(t.dir) / ns::CheckpointStore::kManifestName;
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-1, std::ios::end);
  f.put('\x7f');
  f.close();
  EXPECT_THROW(ns::CheckpointStore{t.dir}, numarck::ContractViolation);
  EXPECT_THROW((void)ns::inspect_store(t.dir), numarck::ContractViolation);
}

// --------------------------------------------------- adaptive integration --

TEST(Store, AdaptiveCheckpointerWritesThroughTheStore) {
  StoreDir t("adaptive");
  ns::CheckpointStore s(t.dir, {kVar});
  numarck::adaptive::AdaptiveOptions aopts;
  numarck::adaptive::StoreBackedCheckpointer ckpt(s, aopts);

  std::size_t written = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto snapshot = snap(64, static_cast<double>(i));
    const auto report = ckpt.push(i, static_cast<double>(i), snapshot);
    if (report.action != numarck::adaptive::Action::kSkip) {
      EXPECT_TRUE(report.acknowledged);
      EXPECT_GT(report.bytes_written, 0u);
      ++written;
    } else {
      EXPECT_FALSE(report.acknowledged);
    }
  }
  EXPECT_EQ(s.list().size(), written);
  EXPECT_GE(written, 1u);
  // Every written step restores within the adaptive error bound.
  for (const auto& e : s.list()) {
    const auto got = s.get_variable(kVar, e.iteration);
    const auto want = snap(64, static_cast<double>(e.iteration));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_NEAR(got[j], want[j],
                  2.0 * aopts.codec.error_bound * want[j] + 1e-9);
    }
  }
}
