// Tiered checkpoint store tests: put/get round trips over delta chains,
// retention pruning with standalone rewrites, tier promotion, synchronous
// and background compaction, and the open-time recovery matrix (stale tmp
// sweep, orphan quarantine, torn/missing containers, broken chains). The
// store's contract is the PR's headline: an acknowledged checkpoint survives
// any crash, and the manifest never names a file that cannot restore.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "numarck/adaptive/store_backed.hpp"
#include "numarck/baselines/bspline_compressor.hpp"
#include "numarck/codec/codec.hpp"
#include "numarck/core/codec.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/io/distributed_checkpoint.hpp"
#include "numarck/io/durable_file.hpp"
#include "numarck/lossless/fpc.hpp"
#include "numarck/store/checkpoint_store.hpp"
#include "numarck/util/byte_stream.hpp"
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

/// Runs `fn`, which must throw ContractViolation naming `reason`.
template <typename Fn>
void expect_rejected(Fn&& fn, const char* reason) {
  try {
    fn();
    ADD_FAILURE() << "forged record accepted";
  } catch (const numarck::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
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

// ----------------------------------------------------- concurrent restores --

namespace {

/// A pre-encoded multi-variable stream: the steps of every iteration and the
/// decoder ground truth (an independent VariableReconstructor replay).
struct EncodedStream {
  std::vector<std::map<std::string, nk::CompressedStep>> steps;
  std::vector<std::map<std::string, std::vector<double>>> expected;
};

EncodedStream encode_stream(const std::vector<std::string>& vars,
                            std::size_t count) {
  EncodedStream out;
  std::vector<nk::VariableCompressor> comps(
      vars.size(), nk::VariableCompressor(chain_options()));
  std::vector<nk::VariableReconstructor> oracle(vars.size());
  for (std::size_t i = 0; i < count; ++i) {
    auto& steps = out.steps.emplace_back();
    auto& expected = out.expected.emplace_back();
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const nk::CompressedStep step = comps[v].push(
          snap(64, static_cast<double>(i) + 0.37 * static_cast<double>(v)));
      oracle[v].push(step);
      expected[vars[v]] = oracle[v].state();
      steps.emplace(vars[v], step);
    }
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const std::map<std::string, std::vector<double>>& a,
               const std::map<std::string, std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, values] : a) {
    const auto it = b.find(name);
    if (it == b.end() || !same_bits(values, it->second)) return false;
  }
  return true;
}

}  // namespace

TEST(Store, GetsRacePutsPrunesAndTheCompactor) {
  // The writer puts, prunes to the last two entries plus every fourth
  // iteration, and runs the background compactor, while a second thread
  // prunes the same way, so the chains two readers restore are rewritten
  // and their files doomed mid-get. Every restore
  // must match the decoder bit for bit, and once the threads join every
  // deferred unlink must have run: no orphan is left.
  StoreDir t("race");
  const std::vector<std::string> vars = {"dens", "pres", "temp"};
  constexpr std::size_t kIterations = 62;
  constexpr std::size_t kEvery = 4;
  const EncodedStream stream = encode_stream(vars, kIterations);
  ns::StoreOptions opts;
  opts.epoch_every = kEvery;
  opts.compact_interval = std::chrono::milliseconds(1);
  ns::CheckpointStore s(t.dir, vars, opts);
  s.start_compactor();

  std::atomic<std::size_t> acked{0};  // iterations below it are acknowledged
  std::atomic<bool> done{false};
  std::atomic<std::size_t> gets{0};
  std::atomic<std::size_t> mismatches{0};
  std::mutex error_mu;
  std::vector<std::string> errors;
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t x = 0x9E3779B97F4A7C15ull * (r + 1);
      for (std::size_t mine = 0; !done.load() || mine < 4;) {
        const std::size_t n = acked.load();
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        // Every kEvery-th iteration is retained for good; half the gets
        // take the newest of them, whose chain the next prune rewrites.
        const std::size_t epochs = (n - 1) / kEvery + 1;
        const std::size_t pick = (x >> 33) % (2 * epochs);
        const std::size_t it = kEvery * (pick < epochs ? pick : epochs - 1);
        try {
          bool ok = false;
          if ((x >> 20) & 1) {
            ok = same_bits(s.get(it), stream.expected[it]);
          } else {
            const std::string& var = vars[(x >> 40) % vars.size()];
            ok = same_bits(s.get_variable(var, it),
                           stream.expected[it].at(var));
          }
          if (!ok) ++mismatches;
        } catch (const std::exception& e) {
          const std::lock_guard lk(error_mu);
          errors.push_back("iteration " + std::to_string(it) + ": " +
                           e.what());
        }
        ++gets;
        ++mine;
      }
    });
  }
  // A second mutator prunes while the writer puts: the writer lock
  // serialises the two, and neither may unlink a file a reader pinned.
  std::atomic<bool> writing{true};
  std::atomic<std::size_t> prunes{0};
  std::thread pruner([&] {
    while (writing.load()) {
      try {
        (void)s.prune(2, kEvery);
      } catch (const std::exception& e) {
        const std::lock_guard lk(error_mu);
        errors.push_back(std::string("concurrent prune: ") + e.what());
      }
      ++prunes;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::size_t i = 0; i < kIterations; ++i) {
    if (i + 4 == kIterations) {
      // A prune after the last put would rewrite every epoch delta
      // standalone and leave the compactor nothing to merge, so the pruner
      // stops before the last four puts.
      writing = false;
      pruner.join();
    }
    s.put(i, static_cast<double>(i), stream.steps[i]);
    acked = i + 1;
    if (i % 8 == 7) (void)s.prune(2, kEvery);
  }
  // The last puts left epoch deltas behind the newest entry: the readers
  // keep racing until the compactor has merged at least one.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (s.compactor_status().compactions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done = true;
  for (auto& th : readers) th.join();
  s.stop_compactor();

  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(gets.load(), 8u);
  EXPECT_GT(prunes.load(), 0u);
  const auto status = s.compactor_status();
  EXPECT_TRUE(status.last_error.empty()) << status.last_error;
  EXPECT_GT(status.compactions, 0u);
  expect_manifest_closed(t.dir);
  const auto insp = ns::inspect_store(t.dir);
  EXPECT_TRUE(insp.orphans.empty())
      << insp.orphans.size() << " orphans, first " << insp.orphans.front();
  EXPECT_TRUE(insp.stale_tmps.empty());
  for (const auto& e : s.list()) {
    EXPECT_TRUE(same_bits(s.get(e.iteration), stream.expected[e.iteration]))
        << "iteration " << e.iteration;
  }
}

namespace {

/// Parks one writer in the middle of its I/O: the first sync() of the first
/// store temporary whose path ends in `suffix` reports the writer parked,
/// then blocks until release(). The wait is bounded, so a failing test
/// cannot hang.
class SyncGate {
 public:
  explicit SyncGate(std::string suffix) : suffix_(std::move(suffix)) {}

  /// The sink factory to put in StoreOptions; `this` must outlive the store.
  nio::SinkFactory factory() {
    return [this](const std::string& path) -> std::unique_ptr<nio::ByteSink> {
      auto inner = std::make_unique<nio::FileSink>(path);
      if (!path.ends_with(suffix_) || armed_.exchange(true)) return inner;
      return std::make_unique<Parking>(std::move(inner), *this);
    };
  }

  /// True once the writer is parked, false after `timeout` without it.
  bool wait_parked(std::chrono::seconds timeout) {
    return parked_future_.wait_for(timeout) == std::future_status::ready;
  }

  void release() {
    std::call_once(release_once_, [this] { go_.set_value(); });
  }

 private:
  class Parking final : public nio::ByteSink {
   public:
    Parking(std::unique_ptr<nio::ByteSink> inner, SyncGate& gate)
        : inner_(std::move(inner)), gate_(gate) {}
    void write(const void* data, std::size_t size) override {
      inner_->write(data, size);
    }
    void sync() override {
      inner_->sync();
      if (parked_) return;
      parked_ = true;
      gate_.parked_.set_value();
      (void)gate_.released_.wait_for(std::chrono::seconds(30));
    }
    void close() override { inner_->close(); }

   private:
    std::unique_ptr<nio::ByteSink> inner_;
    SyncGate& gate_;
    bool parked_ = false;
  };

  std::string suffix_;
  std::atomic<bool> armed_{false};
  std::promise<void> parked_;
  std::future<void> parked_future_ = parked_.get_future();
  std::promise<void> go_;
  std::shared_future<void> released_ = go_.get_future().share();
  std::once_flag release_once_;
};

/// Releases the gate when the test leaves its scope, early returns included,
/// so the parked writer the test's futures wait for always finishes.
struct ReleaseOnExit {
  SyncGate& gate;
  ~ReleaseOnExit() { gate.release(); }
};

constexpr auto kAnswerWithin = std::chrono::seconds(10);

}  // namespace

TEST(Store, RestoresNeverWaitOnAPutsFsync) {
  // Put 4 parks in its container's fsync. Meanwhile every query of the
  // acknowledged iterations answers, bit-exact, and iteration 4 stays
  // invisible: an iteration is retained exactly when its put returns.
  StoreDir t("parked_put");
  const std::vector<std::string> vars = {"dens", "pres"};
  const EncodedStream stream = encode_stream(vars, 5);
  SyncGate gate("/it00000004.nck.tmp");
  ns::StoreOptions opts;
  opts.sink_factory = gate.factory();
  ns::CheckpointStore s(t.dir, vars, opts);
  for (std::size_t i = 0; i < 4; ++i) {
    s.put(i, static_cast<double>(i), stream.steps[i]);
  }

  auto writer = std::async(std::launch::async,
                           [&] { s.put(4, 4.0, stream.steps[4]); });
  const ReleaseOnExit release{gate};
  ASSERT_TRUE(gate.wait_parked(kAnswerWithin)) << "put 4 never reached fsync";
  auto reader = std::async(std::launch::async, [&] {
    std::vector<std::string> failures;
    for (std::size_t it = 0; it < 4; ++it) {
      if (!same_bits(s.get(it), stream.expected[it])) {
        failures.push_back("get " + std::to_string(it));
      }
      for (const auto& var : vars) {
        if (!same_bits(s.get_variable(var, it), stream.expected[it].at(var))) {
          failures.push_back("get_variable " + var + " " + std::to_string(it));
        }
      }
    }
    if (listed_iterations(s) != std::set<std::size_t>{0, 1, 2, 3}) {
      failures.push_back("list shows the parked put");
    }
    if (s.latest() != std::optional<std::size_t>(3)) {
      failures.push_back("latest is not 3");
    }
    try {
      (void)s.get(4);
      failures.push_back("get 4 answered before its put returned");
    } catch (const numarck::ContractViolation& e) {
      if (std::string(e.what()).find("not retained") == std::string::npos) {
        failures.push_back(e.what());
      }
    }
    return failures;
  });
  const bool answered =
      reader.wait_for(kAnswerWithin) == std::future_status::ready;
  gate.release();
  writer.get();
  ASSERT_TRUE(answered) << "a query waited on the parked put";
  for (const auto& failure : reader.get()) ADD_FAILURE() << failure;

  EXPECT_EQ(s.latest(), std::optional<std::size_t>(4));
  EXPECT_TRUE(same_bits(s.get(4), stream.expected[4]));
  expect_manifest_closed(t.dir);
}

TEST(Store, RestoresNeverWaitOnAPruneRewrite) {
  // One chain 0..6 with 3 pinned kBest: prune(2, 0) drops 0-2 and 4 and
  // rewrites 3, 5 and 6 standalone, parking in the first rewrite's fsync.
  // Meanwhile gets on the chain being rewritten answer bit-exact from the
  // old files, which all still exist; once the prune returns they are gone.
  StoreDir t("parked_prune");
  const std::vector<std::string> vars = {"dens", "pres"};
  const EncodedStream stream = encode_stream(vars, 7);
  SyncGate gate(".epoch.nck.tmp");
  ns::StoreOptions opts;
  opts.sink_factory = gate.factory();
  ns::CheckpointStore s(t.dir, vars, opts);
  for (std::size_t i = 0; i < stream.steps.size(); ++i) {
    s.put(i, static_cast<double>(i), stream.steps[i]);
  }
  s.promote(3, ns::Tier::kBest);
  const auto before = s.list();
  ASSERT_EQ(before.size(), 7u);

  auto pruner = std::async(std::launch::async, [&] { return s.prune(2, 0); });
  const ReleaseOnExit release{gate};
  ASSERT_TRUE(gate.wait_parked(kAnswerWithin)) << "prune never rewrote";
  auto reader = std::async(std::launch::async, [&] {
    std::vector<std::string> failures;
    for (const std::size_t it : {3u, 5u, 6u}) {
      if (!same_bits(s.get(it), stream.expected[it])) {
        failures.push_back("get " + std::to_string(it));
      }
      if (!same_bits(s.get_variable(vars[1], it),
                     stream.expected[it].at(vars[1]))) {
        failures.push_back("get_variable " + std::to_string(it));
      }
    }
    if (s.list().size() != before.size()) {
      failures.push_back("list shows the parked prune");
    }
    return failures;
  });
  const bool answered =
      reader.wait_for(kAnswerWithin) == std::future_status::ready;
  for (const auto& e : before) {
    EXPECT_TRUE(fs::exists(t.dir + "/" + e.file))
        << e.file << " unlinked before the prune published";
  }
  gate.release();
  const auto report = pruner.get();
  ASSERT_TRUE(answered) << "a query waited on the parked prune";
  for (const auto& failure : reader.get()) ADD_FAILURE() << failure;

  EXPECT_EQ(report.kept, 3u);
  EXPECT_EQ(report.dropped, 4u);
  EXPECT_EQ(report.rewritten, 3u);
  for (const auto& e : before) {
    EXPECT_FALSE(fs::exists(t.dir + "/" + e.file)) << e.file;
  }
  for (const std::size_t it : {3u, 5u, 6u}) {
    EXPECT_TRUE(same_bits(s.get(it), stream.expected[it])) << "iteration " << it;
  }
  const auto insp = ns::inspect_store(t.dir);
  EXPECT_TRUE(insp.orphans.empty());
  EXPECT_TRUE(insp.stale_tmps.empty());
  expect_manifest_closed(t.dir);
}

TEST(Store, GetOnAChainDeeperThanTheScanWindow) {
  // One delta chain three and a half scan windows deep, the target ending
  // mid-window: every variable continues its replay across the windows,
  // and a restore holds at most one window of containers open, so it also
  // succeeds under a descriptor limit below the chain depth. Prune and
  // compaction rewrites replay through the same windowed scan, so they
  // hold under that limit too.
  StoreDir t("deep");
  const std::vector<std::string> vars = {"dens", "pres"};
  constexpr std::size_t kWindow = ns::CheckpointStore::kScanWindow;
  constexpr std::size_t kDepth = 3 * kWindow + kWindow / 2;
  const EncodedStream stream = encode_stream(vars, kDepth);
  ns::StoreOptions opts;
  opts.durability = nio::Durability::kNone;
  ns::CheckpointStore s(t.dir, vars, opts);
  for (std::size_t i = 0; i < kDepth; ++i) {
    s.put(i, static_cast<double>(i), stream.steps[i]);
  }
  ASSERT_FALSE(s.list().back().reference_free);
  const std::size_t target = kDepth - 1;
  for (const std::size_t it : {kWindow - 1, kWindow, 2 * kWindow + 5, target}) {
    EXPECT_TRUE(same_bits(s.get(it), stream.expected[it])) << "iteration " << it;
    for (const auto& var : vars) {
      EXPECT_TRUE(same_bits(s.get_variable(var, it), stream.expected[it].at(var)))
          << var << " at iteration " << it;
    }
  }

  // The child re-executes the test binary: a forked copy of this process
  // would inherit the pool's locks but not its threads.
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  EXPECT_EXIT(
      {
        // Room for one window beside the descriptors already open; the
        // limit caps descriptor numbers, so counting the open ones bounds
        // the free slots below it from below.
        std::size_t open_fds = 0;
        for ([[maybe_unused]] const auto& fd :
             fs::directory_iterator("/proc/self/fd")) {
          ++open_fds;
        }
        // An entry more than two windows deep, pinned so that prune keeps
        // it and must rewrite it standalone from one replay of its chain.
        constexpr std::size_t kPinned = 2 * kWindow + 5;
        s.promote(kPinned, ns::Tier::kBest);
        rlimit lim{};
        bool ok = ::getrlimit(RLIMIT_NOFILE, &lim) == 0;
        lim.rlim_cur = open_fds + kWindow + 8;
        ok = ok && lim.rlim_cur < kDepth && ::setrlimit(RLIMIT_NOFILE, &lim) == 0;
        try {
          ok = ok && same_bits(s.get(target), stream.expected[target]) &&
               same_bits(s.get_variable(vars[1], target),
                         stream.expected[target].at(vars[1]));
          // Every entry but the pin and the newest drops, so both are
          // rewritten standalone: one replay through 3.5 windows.
          const ns::PruneReport report = s.prune(1, 0);
          ok = ok && report.kept == 2 && report.rewritten == 2;
          ok = ok && s.list().front().iteration == kPinned &&
               s.list().front().file.ends_with(".epoch.nck");
          // prune left every entry reference-free: nothing to compact.
          ok = ok && !s.compact_once();
          ok = ok && same_bits(s.get(kPinned), stream.expected[kPinned]) &&
               same_bits(s.get(target), stream.expected[target]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "restore failed: %s\n", e.what());
          ok = false;
        }
        // _Exit skips destructors: the re-executed child removes its own
        // store directory.
        std::error_code ec;
        fs::remove_all(t.dir, ec);
        std::_Exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Store, FailedGetReleasesItsPin) {
  // A payload byte flipped on disk after the put: the get throws naming
  // the CRC, the other iterations still restore, and the pin the get held
  // is gone, so the next prune unlinks its doomed files at once.
  StoreDir t("corrupt");
  const std::vector<std::string> vars = {"dens", "pres"};
  EncodedStream stream = encode_stream(vars, 7);
  // A rebase at 5: pruning to the last two entries drops the whole first
  // chain, damaged entry included, without replaying it.
  for (const auto& var : vars) {
    stream.steps[5][var] =
        nk::CompressedStep::full_from(stream.expected[5].at(var));
  }
  ns::CheckpointStore s(t.dir, vars);
  for (std::size_t i = 0; i < stream.steps.size(); ++i) {
    s.put(i, static_cast<double>(i), stream.steps[i]);
  }
  const auto entries = s.list();
  const std::string damaged = t.dir + "/" + entries[2].file;
  std::uint64_t offset = 0;
  {
    const nio::CheckpointReader reader(damaged);
    const auto info = reader.info(vars[0], 0);
    ASSERT_TRUE(info.has_value());
    ASSERT_GT(info->payload_size, 0u);
    offset = info->payload_offset + info->payload_size / 2;
  }
  {
    std::fstream f(damaged, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    const char byte = static_cast<char>(f.get() ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(byte);
  }

  for (const std::size_t it : {2u, 3u, 4u}) {
    SCOPED_TRACE(it);
    expect_rejected([&] { (void)s.get(it); }, "CRC");
    expect_rejected([&] { (void)s.get_variable(vars[0], it); }, "CRC");
  }
  for (const std::size_t it : {0u, 1u, 5u, 6u}) {
    EXPECT_TRUE(same_bits(s.get(it), stream.expected[it])) << "iteration " << it;
  }

  const auto report = s.prune(2, 0);
  EXPECT_EQ(report.dropped, 5u);
  EXPECT_EQ(report.rewritten, 0u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(fs::exists(t.dir + "/" + entries[i].file)) << entries[i].file;
  }
  EXPECT_TRUE(ns::inspect_store(t.dir).orphans.empty());
  EXPECT_TRUE(same_bits(s.get(6), stream.expected[6]));
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

TEST(Store, AdaptiveFailedPutRestartsTheChainWithAFull) {
  StoreDir t("adaptive-erring");
  { ns::CheckpointStore create(t.dir, {kVar}); }
  // Exactly one container write fails: the one for iteration 1.
  ns::StoreOptions opts;
  opts.sink_factory =
      [](const std::string& path) -> std::unique_ptr<nio::ByteSink> {
    auto inner = std::make_unique<nio::FileSink>(path);
    if (path.ends_with("it00000001.nck.tmp")) {
      return std::make_unique<nio::ErringFile>(
          std::move(inner), nio::ErringFile::Op::kWrite, 0, ENOSPC);
    }
    return inner;
  };
  ns::CheckpointStore s(t.dir, opts);
  numarck::adaptive::StoreBackedCheckpointer ckpt(
      s, numarck::adaptive::AdaptiveOptions{});

  EXPECT_TRUE(ckpt.push(0, 0.0, snap(64, 0.0)).acknowledged);
  const auto moved = snap(64, 10.0);  // drift far over the 1 % budget
  EXPECT_ANY_THROW((void)ckpt.push(1, 1.0, moved));
  ASSERT_EQ(s.list().size(), 1u);
  // Nothing newer than iteration 0 reached the store: one snapshot stale.
  EXPECT_EQ(ckpt.staleness(), 1u);

  // The controller decided to write `moved`, but the store never took it:
  // pushing it again must not be judged against it (a skip would leave the
  // store's latest stale), and must restart the chain with a full.
  const auto report = ckpt.push(2, 2.0, moved);
  EXPECT_EQ(report.action, numarck::adaptive::Action::kFull);
  EXPECT_TRUE(report.acknowledged);
  EXPECT_EQ(ckpt.stats().fulls, 2u);
  EXPECT_EQ(ckpt.staleness(), 0u);
  ASSERT_EQ(s.list().size(), 2u);
  EXPECT_EQ(s.list().back().iteration, 2u);
  EXPECT_TRUE(s.list().back().reference_free);
  EXPECT_EQ(s.get_variable(kVar, 2), moved);
}

// ---------------------------------------------------------- forged records --
// Records whose CRC is valid but whose payload is structurally broken. The
// chain-replay restore paths read records CRC-checked only and leave the
// structural checks to Codec::decode, so each forgery must still be rejected
// there with ContractViolation — by RestartEngine, by the store's get and
// get_variable — and by numarck-inspect, which runs the load-time
// validation. Each container holds a valid FPC full record at iteration 0
// and the forged record at iteration 1.

namespace {

constexpr std::size_t kForgedPoints = 4096;

/// A field whose change ratios are dominated by one bin, so the rANS index
/// coder wins under Postpass::all().
std::pair<std::vector<double>, std::vector<double>> skewed_pair() {
  std::vector<double> prev(kForgedPoints), curr(kForgedPoints);
  for (std::size_t j = 0; j < kForgedPoints; ++j) {
    prev[j] = 1.0 + 0.5 * std::sin(0.01 * static_cast<double>(j));
    const double ratio = j % 50 == 0 ? 0.3 + 0.001 * static_cast<double>(j % 7)
                                     : 0.0002 * std::cos(static_cast<double>(j));
    curr[j] = prev[j] * (1.0 + ratio);
  }
  return {prev, curr};
}

nk::CompressedStep step_of(std::uint8_t codec_id, bool is_full,
                           std::vector<std::uint8_t> payload) {
  nk::CompressedStep s;
  s.codec_id = codec_id;
  s.is_full = is_full;
  s.payload = std::move(payload);
  return s;
}

std::vector<std::uint8_t> numarck_delta(const nk::Postpass& postpass) {
  const auto [prev, curr] = skewed_pair();
  nk::Options opts;
  opts.index_bits = 8;
  return nk::encode_iteration(prev, curr, opts).serialize(postpass);
}

/// NUMARCK delta whose header claims a 17-bit index width (max is 16).
nk::CompressedStep forge_numarck_index_width() {
  auto bytes = numarck_delta(nk::Postpass::none());
  bytes[4] = 17;  // magic u32 | index_bits u8
  return step_of(numarck::codec::kNumarckId, false, std::move(bytes));
}

/// NUMARCK delta whose rANS-coded index stream lost its second half (the
/// stream's length prefix agrees, so only the rANS frame checks catch it).
nk::CompressedStep forge_numarck_truncated_rans() {
  const auto bytes = numarck_delta(nk::Postpass::all());
  numarck::util::ByteReader r(bytes);
  numarck::util::ByteWriter w;
  w.put_u32(r.get_u32());                   // magic
  w.put_u8(r.get_u8());                     // index_bits
  w.put_u8(r.get_u8());                     // strategy
  w.put_u8(r.get_u8());                     // predictor
  const std::uint8_t flags = r.get_u8();
  EXPECT_TRUE(flags & 0x08) << "fixture did not select the rANS index coder";
  w.put_u8(flags);
  w.put_f64(r.get_f64());                   // error bound
  w.put_varint(r.get_varint());             // point count
  w.put_vector(r.get_vector<double>());     // centers
  w.put_vector(r.get_vector<std::uint8_t>());  // ζ stream
  auto idx = r.get_vector<std::uint8_t>();
  idx.resize(idx.size() / 2);
  w.put_vector(idx);
  w.put_bytes(bytes.data() + r.position(), r.remaining());
  return step_of(numarck::codec::kNumarckId, false, w.take());
}

/// FPC full record whose residual bytes stop short of what its header codes.
nk::CompressedStep forge_fpc_residual_overrun() {
  const auto bytes = numarck::lossless::fpc_compress(skewed_pair().second);
  numarck::util::ByteReader r(bytes);
  numarck::util::ByteWriter w;
  w.put_u32(r.get_u32());  // magic
  w.put_u8(r.get_u8());    // table log2
  w.put_varint(r.get_varint());  // count
  const auto header = r.get_vector<std::uint8_t>();
  w.put_vector(header);
  auto residual = r.get_vector<std::uint8_t>();
  residual.resize(residual.size() / 2);
  w.put_vector(residual);
  return step_of(numarck::codec::kFpcId, true, w.take());
}

/// isabela record whose single patch targets index == point count.
nk::CompressedStep forge_isabela_patch_past_end() {
  nk::Options opts;
  const auto good = numarck::codec::require(numarck::codec::kIsabelaId)
                        .encode(skewed_pair().second, {}, {}, opts);
  numarck::util::ByteReader r(good.payload);
  const auto inner = r.get_vector<std::uint8_t>();
  numarck::util::ByteWriter w;
  w.put_vector(inner);
  w.put_f64(r.get_f64());         // bound
  w.put_varint(1);                // one patch ...
  w.put_varint(kForgedPoints);    // ... at the first index past the end
  w.put_f64(0.0);
  return step_of(numarck::codec::kIsabelaId, false, w.take());
}

/// bspline record that declares 2^40 points for its four control points:
/// decoding it as declared would allocate 8 TiB.
nk::CompressedStep forge_bspline_point_count() {
  numarck::baselines::BSplineCompressed model;
  model.coefficients = {1.0, 2.0, 3.0, 4.0};
  model.point_count = std::size_t{1} << 40;
  numarck::util::ByteWriter w;
  w.put_vector(model.serialize());
  w.put_f64(0.001);  // bound
  w.put_varint(0);   // no patches
  return step_of(numarck::codec::kBsplineId, false, w.take());
}

/// NUMARCK delta that claims 2^24 points against the kForgedPoints-point
/// reference: a valid Postpass::all() record whose point count and RLE ζ
/// stream (one zero run) were rewritten to match each other. Structurally
/// it fails only after its 2 MiB ζ bitmap is built.
nk::CompressedStep forge_numarck_point_count_past_reference() {
  constexpr std::uint64_t kClaimed = std::uint64_t{1} << 24;
  const auto bytes = numarck_delta(nk::Postpass::all());
  numarck::util::ByteReader r(bytes);
  numarck::util::ByteWriter w;
  w.put_u32(r.get_u32());                   // magic
  w.put_u8(r.get_u8());                     // index_bits
  w.put_u8(r.get_u8());                     // strategy
  w.put_u8(r.get_u8());                     // predictor
  const std::uint8_t flags = r.get_u8();
  EXPECT_TRUE(flags & 0x02) << "fixture did not RLE-code the ζ bitmap";
  w.put_u8(flags);
  w.put_f64(r.get_f64());                   // error bound
  (void)r.get_varint();
  w.put_varint(kClaimed);                   // point count
  w.put_vector(r.get_vector<double>());     // centers
  (void)r.get_vector<std::uint8_t>();
  numarck::util::ByteWriter zeta;
  zeta.put_u8(0);
  zeta.put_varint(kClaimed);
  w.put_vector(zeta.take());                // ζ stream
  w.put_bytes(bytes.data() + r.position(), r.remaining());
  return step_of(numarck::codec::kNumarckId, false, w.take());
}

struct Forgery {
  const char* name;
  nk::CompressedStep (*forge)();
  const char* reason;  ///< expected in the ContractViolation message
};

constexpr Forgery kForgeries[] = {
    {"numarck_index_width_17", forge_numarck_index_width, "bad index width"},
    {"numarck_truncated_rans", forge_numarck_truncated_rans, "rans:"},
    {"fpc_residual_overrun", forge_fpc_residual_overrun,
     "fpc: residual overrun"},
    {"isabela_patch_past_end", forge_isabela_patch_past_end,
     "patch index out of range"},
    {"bspline_point_count_2e40", forge_bspline_point_count,
     "bspline: point count out of range"},
};

nk::CompressedStep valid_full() {
  return nk::CompressedStep::full_from(skewed_pair().first);
}

}  // namespace

TEST(ForgedRecord, RestartEngineRejectsEveryForgery) {
  for (const auto& f : kForgeries) {
    SCOPED_TRACE(f.name);
    StoreDir t(f.name);
    fs::create_directories(t.dir);
    const std::string path = t.dir + "/forged.ckpt";
    {
      nio::CheckpointWriter w(path, {kVar});
      w.append(kVar, 0, 0.0, valid_full());
      w.append(kVar, 1, 1.0, f.forge());
      w.close();
    }
    const nio::CheckpointReader reader(path);
    // The CRC is intact: the raw read succeeds, the structural check fails.
    EXPECT_NO_THROW((void)reader.read(kVar, 1));
    expect_rejected([&] { (void)reader.load(kVar, 1); }, f.reason);
    const nio::RestartEngine engine(reader);
    EXPECT_EQ(engine.reconstruct_variable(kVar, 0), skewed_pair().first);
    expect_rejected([&] { (void)engine.reconstruct_variable(kVar, 1); },
                    f.reason);
#ifdef NUMARCK_INSPECT_BIN
    const std::string cmd =
        std::string(NUMARCK_INSPECT_BIN) + " " + path + " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_NE(WEXITSTATUS(status), 0);
#endif
  }
}

TEST(ForgedRecord, StoreGetRejectsEveryForgery) {
  for (const auto& f : kForgeries) {
    SCOPED_TRACE(f.name);
    StoreDir t(f.name);
    ns::CheckpointStore s(t.dir, {kVar});
    s.put(0, 0.0, {{kVar, valid_full()}});
    s.put(1, 1.0, {{kVar, f.forge()}});
    EXPECT_EQ(s.get_variable(kVar, 0), skewed_pair().first);
    expect_rejected([&] { (void)s.get(1); }, f.reason);
    expect_rejected([&] { (void)s.get_variable(kVar, 1); }, f.reason);
  }
}

TEST(ForgedRecord, DeltaPointCountBoundedByItsReference) {
  // Chain replay reads records CRC-checked only, so the decoder is handed
  // no point count; the reference it decodes against is the bound. A delta
  // claiming more points must be rejected from its header, on both
  // restore paths, before any bitmap is sized from the claim.
  constexpr const char* kReason = "point count exceeds caller bound";
  {
    StoreDir t("point_count_past_reference");
    fs::create_directories(t.dir);
    const std::string path = t.dir + "/forged.ckpt";
    {
      nio::CheckpointWriter w(path, {kVar});
      w.append(kVar, 0, 0.0, valid_full());
      w.append(kVar, 1, 1.0, forge_numarck_point_count_past_reference());
      w.close();
    }
    const nio::CheckpointReader reader(path);
    const nio::RestartEngine engine(reader);
    EXPECT_EQ(engine.reconstruct_variable(kVar, 0), skewed_pair().first);
    expect_rejected([&] { (void)engine.reconstruct_variable(kVar, 1); },
                    kReason);
    // load() validates without decoding; the chain-start record bounds it.
    EXPECT_EQ(reader.load(kVar, 0).point_count, skewed_pair().first.size());
    expect_rejected([&] { (void)reader.load(kVar, 1); }, kReason);
  }
  StoreDir t("point_count_past_reference_store");
  ns::CheckpointStore s(t.dir, {kVar});
  s.put(0, 0.0, {{kVar, valid_full()}});
  s.put(1, 1.0, {{kVar, forge_numarck_point_count_past_reference()}});
  expect_rejected([&] { (void)s.get(1); }, kReason);
  expect_rejected([&] { (void)s.get_variable(kVar, 1); }, kReason);
}
