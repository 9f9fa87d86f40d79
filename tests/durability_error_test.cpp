// Durability error paths: injected ENOSPC/EIO on append, fsync, close and
// payload reads must surface as exceptions — a failed write can never
// masquerade as an acknowledged checkpoint, a failed read never as restored
// state — and must leave the container / store directory reopenable
// afterwards. An io::FaultPlan scheduling an errno (io/fault.hpp), through
// FaultySink and FaultySource, models the disk that lives on but errors;
// the crashtest campaigns use the same plan's crash point to model a
// process that dies. A parent directory that cannot be opened for the
// publish's fsync must fail the publish too.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "numarck/core/compressor.hpp"
#include "numarck/io/byte_source.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/io/distributed_checkpoint.hpp"
#include "numarck/io/durable_file.hpp"
#include "numarck/io/fault.hpp"
#include "numarck/store/checkpoint_store.hpp"
#include "numarck/util/expect.hpp"

namespace fs = std::filesystem;
namespace nk = numarck::core;
namespace nio = numarck::io;
namespace ns = numarck::store;

namespace {

constexpr const char* kVar = "state";

struct TempPath {
  std::string path;
  explicit TempPath(const char* name) {
    path = std::string("/tmp/numarck_errpath_") + name + "_" +
           std::to_string(::getpid());
    fs::remove_all(path);
  }
  ~TempPath() { fs::remove_all(path); }
};

std::vector<double> snap(std::size_t n, double t) {
  std::vector<double> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = 1.0 + 0.3 * static_cast<double>(j % 5) + 0.01 * t;
  }
  return v;
}

nk::CompressedStep full_step(double t) {
  return nk::CompressedStep::full_from(snap(48, t));
}

using Op = nio::FaultPlan::Op;

/// A plan failing the (`after`+1)-th `op` with `err`, persistently.
std::shared_ptr<nio::FaultPlan> failing(Op op, std::size_t after, int err) {
  auto plan = std::make_shared<nio::FaultPlan>();
  plan->fail(op, after, err);
  return plan;
}

/// `path` opened through a FileSink that fails as `failing` schedules.
std::unique_ptr<nio::ByteSink> failing_file(const std::string& path, Op op,
                                            std::size_t after, int err) {
  return std::make_unique<nio::FaultySink>(
      std::make_unique<nio::FileSink>(path), failing(op, after, err));
}

constexpr ::uid_t kNobody = 65534;
constexpr int kCannotDrop = 77;

/// Runs `checks` in a death-test child that owns `dir` but cannot bypass
/// its permission bits: under root the child drops to uid 65534, which
/// `dir` is chowned to. The child re-executes the test binary, as a forked
/// copy of this process would inherit the pool's locks but not its
/// threads. Returns false (the caller skips) only when root cannot drop to
/// that uid.
bool run_unprivileged(const std::string& dir,
                      const std::function<bool()>& checks) {
  fs::create_directories(dir);
  if (::geteuid() == 0) {
    EXPECT_EQ(::chown(dir.c_str(), kNobody, kNobody), 0);
  }
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  int code = -1;
  EXPECT_EXIT(
      {
        if (::geteuid() == 0 &&
            (::setgid(kNobody) != 0 || ::setuid(kNobody) != 0)) {
          std::_Exit(kCannotDrop);
        }
        const bool ok = checks();
        // Readable again, so that an unprivileged parent can remove it.
        (void)::chmod(dir.c_str(), 0700);
        std::_Exit(ok ? 0 : 1);
      },
      [&code](int status) {
        code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        return code == 0 || code == kCannotDrop;
      },
      "");
  return code != kCannotDrop;
}

}  // namespace

// ----------------------------------------------------------- writer paths --

TEST(DurabilityErrors, AppendSurfacesEnospc) {
  TempPath t("append");
  nio::CheckpointWriter writer(
      failing_file(t.path, Op::kWrite, /*after=*/2, ENOSPC),
      {kVar}, nio::Durability::kNone);
  try {
    // Header writes may already exhaust the budget; either append throws.
    writer.append(kVar, 0, 0.0, full_step(0.0));
    writer.append(kVar, 1, 1.0, full_step(1.0));
    FAIL() << "ENOSPC on append did not surface";
  } catch (const numarck::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("No space left"), std::string::npos)
        << e.what();
  }
}

TEST(DurabilityErrors, FsyncFailureSurfacesOnClose) {
  TempPath t("fsync");
  nio::CheckpointWriter writer(
      failing_file(t.path, Op::kSync, /*after=*/0, EIO),
      {kVar}, nio::Durability::kFsyncOnClose);
  writer.append(kVar, 0, 0.0, full_step(0.0));
  try {
    writer.close();
    FAIL() << "EIO on fsync did not surface";
  } catch (const numarck::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("Input/output error"),
              std::string::npos)
        << e.what();
  }
}

TEST(DurabilityErrors, CloseFailureSurfaces) {
  TempPath t("close");
  nio::CheckpointWriter writer(
      failing_file(t.path, Op::kClose, /*after=*/0, EIO),
      {kVar}, nio::Durability::kNone);
  writer.append(kVar, 0, 0.0, full_step(0.0));
  EXPECT_THROW(writer.close(), numarck::ContractViolation);
}

// ------------------------------------------------------------- store paths --

TEST(DurabilityErrors, StorePutEnospcIsNeverASilentAck) {
  TempPath t("storeput");
  { ns::CheckpointStore create(t.path, {kVar}); }

  // The first few files write fine; then the disk fills and every later
  // file fails its first write — so some put() mid-campaign hits ENOSPC.
  ns::StoreOptions opts;
  auto files = std::make_shared<std::atomic<std::size_t>>(0);
  const auto full_disk = failing(Op::kWrite, 0, ENOSPC);
  opts.sink_factory = [files, full_disk](const std::string& path)
      -> std::unique_ptr<nio::ByteSink> {
    auto inner = std::make_unique<nio::FileSink>(path);
    if (files->fetch_add(1) < 4) return inner;
    return std::make_unique<nio::FaultySink>(std::move(inner), full_disk);
  };
  {
    ns::CheckpointStore s(t.path, opts);
    std::map<std::string, nk::CompressedStep> steps;
    steps.emplace(kVar, full_step(0.0));
    s.put(0, 0.0, steps);
    bool threw = false;
    for (std::size_t i = 1; i < 64 && !threw; ++i) {
      try {
        std::map<std::string, nk::CompressedStep> more;
        more.emplace(kVar, full_step(static_cast<double>(i)));
        s.put(i, static_cast<double>(i), more);
      } catch (const numarck::ContractViolation& e) {
        threw = true;
        EXPECT_NE(std::string(e.what()).find("No space left"),
                  std::string::npos)
            << e.what();
        // The failed iteration is not acknowledged: list() excludes it.
        for (const auto& entry : s.list()) {
          EXPECT_NE(entry.iteration, i);
        }
      }
    }
    EXPECT_TRUE(threw) << "ENOSPC budget was never reached";
  }

  // The directory reopens cleanly on a healthy disk: every acknowledged
  // entry restores, nothing references a missing file, no tmp residue.
  ns::CheckpointStore reopened(t.path);
  ASSERT_FALSE(reopened.list().empty());
  for (const auto& entry : reopened.list()) {
    EXPECT_EQ(reopened.get_variable(kVar, entry.iteration),
              snap(48, static_cast<double>(entry.iteration)));
  }
  const auto insp = ns::inspect_store(t.path);
  EXPECT_TRUE(insp.stale_tmps.empty());
  for (const auto& f : insp.files) {
    EXPECT_EQ(f.health, ns::FileHealth::kIntact) << f.entry.file;
  }
}

TEST(DurabilityErrors, ManifestPublishFailureRollsBackTheAck) {
  TempPath t("storemanifest");
  { ns::CheckpointStore create(t.path, {kVar}); }

  // Fail every fsync: the container write survives (kFsyncPerIteration is
  // the default durability, so its sync fails first) and no put is ever
  // acknowledged.
  {
    ns::StoreOptions opts;
    opts.sink_factory = nio::faulty_files(failing(Op::kSync, 0, EIO));
    ns::CheckpointStore s(t.path, opts);
    std::map<std::string, nk::CompressedStep> steps;
    steps.emplace(kVar, full_step(0.0));
    EXPECT_THROW(s.put(0, 0.0, steps), numarck::ContractViolation);
    EXPECT_TRUE(s.list().empty());
    EXPECT_FALSE(s.latest().has_value());
  }

  // Reopen: the store is still the empty store it was before the failed put
  // (an unacknowledged container left behind is quarantined, not adopted).
  ns::CheckpointStore reopened(t.path);
  EXPECT_TRUE(reopened.list().empty());
  std::map<std::string, nk::CompressedStep> steps;
  steps.emplace(kVar, full_step(7.0));
  reopened.put(7, 7.0, steps);
  EXPECT_EQ(reopened.get_variable(kVar, 7), snap(48, 7.0));
}

// A directory its owner can write and search but not read: creating,
// fsyncing and renaming a tmp all succeed, and only opening the directory
// for its fsync fails (EACCES). The rename is then not known to be durable,
// so the publish must not be acknowledged.
TEST(DurabilityErrors, PublishIntoAnUnreadableDirectoryThrows) {
  TempPath t("dirsync");
  const std::vector<std::uint8_t> body = {1, 2, 3};
  const bool ran = run_unprivileged(t.path, [&] {
    if (::chmod(t.path.c_str(), 0300) != 0) return false;
    try {
      nio::publish_envelope(t.path + "/run.manifest", 0x4e434b, body);
    } catch (const numarck::ContractViolation& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return std::string(e.what()).find(t.path) != std::string::npos;
    }
    return false;
  });
  if (!ran) GTEST_SKIP() << "root cannot drop to uid " << kNobody;
}

TEST(DurabilityErrors, StorePutIntoAnUnreadableDirectoryIsNotAcknowledged) {
  TempPath t("dirsyncput");
  const bool ran = run_unprivileged(t.path, [&] {
    try {
      ns::CheckpointStore s(t.path, {kVar});
      if (::chmod(t.path.c_str(), 0300) != 0) return false;
      std::map<std::string, nk::CompressedStep> steps;
      steps.emplace(kVar, full_step(0.0));
      try {
        s.put(0, 0.0, steps);
        return false;
      } catch (const numarck::ContractViolation& e) {
        std::fprintf(stderr, "%s\n", e.what());
      }
      return s.list().empty() && !s.latest().has_value();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "unexpected: %s\n", e.what());
      return false;
    }
  });
  if (!ran) GTEST_SKIP() << "root cannot drop to uid " << kNobody;
}

// ------------------------------------------------------------- read paths --

// The read-side dual: a disk that goes bad *after* a checkpoint was written
// and scanned. Payload loads must surface the EIO — a restart path can never
// fabricate state from a failed read (DESIGN.md §7).
TEST(DurabilityErrors, StorePublishesGoThroughTheSinkFactory) {
  // Containers and manifests share one tmp+rename publish, so the factory
  // sees every file the store writes, manifest temporaries included.
  TempPath t("storefactory");
  auto paths = std::make_shared<std::vector<std::string>>();
  ns::StoreOptions opts;
  opts.sink_factory =
      [paths](const std::string& path) -> std::unique_ptr<nio::ByteSink> {
    paths->push_back(fs::path(path).filename().string());
    return std::make_unique<nio::FileSink>(path);
  };
  ns::CheckpointStore s(t.path, {kVar}, opts);
  std::map<std::string, nk::CompressedStep> steps;
  steps.emplace(kVar, full_step(0.0));
  s.put(0, 0.0, steps);
  EXPECT_EQ(*paths, (std::vector<std::string>{"store.manifest.tmp",
                                              "it00000000.nck.tmp",
                                              "store.manifest.tmp"}));
}

TEST(DurabilityErrors, ManifestSaveFailureLeavesNoTmp) {
  // `<path>.tmp` points at /dev/full, so the manifest write fails with
  // ENOSPC; the publish must surface it and remove its temporary.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this host";
  TempPath t("manifestsave");
  fs::create_directories(t.path);
  const std::string path = t.path + "/run.manifest";
  fs::create_symlink("/dev/full", path + ".tmp");
  nio::Manifest m;
  m.ranks = 1;
  m.variables = {kVar};
  m.partition_sizes = {4};
  EXPECT_THROW(m.save(path), numarck::ContractViolation);
  EXPECT_FALSE(fs::exists(fs::symlink_status(path + ".tmp")));
  EXPECT_FALSE(fs::exists(path));
}

TEST(DurabilityErrors, ReadFailureAfterScanSurfacesOnLoad) {
  TempPath t("readeio");
  {
    nio::CheckpointWriter writer(t.path, {kVar});
    writer.append(kVar, 0, 0.0, full_step(0.0));
    writer.append(kVar, 1, 1.0, full_step(1.0));
    writer.close();
  }

  // The scan is one bulk read; let it pass, then fail every later read.
  nio::CheckpointReader reader(std::make_unique<nio::FaultySource>(
      std::make_unique<nio::FileSource>(t.path),
      failing(Op::kRead, /*after=*/1, EIO)));
  ASSERT_EQ(reader.iteration_count(), 2u);
  try {
    (void)reader.load(kVar, 0);
    FAIL() << "EIO on payload read did not surface";
  } catch (const numarck::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("Input/output error"),
              std::string::npos)
        << e.what();
  }
  // Persistent, like a real sick disk: the next load fails too.
  EXPECT_THROW((void)reader.load(kVar, 1), numarck::ContractViolation);

  // The same container on a healthy disk still restores everything.
  nio::CheckpointReader healthy(t.path);
  nio::RestartEngine engine(healthy);
  EXPECT_EQ(engine.reconstruct(1).at(kVar), snap(48, 1.0));
}
