#include "numarck/tools/crashtest.hpp"

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <memory>
#include <vector>

#include "numarck/codec/codec.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/distributed/encoder.hpp"
#include "numarck/distributed/recovery.hpp"
#include "numarck/io/distributed_checkpoint.hpp"
#include "numarck/mpisim/world.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"

namespace numarck::tools {

namespace {

// [iteration][rank] -> snapshot. Values live in [1.5, 4) and drift a few
// percent per iteration: far above the small-value threshold, so the pure
// relative-ratio bound applies, and smooth enough that most points compress.
using Snapshots = std::vector<std::vector<std::vector<double>>>;

core::Options trial_options(const CrashTrialConfig& cfg) {
  core::Options opts;
  opts.error_bound = cfg.error_bound;
  opts.index_bits = 6;
  opts.strategy = core::Strategy::kEqualWidth;
  // Closed loop: the reconstruction at every iteration stays within the
  // bound of the original (no cross-iteration error accumulation), so a
  // recovered state can be checked against the raw trial data directly.
  opts.reference = core::Reference::kReconstructedPrevious;
  return opts;
}

// With values <= ~5 and closed-loop coding, |recon - orig| <= E * |ref|;
// 6.0 absorbs the drifted reference magnitude with headroom.
double trial_tolerance(const CrashTrialConfig& cfg) {
  return cfg.error_bound * 6.0;
}

io::Manifest trial_manifest(const CrashTrialConfig& cfg) {
  io::Manifest m;
  m.ranks = cfg.ranks;
  m.variables = {"state"};
  m.partition_sizes.assign(cfg.ranks, cfg.points_per_rank);
  return m;
}

Snapshots make_snapshots(const CrashTrialConfig& cfg) {
  Snapshots snaps(cfg.iterations,
                  std::vector<std::vector<double>>(cfg.ranks));
  for (std::size_t r = 0; r < cfg.ranks; ++r) {
    util::Pcg32 rng(cfg.seed, 0x5eed0000u + r);
    std::vector<double> v(cfg.points_per_rank);
    for (auto& x : v) x = rng.uniform(1.5, 4.0);
    for (std::size_t i = 0; i < cfg.iterations; ++i) {
      snaps[i][r] = v;
      for (auto& x : v) x *= 1.0 + rng.uniform(-0.03, 0.03);
    }
  }
  return snaps;
}

// Per-iteration, per-rank decoder output for the *serial* write path (what
// the injected/sigkill trials store): the ground truth a recovered state
// must match bit for bit.
Snapshots expected_states(const CrashTrialConfig& cfg, const Snapshots& snaps) {
  Snapshots expect(cfg.iterations, std::vector<std::vector<double>>(cfg.ranks));
  for (std::size_t r = 0; r < cfg.ranks; ++r) {
    core::VariableCompressor comp(trial_options(cfg));
    core::VariableReconstructor recon;
    for (std::size_t i = 0; i < cfg.iterations; ++i) {
      recon.push(comp.push(snaps[i][r]));
      expect[i][r] = recon.state();
    }
  }
  return expect;
}

/// Writes the manifest plus every rank file, each opened through `files`.
/// The victim writes LAST, so a crash strikes a checkpoint set whose other
/// ranks are already complete — the lone-torn-file restart scenario.
void write_rank_files(const CrashTrialConfig& cfg, const Snapshots& snaps,
                      std::size_t victim, const io::SinkFactory& files) {
  trial_manifest(cfg).save(io::Manifest::manifest_path(cfg.base));
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < cfg.ranks; ++r) {
    if (r != victim) order.push_back(r);
  }
  order.push_back(victim);
  for (const std::size_t r : order) {
    io::CheckpointWriter writer(files(io::Manifest::rank_path(cfg.base, r)),
                                {"state"});
    core::VariableCompressor comp(trial_options(cfg));
    for (std::size_t i = 0; i < cfg.iterations; ++i) {
      writer.append("state", i, static_cast<double>(i),
                    comp.push(snaps[i][r]));
    }
    writer.close();
  }
}

/// Post-crash assertions shared by the injected and sigkill trials. Returns
/// the failure description, or "" when the recovery contract held.
std::string verify_recovery(const CrashTrialConfig& cfg, const Snapshots& snaps,
                            const Snapshots& expect, CrashTrialResult& out) {
  io::DistributedRestartEngine engine(cfg.base);
  out.degraded = engine.degraded();
  const auto last = engine.last_complete_iteration();
  out.recovered_iteration = last;
  if (!last.has_value()) {
    // The tear destroyed even the first full record; the engine must refuse
    // rather than fabricate state.
    try {
      (void)engine.reconstruct_variable("state", 0);
    } catch (const numarck::ContractViolation&) {
      return "";
    }
    return "engine reconstructed with no globally complete iteration";
  }
  // The victim is missing at least one byte, so its final iteration cannot
  // be complete; survivors hold everything, so the global minimum is the
  // victim's.
  if (*last + 1 >= cfg.iterations) {
    return "recovered iteration not reduced by the torn victim file";
  }
  const auto recovered = engine.reconstruct_variable("state", *last);
  if (recovered.size() != cfg.ranks * cfg.points_per_rank) {
    return "recovered snapshot has the wrong length";
  }
  const double tol = trial_tolerance(cfg);
  std::size_t off = 0;
  for (std::size_t r = 0; r < cfg.ranks; ++r) {
    for (std::size_t j = 0; j < cfg.points_per_rank; ++j, ++off) {
      if (recovered[off] != expect[*last][r][j]) {
        return "recovered state differs from the decoder's ground truth";
      }
      if (std::abs(recovered[off] - snaps[*last][r][j]) > tol) {
        return "recovered state violates the error bound";
      }
    }
  }
  try {
    (void)engine.reconstruct_variable("state", *last + 1);
  } catch (const numarck::ContractViolation&) {
    return "";
  }
  return "engine reconstructed beyond the last complete iteration";
}

/// The injected and sigkill trials: the victim rank's file tears at a byte
/// budget drawn from the `stream` of the seed, then the restart is verified.
CrashTrialResult run_byte_budget_trial(const CrashTrialConfig& cfg,
                                       io::FaultPlan::Death death,
                                       std::uint64_t stream) {
  CrashTrialResult out;
  const auto snaps = make_snapshots(cfg);
  const auto expect = expected_states(cfg, snaps);
  util::Pcg32 rng(cfg.seed, stream);
  out.victim = rng.bounded(static_cast<std::uint32_t>(cfg.ranks));
  FaultTrialSpec spec;
  spec.death = death;
  spec.path_suffix = io::Manifest::rank_path(cfg.base, out.victim);
  spec.ack_path = cfg.base + ".ack";
  spec.reset = [&cfg] { remove_trial_files(cfg); };
  spec.run = [&](const io::SinkFactory& files, const std::function<void()>&) {
    write_rank_files(cfg, snaps, out.victim, files);
  };
  const FaultTrialOutcome trial = run_fault_trial(spec, rng);
  out.crash_point = trial.crash_point;
  out.crash_fired = trial.crash_fired;
  out.failure = trial.failure;
  if (out.ok()) out.failure = verify_recovery(cfg, snaps, expect, out);
  return out;
}

}  // namespace

void remove_trial_files(const CrashTrialConfig& cfg) {
  const std::string manifest = io::Manifest::manifest_path(cfg.base);
  std::remove(manifest.c_str());
  std::remove((manifest + ".tmp").c_str());
  std::remove((cfg.base + ".ack").c_str());
  for (std::size_t r = 0; r < cfg.ranks; ++r) {
    std::remove(io::Manifest::rank_path(cfg.base, r).c_str());
  }
}

FaultTrialOutcome run_fault_trial(const FaultTrialSpec& spec,
                                  util::Pcg32& rng) {
  FaultTrialOutcome out;
  // The workload is deterministic, so the faulty run writes the byte stream
  // the sizing run counted, and any crash point below the count tears it.
  auto counting = std::make_shared<io::FaultPlan>();
  counting->only_paths_ending(spec.path_suffix);
  spec.reset();
  spec.run(io::faulty_files(counting), [] {});
  const std::uint64_t total = counting->bytes_written();

  auto plan = std::make_shared<io::FaultPlan>();
  plan->only_paths_ending(spec.path_suffix);
  if (!spec.allow_uninjected || total > 32) {
    NUMARCK_EXPECT(total > 32, "crash trial writes implausibly few bytes");
    out.crash_point = 16 + rng.bounded(static_cast<std::uint32_t>(total - 16));
    plan->crash_at(out.crash_point, spec.death);
  }
  spec.reset();
  if (spec.death == io::FaultPlan::Death::kThrow) {
    try {
      spec.run(io::faulty_files(plan), [&out] { ++out.acked; });
    } catch (const io::InjectedCrash&) {
      out.crash_fired = true;
    }
  } else {
    const pid_t pid = ::fork();
    NUMARCK_EXPECT(pid >= 0, "fork failed for the crash child");
    if (pid == 0) {
      try {
        io::FileSink ack(spec.ack_path);
        spec.run(io::faulty_files(plan), [&ack] {
          const char byte = '+';
          ack.write(&byte, 1);
        });
        ::_exit(42);
      } catch (...) {
        ::_exit(43);
      }
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    out.crash_fired = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    if (!out.crash_fired && !(WIFEXITED(status) && WEXITSTATUS(status) == 42)) {
      out.failure = "crash child failed unexpectedly";
      return out;
    }
    struct ::stat st = {};
    if (::stat(spec.ack_path.c_str(), &st) == 0) {
      out.acked = static_cast<std::size_t>(st.st_size);
    }
  }
  if (out.crash_point != 0 && !out.crash_fired) {
    out.failure = "crash budget was never exhausted";
  }
  return out;
}

CrashTrialResult run_injected_crash_trial(const CrashTrialConfig& cfg) {
  return run_byte_budget_trial(cfg, io::FaultPlan::Death::kThrow, 0xc4a54u);
}

CrashTrialResult run_sigkill_crash_trial(const CrashTrialConfig& cfg) {
  return run_byte_budget_trial(cfg, io::FaultPlan::Death::kSigkill,
                               0x51c4111u);
}

CrashTrialResult run_world_fault_trial(const CrashTrialConfig& cfg) {
  CrashTrialResult out;
  NUMARCK_EXPECT(cfg.ranks >= 2 && cfg.iterations >= 2,
                 "world fault trial needs >= 2 ranks and >= 2 iterations");
  const auto snaps = make_snapshots(cfg);
  util::Pcg32 rng(cfg.seed, 0x770a1du);
  const int victim = static_cast<int>(
      rng.bounded(static_cast<std::uint32_t>(cfg.ranks)));
  // Equal-width distributed encoding performs exactly 4 collectives per
  // delta iteration (min, max, vector-sum, max); iteration 0 is the local
  // full record, no communication. Killing the victim at operation
  // 4(k-1)..4(k-1)+3 aborts iteration k, so the last globally complete
  // iteration must come out as k-1 = at_op / 4.
  const std::size_t at_op =
      rng.bounded(static_cast<std::uint32_t>(4 * (cfg.iterations - 1)));
  out.victim = static_cast<std::size_t>(victim);
  out.crash_point = at_op;

  mpisim::World world(static_cast<int>(cfg.ranks));
  world.set_timeout(std::chrono::milliseconds(5000));
  world.set_fault_plan({victim, at_op});
  std::atomic<int> survivors_failed{0};
  const auto manifest = trial_manifest(cfg);
  world.run([&](mpisim::Communicator& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    const core::Options opts = trial_options(cfg);
    try {
      io::RankCheckpointWriter writer(cfg.base, rank, manifest);
      core::VariableReconstructor recon;
      for (std::size_t i = 0; i < cfg.iterations; ++i) {
        const auto& current = snaps[i][rank];
        core::CompressedStep step;
        if (i == 0) {
          core::VariableCompressor first(opts);
          step = first.push(current);
        } else {
          auto enc =
              distributed::encode_iteration(comm, recon.state(), current, opts);
          step.codec_id = codec::kNumarckId;
          step.point_count = enc.local.point_count;
          step.payload = enc.local.serialize(opts.postpass);
        }
        recon.push(step);
        writer.append("state", i, static_cast<double>(i), step);
      }
      writer.close();
    } catch (const mpisim::RankFailedError&) {
      // The survivor's side of a node death: abandon the iteration in
      // flight; everything already appended is on disk.
      survivors_failed.fetch_add(1);
    }
  });

  const auto failed = world.failed_ranks();
  out.crash_fired = !failed.empty();
  if (failed.size() != 1 || failed.front() != victim) {
    out.failure = "fault plan did not kill exactly the scheduled victim";
    return out;
  }
  if (survivors_failed.load() != static_cast<int>(cfg.ranks) - 1) {
    out.failure = "a survivor did not observe RankFailedError";
    return out;
  }

  auto recovery = distributed::recover_from_checkpoint(cfg.base);
  out.recovered_iteration = recovery.iteration;
  out.degraded = recovery.degraded;
  if (recovery.iteration != at_op / 4) {
    out.failure = "recovered iteration disagrees with the fault schedule";
    return out;
  }
  const auto& global = recovery.state.at("state");
  if (global.size() != cfg.ranks * cfg.points_per_rank) {
    out.failure = "recovered snapshot has the wrong length";
    return out;
  }
  const double tol = trial_tolerance(cfg);
  std::size_t off = 0;
  for (std::size_t r = 0; r < cfg.ranks; ++r) {
    for (std::size_t j = 0; j < cfg.points_per_rank; ++j, ++off) {
      if (std::abs(global[off] - snaps[recovery.iteration][r][j]) > tol) {
        out.failure = "recovered state violates the error bound";
        return out;
      }
    }
  }
  // The per-rank overload must hand back exactly its slice of the global
  // state — what a restarted rank seeds its compressor with.
  const auto rank0 = distributed::recover_from_checkpoint(cfg.base, 0);
  const auto& part = rank0.state.at("state");
  if (part.size() != cfg.points_per_rank ||
      !std::equal(part.begin(), part.end(), global.begin())) {
    out.failure = "per-rank recovery disagrees with the global slice";
  }
  return out;
}

}  // namespace numarck::tools
