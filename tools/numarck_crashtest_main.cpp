// numarck-crashtest — randomized crash-injection campaign over the
// distributed checkpoint stack and the tiered store (docs/RESILIENCE.md).
//
//   numarck-crashtest --trials 200 [--seed 1] [--mode all] [--base PATH]
//
// The distributed modes (injected/sigkill/world) kill one rank
// mid-checkpoint and verify that restart recovers exactly the last globally
// complete iteration within the error bound. The store mode drives a
// seed-replayable put/promote/prune/compact schedule against a tiered
// CheckpointStore and kills the process (or one of its compaction merges)
// at a random byte budget, verifying that the reopen recovers, every acknowledged
// checkpoint restores bit-exactly, and the manifest never references a
// missing file. Exits non-zero when any trial's contract is violated.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "numarck/tools/crashtest.hpp"
#include "numarck/tools/store_crashtest.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: numarck-crashtest [--trials N] [--seed S]\n"
         "                         [--mode all|injected|sigkill|world|store]\n"
         "                         [--base PATH] [--ranks R] [--iterations I]\n";
}

const char* mode_name(int m) {
  switch (m) {
    case 0: return "injected";
    case 1: return "sigkill";
    default: return "world";
  }
}

const char* store_mode_name(int m) {
  switch (m) {
    case 0: return "store-throw";
    case 1: return "store-sigkill";
    default: return "store-compactor";
  }
}

/// The store campaign: rotates throw / sigkill / compaction-merge death.
int run_store_campaign(std::size_t trials, std::uint64_t seed,
                       const std::string& base) {
  numarck::tools::StoreCrashTrialConfig cfg;
  cfg.dir = base + ".store";
  std::size_t failures = 0;
  std::size_t crashes = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    cfg.seed = seed + t;
    const int m = static_cast<int>(t % 3);
    numarck::tools::StoreCrashTrialResult result;
    try {
      if (m == 0) {
        result = numarck::tools::run_store_throw_trial(cfg);
      } else if (m == 1) {
        result = numarck::tools::run_store_sigkill_trial(cfg);
      } else {
        result = numarck::tools::run_store_compactor_trial(cfg);
      }
    } catch (const std::exception& e) {
      result.failure = std::string("unexpected exception: ") + e.what();
    }
    numarck::tools::remove_store_trial_files(cfg);
    if (result.crash_fired) ++crashes;
    if (!result.ok()) {
      ++failures;
      std::cerr << "FAIL store trial " << t << " (" << store_mode_name(m)
                << ", seed=" << cfg.seed
                << ", crash_point=" << result.crash_point
                << ", acked=" << result.acked_ops
                << "): " << result.failure << "\n";
    }
  }
  std::cout << "numarck-crashtest (store): " << trials << " trials, "
            << failures << " failures (" << crashes << " killed mid-op, "
            << (trials - crashes) << " ran to completion)\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 200;
  std::uint64_t seed = 1;
  std::string mode = "all";
  numarck::tools::CrashTrialConfig cfg;
  cfg.base = "/tmp/numarck_crashtest_" + std::to_string(::getpid());

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trials" && has_value) {
      trials = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--mode" && has_value) {
      mode = argv[++i];
    } else if (arg == "--base" && has_value) {
      cfg.base = argv[++i];
    } else if (arg == "--ranks" && has_value) {
      cfg.ranks = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--iterations" && has_value) {
      cfg.iterations =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown or incomplete flag: " << arg << "\n";
      usage();
      return 2;
    }
  }
  if (mode != "all" && mode != "injected" && mode != "sigkill" &&
      mode != "world" && mode != "store") {
    std::cerr << "bad --mode: " << mode << "\n";
    return 2;
  }

  if (mode == "store") {
    return run_store_campaign(trials, seed, cfg.base);
  }

  std::size_t failures = 0;
  std::size_t torn_recoveries = 0;
  std::size_t header_losses = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    cfg.seed = seed + t;
    const int m = static_cast<int>(t % 3);
    numarck::tools::CrashTrialResult result;
    try {
      if (mode == "injected" || (mode == "all" && m == 0)) {
        result = numarck::tools::run_injected_crash_trial(cfg);
      } else if (mode == "sigkill" || (mode == "all" && m == 1)) {
        result = numarck::tools::run_sigkill_crash_trial(cfg);
      } else {
        result = numarck::tools::run_world_fault_trial(cfg);
      }
    } catch (const std::exception& e) {
      result.failure = std::string("unexpected exception: ") + e.what();
    }
    numarck::tools::remove_trial_files(cfg);
    if (result.recovered_iteration.has_value()) {
      ++torn_recoveries;
    } else {
      ++header_losses;
    }
    if (!result.ok()) {
      ++failures;
      std::cerr << "FAIL trial " << t << " (" << mode_name(m)
                << ", seed=" << cfg.seed << ", victim=" << result.victim
                << ", crash_point=" << result.crash_point
                << "): " << result.failure << "\n";
    }
  }
  std::cout << "numarck-crashtest: " << trials << " trials, " << failures
            << " failures (" << torn_recoveries << " recovered, "
            << header_losses << " total-loss-correctly-refused)\n";
  return failures == 0 ? 0 : 1;
}
