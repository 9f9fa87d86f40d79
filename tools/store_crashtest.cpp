#include "numarck/tools/store_crashtest.hpp"

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "numarck/core/compressor.hpp"
#include "numarck/tools/crashtest.hpp"
#include "numarck/store/checkpoint_store.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"

namespace numarck::tools {

namespace fs = std::filesystem;

namespace {

constexpr const char* kVar = "state";

// ------------------------------------------------------ schedule and model --

struct StoreOp {
  enum class Kind : std::uint8_t { kPut, kPromote, kPrune, kCompact };
  Kind kind = Kind::kPut;
  std::size_t iteration = 0;  ///< put target / promote target
  std::size_t keep_last = 0;
  std::size_t keep_every = 0;
  double sim_time = 0.0;
};

struct ModelEntry {
  std::size_t iteration = 0;
  bool best = false;
};

/// The whole trial, precomputed and deterministic from the seed: the op
/// schedule, the encoded steps each put stores, the decoder ground truth per
/// iteration, and the model of the visible entry set after every op prefix.
struct StorePlan {
  std::vector<StoreOp> ops;
  std::vector<core::CompressedStep> put_steps;  ///< one per put op, in order
  std::map<std::size_t, std::vector<double>> expected;
  /// after[j] = entries visible once ops [0, j) are acknowledged.
  std::vector<std::vector<ModelEntry>> after;
  std::size_t max_iteration = 0;
};

core::Options plan_codec_options(const StoreCrashTrialConfig& cfg) {
  core::Options opts;
  opts.error_bound = cfg.error_bound;
  opts.index_bits = 6;
  opts.strategy = core::Strategy::kEqualWidth;
  // Closed loop, so replaying the stored chain reproduces the decoder's
  // state bit for bit at every iteration.
  opts.reference = core::Reference::kReconstructedPrevious;
  return opts;
}

/// The store's own retention rule, re-derived independently from the spec so
/// the harness cross-checks prune rather than mirroring its code.
void model_prune(std::vector<ModelEntry>& cur, std::size_t keep_last,
                 std::size_t keep_every) {
  const std::size_t n = cur.size();
  std::vector<ModelEntry> kept;
  for (std::size_t i = 0; i < n; ++i) {
    const ModelEntry& e = cur[i];
    if (i + keep_last >= n || e.best ||
        (keep_every > 0 && e.iteration % keep_every == 0)) {
      kept.push_back(e);
    }
  }
  cur = std::move(kept);
}

StorePlan make_plan(const StoreCrashTrialConfig& cfg) {
  NUMARCK_EXPECT(cfg.operations >= 2, "store trial needs >= 2 operations");
  StorePlan plan;
  util::Pcg32 rng(cfg.seed, 0x5707e5u);

  std::vector<double> v(cfg.points);
  for (auto& x : v) x = rng.uniform(1.5, 4.0);
  core::VariableCompressor comp(plan_codec_options(cfg));
  core::VariableReconstructor recon;

  std::vector<ModelEntry> cur;
  plan.after.push_back(cur);
  std::size_t next_iteration = 0;
  for (std::size_t i = 0; i < cfg.operations; ++i) {
    const std::uint32_t roll = i == 0 ? 0 : rng.bounded(100);
    StoreOp op;
    if (roll < 55 || (roll < 70 && cur.empty())) {
      op.kind = StoreOp::Kind::kPut;
      op.iteration = next_iteration++;
      op.sim_time = 0.5 * static_cast<double>(op.iteration);
      core::CompressedStep step = comp.push(v);
      recon.push(step);
      // Occasionally force a rebase: full_from of the reconstructed state is
      // bit-identical to the chain replay, so the stream stays consistent.
      if (rng.bounded(8) == 0 && !step.is_full) {
        step = core::CompressedStep::full_from(recon.state());
      }
      plan.expected[op.iteration] = recon.state();
      plan.put_steps.push_back(std::move(step));
      plan.max_iteration = op.iteration;
      cur.push_back({op.iteration, false});
      for (auto& x : v) x *= 1.0 + rng.uniform(-0.03, 0.03);
    } else if (roll < 70) {
      op.kind = StoreOp::Kind::kPromote;
      ModelEntry& target =
          cur[rng.bounded(static_cast<std::uint32_t>(cur.size()))];
      op.iteration = target.iteration;
      target.best = true;
    } else if (roll < 88) {
      op.kind = StoreOp::Kind::kPrune;
      op.keep_last = 2 + rng.bounded(3);
      op.keep_every = rng.bounded(2) == 0 ? 0 : cfg.epoch_every;
      model_prune(cur, op.keep_last, op.keep_every);
    } else {
      op.kind = StoreOp::Kind::kCompact;  // set-preserving by contract
    }
    plan.ops.push_back(op);
    plan.after.push_back(cur);
  }
  return plan;
}

store::StoreOptions plain_store_options(const StoreCrashTrialConfig& cfg) {
  store::StoreOptions opts;
  opts.epoch_every = cfg.epoch_every;
  return opts;
}

// -------------------------------------------------------------- execution --

/// Runs the schedule, calling `ack` after each operation returns — so a
/// post-mortem reader knows which ops were acknowledged and that at most
/// the next one was in flight.
void run_ops(store::CheckpointStore& s, const StorePlan& plan,
             const std::function<void()>& ack) {
  std::size_t put_index = 0;
  for (const auto& op : plan.ops) {
    switch (op.kind) {
      case StoreOp::Kind::kPut: {
        std::map<std::string, core::CompressedStep> steps;
        steps.emplace(kVar, plan.put_steps[put_index]);
        ++put_index;
        s.put(op.iteration, op.sim_time, steps);
        break;
      }
      case StoreOp::Kind::kPromote:
        s.promote(op.iteration, store::Tier::kBest);
        break;
      case StoreOp::Kind::kPrune:
        (void)s.prune(op.keep_last, op.keep_every);
        break;
      case StoreOp::Kind::kCompact:
        (void)s.compact_once();
        break;
    }
    ack();
  }
}

// ----------------------------------------------------------- verification --

bool best_in(const std::vector<ModelEntry>& model, std::size_t iteration) {
  for (const auto& e : model) {
    if (e.iteration == iteration) return e.best;
  }
  return false;
}

/// Post-crash assertions shared by all three trial kinds. `acked` ops are
/// known complete; the (acked+1)-th may have committed before the kill.
std::string verify_store_recovery(const StoreCrashTrialConfig& cfg,
                                  const StorePlan& plan, std::size_t acked,
                                  StoreCrashTrialResult& out) {
  // Read-only pass FIRST: the published manifest of the crashed directory
  // must not reference a missing or damaged container — recovery is allowed
  // to repair, but there must be nothing of that kind to repair.
  try {
    const auto pre = store::inspect_store(cfg.dir);
    for (const auto& f : pre.files) {
      if (f.health != store::FileHealth::kIntact) {
        return std::string("crashed manifest references a ") +
               store::to_string(f.health) + " file: " + f.entry.file;
      }
    }
  } catch (const numarck::ContractViolation& e) {
    return std::string("store manifest unreadable after crash: ") + e.what();
  }

  std::unique_ptr<store::CheckpointStore> s;
  try {
    s = std::make_unique<store::CheckpointStore>(cfg.dir,
                                                 plain_store_options(cfg));
  } catch (const std::exception& e) {
    return std::string("store reopen failed: ") + e.what();
  }

  const auto entries = s->list();
  out.listed_entries = entries.size();
  const auto matches = [&](const std::vector<ModelEntry>& model) {
    if (model.size() != entries.size()) return false;
    for (std::size_t i = 0; i < model.size(); ++i) {
      if (model[i].iteration != entries[i].iteration) return false;
    }
    return true;
  };
  const std::size_t hi = std::min(acked + 1, plan.ops.size());
  if (!matches(plan.after[acked]) && !matches(plan.after[hi])) {
    return "listed iterations match neither the last acknowledged state nor "
           "the in-flight one";
  }

  // kBest pins: everything acknowledged must survive; nothing may appear
  // that the schedule (including the in-flight op) never pinned.
  for (const auto& e : entries) {
    const bool actual_best = e.tier == store::Tier::kBest;
    if (best_in(plan.after[acked], e.iteration) && !actual_best) {
      return "acknowledged kBest pin lost: iteration " +
             std::to_string(e.iteration);
    }
    if (actual_best && !best_in(plan.after[hi], e.iteration)) {
      return "spurious kBest pin: iteration " + std::to_string(e.iteration);
    }
  }

  // Every retained checkpoint restores bit-exactly.
  for (const auto& e : entries) {
    const auto got = s->get_variable(kVar, e.iteration);
    if (got != plan.expected.at(e.iteration)) {
      return "iteration " + std::to_string(e.iteration) +
             " does not restore bit-exactly";
    }
  }

  // Recovery left the directory clean: no stale tmps, no unquarantined
  // orphans, every referenced file intact.
  const auto post = store::inspect_store(cfg.dir);
  if (!post.stale_tmps.empty()) return "stale tmp survived recovery";
  if (!post.orphans.empty()) return "orphan container survived recovery";
  for (const auto& f : post.files) {
    if (f.health != store::FileHealth::kIntact) {
      return std::string("recovered manifest references a ") +
             store::to_string(f.health) + " file: " + f.entry.file;
    }
  }

  // And writable: the next put and its readback must round-trip.
  const std::size_t next = plan.max_iteration + 1;
  std::map<std::string, core::CompressedStep> steps;
  steps.emplace(kVar, core::CompressedStep::full_from(
                          plan.expected.at(plan.max_iteration)));
  try {
    s->put(next, 0.5 * static_cast<double>(next), steps);
  } catch (const std::exception& e) {
    return std::string("put into the recovered store failed: ") + e.what();
  }
  if (s->get_variable(kVar, next) != plan.expected.at(plan.max_iteration)) {
    return "post-recovery put does not read back bit-exactly";
  }
  return "";
}

void prepare_store_dir(const StoreCrashTrialConfig& cfg) {
  remove_store_trial_files(cfg);
  // Created clean so every trial starts from a valid published (empty)
  // manifest; the injected schedule then reopens it.
  store::CheckpointStore create(cfg.dir, {kVar}, plain_store_options(cfg));
}

/// The store half of the shared skeleton: every trial resets `cfg.dir` to
/// an empty store, runs the schedule through the plan's files, then
/// verifies the reopen. With `compactor`, the calling thread makes the
/// merges a background compactor would make: every eligible merge after
/// each operation the trial's seed stream picks, and after the last one.
/// The sizing and the faulty run then write the same merge stream.
StoreCrashTrialResult run_store_trial(const StoreCrashTrialConfig& cfg,
                                      FaultTrialSpec spec,
                                      std::uint64_t stream, bool compactor) {
  const StorePlan plan = make_plan(cfg);
  util::Pcg32 rng(cfg.seed, stream);
  std::vector<bool> merge_after(plan.ops.size(), false);
  if (compactor) {
    for (std::size_t j = 0; j < merge_after.size(); ++j) {
      merge_after[j] = rng.bounded(2) == 0;
    }
  }
  spec.ack_path = cfg.dir + ".ack";
  spec.reset = [&cfg] { prepare_store_dir(cfg); };
  spec.run = [&](const io::SinkFactory& files,
                 const std::function<void()>& ack) {
    store::StoreOptions opts = plain_store_options(cfg);
    opts.sink_factory = files;
    store::CheckpointStore s(cfg.dir, opts);
    const auto merge = [&s] {
      while (s.compact_once()) {
      }
    };
    std::size_t done = 0;
    run_ops(s, plan, [&] {
      ack();
      if (merge_after[done++]) merge();
    });
    if (compactor) merge();
  };
  const FaultTrialOutcome trial = run_fault_trial(spec, rng);
  StoreCrashTrialResult out;
  out.crash_point = trial.crash_point;
  out.crash_fired = trial.crash_fired;
  out.acked_ops = trial.acked;
  out.failure = trial.failure;
  if (out.ok()) {
    out.failure = verify_store_recovery(cfg, plan, out.acked_ops, out);
  }
  return out;
}

}  // namespace

void remove_store_trial_files(const StoreCrashTrialConfig& cfg) {
  fs::remove_all(cfg.dir);
  std::remove((cfg.dir + ".ack").c_str());
}

StoreCrashTrialResult run_store_throw_trial(const StoreCrashTrialConfig& cfg) {
  FaultTrialSpec spec;
  spec.death = io::FaultPlan::Death::kThrow;
  return run_store_trial(cfg, spec, 0x57c4a5u, /*compactor=*/false);
}

StoreCrashTrialResult run_store_sigkill_trial(const StoreCrashTrialConfig& cfg) {
  FaultTrialSpec spec;
  spec.death = io::FaultPlan::Death::kSigkill;
  return run_store_trial(cfg, spec, 0x51c511u, /*compactor=*/false);
}

StoreCrashTrialResult run_store_compactor_trial(
    const StoreCrashTrialConfig& cfg) {
  // Only standalone-merge writes count and tear; with too little merge work
  // in the schedule the trial still runs, uninjected.
  FaultTrialSpec spec;
  spec.death = io::FaultPlan::Death::kSigkill;
  spec.path_suffix = ".epoch.nck.tmp";
  spec.allow_uninjected = true;
  return run_store_trial(cfg, spec, 0xc09ac7u, /*compactor=*/true);
}

}  // namespace numarck::tools
