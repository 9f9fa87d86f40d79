// numarck-pipeline-bench: one end-to-end checkpoint/restore benchmark with a
// per-layer cost ledger. See perfbench/README.md for the workloads, metrics
// and how to run them.
//
//   numarck-pipeline-bench --workload flash-sedov --seed 1 --seconds 10
//                          --trace 0 --workdir DIR [--spans FILE]
//
// Every run: generate the snapshot series from the seed (set-up), run one
// untimed reference episode that computes the expected outputs and checks
// the codec contract, then repeat episodes until --seconds have passed. An
// episode writes the whole series as checkpoints (closed loop: the
// simulation thread hands over a snapshot and waits for the acknowledgement)
// and then restores it at fixed targets. With --trace 1 every other episode
// is decomposed into spans around the public calls of each layer; the
// end-to-end metrics come only from untraced episodes.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "numarck/adaptive/checkpointer.hpp"
#include "numarck/arch/arch.hpp"
#include "numarck/codec/codec.hpp"
#include "numarck/core/bin_model.hpp"
#include "numarck/core/codec.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/lossless/fpc.hpp"
#include "numarck/sim/climate/generator.hpp"
#include "numarck/sim/flash/simulator.hpp"
#include "numarck/store/checkpoint_store.hpp"
#include "numarck/util/crc32.hpp"
#include "numarck/util/thread_pool.hpp"

namespace fs = std::filesystem;
namespace pb = perfbench;
using namespace numarck;

namespace {

// ------------------------------------------------------------ utilities --

using Field = std::vector<double>;

double ms_since(std::int64_t t0) {
  return static_cast<double>(pb::now_ns() - t0) * 1e-6;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Every regular file under `dir`, by relative name.
std::map<std::string, std::vector<std::uint8_t>> read_dir(
    const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> out;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    out[fs::relative(e.path(), dir).string()] = read_file(e.path().string());
  }
  return out;
}

std::size_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

const char* fs_type(const std::string& dir) {
  struct statfs s {};
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: return "other";
  }
}

/// Per-point contract of a NUMARCK delta decoded against the snapshot it was
/// coded from: |recon - curr| <= E·|prev|, or — for points where both sides
/// sit below the small-value threshold s — |recon - curr| <= 2s. Returns the
/// number of violating points.
std::size_t contract_violations(const Field& prev, const Field& curr,
                                const Field& recon, double E, double s) {
  std::size_t bad = 0;
  for (std::size_t j = 0; j < curr.size(); ++j) {
    const double d = std::abs(recon[j] - curr[j]);
    // A few ulps of slack for the rounding in prev·(1 + Δ').
    const double ulps =
        4.0 * std::numeric_limits<double>::epsilon() *
        std::max(std::abs(prev[j]), std::abs(curr[j]));
    if (d <= E * std::abs(prev[j]) + ulps) continue;
    if (s > 0.0 && std::abs(curr[j]) < s && std::abs(prev[j]) <= s &&
        d <= 2.0 * s + ulps) {
      continue;
    }
    ++bad;
  }
  return bad;
}

/// max |restored - truth| / max(|truth|, E).
double max_rel_err(const Field& restored, const Field& truth, double E) {
  double m = 0.0;
  for (std::size_t j = 0; j < truth.size(); ++j) {
    m = std::max(m, std::abs(restored[j] - truth[j]) /
                        std::max(std::abs(truth[j]), E));
  }
  return m;
}

// ------------------------------------------------------------ run state --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string spans;
};

/// What one episode measured.
struct EpisodeStats {
  std::vector<double> ckpt_ms;
  std::vector<double> restore_ms;
  double write_wall_s = 0.0;  ///< first checkpoint to final close/fsync
  double restore_s = 0.0;     ///< summed restore latencies
  double raw_write_mb = 0.0;  ///< raw float64 MB offered
  double raw_restore_mb = 0.0;
};

/// Names of per-layer counters that do not repeat exactly (they depend on
/// how the reader thread interleaves with the writer).
const std::set<std::string> kUnstableCounters = {"store.get_chain_depth"};

struct Run {
  Args args;
  pb::Tracer tracer;         ///< the simulation (writer) thread
  pb::Tracer reader_tracer;  ///< the concurrent reader, where one exists
  pb::IoBytes io;
  std::uint32_t next_op = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  /// Per-layer counters of the current traced episode.
  std::map<std::string, double> counters;
  /// Counters of the first traced episode; later ones must repeat them.
  std::optional<std::map<std::string, double>> first_counters;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 16) errors.push_back(what);
  }
  void count(const std::string& name, double v) {
    if (tracer.enabled) counters[name] += v;
  }
};

/// Off-path work queued during a traced operation and run after its root
/// span closes, so it never inflates a span it does not belong to.
struct SideWork {
  struct Learn {
    const Field* prev;
    const Field* curr;
    std::vector<double> centers;
  };
  std::vector<Learn> learns;
  std::vector<std::vector<std::uint8_t>> crc_payloads;
};

/// Re-runs core::learn_bins on the encoder's learn set (the needs-bin
/// points of pass A1: defined ratio, not small-valued, |Δ| >= E) and checks
/// that the replica reproduces the encoder's table exactly.
void side_learn(Run& run, const SideWork::Learn& l, const core::Options& o) {
  const double E = o.error_bound;
  const double s = o.resolved_small_value_threshold();
  std::vector<double> learn;
  for (std::size_t j = 0; j < l.curr->size(); ++j) {
    const double p = (*l.prev)[j];
    const double c = (*l.curr)[j];
    if (s > 0.0 && std::abs(c) < s && std::abs(p) <= s) continue;
    if (p == 0.0) continue;
    const double r = (c - p) / p;
    if (!std::isfinite(r) || std::abs(r) < E) continue;
    learn.push_back(r);
  }
  const std::int64_t t0 = pb::now_ns();
  const core::BinModel model = core::learn_bins(learn, o);
  run.tracer.side("cluster.learn", t0, pb::now_ns());
  if (model.centers != l.centers) {
    run.fail("learn-set replica disagrees with the encoder's bin table");
  }
}

/// Runs the queued side work; returns its wall time, which the caller
/// keeps out of the episode's write-phase time.
double run_side(Run& run, SideWork& side, const core::Options& o) {
  const std::int64_t t0 = pb::now_ns();
  for (const auto& l : side.learns) side_learn(run, l, o);
  for (const auto& p : side.crc_payloads) {
    const std::int64_t t0 = pb::now_ns();
    volatile std::uint32_t crc = util::crc32(p.data(), p.size());
    (void)crc;
    run.tracer.side("util.crc32", t0, pb::now_ns());
    run.count("util.crc32_bytes", static_cast<double>(p.size()));
  }
  side = {};
  return static_cast<double>(pb::now_ns() - t0) * 1e-9;
}

/// The traced form of one NUMARCK delta encode: encode_iteration, then
/// serialize(postpass) — the two public calls VariableCompressor::push makes
/// through the codec registry.
core::CompressedStep traced_delta(Run& run, SideWork& side, const Field& prev,
                                  const Field& curr, const core::Options& o) {
  core::EncodedIteration enc;
  {
    pb::Scope s(run.tracer, "core.encode");
    enc = core::encode_iteration(prev, curr, o);
  }
  core::CompressedStep step;
  {
    pb::Scope s(run.tracer, "lossless.serialize");
    step.payload = enc.serialize(o.postpass);
  }
  step.codec_id = codec::kNumarckId;
  step.point_count = curr.size();
  run.count("core.encode_points", static_cast<double>(curr.size()));
  run.count("core.gamma_sum", enc.stats.incompressible_ratio());
  run.count("core.deltas", 1);
  run.count("cluster.bins_sum", static_cast<double>(enc.centers.size()));
  run.count("lossless.packed_bytes",
            static_cast<double>(enc.serialized_size_bytes()));
  run.count("lossless.stored_bytes", static_cast<double>(step.payload.size()));
  side.learns.push_back({&prev, &curr, enc.centers});
  return step;
}

core::CompressedStep traced_full(Run& run, const Field& snap) {
  pb::Scope s(run.tracer, "lossless.fpc_encode");
  return core::CompressedStep::full_from(snap);
}

/// The traced form of RestartEngine::reconstruct_variable: find the newest
/// reference-free record at or before `target`, then load → deserialize →
/// decode every record from there.
Field traced_replay(Run& run, SideWork& side, const io::CheckpointReader& r,
                    const std::string& var, std::size_t target) {
  std::size_t start = 0;
  for (std::size_t it = target + 1; it-- > 0;) {
    const auto info = r.info(var, it);
    if (!info) continue;
    const codec::Codec* c = codec::find(info->codec_id);
    if (info->type == io::RecordType::kFull || (c && !c->caps().temporal)) {
      start = it;
      break;
    }
  }
  Field state;
  for (std::size_t it = start; it <= target; ++it) {
    core::CompressedStep step;
    {
      pb::Scope s(run.tracer, "io.load");
      step = r.load(var, it);
    }
    if (step.codec_id == codec::kFpcId) {
      pb::Scope s(run.tracer, "lossless.fpc_decode");
      state = lossless::fpc_decompress(step.payload);
    } else if (step.codec_id == codec::kNumarckId) {
      core::EncodedIteration enc;
      {
        pb::Scope s(run.tracer, "lossless.deserialize");
        enc = core::EncodedIteration::deserialize(step.payload,
                                                  step.point_count);
      }
      if (enc.predictor != core::Predictor::kPrevious) {
        throw std::runtime_error("traced replay expects first-order deltas");
      }
      pb::Scope s(run.tracer, "core.decode");
      state = core::decode_iteration(state, enc);
    } else {
      pb::Scope s(run.tracer, "core.decode");
      state = codec::require(step.codec_id)
                  .decode(step.payload, state, {}, step.point_count);
    }
    if (state.size() != step.point_count) {
      throw std::runtime_error("replayed record has the wrong point count");
    }
    run.count("io.load_records", 1);
    run.count("io.replay_records", 1);
    run.count("core.decode_points", static_cast<double>(step.point_count));
    side.crc_payloads.push_back(std::move(step.payload));
  }
  return state;
}

std::unique_ptr<io::CheckpointReader> open_reader(Run& run,
                                                  const std::string& path) {
  if (!run.tracer.enabled) return std::make_unique<io::CheckpointReader>(path);
  pb::Scope s(run.tracer, "io.scan");
  return std::make_unique<io::CheckpointReader>(
      std::make_shared<pb::TimingSource>(
          std::make_unique<io::FileSource>(path), run.tracer, run.io));
}

std::unique_ptr<io::CheckpointWriter> open_writer(
    Run& run, const std::string& path, const std::vector<std::string>& vars,
    io::Durability durability) {
  pb::Scope s(run.tracer, "io.open");
  if (!run.tracer.enabled) {
    return std::make_unique<io::CheckpointWriter>(path, vars, durability);
  }
  return std::make_unique<io::CheckpointWriter>(
      std::make_unique<pb::TimingSink>(std::make_unique<io::FileSink>(path),
                                       run.tracer, run.io, false),
      vars, durability);
}

void traced_append(Run& run, SideWork& side, io::CheckpointWriter& w,
                   const std::string& var, std::size_t it, double t,
                   core::CompressedStep& step) {
  const std::uint64_t before = w.bytes_written();
  {
    pb::Scope s(run.tracer, "io.append");
    w.append(var, it, t, step);
  }
  run.count("io.frame_bytes", static_cast<double>(w.bytes_written() - before));
  // Traced episodes never keep their steps, so the payload can move.
  if (run.tracer.enabled) side.crc_payloads.push_back(std::move(step.payload));
}

void close_writer(Run& run, io::CheckpointWriter& w) {
  pb::Scope s(run.tracer, "io.close");
  w.close();
}

// ------------------------------------------------------------ workloads --

class Workload {
 public:
  explicit Workload(Run& run) : run_(run) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generates the snapshot series from the seed (the set-up).
  virtual void generate() = 0;
  /// One write + restore pass over the series. The first call is the
  /// reference episode: it records the expected outputs and checks the
  /// codec contract; later calls must reproduce them exactly.
  virtual EpisodeStats episode() = 0;
  /// Workload-specific fields of the run record (a JSON fragment).
  [[nodiscard]] virtual std::string record() const = 0;

  double bytes_per_point = 0.0;
  double restore_max_rel_err = 0.0;

 protected:
  Run& run_;
};

// flash-sedov ---------------------------------------------------------------

/// FLASH Sedov blast (32^3 points, ten variables) through VariableCompressor
/// with Options defaults, an explicit pool of up to nproc workers, and one
/// CheckpointWriter container at kFsyncOnClose; restores through
/// RestartEngine at fixed targets from a one-record to the deepest chain.
class FlashSedov final : public Workload {
 public:
  // Iterations 2-12 of this blast cost about the same (~20 ms on a 4-vCPU
  // VM); iteration 13 costs 0.7x or 1.4x that depending on the seed, and
  // later ones half. Stopping before 13 keeps the latency median inside the
  // one cost group instead of on the gap below it, where it moved by 20%
  // from seed to seed.
  static constexpr std::size_t kSnapshots = 13;

  explicit FlashSedov(Run& run)
      : Workload(run), pool_(std::min<std::size_t>(4, nproc())) {
    opts_.pool = &pool_;
    targets_ = {1, kSnapshots / 4, kSnapshots / 2, 3 * kSnapshots / 4,
                kSnapshots - 1};
  }

  void generate() override {
    sim::flash::SimulatorConfig cfg;
    cfg.mesh.blocks_per_dim = 2;
    cfg.mesh.block_interior = 16;
    cfg.mesh.guard = 4;
    cfg.problem.problem = sim::flash::Problem::kSedov;
    // The seed perturbs the blast by up to ±0.5%: a different series with
    // the same regime (heavy-tailed shock ratios, constant ambient medium).
    // At ±2% the shocked volume, and with it the checkpoint cost, moved by
    // ±8% from seed to seed.
    std::mt19937_64 rng(run_.args.seed);
    cfg.problem.sedov_radius = 0.08 * (1.0 + 0.01 * (uniform01(rng) - 0.5));
    cfg.problem.sedov_pressure = 40.0 * (1.0 + 0.01 * (uniform01(rng) - 0.5));
    cfg.problem.sedov_ambient_p = 0.1;
    cfg.steps_per_checkpoint = 2;
    sim::flash::Simulator sim(cfg, &pool_);
    vars_ = sim::flash::Simulator::variable_names();
    snaps_.assign(vars_.size(), {});
    times_.clear();
    for (std::size_t it = 0; it < kSnapshots; ++it) {
      if (it > 0) sim.advance_checkpoint();
      for (std::size_t v = 0; v < vars_.size(); ++v) {
        snaps_[v].push_back(sim.snapshot(vars_[v]));
      }
      times_.push_back(sim.time());
    }
  }

  EpisodeStats episode() override {
    const bool reference = ref_container_.empty();
    pb::Tracer& t = run_.tracer;
    const std::string path =
        run_.args.workdir + (reference ? "/sedov-ref.ckpt" : "/sedov.ckpt");
    const std::size_t n = snaps_[0][0].size();
    EpisodeStats st;
    SideWork side;
    std::vector<std::vector<core::CompressedStep>> steps(vars_.size());

    double side_s = 0.0;
    const std::int64_t w0 = pb::now_ns();
    auto w = open_writer(run_, path, vars_, io::Durability::kFsyncOnClose);
    std::vector<core::VariableCompressor> comps(vars_.size(),
                                                core::VariableCompressor(opts_));
    for (std::size_t it = 0; it < kSnapshots; ++it) {
      t.op = run_.next_op++;
      const std::int64_t c0 = pb::now_ns();
      {
        pb::Scope root(t, "checkpoint");
        for (std::size_t v = 0; v < vars_.size(); ++v) {
          core::CompressedStep step =
              !t.enabled ? comps[v].push(snaps_[v][it])
              : it == 0  ? traced_full(run_, snaps_[v][it])
                         : traced_delta(run_, side, snaps_[v][it - 1],
                                        snaps_[v][it], opts_);
          traced_append(run_, side, *w, vars_[v], it, times_[it], step);
          if (reference) steps[v].push_back(std::move(step));
        }
      }
      st.ckpt_ms.push_back(ms_since(c0));
      ++run_.attempted;
      side_s += run_side(run_, side, opts_);
    }
    close_writer(run_, *w);
    w.reset();
    st.write_wall_s = static_cast<double>(pb::now_ns() - w0) * 1e-9 - side_s;
    st.raw_write_mb = static_cast<double>(kSnapshots * vars_.size() * n) *
                      8.0 / 1e6;

    if (reference) {
      ref_container_ = read_file(path);
      bytes_per_point = static_cast<double>(ref_container_.size()) /
                        static_cast<double>(kSnapshots * vars_.size() * n);
      check_reference(steps);
    } else if (read_file(path) != ref_container_) {
      run_.fail("flash-sedov: container differs from the reference episode");
    }

    for (const std::size_t target : targets_) {
      t.op = run_.next_op++;
      const std::int64_t r0 = pb::now_ns();
      std::map<std::string, Field> out;
      {
        pb::Scope root(t, "restore");
        auto reader = open_reader(run_, path);
        if (t.enabled) {
          for (const auto& var : reader->variables()) {
            out[var] = traced_replay(run_, side, *reader, var, target);
          }
        } else {
          out = io::RestartEngine(*reader).reconstruct(target);
        }
      }
      st.restore_ms.push_back(ms_since(r0));
      st.restore_s += st.restore_ms.back() * 1e-3;
      st.raw_restore_mb +=
          static_cast<double>(vars_.size() * n) * 8.0 / 1e6;
      ++run_.attempted;
      run_side(run_, side, opts_);
      for (std::size_t v = 0; v < vars_.size(); ++v) {
        if (out[vars_[v]] != expected_.at(target)[v]) {
          run_.fail("flash-sedov: restore of iteration " +
                    std::to_string(target) + " differs for " + vars_[v]);
        }
      }
    }
    return st;
  }

  [[nodiscard]] std::string record() const override {
    std::ostringstream o;
    o << "\"points_per_variable\":" << snaps_[0][0].size()
      << ",\"variables\":" << vars_.size() << ",\"snapshots\":" << kSnapshots
      << ",\"encode_pool\":" << pool_.size();
    return o.str();
  }

 private:
  /// Replays the in-memory steps independently of the container, checks the
  /// per-point contract of every delta, and records the expected restores.
  void check_reference(
      const std::vector<std::vector<core::CompressedStep>>& steps) {
    const double E = opts_.error_bound;
    const double s = opts_.resolved_small_value_threshold();
    const codec::Codec& numarck = codec::require(codec::kNumarckId);
    for (const std::size_t target : targets_) expected_[target] = {};
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      core::VariableReconstructor rec;
      for (std::size_t it = 0; it < kSnapshots; ++it) {
        rec.push(steps[v][it]);
        if (it > 0) {
          const Field recon = numarck.decode(
              steps[v][it].payload, snaps_[v][it - 1], {}, snaps_[v][it].size());
          const std::size_t bad =
              contract_violations(snaps_[v][it - 1], snaps_[v][it], recon, E, s);
          if (bad) {
            run_.fail("flash-sedov: " + std::to_string(bad) +
                      " points of " + vars_[v] + " break the delta contract");
          }
        }
        if (expected_.count(it)) {
          expected_[it].push_back(rec.state());
          restore_max_rel_err = std::max(
              restore_max_rel_err, max_rel_err(rec.state(), snaps_[v][it], E));
        }
      }
    }
  }

  util::ThreadPool pool_;
  core::Options opts_;
  std::vector<std::string> vars_;
  std::vector<std::vector<Field>> snaps_;  ///< [variable][iteration]
  std::vector<double> times_;
  std::vector<std::size_t> targets_;
  std::vector<std::uint8_t> ref_container_;
  std::map<std::size_t, std::vector<Field>> expected_;
};

// cmip5-store ---------------------------------------------------------------

/// Six CMIP5 variables on the 90x144 grid through VariableCompressor with
/// Postpass::all() and a pool of one, into a CheckpointStore at its default
/// kFsyncPerIteration with an inline prune every kPruneEvery puts. One
/// reader thread restores the just-acknowledged iteration after every
/// kRestoreEvery-th put, overlapping later puts; it has at most one request
/// outstanding, so the restored iterations — and every count — repeat.
class Cmip5Store final : public Workload {
 public:
  static constexpr std::size_t kSnapshots = 64;
  // Not a divisor of kPruneEvery: the restored chain depths then spread
  // evenly over 0..15 instead of clustering in four groups, so the restore
  // median never sits on the gap between two of them.
  static constexpr std::size_t kRestoreEvery = 3;
  static constexpr std::size_t kPruneEvery = 16;
  static constexpr std::size_t kKeepLast = 8;
  static constexpr std::size_t kKeepEvery = 32;
  static constexpr std::size_t kWindowOffsets = 8;

  explicit Cmip5Store(Run& run) : Workload(run), pool_(1) {
    opts_.pool = &pool_;
    opts_.postpass = core::Postpass::all();
  }

  void generate() override {
    using sim::climate::Variable;
    const Variable kinds[] = {Variable::kRlus, Variable::kRlds,
                              Variable::kMrsos, Variable::kMrro,
                              Variable::kMc, Variable::kAbs550aer};
    // The seed picks which 64-day window of one fixed weather realization
    // is checkpointed: different inputs, the same statistics. Reseeding the
    // weather, or windows a few weeks apart, moves the restore cost and
    // error by ~20% per seed.
    const std::size_t offset = run_.args.seed % kWindowOffsets;
    vars_.clear();
    snaps_.clear();
    for (const Variable k : kinds) {
      sim::climate::Generator gen(k, sim::climate::GeneratorConfig{});
      for (std::size_t d = 0; d < offset; ++d) gen.advance();
      vars_.push_back(sim::climate::to_string(k));
      std::vector<Field> series{gen.current()};
      for (std::size_t it = 1; it < kSnapshots; ++it) {
        series.push_back(gen.advance());
      }
      snaps_.push_back(std::move(series));
    }
  }

  EpisodeStats episode() override {
    const bool reference = ref_files_.empty();
    pb::Tracer& t = run_.tracer;
    const std::string dir =
        run_.args.workdir + (reference ? "/store-ref" : "/store");
    fs::remove_all(dir);
    const std::size_t n = snaps_[0][0].size();
    EpisodeStats st;
    SideWork side;
    std::vector<std::vector<core::CompressedStep>> steps(vars_.size());
    std::uint64_t fresh_bytes = 0;

    store::StoreOptions so;  // defaults: kFsyncPerIteration, no compactor
    if (t.enabled) {
      so.sink_factory = [this](const std::string& path) {
        const bool manifest =
            path.find(store::CheckpointStore::kManifestName) !=
            std::string::npos;
        return std::make_unique<pb::TimingSink>(
            std::make_unique<io::FileSink>(path), run_.tracer, run_.io,
            manifest);
      };
    }

    double side_s = 0.0;
    const std::int64_t w0 = pb::now_ns();
    std::vector<Restore> restores;
    {
      std::unique_ptr<store::CheckpointStore> store;
      {
        pb::Scope s(t, "io.open");
        store = std::make_unique<store::CheckpointStore>(dir, vars_, so);
      }
      Reader reader(*store, run_);
      std::vector<core::VariableCompressor> comps(
          vars_.size(), core::VariableCompressor(opts_));
      for (std::size_t it = 0; it < kSnapshots; ++it) {
        t.op = run_.next_op++;
        const std::int64_t c0 = pb::now_ns();
        {
          pb::Scope root(t, "checkpoint");
          std::map<std::string, core::CompressedStep> put;
          for (std::size_t v = 0; v < vars_.size(); ++v) {
            put[vars_[v]] =
                !t.enabled ? comps[v].push(snaps_[v][it])
                : it == 0  ? traced_full(run_, snaps_[v][it])
                           : traced_delta(run_, side, snaps_[v][it - 1],
                                          snaps_[v][it], opts_);
          }
          {
            pb::Scope s(t, "store.put");
            store->put(it, static_cast<double>(it), put);
          }
          if ((it + 1) % kPruneEvery == 0) {
            pb::Scope s(t, "store.prune");
            const store::PruneReport rep = store->prune(kKeepLast, kKeepEvery);
            run_.count("store.prune_rewritten",
                       static_cast<double>(rep.rewritten));
            run_.count("store.prune_dropped",
                       static_cast<double>(rep.dropped));
            ++run_.attempted;
          }
          for (std::size_t v = 0; v < vars_.size(); ++v) {
            core::CompressedStep& step = put[vars_[v]];
            if (reference) steps[v].push_back(std::move(step));
            if (t.enabled) side.crc_payloads.push_back(std::move(step.payload));
          }
        }
        st.ckpt_ms.push_back(ms_since(c0));
        ++run_.attempted;
        side_s += run_side(run_, side, opts_);
        if (reference) {
          fresh_bytes += fs::file_size(dir + "/" + store->list().back().file);
        }
        if ((it + 1) % kRestoreEvery == 0) reader.request(it);
      }
      reader.finish();
      run_.count("store.get_chain_depth", reader.mean_depth());
      st.write_wall_s = static_cast<double>(pb::now_ns() - w0) * 1e-9 - side_s;
      restores = reader.take();
    }
    st.raw_write_mb =
        static_cast<double>(kSnapshots * vars_.size() * n) * 8.0 / 1e6;
    run_.count("store.manifest_bytes",
               static_cast<double>(run_.io.manifest_bytes));
    run_.count("io.frame_bytes", static_cast<double>(run_.io.write_bytes -
                                                     run_.io.manifest_bytes));

    for (Restore& r : restores) {
      st.restore_ms.push_back(r.ms);
      st.restore_s += r.ms * 1e-3;
      st.raw_restore_mb += static_cast<double>(vars_.size() * n) * 8.0 / 1e6;
      ++run_.attempted;
    }
    if (reference) {
      ref_files_ = read_dir(dir);
      bytes_per_point =
          static_cast<double>(
              fresh_bytes +
              ref_files_.at(store::CheckpointStore::kManifestName).size()) /
          static_cast<double>(kSnapshots * vars_.size() * n);
      check_reference(steps, restores);
    } else if (read_dir(dir) != ref_files_) {
      run_.fail("cmip5-store: store directory differs from the reference");
    }
    for (const Restore& r : restores) {
      if (!r.error.empty()) {
        run_.fail("cmip5-store: get(" + std::to_string(r.iteration) +
                  ") threw: " + r.error);
        continue;
      }
      for (std::size_t v = 0; v < vars_.size(); ++v) {
        const auto it = r.out.find(vars_[v]);
        if (it == r.out.end() || it->second != expected_.at(r.iteration)[v]) {
          run_.fail("cmip5-store: get(" + std::to_string(r.iteration) +
                    ") differs for " + vars_[v]);
        }
      }
    }
    if (!reference) fs::remove_all(dir);
    return st;
  }

  [[nodiscard]] std::string record() const override {
    std::ostringstream o;
    o << "\"points_per_variable\":" << snaps_[0][0].size()
      << ",\"variables\":" << vars_.size() << ",\"snapshots\":" << kSnapshots
      << ",\"encode_pool\":" << pool_.size() << ",\"reader_threads\":1";
    return o.str();
  }

 private:
  struct Restore {
    std::size_t iteration = 0;
    double ms = 0.0;
    std::map<std::string, Field> out;
    std::string error;
  };

  /// The reader thread: serves one get() request at a time.
  class Reader {
   public:
    Reader(store::CheckpointStore& store, Run& run)
        : store_(store), run_(run), thread_([this] { loop(); }) {}
    ~Reader() { finish(); }
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// Waits until the previous request is done, then asks for `iteration`.
    void request(std::size_t iteration) {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return !pending_; });
      pending_ = iteration;
      cv_.notify_all();
    }

    /// Waits for the outstanding request and joins the thread.
    void finish() {
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [this] { return !pending_; });
        stop_ = true;
        cv_.notify_all();
      }
      if (thread_.joinable()) thread_.join();
    }

    std::vector<Restore> take() { return std::move(done_); }

    /// Mean replay depth of the traced gets; call after finish().
    [[nodiscard]] double mean_depth() const {
      return depth_count_ ? depth_sum_ / static_cast<double>(depth_count_)
                          : 0.0;
    }

   private:
    void loop() {
      pb::Tracer& t = run_.reader_tracer;
      for (;;) {
        std::size_t iteration = 0;
        {
          std::unique_lock lk(mu_);
          cv_.wait(lk, [this] { return pending_ || stop_; });
          if (!pending_) return;
          iteration = *pending_;
        }
        Restore r;
        r.iteration = iteration;
        t.op = static_cast<std::uint32_t>(iteration);
        try {
          if (t.enabled) {
            const auto entries = store_.list();
            std::size_t idx = 0;
            while (idx < entries.size() && entries[idx].iteration != iteration) {
              ++idx;
            }
            std::size_t start = idx;
            while (start > 0 && start < entries.size() &&
                   !entries[start].reference_free) {
              --start;
            }
            depth_sum_ += static_cast<double>(idx - start);
            ++depth_count_;
          }
          const std::int64_t r0 = pb::now_ns();
          {
            pb::Scope root(t, "restore");
            pb::Scope get(t, "store.get");
            r.out = store_.get(iteration);
          }
          r.ms = ms_since(r0);
        } catch (const std::exception& e) {
          r.error = e.what();
        }
        std::lock_guard lk(mu_);
        done_.push_back(std::move(r));
        pending_.reset();
        cv_.notify_all();
      }
    }

    store::CheckpointStore& store_;
    Run& run_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::optional<std::size_t> pending_;
    bool stop_ = false;
    std::vector<Restore> done_;
    double depth_sum_ = 0.0;  ///< reader thread only until finish()
    std::size_t depth_count_ = 0;
    std::thread thread_;  ///< last: starts after the members it uses
  };

  void check_reference(
      const std::vector<std::vector<core::CompressedStep>>& steps,
      const std::vector<Restore>& restores) {
    const double E = opts_.error_bound;
    const double s = opts_.resolved_small_value_threshold();
    const codec::Codec& numarck = codec::require(codec::kNumarckId);
    std::set<std::size_t> wanted;
    for (const Restore& r : restores) wanted.insert(r.iteration);
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      core::VariableReconstructor rec;
      for (std::size_t it = 0; it < kSnapshots; ++it) {
        rec.push(steps[v][it]);
        if (it > 0) {
          const Field recon = numarck.decode(
              steps[v][it].payload, snaps_[v][it - 1], {}, snaps_[v][it].size());
          const std::size_t bad =
              contract_violations(snaps_[v][it - 1], snaps_[v][it], recon, E, s);
          if (bad) {
            run_.fail("cmip5-store: " + std::to_string(bad) + " points of " +
                      vars_[v] + " break the delta contract");
          }
        }
        if (wanted.count(it)) {
          expected_[it].push_back(rec.state());
          restore_max_rel_err = std::max(
              restore_max_rel_err, max_rel_err(rec.state(), snaps_[v][it], E));
        }
      }
    }
  }

  util::ThreadPool pool_;
  core::Options opts_;
  std::vector<std::string> vars_;
  std::vector<std::vector<Field>> snaps_;  ///< [variable][iteration]
  std::map<std::string, std::vector<std::uint8_t>> ref_files_;
  std::map<std::size_t, std::vector<Field>> expected_;
};

// flash-adaptive ------------------------------------------------------------

/// FLASH smooth waves (32^3 points), five variables, one
/// AdaptiveCheckpointer per variable in auto-codec mode with Postpass::all()
/// and a pool of one. Written records go through one CheckpointWriter at
/// kFsyncPerIteration, numbered densely per variable; restores replay from
/// the newest reference-free record.
class FlashAdaptive final : public Workload {
 public:
  static constexpr std::size_t kSnapshots = 32;

  explicit FlashAdaptive(Run& run) : Workload(run), pool_(1) {
    aopts_.codec.codec_id = codec::kAutoId;
    aopts_.codec.postpass = core::Postpass::all();
    aopts_.codec.pool = &pool_;
    for (std::size_t s = 4; s < kSnapshots; s += 4) targets_.push_back(s);
    targets_.push_back(kSnapshots - 1);
  }

  void generate() override {
    sim::flash::SimulatorConfig cfg;
    cfg.mesh.blocks_per_dim = 2;
    cfg.mesh.block_interior = 16;
    cfg.mesh.guard = 4;
    cfg.problem.problem = sim::flash::Problem::kSmoothWaves;
    // The seed scales the wave amplitudes by up to ±0.2% around the restart
    // configuration; the mode phases stay fixed, so every seed sees the same
    // skip/delta/rebase regime rather than a different controller history.
    std::mt19937_64 rng(run_.args.seed);
    cfg.problem.wave_mach = 0.3 * (1.0 + 0.004 * (uniform01(rng) - 0.5));
    cfg.problem.wave_bulk_mach = 0.5;
    cfg.problem.wave_density_contrast =
        0.2 * (1.0 + 0.004 * (uniform01(rng) - 0.5));
    // Three hydro steps per snapshot: the drift then crosses the budget on
    // most snapshots, so most checkpoints write every variable and the rest
    // skip some late in the series. At two steps, two variables alternate
    // skip/delta from the start, half the checkpoints cost ~10 ms and half
    // ~20 ms, and the latency median sat on the gap between the two.
    cfg.steps_per_checkpoint = 3;
    util::ThreadPool sim_pool(std::min<std::size_t>(4, nproc()));
    sim::flash::Simulator sim(cfg, &sim_pool);
    vars_ = {"dens", "velx", "vely", "velz", "pres"};
    snaps_.assign(vars_.size(), {});
    times_.clear();
    for (std::size_t it = 0; it < kSnapshots; ++it) {
      if (it > 0) sim.advance_checkpoint();
      for (std::size_t v = 0; v < vars_.size(); ++v) {
        snaps_[v].push_back(sim.snapshot(vars_[v]));
      }
      times_.push_back(sim.time());
    }
  }

  EpisodeStats episode() override {
    const bool reference = ref_container_.empty();
    pb::Tracer& t = run_.tracer;
    const std::string path =
        run_.args.workdir + (reference ? "/adaptive-ref.ckpt" : "/adaptive.ckpt");
    const std::size_t n = snaps_[0][0].size();
    EpisodeStats st;
    SideWork side;
    // Per variable: the snapshot each written record holds, and its step.
    std::vector<std::vector<std::size_t>> rec_snap(vars_.size());
    std::vector<std::vector<core::CompressedStep>> steps(vars_.size());

    double side_s = 0.0;
    const std::int64_t w0 = pb::now_ns();
    auto w = open_writer(run_, path, vars_, io::Durability::kFsyncPerIteration);
    std::vector<std::unique_ptr<adaptive::AdaptiveCheckpointer>> ctl;
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      ctl.push_back(std::make_unique<adaptive::AdaptiveCheckpointer>(aopts_));
    }
    for (std::size_t it = 0; it < kSnapshots; ++it) {
      t.op = run_.next_op++;
      const std::int64_t c0 = pb::now_ns();
      {
        pb::Scope root(t, "checkpoint");
        for (std::size_t v = 0; v < vars_.size(); ++v) {
          adaptive::StepDecision d;
          {
            pb::Scope s(t, "adaptive.push");
            d = ctl[v]->push(snaps_[v][it]);
          }
          run_.count(std::string("adaptive.") + adaptive::to_string(d.action),
                     1);
          if (d.action == adaptive::Action::kSkip) continue;
          run_.count(std::string("adaptive.codec_") +
                         codec::require(d.step.codec_id).name(),
                     1);
          if (d.step.codec_id == codec::kNumarckId) {
            run_.count("core.gamma_sum", d.step.stats.incompressible_ratio());
            run_.count("core.deltas", 1);
          }
          traced_append(run_, side, *w, vars_[v], rec_snap[v].size(),
                        times_[it], d.step);
          rec_snap[v].push_back(it);
          if (reference) steps[v].push_back(std::move(d.step));
        }
      }
      st.ckpt_ms.push_back(ms_since(c0));
      ++run_.attempted;
      side_s += run_side(run_, side, aopts_.codec);
    }
    close_writer(run_, *w);
    w.reset();
    st.write_wall_s = static_cast<double>(pb::now_ns() - w0) * 1e-9 - side_s;
    st.raw_write_mb =
        static_cast<double>(kSnapshots * vars_.size() * n) * 8.0 / 1e6;

    if (reference) {
      ref_container_ = read_file(path);
      ref_rec_snap_ = rec_snap;
      bytes_per_point = static_cast<double>(ref_container_.size()) /
                        static_cast<double>(kSnapshots * vars_.size() * n);
      check_reference(steps);
    } else if (read_file(path) != ref_container_ || rec_snap != ref_rec_snap_) {
      run_.fail("flash-adaptive: container differs from the reference");
    }

    for (const std::size_t target : targets_) {
      t.op = run_.next_op++;
      const std::int64_t r0 = pb::now_ns();
      std::vector<Field> out(vars_.size());
      {
        pb::Scope root(t, "restore");
        auto reader = open_reader(run_, path);
        const io::RestartEngine engine(*reader);
        for (std::size_t v = 0; v < vars_.size(); ++v) {
          const std::size_t k = record_at(v, target);
          out[v] = t.enabled ? traced_replay(run_, side, *reader, vars_[v], k)
                             : engine.reconstruct_variable(vars_[v], k);
        }
      }
      st.restore_ms.push_back(ms_since(r0));
      st.restore_s += st.restore_ms.back() * 1e-3;
      st.raw_restore_mb += static_cast<double>(vars_.size() * n) * 8.0 / 1e6;
      ++run_.attempted;
      run_side(run_, side, aopts_.codec);
      if (out != expected_.at(target)) {
        run_.fail("flash-adaptive: restore at snapshot " +
                  std::to_string(target) + " differs from the replay");
      }
    }
    return st;
  }

  [[nodiscard]] std::string record() const override {
    std::ostringstream o;
    o << "\"points_per_variable\":" << snaps_[0][0].size()
      << ",\"variables\":" << vars_.size() << ",\"snapshots\":" << kSnapshots
      << ",\"encode_pool\":" << pool_.size();
    return o.str();
  }

 private:
  /// Index of the newest record of variable `v` written at or before
  /// snapshot `target` (the first snapshot is always written).
  [[nodiscard]] std::size_t record_at(std::size_t v, std::size_t target) const {
    const auto& rs = ref_rec_snap_[v];
    const auto it = std::upper_bound(rs.begin(), rs.end(), target);
    return static_cast<std::size_t>(it - rs.begin()) - 1;
  }

  void check_reference(
      const std::vector<std::vector<core::CompressedStep>>& steps) {
    const double E = aopts_.codec.error_bound;
    const double s = aopts_.codec.resolved_small_value_threshold();
    const codec::Codec& numarck = codec::require(codec::kNumarckId);
    for (const std::size_t target : targets_) {
      expected_[target].assign(vars_.size(), {});
    }
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      core::VariableReconstructor rec;
      for (std::size_t k = 0; k < steps[v].size(); ++k) {
        const core::CompressedStep& step = steps[v][k];
        rec.push(step);
        const std::size_t snap = ref_rec_snap_[v][k];
        if (step.codec_id == codec::kNumarckId && !step.is_full) {
          // Adaptive deltas are coded against the last written snapshot.
          const Field& prev = snaps_[v][ref_rec_snap_[v][k - 1]];
          const Field recon =
              numarck.decode(step.payload, prev, {}, step.point_count);
          const std::size_t bad =
              contract_violations(prev, snaps_[v][snap], recon, E, s);
          if (bad) {
            run_.fail("flash-adaptive: " + std::to_string(bad) +
                      " points of " + vars_[v] + " break the delta contract");
          }
        }
        for (const std::size_t target : targets_) {
          if (record_at(v, target) != k) continue;
          expected_[target][v] = rec.state();
          restore_max_rel_err = std::max(
              restore_max_rel_err, max_rel_err(rec.state(), snaps_[v][snap], E));
        }
      }
    }
  }

  util::ThreadPool pool_;
  adaptive::AdaptiveOptions aopts_;
  std::vector<std::string> vars_;
  std::vector<std::vector<Field>> snaps_;  ///< [variable][snapshot]
  std::vector<double> times_;
  std::vector<std::size_t> targets_;
  std::vector<std::uint8_t> ref_container_;
  std::vector<std::vector<std::size_t>> ref_rec_snap_;
  std::map<std::size_t, std::vector<Field>> expected_;
};

// ------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_metrics(const std::vector<Metric>& ms) {
  std::ostringstream o;
  o.precision(17);
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) o << ",";
    o << "\"" << ms[i].name << "\":{\"value\":" << ms[i].value
      << ",\"unit\":\"" << ms[i].unit << "\"}";
  }
  o << "}";
  return o.str();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string run_record(const Run& run, const Workload& w) {
  std::ostringstream o;
  o << "{\"workload\":\"" << run.args.workload << "\",\"seed\":"
    << run.args.seed << ",\"arch\":\"" << arch::describe()
    << "\",\"nproc\":" << nproc()
    << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
    << ",\"decode_pool\":" << util::ThreadPool::global().size()
    << ",\"compiler\":\"" << __VERSION__ << "\",\"build_type\":\""
    << PERFBENCH_BUILD_TYPE << "\",\"fs\":\"" << fs_type(run.args.workdir)
    << "\"," << w.record() << "}";
  return o.str();
}

/// Per-layer metrics of the traced episodes: times are seconds per traced
/// episode, counts are the (exactly repeating) counts of one episode.
std::vector<Metric> layer_metrics(const Run& run, const pb::LayerTotals& lt,
                                  std::size_t traced_episodes,
                                  double overhead_frac) {
  const std::map<std::string, double>& c =
      run.first_counters ? *run.first_counters : run.counters;
  const auto cnt = [&](const std::string& k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  const double eps = static_cast<double>(std::max<std::size_t>(1, traced_episodes));
  const auto dur = [&](const std::string& k) {
    const auto it = lt.dur_s.find(k);
    return it == lt.dur_s.end() ? 0.0 : it->second / eps;
  };
  const auto self = [&](const std::string& k) {
    const auto it = lt.self_s.find(k);
    return it == lt.self_s.end() ? 0.0 : it->second / eps;
  };
  const auto calls = [&](const std::string& k) {
    const auto it = lt.calls.find(k);
    return it == lt.calls.end() ? 0.0 : static_cast<double>(it->second) / eps;
  };
  const double deltas = cnt("core.deltas");
  return {
      {"core.encode_s", dur("core.encode"), "s"},
      {"core.encode_points", cnt("core.encode_points"), "count"},
      {"core.gamma", deltas > 0 ? cnt("core.gamma_sum") / deltas : 0.0, "ratio"},
      {"cluster.bins_used", deltas > 0 ? cnt("cluster.bins_sum") / deltas : 0.0,
       "count"},
      {"cluster.learn_s", dur("cluster.learn"), "s"},
      {"lossless.serialize_s", dur("lossless.serialize"), "s"},
      {"lossless.packed_bytes", cnt("lossless.packed_bytes"), "B"},
      {"lossless.stored_bytes", cnt("lossless.stored_bytes"), "B"},
      {"lossless.fpc_encode_s", dur("lossless.fpc_encode"), "s"},
      {"lossless.deserialize_s", dur("lossless.deserialize"), "s"},
      {"lossless.fpc_decode_s", dur("lossless.fpc_decode"), "s"},
      {"core.decode_s", dur("core.decode"), "s"},
      {"core.decode_points", cnt("core.decode_points"), "count"},
      {"io.replay_records", cnt("io.replay_records"), "count"},
      {"io.open_s", dur("io.open"), "s"},
      {"io.append_s", dur("io.append"), "s"},
      {"io.append_self_s", self("io.append"), "s"},
      {"io.frame_bytes", cnt("io.frame_bytes"), "B"},
      {"io.close_s", dur("io.close"), "s"},
      {"io.write_calls", calls("io.write"), "count"},
      {"io.write_bytes", cnt("io.write_bytes"), "B"},
      {"io.write_s", dur("io.write"), "s"},
      {"io.fsync_calls", calls("io.fsync"), "count"},
      {"io.fsync_s", dur("io.fsync"), "s"},
      {"io.scan_s", dur("io.scan"), "s"},
      {"io.read_calls", calls("io.read"), "count"},
      {"io.read_bytes", cnt("io.read_bytes"), "B"},
      {"io.read_s", dur("io.read"), "s"},
      {"io.load_s", dur("io.load"), "s"},
      {"io.load_records", cnt("io.load_records"), "count"},
      {"util.crc32_bytes", cnt("util.crc32_bytes"), "B"},
      {"util.crc32_s", dur("util.crc32"), "s"},
      {"store.put_s", dur("store.put"), "s"},
      {"store.put_self_s", self("store.put"), "s"},
      {"store.manifest_bytes", cnt("store.manifest_bytes"), "B"},
      {"store.prune_s", dur("store.prune"), "s"},
      {"store.prune_rewritten", cnt("store.prune_rewritten"), "count"},
      {"store.prune_dropped", cnt("store.prune_dropped"), "count"},
      {"store.get_s", dur("store.get"), "s"},
      {"store.get_chain_depth", cnt("store.get_chain_depth"), "count"},
      {"adaptive.push_s", dur("adaptive.push"), "s"},
      {"adaptive.skip", cnt("adaptive.skip"), "count"},
      {"adaptive.delta", cnt("adaptive.delta"), "count"},
      {"adaptive.full", cnt("adaptive.full"), "count"},
      {"adaptive.codec_numarck", cnt("adaptive.codec_numarck"), "count"},
      {"adaptive.codec_fpc", cnt("adaptive.codec_fpc"), "count"},
      {"adaptive.codec_isabela", cnt("adaptive.codec_isabela"), "count"},
      {"adaptive.codec_bspline", cnt("adaptive.codec_bspline"), "count"},
      {"trace.unattributed_frac",
       lt.root_s > 0 ? lt.root_self_s / lt.root_s : 0.0, "ratio"},
      {"trace.overhead_frac", overhead_frac, "ratio"},
      {"ops_failed_frac",
       static_cast<double>(run.failed) /
           static_cast<double>(std::max<std::size_t>(1, run.attempted)),
       "ratio"},
  };
}

/// Largest share of the traced checkpoint and restore spans that no child
/// span may leave uncovered.
constexpr double kUnattributedTolerance = 0.05;

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workdir.empty()) throw std::invalid_argument("--workdir is required");
  return a;
}

std::unique_ptr<Workload> make_workload(Run& run) {
  const std::string& w = run.args.workload;
  if (w == "flash-sedov") return std::make_unique<FlashSedov>(run);
  if (w == "cmip5-store") return std::make_unique<Cmip5Store>(run);
  if (w == "flash-adaptive") return std::make_unique<FlashAdaptive>(run);
  throw std::invalid_argument("unknown workload " + w);
}

/// Runs one episode with tracing on or off, folding the traced episode's
/// I/O byte counts into the counters and checking they repeat.
EpisodeStats run_episode(Run& run, Workload& w, bool traced) {
  run.tracer.enabled = traced;
  run.reader_tracer.enabled = traced;
  run.io = {};
  run.counters.clear();
  EpisodeStats st = w.episode();
  if (traced) {
    run.counters["io.write_bytes"] += static_cast<double>(run.io.write_bytes);
    run.counters["io.read_bytes"] += static_cast<double>(run.io.read_bytes);
    if (!run.first_counters) {
      run.first_counters = run.counters;
    } else {
      for (const auto& [k, v] : run.counters) {
        if (kUnstableCounters.count(k)) continue;
        const auto it = run.first_counters->find(k);
        if (it == run.first_counters->end() || it->second != v) {
          run.fail("per-layer counter " + k + " did not repeat");
        }
      }
    }
  }
  run.tracer.enabled = false;
  run.reader_tracer.enabled = false;
  return st;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  std::unique_ptr<Workload> w;
  try {
    run.args = parse_args(argc, argv);
    fs::create_directories(run.args.workdir);
    w = make_workload(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "numarck-pipeline-bench: %s\n", e.what());
    return 2;
  }
  const Args& args = run.args;

  // Set-up: generate the series three times (it is deterministic) and
  // report the median.
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t s0 = pb::now_ns();
    w->generate();
    setups.push_back(static_cast<double>(pb::now_ns() - s0) * 1e-9);
  }
  const double setup_s = quantile(setups, 0.5);

  std::vector<EpisodeStats> untraced;
  std::vector<EpisodeStats> traced;
  std::size_t traced_episodes = 0;
  try {
    // Reference episode (untimed): expected outputs and contract checks.
    run_episode(run, *w, false);
    if (!args.trace) {
      // One traced episode proves the decomposed path byte-identical.
      run_episode(run, *w, true);
      ++traced_episodes;
    }
    const std::int64_t t0 = pb::now_ns();
    const auto deadline =
        t0 + static_cast<std::int64_t>(args.seconds * 1e9);
    do {
      if (args.trace) {
        traced.push_back(run_episode(run, *w, true));
        ++traced_episodes;
      }
      untraced.push_back(run_episode(run, *w, false));
    } while (pb::now_ns() < deadline && run.failed == 0);
  } catch (const std::exception& e) {
    run.fail(std::string("episode threw: ") + e.what());
  }

  std::printf("# run %s\n", run_record(run, *w).c_str());
  for (const std::string& e : run.errors) std::fprintf(stderr, "FAIL: %s\n", e.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Every timing is taken per episode. Each episode replays the same
    // series, so episodes differ only by what the host does meanwhile; the
    // run reports the lower quartile of the per-episode latencies (the upper
    // quartile of the rates), which host contention moves only when it
    // slows more than three quarters of the run's episodes.
    const auto quiet = [](const std::vector<double>& per_episode, bool rate) {
      return quantile(per_episode, rate ? 0.75 : 0.25);
    };
    std::vector<double> ckpt50, ckpt90, restore50, write_rate, restore_rate;
    std::vector<double> ckpt;
    std::size_t restores = 0;
    for (const EpisodeStats& st : untraced) {
      ckpt50.push_back(quantile(st.ckpt_ms, 0.5));
      ckpt90.push_back(quantile(st.ckpt_ms, 0.9));
      restore50.push_back(quantile(st.restore_ms, 0.5));
      write_rate.push_back(st.raw_write_mb / st.write_wall_s);
      restore_rate.push_back(st.raw_restore_mb / st.restore_s);
      ckpt.insert(ckpt.end(), st.ckpt_ms.begin(), st.ckpt_ms.end());
      restores += st.restore_ms.size();
    }
    const double ckpt_p90 = quiet(ckpt90, false);
    std::printf(
        "# samples: %zu episodes, %zu checkpoints (%zd above ckpt_p90_ms), "
        "%zu restores\n",
        untraced.size(), ckpt.size(),
        std::count_if(ckpt.begin(), ckpt.end(),
                      [&](double v) { return v > ckpt_p90; }),
        restores);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"ckpt_p50_ms", quiet(ckpt50, false), "ms"},
        {"ckpt_p90_ms", ckpt_p90, "ms"},
        {"ckpt_mb_s", quiet(write_rate, true), "MB/s"},
        {"bytes_per_point", w->bytes_per_point, "B/pt"},
        {"restore_p50_ms", quiet(restore50, false), "ms"},
        {"restore_mb_s", quiet(restore_rate, true), "MB/s"},
        {"restore_max_rel_err", w->restore_max_rel_err, "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    pb::LayerTotals lt;
    pb::accumulate(run.tracer.spans(), lt);
    pb::accumulate(run.reader_tracer.spans(), lt);
    const auto cost = [](const std::vector<EpisodeStats>& v) {
      std::vector<double> c;
      for (const EpisodeStats& st : v) c.push_back(st.write_wall_s + st.restore_s);
      return quantile(c, 0.5);
    };
    const double base = cost(untraced);
    const double overhead = base > 0 ? cost(traced) / base - 1.0 : 0.0;
    metrics = layer_metrics(run, lt, traced_episodes, overhead);
    const auto un = std::find_if(metrics.begin(), metrics.end(), [](const Metric& m) {
      return m.name == "trace.unattributed_frac";
    });
    if (un->value > kUnattributedTolerance) {
      run.fail("trace.unattributed_frac above tolerance");
    }
    if (!args.spans.empty()) {
      std::FILE* f = std::fopen(args.spans.c_str(), "w");
      if (f == nullptr) {
        run.fail("cannot write span file " + args.spans);
      } else {
        pb::write_jsonl(f, run.tracer.spans(), 0);
        pb::write_jsonl(f, run.reader_tracer.spans(), 1);
        std::fclose(f);
      }
    }
  }

  const bool correct = run.failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
              correct ? "true" : "false", run.attempted, run.failed,
              json_metrics(metrics).c_str());
  return correct ? 0 : 1;
}
