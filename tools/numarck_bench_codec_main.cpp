// numarck-bench-codec — records the codec's performance trajectory.
//
// Times encode_iteration / decode_iteration on the standard microbench
// snapshot mixture (1<<17 points) across strategies and thread counts and
// writes the results as JSON (default: BENCH_codec.json) so the repository
// can track hot-path throughput across PRs. A second sweep times the
// clustering strategy across K-means engine x sampling_ratio x threads —
// with compression-ratio deltas against the exact engine — and lands in
// BENCH_kmeans.json (override with --kmeans-out). A third sweep drives every
// registered codec backend (numarck, fpc, isabela, bspline) through the
// pluggable codec::Codec interface on the same snapshot pair and lands the
// cross-codec throughput/size comparison in BENCH_baselines.json (override
// with --baselines-out). Usage:
//
// A fourth sweep times the streaming container I/O layer on a real on-disk
// checkpoint: pooled framed appends, the FileSource + ContainerScanner scan,
// an ifstream whole-file-slurp scan (the bench-only pre-refactor baseline),
// and CRC-verified payload loads. It lands in BENCH_io.json (override with
// --io-out) and is gated by tools/check_bench.py --io.
//
// The thread sweep covers {1, 2, 4, 8} clipped to the real
// hardware_concurrency; on a single-core host only the 1-thread rows are
// measured and the JSONs carry "thread_sweep_skipped": true so downstream
// tooling does not mistake a missing sweep for a regression.
//
//   numarck-bench-codec [output.json] [--points N] [--reps R]
//                       [--kmeans-out kmeans.json]
//                       [--baselines-out baselines.json]
//                       [--io-out io.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "numarck/arch/arch.hpp"
#include "numarck/codec/codec.hpp"
#include "numarck/core/codec.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/io/byte_source.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/lossless/fpc.hpp"
#include "numarck/lossless/huffman.hpp"
#include "numarck/lossless/rans.hpp"
#include "numarck/util/bitpack.hpp"
#include "numarck/util/rng.hpp"
#include "numarck/util/thread_pool.hpp"

namespace {

using namespace numarck;

std::pair<std::vector<double>, std::vector<double>> snapshots(std::size_t n) {
  // Same mixture as bench/perf_microbench.cpp BM_EncodeIteration.
  util::Pcg32 rng(42);
  std::vector<double> prev(n), curr(n);
  for (std::size_t j = 0; j < n; ++j) {
    prev[j] = rng.uniform(0.5, 5.0);
    const double ratio = rng.uniform() < 0.9 ? rng.normal() * 0.005
                                             : rng.uniform(-0.4, 0.4);
    curr[j] = prev[j] * (1.0 + ratio);
  }
  return {std::move(prev), std::move(curr)};
}

/// {1, 2, 4, 8} clipped to what the machine can actually run in parallel.
/// Thread counts above hardware_concurrency would only measure scheduler
/// noise, so they are skipped (1 is always measured).
std::vector<std::size_t> bench_thread_counts() {
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> out{1};
  for (const unsigned t : {2u, 4u, 8u}) {
    if (t <= hc) out.push_back(t);
  }
  return out;
}

template <typename Fn>
double best_seconds(std::size_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string op;
  std::string strategy;
  std::size_t threads;
  double seconds;
  double mpoints_per_s;
};

struct KmeansRow {
  std::string engine;
  double sampling;
  std::size_t threads;
  double seconds;
  double mpoints_per_s;
  double gamma;
  double paper_ratio;       ///< Eq. 3 compression ratio, percent
  double ratio_delta_pct;   ///< paper_ratio - exact-engine full-sample ratio
};

const char* engine_name(cluster::KMeansEngine e) {
  switch (e) {
    case cluster::KMeansEngine::kSortedBoundary:
      return "exact";
    case cluster::KMeansEngine::kHistogramLloyd:
      return "histogram";
  }
  return "?";
}

/// Clustering-strategy encode sweep: engine x sampling_ratio x threads, with
/// the compression-ratio delta against the exact engine at full sampling on
/// the same thread count (the quality cost of the fast path).
std::vector<KmeansRow> kmeans_sweep(std::span<const double> prev,
                                    std::span<const double> curr,
                                    std::size_t reps) {
  const cluster::KMeansEngine engines[] = {
      cluster::KMeansEngine::kSortedBoundary,
      cluster::KMeansEngine::kHistogramLloyd};
  const double samplings[] = {1.0, 0.1, 0.01};
  const std::vector<std::size_t> thread_counts = bench_thread_counts();
  const double mp = static_cast<double>(curr.size()) / 1e6;
  std::vector<KmeansRow> rows;
  for (const auto engine : engines) {
    for (const double sampling : samplings) {
      for (const std::size_t threads : thread_counts) {
        util::ThreadPool pool(threads);
        core::Options opts;
        opts.strategy = core::Strategy::kClustering;
        opts.kmeans_engine = engine;
        opts.sampling_ratio = sampling;
        opts.pool = &pool;
        core::EncodedIteration enc;
        const double s = best_seconds(
            reps, [&] { enc = core::encode_iteration(prev, curr, opts); });
        rows.push_back({engine_name(engine), sampling, threads, s, mp / s,
                        enc.stats.incompressible_ratio(),
                        enc.paper_compression_ratio(), 0.0});
        std::fprintf(stderr,
                     "kmeans  %-9s s=%-4g t=%zu  %8.3f ms  %7.1f Mpt/s  "
                     "gamma=%.4f  ratio=%.2f%%\n",
                     engine_name(engine), sampling, threads, s * 1e3, mp / s,
                     enc.stats.incompressible_ratio(),
                     enc.paper_compression_ratio());
      }
    }
  }
  for (auto& r : rows) {
    for (const auto& base : rows) {
      if (base.engine == "exact" && base.sampling == 1.0 &&
          base.threads == r.threads) {
        r.ratio_delta_pct = r.paper_ratio - base.paper_ratio;
        break;
      }
    }
  }
  return rows;
}

struct BaselineRow {
  std::string codec;
  std::string op;
  double seconds;
  double mpoints_per_s;
  double bytes_per_point;
  double ratio_pct;  ///< payload savings vs raw float64, percent
};

/// Cross-codec sweep: every registered backend, encode + decode through the
/// codec::Codec interface, single-threaded. Runs on a smooth evolving field
/// rather than the microbench jump mixture: the spatial baselines (ISABELA,
/// B-splines) model the snapshot itself, so white-noise ratios — which only
/// the change-ratio codec is built for — would tell us nothing about them.
std::vector<BaselineRow> baselines_sweep(std::size_t n, std::size_t reps) {
  std::vector<double> prev(n), curr(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double x = static_cast<double>(j) / static_cast<double>(n);
    const auto field = [x](double t) {
      return 2.5 + std::sin(6.28 * (x + 0.01 * t)) +
             0.3 * std::sin(25.1 * x + 0.4 * t);
    };
    prev[j] = field(0.0);
    curr[j] = field(1.0);
  }
  const double mp = static_cast<double>(curr.size()) / 1e6;
  std::vector<BaselineRow> rows;
  for (const codec::Codec* c : codec::all()) {
    core::Options opts;
    opts.codec_id = c->id();
    core::CompressedStep res;
    const double enc_s = best_seconds(
        reps, [&] { res = c->encode(curr, prev, {}, opts); });
    const double dec_s = best_seconds(reps, [&] {
      (void)c->decode(res.payload, prev, {}, curr.size());
    });
    const double bpp = static_cast<double>(res.payload.size()) /
                       static_cast<double>(curr.size());
    const double ratio = 100.0 * (1.0 - bpp / 8.0);
    rows.push_back({c->name(), "encode", enc_s, mp / enc_s, bpp, ratio});
    rows.push_back({c->name(), "decode", dec_s, mp / dec_s, bpp, ratio});
    std::fprintf(stderr,
                 "codec   %-8s enc %8.3f ms  dec %8.3f ms  %5.2f B/pt  "
                 "saves %.1f%%\n",
                 c->name(), enc_s * 1e3, dec_s * 1e3, bpp, ratio);
  }
  return rows;
}

struct PostpassRow {
  std::string postpass;  ///< "none" | "huffman" | "rans"
  std::string op;        ///< "encode" (serialize) | "decode" (deserialize)
  double seconds;
  double mpoints_per_s;
  double bytes_per_point;
};

struct PostpassSweep {
  std::vector<PostpassRow> rows;
  /// Pure index-coder decode throughput on the same symbol stream —
  /// huffman_decode vs rans_decode with none of the shared record overhead
  /// (RLE, FPC, bit-packing) that the deserialize rows carry.
  double huffman_index_decode_mpt = 0.0;
  double rans_index_decode_mpt = 0.0;
};

/// Lossless post-pass sweep on a FLASH-like workload: a dominant
/// "unchanged" bin plus a Gaussian spread over the learned bins — the
/// uneven-histogram regime of the paper's Fig. 3. Encode times serialize()
/// with each coder set; decode times deserialize(), which is where the
/// bit-serial Huffman loop and the interleaved rANS lanes actually diverge.
PostpassSweep postpass_sweep(std::size_t n, std::size_t reps) {
  util::Pcg32 rng(11);
  std::vector<double> prev(n), curr(n);
  for (std::size_t j = 0; j < n; ++j) {
    prev[j] = rng.uniform(1.0, 3.0);
    const bool outlier = rng.uniform() < 0.02;
    const double ratio =
        outlier ? rng.uniform(-5.0, 5.0) : rng.normal() * 8e-4;
    curr[j] = prev[j] * (1.0 + ratio);
  }
  core::Options opts;
  opts.error_bound = 0.001;
  opts.index_bits = 8;
  const core::EncodedIteration enc = core::encode_iteration(prev, curr, opts);
  const double mp = static_cast<double>(n) / 1e6;

  struct Mode {
    const char* name;
    core::Postpass pp;
  };
  core::Postpass rans_only = core::Postpass::all();
  rans_only.huffman_indices = false;
  const Mode modes[] = {{"none", core::Postpass::none()},
                        {"huffman", core::Postpass::v1()},
                        {"rans", rans_only}};
  PostpassSweep sweep;
  for (const Mode& m : modes) {
    std::vector<std::uint8_t> bytes;
    const double enc_s =
        best_seconds(reps, [&] { bytes = enc.serialize(m.pp); });
    const double dec_s = best_seconds(
        reps, [&] { (void)core::EncodedIteration::deserialize(bytes); });
    const double bpp =
        static_cast<double>(bytes.size()) / static_cast<double>(n);
    sweep.rows.push_back({m.name, "encode", enc_s, mp / enc_s, bpp});
    sweep.rows.push_back({m.name, "decode", dec_s, mp / dec_s, bpp});
    std::fprintf(stderr,
                 "postpass %-8s enc %8.3f ms  dec %8.3f ms  %6.3f B/pt\n",
                 m.name, enc_s * 1e3, dec_s * 1e3, bpp);
  }

  // Head-to-head index-coder decode on the record's own symbol stream.
  const std::vector<std::uint32_t> symbols =
      util::unpack_indices(enc.indices, enc.index_bits,
                           enc.compressible_count());
  const double smp = static_cast<double>(symbols.size()) / 1e6;
  const auto huff_stream =
      lossless::huffman_encode(symbols, 1u << enc.index_bits);
  const auto rans_stream =
      lossless::rans_encode(symbols, 1u << enc.index_bits, 4);
  const double huff_s = best_seconds(reps, [&] {
    (void)lossless::huffman_decode(huff_stream, symbols.size());
  });
  const double rans_s = best_seconds(reps, [&] {
    (void)lossless::rans_decode(rans_stream, symbols.size());
  });
  sweep.huffman_index_decode_mpt = smp / huff_s;
  sweep.rans_index_decode_mpt = smp / rans_s;
  std::fprintf(stderr,
               "postpass index-decode  huffman %7.1f Mpt/s  rans %7.1f "
               "Mpt/s  (%.2fx)\n",
               smp / huff_s, smp / rans_s, huff_s / rans_s);
  return sweep;
}

struct IoRow {
  std::string op;   ///< "append" | "scan" | "scan_ifstream" | "load"
  double seconds;
  double mb_per_s;  ///< container (scan/append) or payload (load) MB/s
};

struct IoSweep {
  std::vector<IoRow> rows;
  std::uint64_t container_bytes = 0;
  std::uint64_t record_count = 0;
  /// ifstream-slurp scan seconds / streamed FileSource scan seconds — what
  /// the bounded-memory scan costs (or buys) against the whole-file slurp it
  /// replaced.
  double scan_vs_ifstream_speedup = 0.0;
};

/// Streaming container I/O sweep on a real on-disk checkpoint: 2 variables x
/// 8 iterations of an evolving field, compressed once up front so the timed
/// sections measure only the I/O layer. "scan_ifstream" reproduces the
/// pre-streaming reader byte-for-byte — slurp the whole file, then parse the
/// resident image — purely as a baseline; production code no longer has that
/// path.
IoSweep io_sweep(std::size_t n, std::size_t reps) {
  const std::string path =
      "/tmp/numarck_bench_io_" + std::to_string(::getpid()) + ".ckpt";
  const std::vector<std::string> vars = {"rho", "pres"};
  constexpr std::size_t kIters = 8;

  // Pre-compress every step (full + deltas per variable).
  std::vector<std::vector<core::CompressedStep>> steps(vars.size());
  std::uint64_t payload_bytes = 0;
  for (std::size_t v = 0; v < vars.size(); ++v) {
    core::Options opts;
    core::VariableCompressor comp(opts);
    for (std::size_t it = 0; it < kIters; ++it) {
      std::vector<double> snap(n);
      for (std::size_t j = 0; j < n; ++j) {
        const double x = static_cast<double>(j) / static_cast<double>(n);
        snap[j] = 2.0 + static_cast<double>(v) +
                  std::sin(6.28 * x + 0.05 * static_cast<double>(it)) +
                  0.2 * std::sin(31.4 * x - 0.3 * static_cast<double>(it));
      }
      steps[v].push_back(comp.push(snap));
      payload_bytes += steps[v].back().stored_bytes();
    }
  }

  IoSweep sweep;
  sweep.record_count = vars.size() * kIters;
  const auto append_once = [&] {
    io::CheckpointWriter w(path, vars);
    for (std::size_t it = 0; it < kIters; ++it) {
      for (std::size_t v = 0; v < vars.size(); ++v) {
        w.append(vars[v], it, static_cast<double>(it), steps[v][it]);
      }
    }
    w.close();
  };
  const double append_s = best_seconds(reps, append_once);
  append_once();  // deterministic final image for the read-side timings
  sweep.container_bytes = io::FileSource(path).size();
  const double cmb = static_cast<double>(sweep.container_bytes) / 1e6;
  const double pmb = static_cast<double>(payload_bytes) / 1e6;

  const double scan_s = best_seconds(reps, [&] {
    const io::CheckpointReader reader(path);
    (void)reader.iteration_count();
  });
  const double slurp_s = best_seconds(reps, [&] {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    std::vector<std::uint8_t> image(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
    const std::span<const std::uint8_t> view(image);
    const io::CheckpointReader reader(view);
    (void)reader.iteration_count();
  });
  const io::CheckpointReader reader(path);
  const double load_s = best_seconds(reps, [&] {
    for (const auto& v : reader.variables()) {
      for (std::size_t it = 0; it < reader.iteration_count(); ++it) {
        (void)reader.load(v, it);
      }
    }
  });
  std::remove(path.c_str());

  sweep.rows.push_back({"append", append_s, cmb / append_s});
  sweep.rows.push_back({"scan", scan_s, cmb / scan_s});
  sweep.rows.push_back({"scan_ifstream", slurp_s, cmb / slurp_s});
  sweep.rows.push_back({"load", load_s, pmb / load_s});
  sweep.scan_vs_ifstream_speedup = slurp_s / scan_s;
  for (const auto& r : sweep.rows) {
    std::fprintf(stderr, "io      %-13s %8.3f ms  %8.1f MB/s\n", r.op.c_str(),
                 r.seconds * 1e3, r.mb_per_s);
  }
  std::fprintf(stderr, "io      scan vs ifstream-slurp: %.2fx\n",
               sweep.scan_vs_ifstream_speedup);
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_codec.json";
  std::string kmeans_out_path = "BENCH_kmeans.json";
  std::string baselines_out_path = "BENCH_baselines.json";
  std::string io_out_path = "BENCH_io.json";
  std::size_t n = std::size_t{1} << 17;
  std::size_t reps = 5;
  const auto count_arg = [&](const char* flag, int& i) -> std::size_t {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      std::exit(2);
    }
    char* end = nullptr;
    const unsigned long long v = std::strtoull(argv[++i], &end, 10);
    if (end == argv[i] || *end != '\0' || v == 0) {
      std::fprintf(stderr, "%s wants a positive integer, got '%s'\n", flag,
                   argv[i]);
      std::exit(2);
    }
    return static_cast<std::size_t>(v);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--points") == 0) {
      n = count_arg("--points", i);
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = count_arg("--reps", i);
    } else if (std::strcmp(argv[i], "--kmeans-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--kmeans-out requires a value\n");
        std::exit(2);
      }
      kmeans_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baselines-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--baselines-out requires a value\n");
        std::exit(2);
      }
      baselines_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--io-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--io-out requires a value\n");
        std::exit(2);
      }
      io_out_path = argv[++i];
    } else {
      out_path = argv[i];
    }
  }

  std::cerr << "numarck-bench-codec: " << arch::describe() << "\n";

  const auto [prev, curr] = snapshots(n);
  const std::vector<std::size_t> thread_counts = bench_thread_counts();
  const core::Strategy strategies[] = {core::Strategy::kEqualWidth,
                                       core::Strategy::kLogScale,
                                       core::Strategy::kClustering};
  std::vector<Row> rows;
  for (const auto strategy : strategies) {
    for (const std::size_t threads : thread_counts) {
      util::ThreadPool pool(threads);
      core::Options opts;
      opts.strategy = strategy;
      opts.pool = &pool;
      core::EncodedIteration enc;
      const double enc_s = best_seconds(
          reps, [&] { enc = core::encode_iteration(prev, curr, opts); });
      const double dec_s = best_seconds(
          reps, [&] { (void)core::decode_iteration(prev, enc, &pool); });
      const double mp = static_cast<double>(n) / 1e6;
      rows.push_back(
          {"encode", core::to_string(strategy), threads, enc_s, mp / enc_s});
      rows.push_back(
          {"decode", core::to_string(strategy), threads, dec_s, mp / dec_s});
      std::fprintf(stderr, "%-7s %-12s t=%zu  %8.3f ms  %7.1f Mpt/s\n",
                   "encode", core::to_string(strategy), threads, enc_s * 1e3,
                   mp / enc_s);
      std::fprintf(stderr, "%-7s %-12s t=%zu  %8.3f ms  %7.1f Mpt/s\n",
                   "decode", core::to_string(strategy), threads, dec_s * 1e3,
                   mp / dec_s);
    }
  }

  // Speedup of each op/strategy at the highest thread count over threads=1.
  auto find = [&](const std::string& op, const std::string& st,
                  std::size_t t) -> const Row* {
    for (const auto& r : rows) {
      if (r.op == op && r.strategy == st && r.threads == t) return &r;
    }
    return nullptr;
  };

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  const std::size_t max_threads = thread_counts.back();
  out << "{\n";
  out << "  \"benchmark\": \"codec\",\n";
  out << "  \"points\": " << n << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"arch\": \"" << arch::target() << "\",\n";
  out << "  \"thread_counts\": [";
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    out << (i ? ", " : "") << thread_counts[i];
  }
  out << "],\n";
  out << "  \"thread_sweep_skipped\": "
      << (max_threads == 1 ? "true" : "false") << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"op\": \"" << r.op << "\", \"strategy\": \"" << r.strategy
        << "\", \"threads\": " << r.threads << ", \"seconds\": " << r.seconds
        << ", \"mpoints_per_s\": " << r.mpoints_per_s << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  // Parallel speedup at the widest measured thread count. On a single-core
  // host this object is empty (there is nothing meaningful to divide).
  out << "  \"max_threads\": " << max_threads << ",\n";
  out << "  \"speedup_maxt_over_1t\": {";
  bool first = true;
  if (max_threads > 1) {
    for (const char* op : {"encode", "decode"}) {
      for (const auto strategy : strategies) {
        const Row* t1 = find(op, core::to_string(strategy), 1);
        const Row* tm = find(op, core::to_string(strategy), max_threads);
        if (!t1 || !tm) continue;
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    \"" << op << "/" << core::to_string(strategy)
            << "\": " << t1->seconds / tm->seconds;
      }
    }
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  std::cerr << "wrote " << out_path << "\n";

  // ---- K-means sweep (engine x sampling x threads) -> BENCH_kmeans.json --
  const std::vector<KmeansRow> krows = kmeans_sweep(prev, curr, reps);
  auto kfind = [&](const std::string& engine, double sampling,
                   std::size_t t) -> const KmeansRow* {
    for (const auto& r : krows) {
      if (r.engine == engine && r.sampling == sampling && r.threads == t) {
        return &r;
      }
    }
    return nullptr;
  };
  std::ofstream kout(kmeans_out_path);
  if (!kout) {
    std::cerr << "cannot open " << kmeans_out_path << " for writing\n";
    return 1;
  }
  kout << "{\n";
  kout << "  \"benchmark\": \"kmeans\",\n";
  kout << "  \"points\": " << n << ",\n";
  kout << "  \"reps\": " << reps << ",\n";
  kout << "  \"k\": " << ((std::size_t{1} << 8) - 1) << ",\n";
  kout << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n";
  kout << "  \"thread_sweep_skipped\": "
       << (max_threads == 1 ? "true" : "false") << ",\n";
  kout << "  \"results\": [\n";
  for (std::size_t i = 0; i < krows.size(); ++i) {
    const auto& r = krows[i];
    kout << "    {\"engine\": \"" << r.engine
         << "\", \"sampling_ratio\": " << r.sampling
         << ", \"threads\": " << r.threads << ", \"seconds\": " << r.seconds
         << ", \"mpoints_per_s\": " << r.mpoints_per_s
         << ", \"gamma\": " << r.gamma
         << ", \"paper_ratio_pct\": " << r.paper_ratio
         << ", \"ratio_delta_vs_exact_pct\": " << r.ratio_delta_pct << "}"
         << (i + 1 < krows.size() ? "," : "") << "\n";
  }
  kout << "  ],\n";
  // Headline numbers the CI bench-smoke job gates on: how close the
  // clustering strategy gets to equal-width encode, and the fast engine's
  // speedup over the exact one (both single-threaded, full sampling).
  {
    const Row* cl = find("encode", "clustering", 1);
    const Row* ew = find("encode", "equal-width", 1);
    const KmeansRow* hist = kfind("histogram", 1.0, 1);
    const KmeansRow* exact = kfind("exact", 1.0, 1);
    kout << "  \"clustering_encode_mpoints_per_s\": "
         << (cl ? cl->mpoints_per_s : 0.0) << ",\n";
    kout << "  \"clustering_vs_equal_width_encode\": "
         << (cl && ew ? cl->mpoints_per_s / ew->mpoints_per_s : 0.0) << ",\n";
    kout << "  \"histogram_vs_exact_speedup\": "
         << (hist && exact ? exact->seconds / hist->seconds : 0.0) << "\n";
  }
  kout << "}\n";
  std::cerr << "wrote " << kmeans_out_path << "\n";

  // ---- cross-codec baselines sweep -> BENCH_baselines.json ---------------
  const std::vector<BaselineRow> brows = baselines_sweep(n, reps);
  const PostpassSweep psweep = postpass_sweep(n, reps);
  const std::vector<PostpassRow>& prows = psweep.rows;
  std::ofstream bout(baselines_out_path);
  if (!bout) {
    std::cerr << "cannot open " << baselines_out_path << " for writing\n";
    return 1;
  }
  bout << "{\n";
  bout << "  \"benchmark\": \"baselines\",\n";
  bout << "  \"points\": " << n << ",\n";
  bout << "  \"reps\": " << reps << ",\n";
  bout << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ",\n";
  bout << "  \"results\": [\n";
  for (std::size_t i = 0; i < brows.size(); ++i) {
    const auto& r = brows[i];
    bout << "    {\"codec\": \"" << r.codec << "\", \"op\": \"" << r.op
         << "\", \"seconds\": " << r.seconds
         << ", \"mpoints_per_s\": " << r.mpoints_per_s
         << ", \"bytes_per_point\": " << r.bytes_per_point
         << ", \"ratio_pct\": " << r.ratio_pct << "}"
         << (i + 1 < brows.size() ? "," : "") << "\n";
  }
  bout << "  ],\n";
  // Lossless post-pass sweep (FLASH-like skewed indices): serialize /
  // deserialize throughput and on-disk size per coder set.
  bout << "  \"postpass_results\": [\n";
  for (std::size_t i = 0; i < prows.size(); ++i) {
    const auto& r = prows[i];
    bout << "    {\"postpass\": \"" << r.postpass << "\", \"op\": \"" << r.op
         << "\", \"seconds\": " << r.seconds
         << ", \"mpoints_per_s\": " << r.mpoints_per_s
         << ", \"bytes_per_point\": " << r.bytes_per_point << "}"
         << (i + 1 < prows.size() ? "," : "") << "\n";
  }
  bout << "  ],\n";
  // Headline numbers the CI bench-smoke job gates on: the rANS frame must
  // be smaller than Huffman's on this workload, and the interleaved decode
  // must out-run the bit-serial Huffman loop on the bare index stream
  // (the deserialize rows above carry shared RLE/FPC/bit-packing work that
  // both coders pay identically).
  {
    auto pfind = [&](const char* pp, const char* op) -> const PostpassRow* {
      for (const auto& r : prows) {
        if (r.postpass == pp && r.op == op) return &r;
      }
      return nullptr;
    };
    const PostpassRow* hb = pfind("huffman", "encode");
    const PostpassRow* rb = pfind("rans", "encode");
    bout << "  \"rans_vs_huffman_bytes\": "
         << (hb && rb ? rb->bytes_per_point / hb->bytes_per_point : 0.0)
         << ",\n";
    bout << "  \"huffman_index_decode_mpoints_per_s\": "
         << psweep.huffman_index_decode_mpt << ",\n";
    bout << "  \"rans_index_decode_mpoints_per_s\": "
         << psweep.rans_index_decode_mpt << ",\n";
    bout << "  \"rans_vs_huffman_decode_speedup\": "
         << (psweep.huffman_index_decode_mpt > 0
                 ? psweep.rans_index_decode_mpt /
                       psweep.huffman_index_decode_mpt
                 : 0.0)
         << "\n";
  }
  bout << "}\n";
  std::cerr << "wrote " << baselines_out_path << "\n";

  // ---- streaming container I/O sweep -> BENCH_io.json --------------------
  const IoSweep iosweep = io_sweep(std::size_t{1} << 15, reps);
  std::ofstream iout(io_out_path);
  if (!iout) {
    std::cerr << "cannot open " << io_out_path << " for writing\n";
    return 1;
  }
  iout << "{\n";
  iout << "  \"benchmark\": \"io\",\n";
  iout << "  \"reps\": " << reps << ",\n";
  iout << "  \"container_bytes\": " << iosweep.container_bytes << ",\n";
  iout << "  \"records\": " << iosweep.record_count << ",\n";
  iout << "  \"results\": [\n";
  for (std::size_t i = 0; i < iosweep.rows.size(); ++i) {
    const auto& r = iosweep.rows[i];
    iout << "    {\"op\": \"" << r.op << "\", \"seconds\": " << r.seconds
         << ", \"mb_per_s\": " << r.mb_per_s << "}"
         << (i + 1 < iosweep.rows.size() ? "," : "") << "\n";
  }
  iout << "  ],\n";
  // Headline the CI bench-smoke job gates on: the bounded-memory streamed
  // scan relative to the whole-file ifstream slurp it replaced.
  iout << "  \"scan_vs_ifstream_speedup\": " << iosweep.scan_vs_ifstream_speedup
       << "\n";
  iout << "}\n";
  std::cerr << "wrote " << io_out_path << "\n";
  return 0;
}
