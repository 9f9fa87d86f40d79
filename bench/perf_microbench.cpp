// Google-benchmark microbenchmarks: throughput of every stage in the
// NUMARCK pipeline plus the substrates it depends on. Not a paper table —
// these quantify the engineering cost of each design choice (the paper's
// "minimal data movement / in-place computation" claims).
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "numarck/baselines/bspline_compressor.hpp"
#include "numarck/baselines/isabela.hpp"
#include "numarck/cluster/histogram.hpp"
#include "numarck/cluster/kmeans1d.hpp"
#include "numarck/core/change_ratio.hpp"
#include "numarck/core/codec.hpp"
#include "numarck/lossless/fpc.hpp"
#include "numarck/lossless/huffman.hpp"
#include "numarck/util/rng.hpp"
#include "numarck/util/thread_pool.hpp"

namespace {

using namespace numarck;

std::pair<std::vector<double>, std::vector<double>> snapshots(std::size_t n) {
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

void BM_ChangeRatios(benchmark::State& state) {
  const auto [prev, curr] = snapshots(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_change_ratios(prev, curr));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_ChangeRatios)->Arg(1 << 14)->Arg(1 << 17);

void BM_EncodeIteration(benchmark::State& state) {
  const auto [prev, curr] = snapshots(static_cast<std::size_t>(state.range(0)));
  core::Options opts;
  opts.strategy = static_cast<core::Strategy>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_iteration(prev, curr, opts));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
  state.SetLabel(core::to_string(opts.strategy));
}
BENCHMARK(BM_EncodeIteration)
    ->Args({1 << 15, 0})
    ->Args({1 << 15, 1})
    ->Args({1 << 15, 2})
    ->Args({1 << 17, 2});

void BM_DecodeIteration(benchmark::State& state) {
  const auto [prev, curr] = snapshots(static_cast<std::size_t>(state.range(0)));
  core::Options opts;
  const auto enc = core::encode_iteration(prev, curr, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode_iteration(prev, enc));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_DecodeIteration)->Arg(1 << 15)->Arg(1 << 17);

// Thread-count sweeps over the classify-then-pack pipeline. A 1-worker pool
// takes the sequential reference path; larger pools exercise the parallel
// packer/decoder (bit-identical streams by construction).
void BM_EncodeIterationThreads(benchmark::State& state) {
  const auto [prev, curr] = snapshots(static_cast<std::size_t>(state.range(0)));
  util::ThreadPool pool(static_cast<std::size_t>(state.range(2)));
  core::Options opts;
  opts.strategy = static_cast<core::Strategy>(state.range(1));
  opts.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_iteration(prev, curr, opts));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
  state.SetLabel(std::string(core::to_string(opts.strategy)) + "/t" +
                 std::to_string(state.range(2)));
}
BENCHMARK(BM_EncodeIterationThreads)
    ->Args({1 << 17, 0, 1})
    ->Args({1 << 17, 0, 2})
    ->Args({1 << 17, 0, 4})
    ->Args({1 << 17, 0, 8})
    ->Args({1 << 17, 2, 1})
    ->Args({1 << 17, 2, 2})
    ->Args({1 << 17, 2, 4})
    ->Args({1 << 17, 2, 8});

void BM_DecodeIterationThreads(benchmark::State& state) {
  const auto [prev, curr] = snapshots(static_cast<std::size_t>(state.range(0)));
  util::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  core::Options opts;
  const auto enc = core::encode_iteration(prev, curr, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode_iteration(prev, enc, &pool));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
  state.SetLabel("t" + std::to_string(state.range(1)));
}
BENCHMARK(BM_DecodeIterationThreads)
    ->Args({1 << 17, 1})
    ->Args({1 << 17, 2})
    ->Args({1 << 17, 4})
    ->Args({1 << 17, 8});

/// Args: {n, engine, data}. engine indexes kEngines; data 0 is a normal blob; data 1 is a Sedov-sized
/// heavy-tailed learn set (ratios just past E = 1e-3 with a Pareto tail), run
/// at the codec's 30-round cap. Its range leaves most of the engine's 16,320
/// fine bins empty and fills fewer of them than k = 255 at n = 1024, so a
/// cluster stays empty and every Lloyd round reseeds.
constexpr std::pair<cluster::KMeansEngine, const char*> kEngines[] = {
    {cluster::KMeansEngine::kSortedBoundary, "sorted-boundary"},
    {cluster::KMeansEngine::kHistogramLloyd, "histogram-lloyd"},
};

void BM_KMeans(benchmark::State& state) {
  util::Pcg32 rng(7);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  const bool heavy_tailed = state.range(2) == 1;
  for (auto& x : xs) {
    if (heavy_tailed) {
      const double mag = 1e-3 / std::pow(1.0 - rng.uniform(), 1.6);
      x = rng.uniform() < 0.5 ? -mag : mag;
    } else {
      x = rng.normal() * 0.01;
    }
  }
  cluster::KMeansOptions o;
  o.k = 255;
  if (heavy_tailed) o.max_iterations = 30;
  const auto& [engine, label] = kEngines[static_cast<std::size_t>(state.range(1))];
  o.engine = engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::kmeans1d(xs, o));
  }
  state.SetLabel(std::string(label) + (heavy_tailed ? "/heavy-tailed" : ""));
}
BENCHMARK(BM_KMeans)
    ->Args({1 << 14, 0, 0})
    ->Args({1 << 14, 1, 0})
    ->Args({1 << 17, 0, 0})
    ->Args({1 << 17, 1, 0})
    ->Args({1024, 0, 1})
    ->Args({1024, 1, 1})
    ->Args({3072, 0, 1})
    ->Args({3072, 1, 1});

void BM_Histogram(benchmark::State& state) {
  util::Pcg32 rng(9);
  std::vector<double> xs(1 << 17);
  for (auto& x : xs) x = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::equal_width_histogram(xs, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_Histogram)->Arg(255)->Arg(1023);

void BM_FpcCompress(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(static_cast<double>(i) * 1e-3);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lossless::fpc_compress(v));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_FpcCompress)->Arg(1 << 15)->Arg(1 << 18);

void BM_FpcDecompress(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(static_cast<double>(i) * 1e-3);
  }
  const auto s = lossless::fpc_compress(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lossless::fpc_decompress(s));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_FpcDecompress)->Arg(1 << 15)->Arg(1 << 18);

void BM_IsabelaCompress(benchmark::State& state) {
  util::Pcg32 rng(11);
  std::vector<double> v(1 << 15);
  for (auto& x : v) x = rng.normal();
  baselines::Isabela isa({512, 30});
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa.compress(v));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 15) * 8);
}
BENCHMARK(BM_IsabelaCompress);

void BM_BSplineCompress(benchmark::State& state) {
  util::Pcg32 rng(13);
  std::vector<double> v(1 << 14);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(static_cast<double>(i) * 0.001) + rng.normal() * 0.01;
  }
  baselines::BSplineCompressor comp(0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp.compress(v));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 14) * 8);
}
BENCHMARK(BM_BSplineCompress);


void BM_SerializePostpass(benchmark::State& state) {
  const auto [prev, curr] = snapshots(1 << 15);
  core::Options opts;
  const auto enc = core::encode_iteration(prev, curr, opts);
  const bool use_postpass = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.serialize(
        use_postpass ? core::Postpass::all() : core::Postpass::none()));
  }
  state.SetLabel(use_postpass ? "postpass" : "plain");
}
BENCHMARK(BM_SerializePostpass)->Arg(0)->Arg(1);

void BM_HuffmanEncode(benchmark::State& state) {
  util::Pcg32 rng(21);
  std::vector<std::uint32_t> syms(1 << 16);
  for (auto& v : syms) v = rng.uniform() < 0.9 ? 0 : rng.bounded(255);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lossless::huffman_encode(syms, 256));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_HuffmanEncode);

void BM_HuffmanDecode(benchmark::State& state) {
  util::Pcg32 rng(22);
  std::vector<std::uint32_t> syms(1 << 16);
  for (auto& v : syms) v = rng.uniform() < 0.9 ? 0 : rng.bounded(255);
  const auto enc = lossless::huffman_encode(syms, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lossless::huffman_decode(enc));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_HuffmanDecode);

}  // namespace

BENCHMARK_MAIN();
