// Extension bench: the three deployment points of NUMARCK at scale, on the
// same data — answering the paper's question 4 ("how do we perform the
// above tasks while minimizing data movement?") quantitatively.
//
//   serial       one table, no communication, one process;
//   sharded      per-rank local tables, zero communication;
//   distributed  one global table learned collectively (the paper's MPI
//                model), a few allreduces per encode.
//
// Reported per mode: Eq. 3 compression ratio, incompressible ratio, and —
// for the distributed mode — bytes actually moved between ranks, to compare
// against the bytes of checkpoint data the compression saves.
#include <cstdio>
#include <vector>

#include "harness_common.hpp"
#include "numarck/core/sharded.hpp"
#include "numarck/distributed/encoder.hpp"

int main() {
  using namespace numarck;
  std::printf("=== Extension — serial vs sharded vs distributed (global "
              "table) ===\n\n");

  auto compare = [](const char* name,
                    const std::vector<std::vector<double>>& snaps,
                    int ranks) {
    core::Options opts;
    opts.error_bound = 0.001;
    opts.strategy = core::Strategy::kClustering;

    // serial
    util::RunningStats serial_ratio, serial_gamma;
    for (std::size_t it = 1; it < snaps.size(); ++it) {
      const auto enc = core::encode_iteration(snaps[it - 1], snaps[it], opts);
      serial_ratio.add(enc.paper_compression_ratio());
      serial_gamma.add(100.0 * enc.stats.incompressible_ratio());
    }

    // sharded (local tables)
    core::ShardedOptions sopts;
    sopts.codec = opts;
    sopts.shards = static_cast<std::size_t>(ranks);
    core::ShardedCompressor sharded(sopts);
    util::RunningStats shard_ratio, shard_gamma;
    for (const auto& snap : snaps) {
      const auto step = sharded.push(snap);
      if (!step.is_full()) {
        shard_ratio.add(step.paper_compression_ratio());
        shard_gamma.add(100.0 * step.incompressible_ratio());
      }
    }

    // distributed (global table)
    util::RunningStats dist_ratio, dist_gamma;
    mpisim::World world(ranks);
    std::uint64_t moved = 0;
    {
      const std::size_t n = snaps[0].size();
      world.run([&](mpisim::Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        const std::size_t b = r * n / static_cast<std::size_t>(ranks);
        const std::size_t e = (r + 1) * n / static_cast<std::size_t>(ranks);
        for (std::size_t it = 1; it < snaps.size(); ++it) {
          const auto res = distributed::encode_iteration(
              comm,
              std::span<const double>(snaps[it - 1].data() + b, e - b),
              std::span<const double>(snaps[it].data() + b, e - b), opts);
          if (comm.rank() == 0) {
            dist_ratio.add(res.global_paper_ratio);
            dist_gamma.add(100.0 * res.global_gamma);
          }
        }
      });
      moved = world.bytes_moved();
    }

    const double raw_mb = static_cast<double>(snaps[0].size()) * 8.0 *
                          static_cast<double>(snaps.size() - 1) / 1048576.0;
    std::printf("--- %s (n=%zu, %d ranks, %zu iterations, %.1f MB raw) ---\n",
                name, snaps[0].size(), ranks, snaps.size() - 1, raw_mb);
    std::printf("%-24s | %10s | %8s | %s\n", "mode", "Eq.3 %", "gamma%",
                "network traffic");
    std::printf("%-24s | %10.3f | %8.3f | none (one process)\n", "serial",
                serial_ratio.mean(), serial_gamma.mean());
    std::printf("%-24s | %10.3f | %8.3f | none (local tables)\n",
                "sharded (local tables)", shard_ratio.mean(),
                shard_gamma.mean());
    const double per_rank_iter_kb =
        static_cast<double>(moved) / 1024.0 /
        static_cast<double>(ranks) / static_cast<double>(snaps.size() - 1);
    std::printf("%-24s | %10.3f | %8.3f | %.2f MB total (%.0f KB "
                "/rank/iter)\n",
                "distributed (global)", dist_ratio.mean(), dist_gamma.mean(),
                static_cast<double>(moved) / 1048576.0, per_rank_iter_kb);
    // The traffic is one allreduce of the 3·H-double weighted histogram per
    // encode, set by the histogram resolution H, NOT by the data or the Lloyd
    // iteration count: extrapolate to the paper's 64 MB/process partitions.
    std::printf("%-24s   at the paper's 64 MB/process, the same traffic is "
                "%.2f%% of the partition\n",
                "", 100.0 * per_rank_iter_kb / (64.0 * 1024.0));
    std::printf("\n");
  };

  const auto flash = bench::flash_series(6, {"pres"});
  compare("FLASH pres", flash.at("pres"), 8);
  compare("CMIP rlds",
          bench::climate_series(sim::climate::Variable::kRlds, 6), 8);

  std::printf("reading: the distributed mode recovers the serial compression\n"
              "ratio exactly (one global table vs one table per shard). Its\n"
              "communication volume is one allreduce of the 3*H-double\n"
              "K-means histogram per encode, set by the histogram resolution H\n"
              "— independent of the data and of the Lloyd iteration count — so\n"
              "it dominates at this demo's toy partitions but drops to ~1%% of\n"
              "the data at the paper's 64 MB/process, which is precisely the\n"
              "paper's 'minimal data movement, mostly in place' design point.\n"
              "Sharding avoids all traffic but pays one 2^B-1 table per rank.\n");
  return 0;
}
