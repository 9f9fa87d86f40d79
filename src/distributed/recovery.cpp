#include "numarck/distributed/recovery.hpp"

#include "numarck/io/distributed_checkpoint.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::distributed {

namespace {

RecoveryResult recover(const std::string& base,
                       const std::size_t* rank_filter) {
  io::DistributedRestartEngine engine(base, io::TailPolicy::kSalvage);
  const auto last = engine.last_complete_iteration();
  NUMARCK_EXPECT(last.has_value(),
                 "recovery impossible: no globally complete checkpoint "
                 "iteration in " + base);
  RecoveryResult result;
  result.iteration = *last;
  result.degraded = engine.degraded();
  const auto& manifest = engine.manifest();
  std::size_t offset = 0;
  std::size_t count = manifest.total_points();
  if (rank_filter != nullptr) {
    NUMARCK_EXPECT(*rank_filter < manifest.ranks,
                   "recovery rank outside the manifest");
    for (std::size_t k = 0; k < *rank_filter; ++k) {
      offset += manifest.partition_sizes[k];
    }
    count = manifest.partition_sizes[*rank_filter];
  }
  result.state = engine.reconstruct(*last);
  if (rank_filter != nullptr) {
    for (auto& [v, global] : result.state) {
      const auto first = global.begin() + static_cast<std::ptrdiff_t>(offset);
      global = std::vector<double>(
          first, first + static_cast<std::ptrdiff_t>(count));
    }
  }
  return result;
}

}  // namespace

RecoveryResult recover_from_checkpoint(const std::string& base) {
  return recover(base, nullptr);
}

RecoveryResult recover_from_checkpoint(const std::string& base,
                                       std::size_t rank) {
  return recover(base, &rank);
}

}  // namespace numarck::distributed
