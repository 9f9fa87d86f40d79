// AdaptiveCheckpointer writing through the tiered store: the controller
// decides skip/delta/full per snapshot, and every written step becomes one
// acknowledged store entry (container + atomic manifest publish), so the
// adaptive stream inherits the store's crash-safety — when push() reports a
// write, that checkpoint survives process death and restarts standalone or
// via its retained delta chain.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "numarck/adaptive/checkpointer.hpp"
#include "numarck/store/checkpoint_store.hpp"

namespace numarck::adaptive {

/// What one snapshot turned into.
struct StoreStepReport {
  Action action = Action::kSkip;
  double estimated_drift = 0.0;
  std::size_t bytes_written = 0;  ///< payload bytes stored (0 on skip)
  /// True when the step is durably in the store (manifest published).
  /// False only for kSkip; a failed put() throws instead of reporting.
  bool acknowledged = false;
};

/// Drives an AdaptiveCheckpointer into a single-variable CheckpointStore.
///
/// If a put() fails (ENOSPC, EIO — the store surfaces every I/O error), the
/// exception propagates and the controller restarts its chain, so the next
/// push writes (and counts) a full checkpoint: the controller's reference
/// advanced when it decided to write, but the store never acknowledged that
/// entry, so neither a delta nor a skip may be judged against it.
class StoreBackedCheckpointer {
 public:
  /// `store` must outlive this object and hold exactly one variable.
  StoreBackedCheckpointer(store::CheckpointStore& store,
                          const AdaptiveOptions& opts);

  /// Feeds the next snapshot; on kDelta/kFull the step is put() into the
  /// store at `iteration` before this returns. Iterations must ascend across
  /// calls (skipped ones simply leave gaps in the store).
  StoreStepReport push(std::size_t iteration, double sim_time,
                       std::span<const double> snapshot);

  [[nodiscard]] AdaptiveCheckpointer::Stats stats() const {
    return inner_.stats();
  }

  [[nodiscard]] std::size_t staleness() const { return inner_.staleness(); }

 private:
  store::CheckpointStore& store_;
  AdaptiveCheckpointer inner_;
  std::string variable_;
};

}  // namespace numarck::adaptive
