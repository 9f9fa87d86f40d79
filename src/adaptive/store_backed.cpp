#include "numarck/adaptive/store_backed.hpp"

#include <map>
#include <utility>

#include "numarck/util/expect.hpp"

namespace numarck::adaptive {

StoreBackedCheckpointer::StoreBackedCheckpointer(store::CheckpointStore& store,
                                                 const AdaptiveOptions& opts)
    : store_(store), inner_(opts) {
  NUMARCK_EXPECT(store_.variables().size() == 1,
                 "StoreBackedCheckpointer drives a single-variable store");
  variable_ = store_.variables().front();
}

StoreStepReport StoreBackedCheckpointer::push(std::size_t iteration,
                                              double sim_time,
                                              std::span<const double> snapshot) {
  StepDecision decision = inner_.push(snapshot);
  StoreStepReport report;
  report.action = decision.action;
  report.estimated_drift = decision.estimated_drift;
  if (decision.action == Action::kSkip) return report;

  std::map<std::string, core::CompressedStep> steps;
  report.bytes_written = decision.step.stored_bytes();
  steps.emplace(variable_, std::move(decision.step));
  try {
    store_.put(iteration, sim_time, steps);
  } catch (...) {
    // The store never acknowledged this record: no later record may chain
    // against it, nor may drift be measured from it.
    inner_.restart_chain();
    throw;
  }
  report.acknowledged = true;
  return report;
}

}  // namespace numarck::adaptive
