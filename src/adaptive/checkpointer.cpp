#include "numarck/adaptive/checkpointer.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "numarck/codec/codec.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::adaptive {

namespace {

/// The options the controller runs with: auto mode resolved to NUMARCK
/// deltas, and the first-order predictor every skip-broken chain needs.
AdaptiveOptions resolved(AdaptiveOptions opts) {
  if (opts.codec.codec_id == codec::kAutoId) {
    opts.codec.codec_id = codec::kNumarckId;
  }
  opts.codec.predictor = core::Predictor::kPrevious;
  return opts;
}

}  // namespace

const char* to_string(Action a) noexcept {
  switch (a) {
    case Action::kSkip:
      return "skip";
    case Action::kDelta:
      return "delta";
    case Action::kFull:
      return "full";
  }
  return "?";
}

AdaptiveCheckpointer::AdaptiveCheckpointer(const AdaptiveOptions& opts)
    : opts_(resolved(opts)), comp_(opts_.codec) {
  NUMARCK_EXPECT(codec::find(opts_.codec.codec_id) != nullptr,
                 "adaptive: unknown codec id");
  NUMARCK_EXPECT(opts_.drift_budget > 0.0, "drift budget must be positive");
  NUMARCK_EXPECT(opts_.max_interval >= 1, "max interval must be >= 1");
  NUMARCK_EXPECT(opts_.min_interval >= 1, "min interval must be >= 1");
  NUMARCK_EXPECT(opts_.min_interval <= opts_.max_interval,
                 "min interval must not exceed max interval");
  NUMARCK_EXPECT(opts_.gamma_rebase > 0.0 && opts_.gamma_rebase <= 1.0,
                 "gamma rebase threshold must be in (0,1]");
  NUMARCK_EXPECT(opts_.rebase_interval >= 1, "rebase interval must be >= 1");
  NUMARCK_EXPECT(opts_.sample_stride >= 1, "sample stride must be >= 1");
}

double AdaptiveCheckpointer::estimate_drift(
    std::span<const double> snapshot) const {
  const std::vector<double>& reference = comp_.reference();
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t j = 0; j < snapshot.size(); j += opts_.sample_stride) {
    const double ref = reference[j];
    if (ref == 0.0) continue;
    const double r = (snapshot[j] - ref) / ref;
    if (!std::isfinite(r)) continue;
    sum += std::abs(r);
    ++count;
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

void AdaptiveCheckpointer::write_full(std::span<const double> snapshot,
                                      StepDecision& d) {
  comp_ = core::VariableCompressor(opts_.codec);
  d.action = Action::kFull;
  d.step = comp_.push(snapshot);
  d.bytes_written = d.step.payload.size();
  since_write_ = 0;
  writes_since_full_ = 0;
  ++stats_.fulls;
  stats_.bytes_written += d.bytes_written;
}

void AdaptiveCheckpointer::restart_chain() {
  util::MutexLock lk(mu_);
  comp_ = core::VariableCompressor(opts_.codec);
  since_write_ = unacked_staleness_;
}

StepDecision AdaptiveCheckpointer::push(std::span<const double> snapshot) {
  util::MutexLock lk(mu_);
  StepDecision d;
  ++stats_.snapshots;
  unacked_staleness_ = since_write_ + 1;

  if (comp_.iterations() == 0) {
    write_full(snapshot, d);
    return d;
  }
  NUMARCK_EXPECT(snapshot.size() == comp_.reference().size(),
                 "adaptive: snapshot length changed mid-stream");

  ++since_write_;
  d.estimated_drift = estimate_drift(snapshot);

  const bool must_write = since_write_ >= opts_.max_interval;
  const bool may_write = since_write_ >= opts_.min_interval;
  const bool drifted = d.estimated_drift >= opts_.drift_budget;
  if (!must_write && !(may_write && drifted)) {
    d.action = Action::kSkip;
    ++stats_.skips;
    return d;
  }
  if (writes_since_full_ + 1 >= opts_.rebase_interval) {
    write_full(snapshot, d);
    return d;
  }

  // Encode the delta; rebase if the distribution no longer fits the model.
  core::CompressedStep step = comp_.push(snapshot);
  if (step.stats.incompressible_ratio() > opts_.gamma_rebase) {
    write_full(snapshot, d);
    return d;
  }
  d.action = Action::kDelta;
  d.step = std::move(step);
  d.bytes_written = d.step.payload.size();
  since_write_ = 0;
  ++writes_since_full_;
  ++stats_.deltas;
  stats_.bytes_written += d.bytes_written;
  return d;
}

}  // namespace numarck::adaptive
