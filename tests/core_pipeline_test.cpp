// Pipeline tests: the stateful VariableCompressor / VariableReconstructor
// pair, open-loop vs closed-loop reference modes, and Eq. 3 accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "numarck/codec/codec.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/metrics/metrics.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"

namespace nk = numarck::core;

namespace {

std::vector<double> evolving_snapshot(std::size_t n, double t) {
  std::vector<double> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double x = static_cast<double>(j) / static_cast<double>(n);
    v[j] = 2.0 + std::sin(6.28 * x + 0.3 * t) + 0.2 * std::cos(19.0 * x - t);
  }
  return v;
}

}  // namespace

TEST(Pipeline, FirstStepIsLosslessFull) {
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  const auto snap = evolving_snapshot(8192, 0.0);
  const auto step = comp.push(snap);
  EXPECT_TRUE(step.is_full);
  nk::VariableReconstructor rec;
  rec.push(step);
  EXPECT_EQ(rec.state(), snap);  // bit-exact through FPC
}

TEST(Pipeline, SubsequentStepsAreDeltas) {
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  (void)comp.push(evolving_snapshot(4096, 0.0));
  const auto step = comp.push(evolving_snapshot(4096, 1.0));
  EXPECT_FALSE(step.is_full);
  EXPECT_EQ(step.point_count, 4096u);
}

TEST(Pipeline, LengthChangeMidStreamThrows) {
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  (void)comp.push(evolving_snapshot(100, 0.0));
  EXPECT_THROW(comp.push(evolving_snapshot(50, 1.0)),
               numarck::ContractViolation);
}

TEST(Pipeline, ReconstructorRejectsDeltaFirst) {
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  (void)comp.push(evolving_snapshot(64, 0.0));
  const auto delta = comp.push(evolving_snapshot(64, 1.0));
  nk::VariableReconstructor rec;
  EXPECT_THROW(rec.push(delta), numarck::ContractViolation);
}

TEST(Pipeline, MidStreamFullRecordRebasesTheChain) {
  // A later full record is a rebase (the adaptive controller emits them):
  // the reconstructor adopts it outright.
  nk::Options opts;
  nk::VariableCompressor a(opts), b(opts);
  const auto full1 = a.push(evolving_snapshot(64, 0.0));
  const auto rebased_truth = evolving_snapshot(64, 5.0);
  const auto full2 = b.push(rebased_truth);
  nk::VariableReconstructor rec;
  rec.push(full1);
  rec.push(full2);
  EXPECT_EQ(rec.state(), rebased_truth);  // bit-exact via FPC
  EXPECT_EQ(rec.iterations(), 2u);
}

TEST(Pipeline, OpenLoopPerIterationRatioErrorBounded) {
  // Paper mode: every iteration's *ratio* error is within E even though the
  // absolute state drifts.
  nk::Options opts;
  opts.error_bound = 0.001;
  opts.reference = nk::Reference::kTruePrevious;
  nk::VariableCompressor comp(opts);
  std::vector<double> prev_truth;
  for (int it = 0; it < 6; ++it) {
    const auto snap = evolving_snapshot(8192, it * 0.5);
    const auto step = comp.push(snap);
    if (!step.is_full) {
      EXPECT_LE(step.stats.max_ratio_error, opts.error_bound * 1.0001);
    }
    prev_truth = snap;
  }
}

TEST(Pipeline, ClosedLoopBoundsAbsoluteStateError) {
  // Extension mode: coding against the reconstructed previous iteration
  // prevents accumulation — the reconstructed state tracks the truth within
  // ~E at *every* iteration, not just per-step.
  nk::Options opts;
  opts.error_bound = 0.001;
  opts.reference = nk::Reference::kReconstructedPrevious;
  nk::VariableCompressor comp(opts);
  nk::VariableReconstructor rec;
  std::vector<double> truth;
  for (int it = 0; it < 12; ++it) {
    truth = evolving_snapshot(8192, it * 0.5);
    rec.push(comp.push(truth));
  }
  const double max_rel =
      numarck::metrics::max_relative_error(truth, rec.state());
  EXPECT_LE(max_rel, opts.error_bound * 1.01);
}

TEST(Pipeline, OpenLoopAccumulatesMoreThanClosedLoop) {
  auto run = [](nk::Reference ref) {
    nk::Options opts;
    opts.error_bound = 0.002;
    opts.reference = ref;
    nk::VariableCompressor comp(opts);
    nk::VariableReconstructor rec;
    std::vector<double> truth;
    for (int it = 0; it < 15; ++it) {
      truth = evolving_snapshot(8192, it * 0.4);
      rec.push(comp.push(truth));
    }
    return numarck::metrics::mean_relative_error(truth, rec.state());
  };
  const double open = run(nk::Reference::kTruePrevious);
  const double closed = run(nk::Reference::kReconstructedPrevious);
  EXPECT_GT(open, closed);
}

TEST(Pipeline, CompressedStepStoredBytesPositive) {
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  const auto full = comp.push(evolving_snapshot(1024, 0.0));
  const auto delta = comp.push(evolving_snapshot(1024, 0.6));
  EXPECT_GT(full.stored_bytes(), 0u);
  EXPECT_GT(delta.stored_bytes(), 0u);
  // A smooth delta must be far below raw size (8 KiB).
  EXPECT_LT(delta.stored_bytes(), 1024 * sizeof(double) / 2);
}

TEST(Pipeline, Eq3AndTrueRatioAgreeToWithinBitmapOverhead) {
  nk::Options opts;
  opts.index_bits = 8;
  nk::VariableCompressor comp(opts);
  (void)comp.push(evolving_snapshot(32768, 0.0));
  const auto step = comp.push(evolving_snapshot(32768, 0.7));
  const auto enc = nk::EncodedIteration::deserialize(step.payload);
  const double paper = enc.paper_compression_ratio();
  const double honest = enc.true_compression_ratio();
  // Honest accounting adds the 1-bit zeta map (~1.6 % of 64-bit points) and
  // headers; it must be within a few points of Eq. 3, and never above it by
  // more than rounding.
  EXPECT_LT(paper - honest, 6.0);
  EXPECT_GT(paper - honest, 0.0);
}

TEST(Pipeline, IterationCountsAdvance) {
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  EXPECT_EQ(comp.iterations(), 0u);
  (void)comp.push(evolving_snapshot(128, 0.0));
  (void)comp.push(evolving_snapshot(128, 1.0));
  EXPECT_EQ(comp.iterations(), 2u);
}

TEST(Pipeline, ChainedReconstructionMatchesDirectDecode) {
  nk::Options opts;
  nk::VariableCompressor comp(opts);
  nk::VariableReconstructor rec;
  std::vector<nk::CompressedStep> steps;
  for (int it = 0; it < 5; ++it) {
    steps.push_back(comp.push(evolving_snapshot(2048, it * 0.3)));
  }
  for (const auto& s : steps) rec.push(s);
  // Replaying through a second reconstructor gives the identical state.
  nk::VariableReconstructor rec2;
  for (const auto& s : steps) rec2.push(s);
  EXPECT_EQ(rec.state(), rec2.state());
  EXPECT_EQ(rec.iterations(), 5u);
}

// ------------------------------------------------------- linear predictor --

TEST(Predictor, LinearRoundTripMatchesTruthWithinBound) {
  nk::Options opts;
  opts.error_bound = 0.001;
  opts.predictor = nk::Predictor::kLinear;
  nk::VariableCompressor comp(opts);
  nk::VariableReconstructor rec;
  std::vector<double> truth;
  for (int it = 0; it < 8; ++it) {
    truth = evolving_snapshot(4096, it * 0.3);
    rec.push(comp.push(truth));
  }
  // Open-loop accumulation still applies, but the chain must track closely.
  EXPECT_LT(numarck::metrics::mean_relative_error(truth, rec.state()), 0.002);
}

TEST(Predictor, FirstDeltaFallsBackToPrevious) {
  nk::Options opts;
  opts.predictor = nk::Predictor::kLinear;
  nk::VariableCompressor comp(opts);
  (void)comp.push(evolving_snapshot(256, 0.0));
  const auto first_delta = comp.push(evolving_snapshot(256, 0.4));
  EXPECT_EQ(nk::EncodedIteration::deserialize(first_delta.payload).predictor,
            nk::Predictor::kPrevious);
  const auto second_delta = comp.push(evolving_snapshot(256, 0.8));
  EXPECT_EQ(nk::EncodedIteration::deserialize(second_delta.payload).predictor,
            nk::Predictor::kLinear);
}

TEST(Predictor, LinearShrinksRatioSpreadOnSmoothDrift) {
  // Steady drift: first-order ratios ~ the drift rate; linear extrapolation
  // residuals ~ the drift's curvature — orders of magnitude smaller.
  auto spread = [](nk::Predictor p) {
    nk::Options opts;
    opts.error_bound = 1e-6;  // tiny bound: nearly everything lands in bins
    opts.predictor = p;
    nk::VariableCompressor comp(opts);
    double worst = 0.0;
    for (int it = 0; it < 6; ++it) {
      const auto step = comp.push(evolving_snapshot(4096, it * 0.2));
      if (step.is_full) continue;
      const auto enc = nk::EncodedIteration::deserialize(step.payload);
      if (enc.predictor == p) {
        worst = std::max(worst, std::abs(enc.centers.empty()
                                             ? 0.0
                                             : enc.centers.back()));
      }
    }
    return worst;
  };
  const double first_order = spread(nk::Predictor::kPrevious);
  const double second_order = spread(nk::Predictor::kLinear);
  EXPECT_LT(second_order, 0.5 * first_order);
}

TEST(Predictor, SerializationCarriesThePredictor) {
  nk::Options opts;
  opts.predictor = nk::Predictor::kLinear;
  nk::VariableCompressor comp(opts);
  (void)comp.push(evolving_snapshot(512, 0.0));
  (void)comp.push(evolving_snapshot(512, 0.3));
  const auto step = comp.push(evolving_snapshot(512, 0.6));
  const auto back = nk::EncodedIteration::deserialize(step.payload);
  EXPECT_EQ(back.predictor, nk::Predictor::kLinear);
}

TEST(Predictor, LinearDeltaWithoutHistoryThrowsOnDecode) {
  nk::Options opts;
  opts.predictor = nk::Predictor::kLinear;
  nk::VariableCompressor comp(opts);
  (void)comp.push(evolving_snapshot(128, 0.0));
  (void)comp.push(evolving_snapshot(128, 0.3));
  const auto linear_delta = comp.push(evolving_snapshot(128, 0.6));
  ASSERT_EQ(nk::EncodedIteration::deserialize(linear_delta.payload).predictor,
            nk::Predictor::kLinear);
  // Feed it to a reconstructor holding only ONE state: the numarck codec's
  // linear-history check rejects it.
  nk::Options plain;
  nk::VariableCompressor c2(plain);
  nk::VariableReconstructor rec;
  rec.push(c2.push(evolving_snapshot(128, 0.0)));
  try {
    rec.push(linear_delta);
    FAIL() << "linear delta decoded without two states";
  } catch (const numarck::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("linear-coded delta without two states"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------ chain replay --

namespace {

/// Two variables, rebased at `rebase`: records[position][variable].
std::vector<std::vector<nk::CompressedStep>> two_variable_stream(
    std::size_t count, std::size_t rebase) {
  std::vector<nk::VariableCompressor> comps(2, nk::VariableCompressor({}));
  std::vector<std::vector<nk::CompressedStep>> records(count);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t v = 0; v < comps.size(); ++v) {
      if (i == rebase) comps[v] = nk::VariableCompressor({});
      records[i].push_back(comps[v].push(evolving_snapshot(
          256, static_cast<double>(i) + 0.7 * static_cast<double>(v))));
    }
  }
  return records;
}

/// The state an independent reconstructor reaches at `target`.
std::vector<double> replayed(
    const std::vector<std::vector<nk::CompressedStep>>& records,
    std::size_t start, std::size_t target, std::size_t v) {
  nk::VariableReconstructor rec;
  for (std::size_t i = start; i <= target; ++i) rec.push(records[i][v]);
  return rec.state();
}

}  // namespace

TEST(ChainReplay, ContinuesAlongOneChainAndRestartsOtherwise) {
  const auto records = two_variable_stream(10, 6);
  std::vector<std::size_t> loaded;
  const nk::ChainReplay::RecordLoader load = [&](std::size_t i, auto& out) {
    loaded.push_back(i);
    out = records[i];
  };
  nk::ChainReplay replay(2);
  const auto expect_state = [&](std::size_t start, std::size_t target) {
    for (std::size_t v = 0; v < 2; ++v) {
      EXPECT_EQ(replay.state(v), replayed(records, start, target, v))
          << "target " << target << " variable " << v;
    }
  };

  replay.replay_to(0, 3, load);
  EXPECT_EQ(loaded, (std::vector<std::size_t>{0, 1, 2, 3}));
  expect_state(0, 3);
  // Same chain, later target: only the new records are decoded.
  loaded.clear();
  replay.replay_to(0, 5, load);
  EXPECT_EQ(loaded, (std::vector<std::size_t>{4, 5}));
  expect_state(0, 5);
  // Same target again: nothing to decode.
  loaded.clear();
  replay.replay_to(0, 5, load);
  EXPECT_TRUE(loaded.empty());
  // An earlier target restarts the chain.
  replay.replay_to(0, 1, load);
  EXPECT_EQ(loaded, (std::vector<std::size_t>{0, 1}));
  expect_state(0, 1);
  // Another chain restarts at its own start.
  loaded.clear();
  replay.replay_to(6, 8, load);
  EXPECT_EQ(loaded, (std::vector<std::size_t>{6, 7, 8}));
  expect_state(6, 8);
}

TEST(ChainReplay, AThrowResetsTheReplay) {
  const auto records = two_variable_stream(6, 6);
  bool fail = true;
  std::vector<std::size_t> loaded;
  const nk::ChainReplay::RecordLoader load = [&](std::size_t i, auto& out) {
    if (fail && i == 3) throw numarck::ContractViolation("injected load failure");
    loaded.push_back(i);
    out = records[i];
  };
  nk::ChainReplay replay(2);
  EXPECT_THROW(replay.replay_to(0, 4, load), numarck::ContractViolation);
  fail = false;
  loaded.clear();
  replay.replay_to(0, 4, load);
  EXPECT_EQ(loaded, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(replay.state(1), replayed(records, 0, 4, 1));
  // A delta cannot start a chain, and the loader must supply every variable.
  EXPECT_THROW(replay.replay_to(2, 4, load), numarck::ContractViolation);
  EXPECT_THROW(replay.replay_to(0, 0,
                                [&](std::size_t i, auto& out) {
                                  out.push_back(records[i][0]);
                                }),
               numarck::ContractViolation);
}

TEST(ChainReplay, StartsChainAtFullsAndSpatialRecords) {
  namespace nc = numarck::codec;
  EXPECT_TRUE(nk::starts_chain(true, nc::kFpcId));
  EXPECT_FALSE(nk::starts_chain(false, nc::kNumarckId));
  EXPECT_TRUE(nk::starts_chain(false, nc::kIsabelaId));
  EXPECT_TRUE(nk::starts_chain(false, nc::kBsplineId));
  EXPECT_FALSE(nk::starts_chain(false, 0x7f));  // unknown codec id
}
