#include "numarck/tools/cli.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>

#include "numarck/codec/codec.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/io/byte_source.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/io/distributed_checkpoint.hpp"
#include "numarck/store/checkpoint_store.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/stats.hpp"

namespace numarck::tools {

namespace {

std::vector<double> read_doubles(const std::string& path) {
  io::FileSource in(path);
  const auto size = static_cast<std::size_t>(in.size());
  NUMARCK_EXPECT(size % sizeof(double) == 0,
                 "input size is not a multiple of 8 bytes: " + path);
  std::vector<double> values(size / sizeof(double));
  if (size != 0) in.read_at(0, values.data(), size);
  return values;
}

void write_doubles(const std::string& path, std::span<const double> values) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  NUMARCK_EXPECT(out.good(), "cannot open output file: " + path);
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(double)));
  NUMARCK_EXPECT(out.good(), "write failed: " + path);
}

/// Post-pass label from a numarck delta payload's stream-flags byte
/// (FORMAT.md §2). "-" for fulls and non-numarck payloads.
std::string postpass_label(const core::CompressedStep& step) {
  const auto prefix = core::EncodedIteration::peek(step.payload);
  if (step.is_full || !prefix) return "-";
  const std::uint8_t flags = prefix->stream_flags;
  std::string label =
      (flags & 0x08) ? "rans" : ((flags & 0x01) ? "huffman" : "raw");
  if (flags & 0x02) label += "+rle";
  if (flags & 0x04) label += "+fpc";
  return label;
}

}  // namespace

core::Strategy parse_strategy(const std::string& name) {
  for (auto s : {core::Strategy::kEqualWidth, core::Strategy::kLogScale,
                 core::Strategy::kClustering}) {
    if (name == core::to_string(s)) return s;
  }
  NUMARCK_EXPECT(false, "unknown strategy (want equal-width | log-scale | "
                        "clustering): " + name);
  return core::Strategy::kClustering;
}

core::Predictor parse_predictor(const std::string& name) {
  for (auto p : {core::Predictor::kPrevious, core::Predictor::kLinear}) {
    if (name == core::to_string(p)) return p;
  }
  NUMARCK_EXPECT(false, "unknown predictor (want previous | linear): " + name);
  return core::Predictor::kPrevious;
}

std::uint8_t parse_codec(const std::string& name) {
  if (name == "auto") return codec::kAutoId;
  const codec::Codec* c = codec::find(std::string_view(name));
  NUMARCK_EXPECT(c != nullptr,
                 "unknown codec (want numarck | fpc | isabela | bspline): " +
                     name);
  return c->id();
}

PostpassMode parse_postpass(const std::string& name) {
  if (name == "none") return PostpassMode::kNone;
  if (name == "huffman") return PostpassMode::kHuffman;
  if (name == "rans") return PostpassMode::kRans;
  if (name == "auto") return PostpassMode::kAuto;
  NUMARCK_EXPECT(false,
                 "unknown postpass (want none | huffman | rans | auto): " +
                     name);
  return PostpassMode::kAuto;
}

core::Postpass to_postpass(PostpassMode mode) {
  switch (mode) {
    case PostpassMode::kNone:
      return core::Postpass::none();
    case PostpassMode::kHuffman:
      return core::Postpass::v1();
    case PostpassMode::kRans: {
      core::Postpass pp = core::Postpass::all();
      pp.huffman_indices = false;  // rANS-or-raw, no Huffman fallback
      return pp;
    }
    case PostpassMode::kAuto:
      break;
  }
  return core::Postpass::all();
}

cluster::KMeansEngine parse_kmeans_engine(const std::string& name) {
  if (name == "histogram") return cluster::KMeansEngine::kHistogramLloyd;
  if (name == "exact") return cluster::KMeansEngine::kSortedBoundary;
  if (name == "lloyd") return cluster::KMeansEngine::kLloydParallel;
  NUMARCK_EXPECT(false,
                 "unknown kmeans engine (want histogram | exact | lloyd): " +
                     name);
  return cluster::KMeansEngine::kHistogramLloyd;
}

CompressReport compress_file(const CompressJob& job) {
  NUMARCK_EXPECT(job.options.codec_id != codec::kAutoId,
                 "--codec auto is only available through the adaptive "
                 "checkpointing API; pick a concrete codec");
  core::Options opts = job.options;
  opts.postpass = to_postpass(job.postpass);
  opts.validate();
  const std::vector<double> raw = read_doubles(job.input_path);
  NUMARCK_EXPECT(!raw.empty(), "input file is empty: " + job.input_path);
  const std::size_t n =
      job.points_per_iteration == 0 ? raw.size() : job.points_per_iteration;
  NUMARCK_EXPECT(raw.size() % n == 0,
                 "input length is not a multiple of points-per-iteration");

  CompressReport report;
  report.points_per_iteration = n;
  report.iterations = raw.size() / n;
  report.input_bytes = raw.size() * sizeof(double);

  core::VariableCompressor comp(opts);
  io::CheckpointWriter writer(job.output_path, {job.variable});
  util::RunningStats gamma, ratio;
  for (std::size_t it = 0; it < report.iterations; ++it) {
    const std::span<const double> snap(raw.data() + it * n, n);
    const auto step = comp.push(snap);
    if (!step.is_full) {
      gamma.add(step.stats.incompressible_ratio());
      ratio.add(step.paper_ratio_pct);
    }
    writer.append(job.variable, it, static_cast<double>(it), step);
  }
  writer.close();
  report.output_bytes = writer.bytes_written();
  report.mean_gamma = gamma.count() ? gamma.mean() : 0.0;
  report.mean_paper_ratio = ratio.count() ? ratio.mean() : 0.0;
  return report;
}

void inspect_file(const std::string& checkpoint_path, std::ostream& out) {
  io::CheckpointReader reader(checkpoint_path);
  out << "checkpoint container: " << checkpoint_path << "\n";
  out << "variables (" << reader.variables().size() << "):";
  for (const auto& v : reader.variables()) out << " " << v;
  out << "\niterations: " << reader.iteration_count() << "\n\n";
  struct CodecTotals {
    std::size_t records = 0;
    std::size_t payload_bytes = 0;
    std::size_t raw_bytes = 0;
  };
  std::map<std::string, CodecTotals> per_codec;
  out << "variable  iter  type   codec    postpass    sim-time      "
         "payload-bytes\n";
  for (const auto& v : reader.variables()) {
    for (std::size_t it = 0; it < reader.iteration_count(); ++it) {
      const auto info = reader.info(v, it);
      if (!info) continue;
      // Full validation, not just the index: load() checks the payload CRC
      // and walks every payload, so a bit-flipped container fails
      // inspection instead of inspecting clean and failing at restart.
      const auto step = reader.load(v, it);
      const char* codec_name = codec::require(info->codec_id).name();
      out << "  " << v << "  " << it << "    "
          << (info->type == io::RecordType::kFull ? "full " : "delta") << "  "
          << codec_name << "  " << postpass_label(step) << "  "
          << info->sim_time << "    " << info->payload_size << "\n";
      CodecTotals& t = per_codec[codec_name];
      ++t.records;
      // Exactly the on-disk payload size; raw is what the points would
      // occupy uncompressed.
      t.payload_bytes += step.stored_bytes();
      t.raw_bytes += step.point_count * sizeof(double);
    }
  }
  out << "\nper-codec summary:\n";
  out << "codec     records  payload-bytes  raw-bytes  savings\n";
  for (const auto& [name, t] : per_codec) {
    const double savings =
        t.raw_bytes == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(t.payload_bytes) /
                                 static_cast<double>(t.raw_bytes));
    out << "  " << name << "  " << t.records << "  " << t.payload_bytes
        << "  " << t.raw_bytes << "  " << savings << "%\n";
  }
}

CompactReport compact_file(const CompactJob& job) {
  NUMARCK_EXPECT(job.keep_stride >= 1, "keep stride must be >= 1");
  NUMARCK_EXPECT(job.options.codec_id != codec::kAutoId,
                 "--codec auto is only available through the adaptive "
                 "checkpointing API; pick a concrete codec");
  core::Options opts = job.options;
  opts.postpass = to_postpass(job.postpass);
  opts.validate();
  io::CheckpointReader reader(job.input_path);
  CompactReport report;
  report.input_iterations = reader.iteration_count();
  report.input_bytes = static_cast<std::size_t>(reader.container_bytes());
  NUMARCK_EXPECT(report.input_iterations >= 1, "input container is empty");

  io::RestartEngine engine(reader);
  io::CheckpointWriter writer(job.output_path, reader.variables());
  std::map<std::string, core::VariableCompressor> comps;
  for (const auto& v : reader.variables()) {
    comps.emplace(v, core::VariableCompressor(opts));
  }
  std::size_t out_it = 0;
  for (std::size_t it = 0; it < report.input_iterations;
       it += job.keep_stride) {
    for (const auto& v : reader.variables()) {
      const auto snapshot = engine.reconstruct_variable(v, it);
      writer.append(v, out_it, reader.sim_time(it), comps.at(v).push(snapshot));
    }
    ++out_it;
  }
  writer.close();
  report.kept_iterations = out_it;
  report.output_bytes = writer.bytes_written();
  return report;
}

namespace {

const char* rank_state_name(io::RankFileState s) {
  switch (s) {
    case io::RankFileState::kIntact:
      return "intact";
    case io::RankFileState::kTornTail:
      return "torn-tail";
    case io::RankFileState::kMissing:
      return "missing";
    case io::RankFileState::kUnreadable:
      return "unreadable";
  }
  return "?";
}

void list_single_container(const std::string& path, std::ostream& out) {
  const io::CheckpointReader reader(path, io::TailPolicy::kSalvage);
  out << "checkpoint container: " << path << "\n";
  out << "variables (" << reader.variables().size() << "):";
  for (const auto& v : reader.variables()) out << " " << v;
  out << "\n";
  if (reader.tail_was_damaged()) {
    out << "tail: DAMAGED (torn record dropped; later records unscanned)\n";
  } else {
    out << "tail: intact\n";
  }
  out << "\niteration  sim-time  coverage\n";
  for (std::size_t it = 0; it < reader.iteration_count(); ++it) {
    std::size_t present = 0;
    double sim_time = 0.0;
    for (const auto& v : reader.variables()) {
      const auto info = reader.info(v, it);
      if (info) {
        ++present;
        sim_time = info->sim_time;
      }
    }
    out << "  " << it << "  " << sim_time << "  " << present << "/"
        << reader.variables().size()
        << (present == reader.variables().size() ? " complete" : " PARTIAL")
        << "\n";
  }
  const auto last = reader.last_complete_iteration();
  if (last.has_value()) {
    out << "\nsafe restart target: iteration " << *last << "\n";
  } else {
    out << "\nsafe restart target: NONE (no complete iteration)\n";
  }
}

void list_distributed_base(const std::string& base, std::ostream& out) {
  const io::DistributedRestartEngine engine(base, io::TailPolicy::kSalvage);
  const auto& damage = engine.damage_report();
  out << "distributed checkpoint base: " << base << "\n";
  out << "ranks: " << damage.size() << "\n\nrank  state  last-complete\n";
  for (std::size_t r = 0; r < damage.size(); ++r) {
    const auto& d = damage[r];
    out << "  " << r << "  " << rank_state_name(d.state) << "  ";
    if (d.last_complete.has_value()) {
      out << *d.last_complete;
    } else {
      out << "-";
    }
    if (!d.detail.empty()) out << "  (" << d.detail << ")";
    out << "\n";
  }
  const auto last = engine.last_complete_iteration();
  if (last.has_value()) {
    out << "\nsafe restart target: iteration " << *last
        << (engine.degraded() ? " (degraded set)" : "") << "\n";
  } else {
    out << "\nsafe restart target: NONE (some rank holds no complete "
           "iteration)\n";
  }
}

}  // namespace

void list_checkpoint(const std::string& path, std::ostream& out) {
  namespace fs = std::filesystem;
  if (!fs::exists(path) &&
      fs::exists(io::Manifest::manifest_path(path))) {
    list_distributed_base(path, out);
    return;
  }
  list_single_container(path, out);
}

// -------------------------------------------------------------- store verbs --

void inspect_store_dir(const std::string& dir, std::ostream& out) {
  const auto insp = store::inspect_store(dir);
  out << "checkpoint store: " << dir << "\n";
  out << "variables (" << insp.variables.size() << "):";
  for (const auto& v : insp.variables) out << " " << v;
  out << "\nentries: " << insp.files.size() << "\n\n";
  out << std::left << std::setw(10) << "iteration" << std::setw(9) << "tier"
      << std::setw(10) << "sim-time" << std::setw(12) << "chain"
      << std::setw(14) << "health" << std::setw(8) << "bytes" << "file\n";
  for (const auto& f : insp.files) {
    out << std::left << std::setw(10) << f.entry.iteration << std::setw(9)
        << store::to_string(f.entry.tier) << std::setw(10) << f.entry.sim_time
        << std::setw(12) << (f.entry.reference_free ? "standalone" : "delta")
        << std::setw(14) << store::to_string(f.health) << std::setw(8)
        << f.bytes << f.entry.file;
    if (!f.detail.empty()) out << "  (" << f.detail << ")";
    out << "\n";
  }
  if (!insp.stale_tmps.empty()) {
    out << "\nstale temporaries (swept at next open):\n";
    for (const auto& t : insp.stale_tmps) out << "  " << t << "\n";
  }
  if (!insp.orphans.empty()) {
    out << "\nunacknowledged containers (quarantined at next open):\n";
    for (const auto& o : insp.orphans) out << "  " << o << "\n";
  }
  if (!insp.quarantined.empty()) {
    out << "\nquarantined files:\n";
    for (const auto& q : insp.quarantined) out << "  " << q << "\n";
  }
}

std::size_t store_put(const StorePutJob& job) {
  namespace fs = std::filesystem;
  const std::vector<double> raw = read_doubles(job.input_path);
  NUMARCK_EXPECT(!raw.empty(), "input file is empty: " + job.input_path);
  std::unique_ptr<store::CheckpointStore> s;
  if (fs::exists(std::string(job.dir) + "/" +
                 store::CheckpointStore::kManifestName)) {
    s = std::make_unique<store::CheckpointStore>(job.dir);
  } else {
    s = std::make_unique<store::CheckpointStore>(
        job.dir, std::vector<std::string>{job.variable});
  }
  NUMARCK_EXPECT(s->variables().size() == 1,
                 "store-put drives a single-variable store");
  std::map<std::string, core::CompressedStep> steps;
  steps.emplace(s->variables().front(), core::CompressedStep::full_from(raw));
  s->put(job.iteration, job.sim_time, steps);
  return s->list().size();
}

StoreRestoreReport store_restore(const StoreRestoreJob& job) {
  const store::CheckpointStore s(job.dir);
  std::string variable = job.variable;
  if (variable.empty()) {
    NUMARCK_EXPECT(s.variables().size() == 1,
                   "store has several variables; pass --var");
    variable = s.variables().front();
  }
  StoreRestoreReport report;
  if (job.iteration.has_value()) {
    report.iteration = *job.iteration;
  } else {
    const auto latest = s.latest();
    NUMARCK_EXPECT(latest.has_value(), "store is empty: " + job.dir);
    report.iteration = *latest;
  }
  const auto snapshot = s.get_variable(variable, report.iteration);
  write_doubles(job.output_path, snapshot);
  report.points = snapshot.size();
  return report;
}

void store_prune(const StorePruneJob& job, std::ostream& out) {
  store::CheckpointStore s(job.dir);
  const auto report = s.prune(job.keep_last, job.keep_every);
  out << "pruned " << job.dir << ": kept " << report.kept << ", dropped "
      << report.dropped << ", rewrote " << report.rewritten
      << " standalone\n";
}

void store_promote(const std::string& dir, std::size_t iteration,
                   const std::string& tier, std::ostream& out) {
  store::Tier t = store::Tier::kBest;
  if (tier == "best") {
    t = store::Tier::kBest;
  } else if (tier == "epoch") {
    t = store::Tier::kEpoch;
  } else if (tier == "rolling") {
    t = store::Tier::kRolling;
  } else {
    NUMARCK_EXPECT(false, "unknown tier (want best | epoch | rolling): " + tier);
  }
  store::CheckpointStore s(dir);
  s.promote(iteration, t);
  out << "iteration " << iteration << " is now tier " << tier << "\n";
}

void store_compact(const std::string& dir, std::ostream& out) {
  store::CheckpointStore s(dir);
  std::size_t merged = 0;
  while (s.compact_once()) ++merged;
  out << "compacted " << dir << ": merged " << merged
      << (merged == 1 ? " entry" : " entries") << " into standalone form\n";
}

RestoreReport restore_file(const RestoreJob& job) {
  io::CheckpointReader reader(
      job.checkpoint_path,
      job.strict ? io::TailPolicy::kStrict : io::TailPolicy::kSalvage);
  std::string variable = job.variable;
  if (variable.empty()) {
    NUMARCK_EXPECT(reader.variables().size() == 1,
                   "container has several variables; pass --var");
    variable = reader.variables().front();
  }
  RestoreReport report;
  report.tail_damaged = reader.tail_was_damaged();
  report.last_complete = reader.last_complete_iteration();
  if (job.iteration.has_value()) {
    report.iteration = *job.iteration;
  } else {
    NUMARCK_EXPECT(report.last_complete.has_value(),
                   "no complete iteration to restore: " + job.checkpoint_path);
    report.iteration = *report.last_complete;
  }
  if (!job.expected_codec.empty()) {
    const codec::Codec* want = codec::find(std::string_view(job.expected_codec));
    NUMARCK_EXPECT(want != nullptr,
                   "unknown codec (want numarck | fpc | isabela | bspline): " +
                       job.expected_codec);
    // Every delta record that feeds the requested restore must carry the
    // expected codec; fulls are structural (always lossless) and exempt.
    for (std::size_t it = 0; it <= report.iteration; ++it) {
      const auto info = reader.info(variable, it);
      if (!info || info->type != io::RecordType::kDelta) continue;
      NUMARCK_EXPECT(
          info->codec_id == want->id(),
          std::string("container records use codec ") +
              codec::require(info->codec_id).name() + ", expected " +
              job.expected_codec);
    }
  }
  io::RestartEngine engine(reader);
  const auto snapshot = engine.reconstruct_variable(variable, report.iteration);
  write_doubles(job.output_path, snapshot);
  report.points = snapshot.size();
  return report;
}

}  // namespace numarck::tools
