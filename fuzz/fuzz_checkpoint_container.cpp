// Fuzz target: the checkpoint container reader (header scan, record index,
// CRC-verified load) and the chain-replay restore path under both tail
// policies.
//
// kStrict must reject any structural damage with ContractViolation; kSalvage
// must additionally survive arbitrary tails, keeping every record before the
// damage loadable (or cleanly rejecting it on CRC/deserialize failure).
// Container v2 records carry a codec-id byte: the scan must reject unknown
// codec ids and full records tagged with a temporal codec BEFORE sizing any
// allocation from the record (seeds: unknown_codec_id, full_temporal_codec),
// and v1 images (no codec byte) must keep parsing as implicit FPC/NUMARCK.
//
// Every variable is also restored through RestartEngine at each iteration
// that holds a record. That path reads records CRC-checked only and leaves
// the structural checks to Codec::decode, so the only accepted outcomes are
// a restore or a ContractViolation (seeds forged_*: valid CRC, broken
// payload).
//
// The reader is backed by io::ContainerScanner over an io::MemorySource, so
// this target covers the whole-buffer policy/load surface; fuzz_scanner
// covers chunk-boundary invariance of the same scan.
#include <cstdint>

#include "numarck/io/checkpoint_file.hpp"
#include "numarck/util/expect.hpp"

namespace {

void probe(const numarck::io::CheckpointReader& reader) {
  const auto last = reader.last_complete_iteration();
  (void)last;
  const numarck::io::RestartEngine engine(reader);
  for (const auto& v : reader.variables()) {
    for (std::size_t it = 0; it < reader.iteration_count(); ++it) {
      if (!reader.info(v, it)) continue;
      try {
        (void)reader.load(v, it);
      } catch (const numarck::ContractViolation&) {
        // Torn payload / CRC mismatch / malformed record — clean rejection.
      }
      try {
        (void)engine.reconstruct_variable(v, it);
      } catch (const numarck::ContractViolation&) {
        // Broken chain or a record decode rejects — clean rejection.
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> image(data, size);
  try {
    const numarck::io::CheckpointReader reader(
        image, numarck::io::TailPolicy::kStrict);
    probe(reader);
  } catch (const numarck::ContractViolation&) {
  }
  try {
    const numarck::io::CheckpointReader reader(
        image, numarck::io::TailPolicy::kSalvage);
    probe(reader);
  } catch (const numarck::ContractViolation&) {
    // Salvage still rejects files whose *header* is damaged.
  }
  return 0;
}
