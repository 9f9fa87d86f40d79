// The pipeline cost ledger: in-memory spans recorded around the calls the
// benchmark makes into each layer, plus the timing/counting wrappers that
// plug into the I/O layer's public extension points (ByteSink, ByteSource).
//
// A span is (name, start, end, parent, operation id). Spans nest strictly on
// one thread, so a layer's self time is its duration minus the durations of
// its direct children. Side measurements (re-runs of a layer's work off the
// measured path) are recorded as parentless "side" spans and never count
// toward any parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "numarck/io/byte_source.hpp"
#include "numarck/io/durable_file.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int32_t parent = -1;
  std::uint32_t op = 0;  ///< checkpoint or restore number within the run
  bool side = false;
};

/// One recorder per thread. When disabled every call is a no-op, so the
/// untraced episodes run the same benchmark code without span overhead.
class Tracer {
 public:
  bool enabled = false;
  std::uint32_t op = 0;

  std::int32_t open(const char* name) {
    if (!enabled) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    spans_.push_back(s);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    spans_.back().t0 = now_ns();
    return id;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = now_ns();
    stack_.pop_back();
  }

  /// Records an off-path measurement that is excluded from every sum.
  void side(const char* name, std::int64_t t0, std::int64_t t1) {
    if (!enabled) return;
    Span s;
    s.name = name;
    s.t0 = t0;
    s.t1 = t1;
    s.op = op;
    s.side = true;
    spans_.push_back(s);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

/// Per-name totals over a set of spans.
struct LayerTotals {
  std::map<std::string, double> dur_s;   ///< summed durations
  std::map<std::string, double> self_s;  ///< summed self times
  std::map<std::string, std::size_t> calls;
  double root_s = 0.0;       ///< summed durations of parentless spans
  double root_self_s = 0.0;  ///< the part of them no child covers
};

inline void accumulate(const std::vector<Span>& spans, LayerTotals& out) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.t1 - s.t0) * 1e-9;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.t1 - s.t0) * 1e-9;
    out.dur_s[s.name] += dur;
    out.self_s[s.name] += dur - child[i];
    ++out.calls[s.name];
    if (s.parent < 0 && !s.side) {
      out.root_s += dur;
      out.root_self_s += dur - child[i];
    }
  }
}

/// Appends `spans` as JSONL (one object per span) to `f`.
inline void write_jsonl(std::FILE* f, const std::vector<Span>& spans,
                        unsigned thread) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"thread\":%u,\"id\":%zu,\"parent\":%d,\"op\":%u,"
                 "\"name\":\"%s\",\"t0_ns\":%lld,\"t1_ns\":%lld,\"side\":%s}\n",
                 thread, i, s.parent, s.op, s.name,
                 static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                 s.side ? "true" : "false");
  }
}

/// Byte counts the wrappers see, per episode.
struct IoBytes {
  std::uint64_t write_bytes = 0;
  std::uint64_t manifest_bytes = 0;  ///< writes into store manifest temporaries
  std::uint64_t read_bytes = 0;
};

/// Forwards to an inner sink, timing write and sync as io.write / io.fsync
/// spans and counting the bytes.
class TimingSink final : public numarck::io::ByteSink {
 public:
  TimingSink(std::unique_ptr<numarck::io::ByteSink> inner, Tracer& tracer,
             IoBytes& bytes, bool manifest)
      : inner_(std::move(inner)),
        tracer_(tracer),
        bytes_(bytes),
        manifest_(manifest) {}

  void write(const void* data, std::size_t size) override {
    Scope s(tracer_, "io.write");
    inner_->write(data, size);
    bytes_.write_bytes += size;
    if (manifest_) bytes_.manifest_bytes += size;
  }
  void sync() override {
    Scope s(tracer_, "io.fsync");
    inner_->sync();
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<numarck::io::ByteSink> inner_;
  Tracer& tracer_;
  IoBytes& bytes_;
  bool manifest_;
};

/// Forwards to an inner source, timing every read_at as an io.read span.
class TimingSource final : public numarck::io::ByteSource {
 public:
  TimingSource(std::unique_ptr<numarck::io::ByteSource> inner, Tracer& tracer,
               IoBytes& bytes)
      : inner_(std::move(inner)), tracer_(tracer), bytes_(bytes) {}

  [[nodiscard]] std::uint64_t size() const noexcept override {
    return inner_->size();
  }
  void read_at(std::uint64_t offset, void* out, std::size_t size) override {
    Scope s(tracer_, "io.read");
    inner_->read_at(offset, out, size);
    bytes_.read_bytes += size;
  }
  [[nodiscard]] const std::string& name() const noexcept override {
    return inner_->name();
  }

 private:
  std::unique_ptr<numarck::io::ByteSource> inner_;
  Tracer& tracer_;
  IoBytes& bytes_;
};

}  // namespace perfbench
