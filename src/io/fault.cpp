#include "numarck/io/fault.hpp"

#include <algorithm>
#include <csignal>
#include <cstring>

#include "numarck/util/expect.hpp"

namespace numarck::io {

// -------------------------------------------------------------- FaultPlan --

FaultPlan& FaultPlan::crash_at(std::uint64_t byte, Death death) {
  crash_byte_ = byte;
  death_ = death;
  return *this;
}

FaultPlan& FaultPlan::fail(Op op, std::size_t after, int err) {
  fail_op_ = op;
  fail_after_ = after;
  err_ = err;
  return *this;
}

FaultPlan& FaultPlan::only_paths_ending(std::string suffix) {
  suffix_ = std::move(suffix);
  return *this;
}

void FaultPlan::count(Op op) {
  const std::size_t before = calls_[static_cast<std::size_t>(op)].fetch_add(
      1, std::memory_order_relaxed);
  if (op != fail_op_ || before < fail_after_) return;
  static constexpr const char* kWhat[] = {
      "checkpoint write", "fsync", "checkpoint close", "checkpoint read"};
  NUMARCK_EXPECT(false, std::string(kWhat[static_cast<std::size_t>(op)]) +
                            " failed (injected): " + std::strerror(err_));
}

std::size_t FaultPlan::admit(std::size_t size) {
  const std::uint64_t before =
      written_.fetch_add(size, std::memory_order_relaxed);
  if (before + size <= crash_byte_) return size;
  return static_cast<std::size_t>(crash_byte_ - std::min(before, crash_byte_));
}

void FaultPlan::die() const {
  if (death_ == Death::kSigkill) {
    // The real thing: no unwinding, no flush, no destructors — the kernel
    // reclaims the process with whatever bytes already hit the file.
    (void)::raise(SIGKILL);
  }
  throw InjectedCrash("injected crash: write budget exhausted");
}

// ------------------------------------------------------------- FaultySink --

FaultySink::FaultySink(std::unique_ptr<ByteSink> inner,
                       std::shared_ptr<FaultPlan> plan)
    : inner_(std::move(inner)), plan_(std::move(plan)) {
  NUMARCK_EXPECT(inner_ != nullptr && plan_ != nullptr,
                 "FaultySink needs an inner sink and a plan");
}

void FaultySink::write(const void* data, std::size_t size) {
  if (dead_) return;
  plan_->count(FaultPlan::Op::kWrite);
  const std::size_t landed = plan_->admit(size);
  if (landed > 0) inner_->write(data, landed);
  if (landed == size) return;
  dead_ = true;
  plan_->die();
}

void FaultySink::sync() {
  if (dead_) return;
  plan_->count(FaultPlan::Op::kSync);
  inner_->sync();
}

void FaultySink::close() {
  if (dead_) return;
  plan_->count(FaultPlan::Op::kClose);
  inner_->close();
}

// ----------------------------------------------------------- FaultySource --

FaultySource::FaultySource(std::unique_ptr<ByteSource> inner,
                           std::shared_ptr<FaultPlan> plan)
    : inner_(std::move(inner)), plan_(std::move(plan)) {
  NUMARCK_EXPECT(inner_ != nullptr && plan_ != nullptr,
                 "FaultySource needs an inner source and a plan");
}

void FaultySource::read_at(std::uint64_t offset, void* out, std::size_t size) {
  plan_->count(FaultPlan::Op::kRead);
  inner_->read_at(offset, out, size);
}

// ------------------------------------------------------------ faulty_files --

SinkFactory faulty_files(std::shared_ptr<FaultPlan> plan) {
  return [plan = std::move(plan)](
             const std::string& path) -> std::unique_ptr<ByteSink> {
    auto sink = std::make_unique<FileSink>(path);
    if (!plan->applies_to(path)) return sink;
    return std::make_unique<FaultySink>(std::move(sink), plan);
  };
}

}  // namespace numarck::io
