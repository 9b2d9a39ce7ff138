// Spans the benchmark records around each public call it makes into the
// simulator. A traced pass opens one span per call (chip build, workload
// init, barrier construction, the run, metric collection, validation,
// teardown) under one span per simulation run, under one span per pass.
// Spans of one simulation run share its run id. Spans stay in memory
// and are written when the benchmark ends; the per-layer numbers and
// self times are derived from them.
//
// Tracing inside the simulator is not part of this: spans start and
// end in the benchmark's own files, at layer boundaries.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace glbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint32_t id = 0;
  /// Enclosing span's id; 0 for a pass span (ids start at 1).
  std::uint32_t parent = 0;
  /// Simulation run (operation) the span belongs to; -1 for pass spans.
  std::int64_t run = -1;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Per-name totals over a set of spans: summed duration, and summed
/// self time (duration minus the time its direct children cover).
struct SpanTotals {
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its id.
  std::uint32_t Open(const char* name, std::int64_t run, Clock::time_point at);
  void Close(std::uint32_t id, Clock::time_point at);

  /// Index one past the last recorded span (to slice out one pass).
  std::size_t size() const { return spans_.size(); }

  /// Totals per span name over spans [first, last).
  std::map<std::string, SpanTotals> Totals(std::size_t first, std::size_t last) const;

  /// Writes every span as one JSON document.
  void Write(std::ostream& os) const;

 private:
  std::uint64_t Ns(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // ids of the open spans, innermost last
};

/// Times one call. Always adds its elapsed seconds to `*acc_s` (when
/// non-null); records a span only when `tracer` is non-null, from the
/// same two clock readings, so a traced and an untraced pass differ by
/// the span bookkeeping alone.
class Timed {
 public:
  Timed(Tracer* tracer, const char* name, std::int64_t run, double* acc_s = nullptr)
      : tracer_(tracer), acc_s_(acc_s), start_(Clock::now()) {
    if (tracer_ != nullptr) id_ = tracer_->Open(name, run, start_);
  }
  ~Timed() {
    const Clock::time_point end = Clock::now();
    if (acc_s_ != nullptr) *acc_s_ += std::chrono::duration<double>(end - start_).count();
    if (tracer_ != nullptr) tracer_->Close(id_, end);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer* tracer_;
  double* acc_s_;
  Clock::time_point start_;
  std::uint32_t id_ = 0;
};

}  // namespace glbench
