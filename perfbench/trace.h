#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/timer.h"

/// \file
/// Spans recorded by the benchmark around each public library call it
/// makes (ingest, catalog build, Server::Call, EstimateMany, RankTargets).
/// Spans live in memory until the run ends; each thread records into its
/// own SpanRecorder, so recording takes no lock. All recorders of a run
/// read one shared clock, so their spans share a time axis.

namespace perfbench {

/// One timed call. `parent` indexes the same recorder (-1 for a root);
/// every span of one request carries that request's id.
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Per-thread span store. A disabled recorder records nothing and costs
/// one branch per call.
class SpanRecorder {
 public:
  SpanRecorder(const mhbc::WallTimer* clock, bool enabled)
      : clock_(clock), enabled_(enabled) {}

  /// Opens a span and returns its index (-1 when disabled).
  std::int64_t Open(const char* name, std::int64_t parent,
                    std::uint64_t request);
  void Close(std::int64_t index);

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const mhbc::WallTimer* clock_;
  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::int64_t parent = -1, std::uint64_t request = 0)
      : recorder_(recorder),
        index_(recorder->Open(name, parent, request)) {}
  ~ScopedSpan() { recorder_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t index_;
};

/// Per-name totals: call count, summed duration, and summed self time
/// (duration minus the part of it that child spans cover).
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::vector<SpanSummary> Summarize(const std::vector<SpanRecorder>& recorders);

/// Writes every span as JSON (one object per line inside "spans"), plus
/// the per-name summary. Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<SpanRecorder>& recorders);

/// Measured cost of one Open + Close pair on this host, in nanoseconds.
double SpanCostNs();

}  // namespace perfbench
