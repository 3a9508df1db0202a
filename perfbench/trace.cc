#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

std::int64_t SpanRecorder::Open(const char* name, std::int64_t parent,
                                std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_s = clock_->ElapsedSeconds();
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::Close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = clock_->ElapsedSeconds();
}

std::vector<SpanSummary> Summarize(const std::vector<SpanRecorder>& recorders) {
  std::map<std::string, SpanSummary> by_name;
  for (const SpanRecorder& recorder : recorders) {
    const std::vector<Span>& spans = recorder.spans();
    // Children close before their parent, and a parent's children do not
    // overlap each other (one thread), so their durations sum to the
    // covered part of the parent.
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        covered[static_cast<std::size_t>(span.parent)] +=
            span.end_s - span.start_s;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanSummary& summary = by_name[spans[i].name];
      summary.name = spans[i].name;
      const double duration = spans[i].end_s - spans[i].start_s;
      ++summary.count;
      summary.total_s += duration;
      summary.self_s += std::max(0.0, duration - covered[i]);
    }
  }
  std::vector<SpanSummary> out;
  for (auto& [name, summary] : by_name) out.push_back(summary);
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<SpanRecorder>& recorders) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"spans\": [\n");
  bool first = true;
  for (std::size_t thread = 0; thread < recorders.size(); ++thread) {
    for (const Span& span : recorders[thread].spans()) {
      std::fprintf(file,
                   "%s{\"name\": \"%s\", \"thread\": %zu, \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %lld, \"request\": %llu}",
                   first ? "" : ",\n", span.name, thread, span.start_s * 1e6,
                   span.end_s * 1e6, static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.request));
      first = false;
    }
  }
  std::fprintf(file, "\n], \"summary\": [\n");
  first = true;
  for (const SpanSummary& summary : Summarize(recorders)) {
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"count\": %llu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}",
                 first ? "" : ",\n", summary.name.c_str(),
                 static_cast<unsigned long long>(summary.count),
                 summary.total_s, summary.self_s);
    first = false;
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

double SpanCostNs() {
  constexpr int kSpans = 200'000;
  const mhbc::WallTimer clock;
  SpanRecorder recorder(&clock, true);
  const mhbc::WallTimer timer;
  for (int i = 0; i < kSpans; ++i) {
    const ScopedSpan span(&recorder, "probe", -1,
                          static_cast<std::uint64_t>(i));
  }
  return timer.ElapsedSeconds() * 1e9 / kSpans;
}

}  // namespace perfbench
