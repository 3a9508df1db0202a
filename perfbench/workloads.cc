#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>

#include "centrality/engine.h"
#include "core/theory.h"
#include "exact/dependency_oracle.h"
#include "graph/ingest.h"
#include "util/thread_pool.h"

namespace perfbench {

using mhbc::BetweennessEngine;
using mhbc::CsrGraph;
using mhbc::EstimateReport;
using mhbc::EstimateRequest;
using mhbc::VertexId;
using mhbc::WallTimer;
using mhbc::serve::WireReport;

namespace {

// Set-up is timed this many times per run and reported as the median:
// one allocation-heavy set-up moves 10-20% between identical runs.
constexpr int kSetupRepeats = 11;
// Windows of the timed phase for the end-to-end medians (AddEndToEnd). A
// cold run completes ~8 reads/s, too few for a p90 per window.
constexpr std::size_t kColdWindows = 1;
constexpr std::size_t kChurnWindows = 10;

// cold-estimate: one analyst session = a fresh engine, EstimateMany over
// the three targets, then RankTargets on them: ~160 passes, ~80 ms on an
// idle 4-vCPU x86-64 host (GCC 12, -O3).
constexpr std::uint64_t kColdSamples = 64;
constexpr std::uint64_t kColdRankIterations = 64;
// The rank chain gets its own seed: with the estimate's seed its
// proposals would repeat the estimate's and hit the memo.
constexpr std::uint64_t kRankSeedSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::size_t kColdReplays = 8;
// Stated tolerance of the exact check: the mean mh estimate lies between
// the exact betweenness (what an unbiased estimator converges to) and the
// chain limit E_pi[f] (what the mh chain converges to, core/theory.h),
// widened by this factor on both sides.
constexpr double kExactTolerance = 2.0;
// A 64-step joint chain may misorder the targets; at most this share of
// sessions may rank another target above the exact top one.
constexpr double kMisrankTolerance = 0.25;

constexpr std::uint64_t kChurnSamples = 200;
// Warm-up proposals per vertex and session: 16n uniform proposals leave a
// given source unproposed with probability e^-16.
constexpr std::uint64_t kWarmProposalsPerVertex = 16;
constexpr std::size_t kServeReplays = 24;
// Lines replayed through ParseServeRequest / the formatters.
constexpr std::size_t kFormatReplayLines = 2000;

bool ReportsIdentical(const EstimateReport& a, const EstimateReport& b) {
  return a.value == b.value && a.std_error == b.std_error &&
         a.ci_half_width == b.ci_half_width && a.ess == b.ess &&
         a.acceptance_rate == b.acceptance_rate &&
         a.samples_used == b.samples_used && a.converged == b.converged;
}

bool WireMatches(const WireReport& wire, const EstimateReport& cold) {
  return wire.vertex == cold.vertex && wire.value == cold.value &&
         wire.std_error == cold.std_error &&
         wire.ci_half_width == cold.ci_half_width && wire.ess == cold.ess &&
         wire.acceptance_rate == cold.acceptance_rate &&
         wire.samples_used == cold.samples_used &&
         wire.converged == cold.converged && !wire.deadline_flagged;
}

EstimateRequest MhRequest(std::uint64_t samples, std::uint64_t seed) {
  EstimateRequest request;
  request.kind = mhbc::EstimatorKind::kMetropolisHastings;
  request.samples = samples;
  request.seed = seed;
  return request;
}

double MetricValue(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

/// The five end-to-end metrics every workload reports. The timed phase is
/// cut into `windows` equal windows by completion time, the last running to
/// the last completion; throughput and the latency quantiles are the median
/// over the windows of each window's own figure, so host contention that
/// covers fewer than half of the windows does not move them. Each window
/// must hold enough reads for its p90 (at least a hundred).
void AddEndToEnd(Outcome* out, const std::vector<double>& setup_s,
                 double peak_rss_mb, const std::vector<Completion>& reads,
                 double seconds, std::size_t windows) {
  double last_s = seconds;
  for (const Completion& read : reads) last_s = std::max(last_s, read.done_s);
  const double width = seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> latencies(windows);
  for (const Completion& read : reads) {
    const auto w = static_cast<std::size_t>(read.done_s / width);
    latencies[std::min(w, windows - 1)].push_back(read.latency_ms);
  }
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p90;
  for (std::size_t w = 0; w < windows; ++w) {
    if (latencies[w].empty()) continue;
    const double begin = static_cast<double>(w) * width;
    const double end = w + 1 == windows ? last_s : begin + width;
    rate.push_back(static_cast<double>(latencies[w].size()) / (end - begin));
    p50.push_back(Quantile(latencies[w], 0.5));
    p90.push_back(Quantile(latencies[w], 0.9));
  }
  const auto n = static_cast<std::uint64_t>(reads.size());
  const std::string how =
      windows == 1 ? "over the timed phase"
                   : "median over " + std::to_string(windows) + " windows";
  out->end_to_end = {
      Metric{"setup_s", Quantile(setup_s, 0.5), "s", setup_s.size(),
             "median of the timed set-ups"},
      Metric{"peak_rss_mb", peak_rss_mb, "MB", 1, "VmHWM over the timed phase"},
      Metric{"reads_per_s", Quantile(rate, 0.5), "1/s", n,
             "completed reads per second, " + how},
      Metric{"read_p50_ms", Quantile(p50, 0.5), "ms", n,
             "read latency p50, " + how},
      Metric{"read_p90_ms", Quantile(p90, 0.5), "ms", n,
             "read latency p90, " + how},
  };
}

/// Parse / format replay over a workload's own request lines and reports.
void AddProtocolReplay(Outcome* out, const std::vector<std::string>& lines,
                       const std::vector<std::vector<WireReport>>& reports) {
  std::vector<double> parse_us;
  std::vector<double> format_us;
  std::size_t bytes = 0;
  for (const std::string& line : lines) {
    mhbc::serve::ServeRequest request;
    mhbc::serve::ServeError error;
    const WallTimer timer;
    const bool parsed = mhbc::serve::ParseServeRequest(
        line, std::size_t{1} << 20, &request, &error);
    parse_us.push_back(timer.ElapsedSeconds() * 1e6);
    if (!parsed) {
      out->Fail("replayed request line did not parse: " + error.message);
    }
  }
  mhbc::serve::ServeRequest request;
  request.method = mhbc::serve::ServeMethod::kEstimate;
  request.graph = kGraphName;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    request.id = i;
    request.has_id = true;
    const WallTimer timer;
    const std::string response = mhbc::serve::FormatOkResponse(
        request, 0, 1.0, mhbc::serve::FormatEstimateResult(reports[i]));
    format_us.push_back(timer.ElapsedSeconds() * 1e6);
    bytes += response.size();
  }
  out->layers.push_back(Metric{"serve.parse_us", Mean(parse_us), "us",
                               parse_us.size(), "ParseServeRequest replay"});
  const std::size_t bytes_per_response =
      format_us.empty() ? 0 : bytes / format_us.size();
  out->layers.push_back(
            Metric{"serve.format_us", Mean(format_us), "us", format_us.size(),
                   "FormatEstimateResult + FormatOkResponse replay (" +
                       std::to_string(bytes_per_response) + " B/response)"});
}

/// Span totals for the printed table, plus the span file when asked for.
void AddSpans(Outcome* out, const RunConfig& config,
              const std::vector<SpanRecorder>& recorders) {
  out->spans = Summarize(recorders);
  if (!config.trace_path.empty() && !WriteSpans(config.trace_path, recorders)) {
    out->notes.push_back("could not write " + config.trace_path);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

mhbc::StatusOr<Inputs> LoadInputs(const std::string& dir) {
  Inputs inputs;
  std::ifstream manifest(dir + "/manifest.txt");
  if (!manifest) {
    return mhbc::Status::NotFound("no manifest.txt in " + dir);
  }
  std::map<std::string, std::string> fields;
  std::string line;
  while (std::getline(manifest, line)) {
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) {
      fields[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
  if (fields.count("workload") == 0 || fields.count("request_seed") == 0 ||
      fields.count("deltas") == 0) {
    return mhbc::Status::InvalidArgument("incomplete manifest in " + dir);
  }
  inputs.workload = fields["workload"];
  inputs.graph_path = dir + "/graph.txt";
  inputs.request_seed = std::stoull(fields["request_seed"]);
  const std::size_t deltas = std::stoull(fields["deltas"]);
  for (std::size_t i = 0; i < deltas; ++i) {
    char name[40];
    std::snprintf(name, sizeof(name), "/delta_%04zu.edits", i);
    const std::string path = dir + name;
    auto delta = mhbc::ParseEditScript(path);
    if (!delta.ok()) return delta.status();
    inputs.deltas.push_back(std::move(delta).value());
    std::ifstream file(path);
    std::stringstream text;
    text << file.rdbuf();
    inputs.delta_texts.push_back(text.str());
  }
  return inputs;
}

std::vector<VertexId> PickTargets(const CsrGraph& graph) {
  std::vector<VertexId> order(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(),
                   [&graph](VertexId a, VertexId b) {
                     return graph.degree(a) < graph.degree(b);
                   });
  return {order.back(), order[order.size() / 2], order.front()};
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 10 && stat; ++field) {
    std::uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::string StealNote(const HostTicks& start, const HostTicks& end) {
  const double total = static_cast<double>(end.total - start.total);
  char note[96];
  const double steal = static_cast<double>(end.steal - start.steal);
  std::snprintf(note, sizeof(note),
                "host steal time during the timed phase: %.1f%% of CPU time",
                total > 0.0 ? 100.0 * steal / total : 0.0);
  return note;
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double MemoEntryBytes(const CsrGraph& graph) {
  const double per_vertex =
      graph.weighted() ? sizeof(double) + sizeof(double)
                       : sizeof(double) + sizeof(std::uint32_t);
  return per_vertex * graph.num_vertices();
}

mhbc::StatusOr<std::vector<CsrGraph>> EpochGraphs(
    const CsrGraph& base, const std::vector<mhbc::GraphDelta>& deltas,
    std::size_t count) {
  std::vector<CsrGraph> epochs;
  mhbc::DynamicGraph dynamic(base);
  epochs.push_back(dynamic.Csr());
  for (std::size_t i = 0; i < count && i < deltas.size(); ++i) {
    const mhbc::Status applied = dynamic.Apply(deltas[i]);
    if (!applied.ok()) return applied;
    epochs.push_back(dynamic.Csr());
  }
  return epochs;
}

// ---------------------------------------------------------------------------
// cold-estimate
// ---------------------------------------------------------------------------

namespace {

struct Session {
  std::uint64_t seed = 0;
  bool ok = false;
  std::vector<EstimateReport> reports;
  std::vector<std::size_t> order;
  std::uint64_t passes = 0;
};

/// One analyst session on a fresh sequential engine. Spans: EstimateMany
/// and RankTargets under the caller's `parent` span.
Session RunSession(const CsrGraph& graph, const std::vector<VertexId>& targets,
                   std::uint64_t seed, SpanRecorder* spans,
                   std::int64_t parent) {
  Session session;
  session.seed = seed;
  BetweennessEngine engine(graph);
  mhbc::StatusOr<std::vector<EstimateReport>> reports =
      mhbc::Status::FailedPrecondition("not run");
  {
    const ScopedSpan span(spans, "EstimateMany", parent, seed);
    reports = engine.EstimateMany(targets, MhRequest(kColdSamples, seed));
  }
  mhbc::StatusOr<std::vector<std::size_t>> order =
      mhbc::Status::FailedPrecondition("not run");
  {
    const ScopedSpan span(spans, "RankTargets", parent, seed);
    order = engine.RankTargets(targets, kColdRankIterations,
                               seed ^ kRankSeedSalt);
  }
  session.ok = reports.ok() && order.ok() &&
               reports.value().size() == targets.size() &&
               order.value().size() == targets.size();
  if (session.ok) {
    session.reports = std::move(reports).value();
    session.order = std::move(order).value();
  }
  session.passes = engine.total_sp_passes();
  return session;
}

/// Exact betweenness of each target and its dependency profile
/// [delta_{s.}(r)]_s, from one Brandes sweep over every source, run
/// source-parallel on the library's pool.
void ExactProfiles(const CsrGraph& graph, const std::vector<VertexId>& targets,
                   std::vector<double>* exact_bc,
                   std::vector<std::vector<double>>* profiles) {
  const VertexId n = graph.num_vertices();
  profiles->assign(targets.size(), std::vector<double>(n, 0.0));
  mhbc::ThreadPool pool(std::min(4u, mhbc::ResolveThreadCount(0)));
  std::vector<std::unique_ptr<mhbc::DependencyOracle>> oracles(
      pool.num_threads());
  constexpr std::size_t kChunks = 64;
  pool.ParallelFor(kChunks, [&](unsigned worker, std::size_t chunk) {
    if (!oracles[worker]) {
      oracles[worker] = std::make_unique<mhbc::DependencyOracle>(graph);
    }
    const auto [begin, end] = mhbc::ShardBounds(n, chunk, kChunks);
    for (std::size_t s = begin; s < end; ++s) {
      const std::vector<double>& deps =
          oracles[worker]->Dependencies(static_cast<VertexId>(s));
      for (std::size_t t = 0; t < targets.size(); ++t) {
        (*profiles)[t][s] = deps[targets[t]];
      }
    }
  });
  exact_bc->assign(targets.size(), 0.0);
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    double sum = 0.0;
    for (const double d : (*profiles)[t]) sum += d;
    (*exact_bc)[t] = sum / pairs;
  }
}

}  // namespace

Outcome RunColdEstimate(const Inputs& inputs, const RunConfig& config) {
  Outcome out;
  const WallTimer clock;
  std::vector<SpanRecorder> recorders(1, SpanRecorder(&clock, config.trace));
  SpanRecorder& spans = recorders.front();

  // --- set-up: ingest + one warm-up session, timed kSetupRepeats times.
  std::vector<double> setup_s;
  std::vector<double> ingest_s;
  mhbc::GraphSource source;
  std::vector<VertexId> targets;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const ScopedSpan setup(&spans, "setup");
    const WallTimer timer;
    mhbc::StatusOr<mhbc::GraphSource> opened =
        mhbc::Status::FailedPrecondition("not opened");
    {
      const ScopedSpan span(&spans, "OpenGraphSource", setup.index());
      opened = mhbc::OpenGraphSource(inputs.graph_path);
    }
    ingest_s.push_back(timer.ElapsedSeconds());
    if (!opened.ok()) {
      out.Fail("ingest: " + opened.status().ToString());
      return out;
    }
    source = std::move(opened).value();
    targets = PickTargets(source.graph());
    const Session warm =
        RunSession(source.graph(), targets, inputs.request_seed - 1 - repeat,
                   &spans, setup.index());
    if (!warm.ok) out.Fail("warm-up session failed");
    setup_s.push_back(timer.ElapsedSeconds());
  }
  const CsrGraph& graph = source.graph();

  // --- timed phase: back-to-back sessions (one closed-loop client).
  std::vector<Session> sessions;
  std::vector<Completion> completions;
  const bool rss_reset = ResetPeakRss();
  const HostTicks ticks_before = ReadHostTicks();
  const WallTimer phase;
  for (std::uint64_t i = 0; phase.ElapsedSeconds() < config.seconds; ++i) {
    const std::uint64_t seed = inputs.request_seed + i;
    const ScopedSpan read(&spans, "read", -1, seed);
    const WallTimer timer;
    sessions.push_back(RunSession(graph, targets, seed, &spans, read.index()));
    completions.push_back(
        {phase.ElapsedSeconds(), timer.ElapsedSeconds() * 1e3});
  }
  out.notes.push_back(StealNote(ticks_before, ReadHostTicks()));
  const double peak_rss_mb = PeakRssMb();
  if (!rss_reset) {
    out.notes.push_back("peak RSS could not be reset; lifetime peak");
  }

  // --- correctness (outside the timed phase).
  out.attempted = sessions.size();
  for (const Session& session : sessions) {
    bool good = session.ok;
    for (const EstimateReport& report : session.reports) {
      good = good && std::isfinite(report.value) && report.value >= 0.0 &&
             report.value <= 1.0 && report.samples_used == kColdSamples;
    }
    if (!good) ++out.failed;
  }
  // Bit-identity: a seeded sample of sessions re-run on a fresh engine.
  const std::size_t stride =
      std::max<std::size_t>(1, sessions.size() / kColdReplays);
  std::size_t replayed = 0;
  for (std::size_t i = inputs.request_seed % stride; i < sessions.size();
       i += stride) {
    SpanRecorder off(&clock, false);
    const Session again =
        RunSession(graph, targets, sessions[i].seed, &off, -1);
    bool same = again.ok && sessions[i].ok && again.order == sessions[i].order;
    for (std::size_t t = 0; same && t < targets.size(); ++t) {
      same = ReportsIdentical(again.reports[t], sessions[i].reports[t]);
    }
    if (!same) {
      ++out.failed;
      out.Fail("session seed " + std::to_string(sessions[i].seed) +
               " did not replay bit for bit");
    }
    ++replayed;
  }
  // Exact Brandes check with the stated tolerance.
  std::vector<double> exact_bc;
  std::vector<std::vector<double>> profiles;
  ExactProfiles(graph, targets, &exact_bc, &profiles);
  const auto hub = static_cast<std::size_t>(
      std::max_element(exact_bc.begin(), exact_bc.end()) - exact_bc.begin());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    double sum = 0.0;
    std::size_t count = 0;
    for (const Session& session : sessions) {
      if (!session.ok) continue;
      sum += session.reports[t].value;
      ++count;
    }
    const double mean = count > 0 ? sum / static_cast<double>(count) : 0.0;
    const double limit = mhbc::ChainLimitEstimate(profiles[t]);
    const double lo = exact_bc[t] / kExactTolerance;
    const double hi = limit * kExactTolerance;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "target %u: mean mh %.4g over %zu sessions, exact %.4g, "
                  "chain limit %.4g, accepted [%.4g, %.4g]",
                  targets[t], mean, count, exact_bc[t], limit, lo, hi);
    out.notes.push_back(line);
    if (!(mean >= lo && mean <= hi)) {
      out.Fail(std::string("exact check: ") + line);
    }
  }
  std::size_t misranked = 0;
  for (const Session& session : sessions) {
    if (session.ok && session.order.front() != hub) ++misranked;
  }
  out.notes.push_back(std::to_string(sessions.size() - misranked) + " of " +
                      std::to_string(sessions.size()) +
                      " sessions ranked the exact top vertex first");
  if (static_cast<double>(misranked) >
      kMisrankTolerance * static_cast<double>(sessions.size())) {
    out.Fail("more than a quarter of the sessions misranked the top vertex");
  }
  out.notes.push_back("replayed " + std::to_string(replayed) +
                      " sessions bit for bit on fresh engines");

  AddEndToEnd(&out, setup_s, peak_rss_mb, completions, config.seconds,
              kColdWindows);
  if (!config.trace) return out;

  // --- per-layer numbers.
  std::uint64_t passes = 0;
  for (const Session& session : sessions) passes += session.passes;
  out.layers = ReplayPasses(graph, inputs.request_seed);
  out.layers.push_back(ReplayDependencies(graph, inputs.request_seed, false));
  out.layers.push_back(Metric{"graph.ingest_s", Quantile(ingest_s, 0.5), "s",
                              ingest_s.size(), "OpenGraphSource, median"});
  out.layers.push_back(Metric{
      "centrality.passes_per_read",
      static_cast<double>(passes) /
          static_cast<double>(std::max<std::size_t>(1, sessions.size())),
      "count", sessions.size(), "total_sp_passes per session"});
  AddSpans(&out, config, recorders);
  // The timed sessions' calls (children of a read span), not the set-up's
  // warm-up sessions.
  const std::vector<Span>& recorded = spans.spans();
  for (const std::string_view call : {"EstimateMany", "RankTargets"}) {
    double total_s = 0.0;
    std::uint64_t count = 0;
    for (const Span& span : recorded) {
      if (span.name == call && span.parent >= 0 &&
          std::string_view(
              recorded[static_cast<std::size_t>(span.parent)].name) ==
              "read") {
        total_s += span.end_s - span.start_s;
        ++count;
      }
    }
    out.layers.push_back(Metric{
        call == "EstimateMany" ? "centrality.estimate_ms"
                               : "centrality.rank_ms",
        count > 0 ? total_s * 1e3 / static_cast<double>(count) : 0.0, "ms",
        count, std::string(call) + " spans of the timed sessions"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// churn-serve
// ---------------------------------------------------------------------------

namespace {

/// Memo counters summed over the pool's sessions, all checked out at once
/// (the server is idle).
struct PoolCounters {
  std::uint64_t passes = 0;
  std::uint64_t hits = 0;
};

PoolCounters ReadPool(mhbc::serve::GraphEntry* entry) {
  std::vector<mhbc::serve::ReadLease> leases;
  PoolCounters counters;
  for (std::size_t i = 0; i < kSessions; ++i) {
    leases.push_back(entry->AcquireRead());
    counters.passes += leases.back().engine().total_sp_passes();
    counters.hits += leases.back().engine().dependency_cache_hits();
  }
  return counters;
}

}  // namespace

Outcome RunChurnServe(const Inputs& inputs, const RunConfig& config) {
  Outcome out;
  const WallTimer clock;
  std::vector<SpanRecorder> recorders(kClients + 1,
                                      SpanRecorder(&clock, config.trace));
  SpanRecorder& main_spans = recorders.front();
  const std::uint64_t samples = kChurnSamples;

  // --- set-up: ingest, catalog build, warm every session, start the
  // server; timed kSetupRepeats times, the last stack is kept.
  std::vector<double> setup_s;
  std::vector<double> ingest_s;
  mhbc::GraphSource source;
  ServeStack stack;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    // The previous repeat's server and catalog refer to the source about
    // to be replaced: stop them first, server before catalog.
    stack.server.reset();
    stack.catalog.reset();
    const ScopedSpan setup(&main_spans, "setup");
    const WallTimer timer;
    mhbc::StatusOr<mhbc::GraphSource> opened =
        mhbc::Status::FailedPrecondition("not opened");
    {
      const ScopedSpan span(&main_spans, "OpenGraphSource", setup.index());
      opened = mhbc::OpenGraphSource(inputs.graph_path);
    }
    ingest_s.push_back(timer.ElapsedSeconds());
    if (!opened.ok()) {
      out.Fail("ingest: " + opened.status().ToString());
      return out;
    }
    source = std::move(opened).value();
    {
      const ScopedSpan span(&main_spans, "GraphCatalog::AddGraph",
                            setup.index());
      if (const mhbc::Status added = AddCatalog(source.graph(), &stack);
          !added.ok()) {
        out.Fail("catalog: " + added.ToString());
        return out;
      }
    }
    {
      // Warm-up: requests of the workload's own shape, enough of them that
      // each session's memo ends up holding every source. One long chain
      // would cost the same passes, but its Geyer-ESS statistics cost from
      // 0.4 to 18 ms depending on the seed (4-vCPU x86-64 host).
      const ScopedSpan span(&main_spans, "warm", setup.index());
      mhbc::serve::GraphEntry* entry = stack.catalog->Find(kGraphName);
      std::vector<mhbc::serve::ReadLease> leases;
      for (std::size_t i = 0; i < kSessions; ++i) {
        leases.push_back(entry->AcquireRead());
      }
      const VertexId n = source.graph().num_vertices();
      const std::uint64_t per_request = samples * 3;
      const std::uint64_t warm_requests =
          (kWarmProposalsPerVertex * n + per_request - 1) / per_request;
      for (mhbc::serve::ReadLease& lease : leases) {
        for (std::uint64_t i = 0; i < warm_requests; ++i) {
          const ScopedSpan estimate(&main_spans, "EstimateMany", span.index());
          const std::uint64_t seed = inputs.request_seed - 1 - i;
          if (!lease.engine()
                   .EstimateMany(RequestTargets(n, seed),
                                 MhRequest(samples, seed))
                   .ok()) {
            out.Fail("warm-up estimate failed");
          }
        }
      }
    }
    {
      const ScopedSpan span(&main_spans, "Server::Server", setup.index());
      StartServer(&stack);
    }
    setup_s.push_back(timer.ElapsedSeconds());
  }
  const CsrGraph& graph = source.graph();
  mhbc::serve::GraphEntry* entry = stack.catalog->Find(kGraphName);
  const PoolCounters before = ReadPool(entry);

  // --- timed phase.
  PhasePlan plan;
  plan.n = graph.num_vertices();
  plan.samples = samples;
  plan.seed = inputs.request_seed;
  plan.scripts = &inputs.delta_texts;
  plan.seconds = config.seconds;
  plan.poll_queue = config.trace;
  const bool rss_reset = ResetPeakRss();
  const HostTicks ticks_before = ReadHostTicks();
  const PhaseResult phase = RunPhase(*stack.server, plan, &recorders);
  out.notes.push_back(StealNote(ticks_before, ReadHostTicks()));
  const double peak_rss_mb = PeakRssMb();
  if (!rss_reset) {
    out.notes.push_back("peak RSS could not be reset; lifetime peak");
  }
  if (phase.chain_exhausted) {
    out.Fail("the delta chain ran out before the timed phase ended");
  }

  out.attempted =
      phase.completions.size() + phase.mutates.size() + phase.failed;
  out.failed = phase.failed;
  for (const std::string& error : phase.errors) out.Fail(error);
  if (out.failed > 0) {
    out.Fail(std::to_string(out.failed) +
             " requests failed (overload, deadline, protocol or engine)");
  }

  // --- correctness: epochs advance by exactly one per mutate, and a
  // seeded sample of reads replays bit for bit on a cold engine at the
  // read's epoch.
  for (std::size_t j = 0; j < phase.mutates.size(); ++j) {
    if (phase.mutates[j].epoch != j + 1) {
      out.Fail("mutate " + std::to_string(j) + " reported epoch " +
               std::to_string(phase.mutates[j].epoch));
    }
  }
  auto epochs = EpochGraphs(graph, inputs.deltas, phase.mutates.size());
  if (!epochs.ok()) {
    out.Fail("replaying the delta chain: " + epochs.status().ToString());
    return out;
  }
  const std::vector<Read>& kept = phase.samples;
  const std::size_t stride =
      std::max<std::size_t>(1, kept.size() / kServeReplays);
  std::size_t replayed = 0;
  for (std::size_t i = inputs.request_seed % stride; i < kept.size();
       i += stride) {
    const Read& read = kept[i];
    if (read.epoch >= epochs.value().size()) {
      ++out.failed;
      out.Fail("read served at unknown epoch " + std::to_string(read.epoch));
      continue;
    }
    BetweennessEngine cold(epochs.value()[read.epoch]);
    auto expected =
        cold.EstimateMany(read.targets, MhRequest(samples, read.seed));
    bool same = expected.ok() && expected.value().size() == read.reports.size();
    for (std::size_t t = 0; same && t < read.reports.size(); ++t) {
      same = WireMatches(read.reports[t], expected.value()[t]);
    }
    if (!same) {
      ++out.failed;
      out.Fail("read seed " + std::to_string(read.seed) + " at epoch " +
               std::to_string(read.epoch) + " did not replay bit for bit");
    }
    ++replayed;
  }
  out.notes.push_back("replayed " + std::to_string(replayed) +
                      " reads bit for bit on cold engines; " +
                      std::to_string(phase.mutates.size()) +
                      " mutates applied");

  AddEndToEnd(&out, setup_s, peak_rss_mb, phase.completions, config.seconds,
              kChurnWindows);
  if (!config.trace) return out;

  // --- per-layer numbers.
  const PoolCounters after = ReadPool(entry);
  const double passes = static_cast<double>(after.passes - before.passes);
  const double hits = static_cast<double>(after.hits - before.hits);
  const VertexId n = graph.num_vertices();
  out.layers = ReplayPasses(graph, inputs.request_seed);
  out.layers.push_back(ReplayDependencies(graph, inputs.request_seed, true));
  for (Metric& metric : ReplayChain(graph, inputs.deltas, inputs.request_seed,
                                    kWarmProposalsPerVertex * n)) {
    out.layers.push_back(std::move(metric));
  }
  out.layers.push_back(Metric{"graph.ingest_s", Quantile(ingest_s, 0.5), "s",
                              ingest_s.size(), "OpenGraphSource, median"});
  const std::size_t reads = phase.completions.size();
  out.layers.push_back(Metric{
      "centrality.passes_per_read",
      passes / static_cast<double>(std::max<std::size_t>(1, reads)), "count",
      reads, "pool total_sp_passes delta / reads"});
  out.layers.push_back(
      Metric{"centrality.memo_hit_ratio",
             passes + hits > 0 ? hits / (passes + hits) : 0.0, "ratio",
             static_cast<std::uint64_t>(passes + hits),
             "pool dependency_cache_hits / lookups"});
  {
    // Memo held by each session after the run: a probe chain of 16n
    // uniform proposals on each session runs a pass only for sources the
    // memo lacks.
    std::vector<mhbc::serve::ReadLease> leases;
    for (std::size_t i = 0; i < kSessions; ++i) {
      leases.push_back(entry->AcquireRead());
    }
    double entries = 0.0;
    for (mhbc::serve::ReadLease& lease : leases) {
      const std::uint64_t before_probe = lease.engine().total_sp_passes();
      (void)lease.engine().EstimateMany(
          {PickTargets(graph).front()},
          MhRequest(kWarmProposalsPerVertex * n,
                    inputs.request_seed ^ 0x5eedULL));
      const double missing =
          static_cast<double>(lease.engine().total_sp_passes() - before_probe);
      entries += static_cast<double>(n) - missing;
    }
    out.layers.push_back(
        Metric{"exact.memo_mb",
               entries * MemoEntryBytes(graph) / (1024.0 * 1024.0), "MB",
               kSessions,
               "sessions' memo entries after the run (n - probe passes) x "
               "entry bytes"});
  }
  {
    std::vector<std::string> lines;
    std::vector<std::vector<WireReport>> wire;
    for (std::size_t i = 0; i < kept.size() && i < kFormatReplayLines; ++i) {
      lines.push_back(EstimateLine(i, kept[i].targets, samples, kept[i].seed));
      wire.push_back(kept[i].reports);
    }
    AddProtocolReplay(&out, lines, wire);
  }
  for (Metric& metric : ServeLayers(
           phase, MetricValue(out.layers, "centrality.apply_delta_ms"))) {
    out.layers.push_back(std::move(metric));
  }
  AddSpans(&out, config, recorders);
  return out;
}

}  // namespace perfbench
