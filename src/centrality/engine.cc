#include "centrality/engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "baselines/distance_sampler.h"
#include "baselines/geisberger_sampler.h"
#include "baselines/rk_sampler.h"
#include "baselines/uniform_sampler.h"
#include "core/diagnostics.h"
#include "exact/brandes.h"
#include "graph/graph_stats.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mhbc {

// ------------------------------------------------------------- registry

namespace {

/// The SourceSamplerFactory of a concrete sampler type. The seed is
/// irrelevant: the engine resets a sampler to the request seed before use.
template <typename Sampler>
std::unique_ptr<SourceSampler> MakeSourceSampler(const CsrGraph& graph,
                                                 DependencyOracle* oracle) {
  return std::make_unique<Sampler>(graph, /*seed=*/0, oracle);
}

}  // namespace

const std::vector<EstimatorEntry>& EstimatorRegistry() {
  // One row per kind, in AllEstimatorKinds() order. Per-vertex queries are
  // independent for every sampling kind; only the whole-graph products
  // (exact scores, the RK credit vector) are computed once and served to
  // all vertices, so sharding them would waste work.
  static const std::vector<EstimatorEntry>* kRegistry = [] {
    auto* entries = new std::vector<EstimatorEntry>{
        {.kind = EstimatorKind::kExact,
         .summary = "exact Brandes (n passes, zero error)",
         .sharded_many = false},
        {.kind = EstimatorKind::kMetropolisHastings,
         .summary = "single-space MH chain average (paper Eq. 7)",
         .chain_based = true},
        {.kind = EstimatorKind::kMhRaoBlackwell,
         .summary = "unbiased Rao-Blackwellized MH companion",
         .chain_based = true},
        {.kind = EstimatorKind::kUniformSource,
         .summary = "uniform source sampling (Bader et al.)",
         .make_sampler = &MakeSourceSampler<UniformSourceSampler>},
        {.kind = EstimatorKind::kDistanceProportional,
         .summary = "distance-proportional sources (Chehreghani [13])",
         .make_sampler = &MakeSourceSampler<DistanceProportionalSampler>},
        {.kind = EstimatorKind::kShortestPath,
         .summary = "Riondato-Kornaropoulos shortest-path sampling",
         .sharded_many = false,
         .make_sampler = &MakeSourceSampler<RkSampler>},
        {.kind = EstimatorKind::kLinearScaling,
         .summary = "Geisberger linear-scaling sources (unweighted only)",
         .supports_weighted = false,
         .make_sampler = &MakeSourceSampler<GeisbergerSampler>},
    };
    for (EstimatorEntry& entry : *entries) {
      entry.name = EstimatorKindName(entry.kind);
    }
    return entries;
  }();
  return *kRegistry;
}

const EstimatorEntry* FindEstimator(EstimatorKind kind) {
  for (const EstimatorEntry& entry : EstimatorRegistry()) {
    if (entry.kind == kind) return &entry;
  }
  return nullptr;
}

const EstimatorEntry* FindEstimator(const std::string& name) {
  // One name-resolution path: delegate to the canonical parser so a
  // future alias cannot make the CLI and the registry disagree.
  EstimatorKind kind;
  if (!ParseEstimatorKind(name, &kind)) return nullptr;
  return FindEstimator(kind);
}

// ------------------------------------------------------- cached results

struct BetweennessEngine::RkCredit {
  std::uint64_t samples = 0;
  std::uint64_t seed = 0;
  /// Paper-normalized estimates for every vertex.
  std::vector<double> values;
};

struct BetweennessEngine::JointCache {
  std::vector<VertexId> targets;
  std::uint64_t iterations = 0;
  std::uint64_t seed = 0;
  JointResult result;
};

// ------------------------------------------------------------- constants

namespace {

/// Double-sweep probes behind TopK's vertex-diameter estimate.
constexpr std::uint32_t kDiameterProbes = 4;
/// kDeadline / kStandardError: the iid batch size, and the first chain
/// length (which then doubles).
constexpr std::uint64_t kAdaptiveBatch = 128;
/// kSamples splits an iid budget into up to this many near-equal batches
/// so the report carries a standard error. For RK the batches are seeded
/// apart (that is what lets the credit vector build in parallel), so this
/// constant is part of RK's sampling plan.
constexpr std::uint64_t kReportBatches = 16;

std::uint64_t ReportBatches(std::uint64_t samples) {
  return std::max<std::uint64_t>(1, std::min(kReportBatches, samples));
}

/// Size of batch b of ReportBatches(samples) near-equal batches.
std::uint64_t ReportBatchSize(std::uint64_t samples, std::uint64_t b) {
  const std::uint64_t batches = ReportBatches(samples);
  return samples / batches + (b < samples % batches ? 1 : 0);
}

}  // namespace

// ---------------------------------------------------------- construction

BetweennessEngine::BetweennessEngine(const CsrGraph& graph,
                                     EngineOptions options,
                                     std::shared_ptr<DependencyMemo> memo)
    : graph_(&graph), options_(options), memo_(std::move(memo)) {}

BetweennessEngine::~BetweennessEngine() = default;

// ------------------------------------------------------------ lazy state

DependencyOracle* BetweennessEngine::oracle() {
  if (!oracle_) {
    oracle_ =
        std::make_unique<DependencyOracle>(*graph_, IntraPassSpd(), memo_);
    oracle_->set_cache_capacity(DependencyMemo::CapacityFor(
        options_.dependency_cache_bytes, *graph_));
  }
  return oracle_.get();
}

SourceSampler* BetweennessEngine::sampler(const EstimatorEntry& entry) {
  MHBC_DCHECK(entry.make_sampler != nullptr);
  samplers_.resize(EstimatorRegistry().size());
  std::unique_ptr<SourceSampler>& slot =
      samplers_[static_cast<std::size_t>(entry.kind)];
  if (!slot) slot = entry.make_sampler(*graph_, oracle());
  return slot.get();
}

unsigned BetweennessEngine::resolved_threads() const {
  return ResolveThreadCount(options_.num_threads);
}

SpdOptions BetweennessEngine::IntraPassSpd() const {
  SpdOptions spd = options_.spd;
  // 0 = inherit: the engine's serial-path pass engines get the full thread
  // budget for frontier-parallel level steps. Explicit values pass through.
  if (spd.num_threads == 0) spd.num_threads = resolved_threads();
  return spd;
}

ThreadPool* BetweennessEngine::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(resolved_threads());
  return pool_.get();
}

void BetweennessEngine::EnsureShards() {
  if (!shards_.empty()) return;
  // One fully sequential engine per pool worker, all on this engine's
  // memo (thread-safe), so a shard's pass serves every shard and every
  // later query of the engine; with the engine's own options, the shards
  // size the memo as the engine does.
  EngineOptions shard_options = options_;
  shard_options.num_threads = 1;
  // Shards are the parallel axis of a fan-out; their passes must stay
  // sequential or the pool would be oversubscribed num_threads-fold.
  shard_options.spd.num_threads = 1;
  const std::shared_ptr<DependencyMemo>& memo = oracle()->memo();
  shards_.reserve(pool()->num_threads());
  for (unsigned w = 0; w < pool()->num_threads(); ++w) {
    shards_.push_back(
        std::make_unique<BetweennessEngine>(*graph_, shard_options, memo));
  }
}

const std::vector<double>& BetweennessEngine::exact_scores() {
  if (!exact_ready_) {
    exact_scores_ = BrandesBetweenness(*graph_, Normalization::kPaper,
                                       resolved_threads(), options_.spd);
    extra_passes_ += graph_->num_vertices();
    exact_ready_ = true;
  }
  return exact_scores_;
}

std::uint32_t BetweennessEngine::vertex_diameter(std::uint64_t seed) {
  if (!vertex_diameter_.has_value() || diameter_seed_ != seed) {
    vertex_diameter_ = ApproxVertexDiameter(*graph_, kDiameterProbes, seed);
    diameter_seed_ = seed;
    extra_passes_ += 2ull * kDiameterProbes;  // double-sweep probes
  }
  return *vertex_diameter_;
}

const BetweennessEngine::RkCredit& BetweennessEngine::EnsureRkCredit(
    std::uint64_t samples, std::uint64_t seed, VertexId se_vertex,
    std::vector<double>* batch_estimates, bool* served_from_cache) {
  if (rk_credit_ && rk_credit_->samples == samples &&
      rk_credit_->seed == seed) {
    *served_from_cache = true;
    return *rk_credit_;
  }
  *served_from_cache = false;
  const std::uint64_t batches = ReportBatches(samples);
  // Each batch draws from a stream seeded purely from (seed, batch index),
  // and the weighted merge below folds in batch order, so the credit
  // vector is bit-identical at any parallelism level. With a parallel
  // pool the batches are the parallel axis and each worker passes on its
  // shard's oracle (sequential passes; intra-pass threads would
  // oversubscribe); a 1-wide pool runs the batches inline on this
  // engine's oracle. Every pass is counted on the oracle that ran it.
  const bool parallel = pool()->num_threads() > 1;
  if (parallel) EnsureShards();
  const std::vector<std::vector<double>> batch_credit =
      ParallelMap<std::vector<double>>(
          pool(), static_cast<std::size_t>(batches),
          [this, seed, samples, parallel](unsigned worker, std::size_t b) {
            BetweennessEngine* owner =
                parallel ? shards_[worker].get() : this;
            std::uint64_t state = seed + 0x9e3779b97f4a7c15ULL * (b + 1);
            RkSampler sampler(*graph_, SplitMix64(&state), owner->oracle());
            return sampler.EstimateAll(ReportBatchSize(samples, b));
          });
  auto credit = std::make_unique<RkCredit>();
  credit->samples = samples;
  credit->seed = seed;
  credit->values.assign(graph_->num_vertices(), 0.0);
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::vector<double>& estimates = batch_credit[b];
    const double weight = static_cast<double>(ReportBatchSize(samples, b));
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
      credit->values[v] += estimates[v] * weight;
    }
    if (batch_estimates != nullptr) {
      batch_estimates->push_back(estimates[se_vertex]);
    }
  }
  for (double& value : credit->values) {
    value /= static_cast<double>(samples);
  }
  rk_credit_ = std::move(credit);
  return *rk_credit_;
}

std::uint64_t BetweennessEngine::total_sp_passes() const {
  std::uint64_t passes = extra_passes_;
  if (oracle_) passes += oracle_->num_passes();
  for (const std::unique_ptr<BetweennessEngine>& shard : shards_) {
    passes += shard->total_sp_passes();
  }
  return passes;
}

std::uint64_t BetweennessEngine::dependency_cache_hits() const {
  std::uint64_t hits = retired_cache_hits_;
  if (oracle_) hits += oracle_->cache_hits();
  for (const std::unique_ptr<BetweennessEngine>& shard : shards_) {
    hits += shard->dependency_cache_hits();
  }
  return hits;
}

DependencyMemoStats BetweennessEngine::memo_stats() const {
  const std::shared_ptr<DependencyMemo>& memo =
      oracle_ ? oracle_->memo() : memo_;
  return memo ? memo->Stats() : DependencyMemoStats{};
}

// ------------------------------------------------------------ validation

Status BetweennessEngine::ValidateRequest(
    VertexId r, const EstimateRequest& request) const {
  if (graph_->num_vertices() < 2) {
    return Status::InvalidArgument("graph needs at least two vertices");
  }
  if (r >= graph_->num_vertices()) {
    return Status::InvalidArgument(
        "vertex " + std::to_string(r) + " out of range (n=" +
        std::to_string(graph_->num_vertices()) + ")");
  }
  const EstimatorEntry* entry = FindEstimator(request.kind);
  if (entry == nullptr) {
    return Status::InvalidArgument("unknown estimator kind");
  }
  if (graph_->weighted() && !entry->supports_weighted) {
    return Status::InvalidArgument(std::string(entry->name) +
                                   " estimator supports unweighted graphs "
                                   "only");
  }
  if (request.kind == EstimatorKind::kExact) return Status::Ok();
  if (request.budget == BudgetKind::kSamples) {
    if (request.samples == 0) {
      return Status::InvalidArgument("sampling budget must be positive");
    }
    return Status::Ok();
  }
  if (request.budget == BudgetKind::kDeadline &&
      !(request.deadline_seconds > 0.0)) {
    return Status::InvalidArgument(
        "deadline_seconds must be positive for a deadline budget");
  }
  if (request.budget == BudgetKind::kStandardError &&
      !(request.target_std_error > 0.0)) {
    return Status::InvalidArgument(
        "target_std_error must be positive for a standard-error budget");
  }
  if (request.max_samples == 0) {
    return Status::InvalidArgument("max_samples must be positive");
  }
  return Status::Ok();
}

Status BetweennessEngine::ValidateTargets(const std::vector<VertexId>& targets,
                                          std::uint64_t iterations) const {
  if (graph_->num_vertices() < 2) {
    return Status::InvalidArgument("graph needs at least two vertices");
  }
  if (targets.size() < 2) {
    return Status::InvalidArgument("need at least two target vertices");
  }
  if (iterations == 0) {
    return Status::InvalidArgument("iteration budget must be positive");
  }
  for (VertexId r : targets) {
    if (r >= graph_->num_vertices()) {
      return Status::InvalidArgument("target vertex " + std::to_string(r) +
                                     " out of range");
    }
  }
  std::vector<VertexId> sorted = targets;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument("target vertices must be distinct");
  }
  return Status::Ok();
}

// -------------------------------------------------------------- serving

namespace {

/// Standard error of a weighted batch mean from its batch means (0 below
/// two batches).
double BatchMeansStdError(const RunningStats& batch_means) {
  if (batch_means.count() < 2) return 0.0;
  return batch_means.stddev() /
         std::sqrt(static_cast<double>(batch_means.count()));
}

/// Fills value / acceptance / ESS / std-error of a report from one chain
/// run. kMetropolisHastings reads the Eq. 7 chain average, with the
/// standard error from the f-series' Geyer ESS; kMhRaoBlackwell reads the
/// unbiased proposal average (its terms are iid, so plain sqrt(T) SE).
void FillChainReport(const MhResult& result, EstimatorKind kind,
                     EstimateReport* report) {
  report->acceptance_rate = result.diagnostics.acceptance_rate();
  if (kind == EstimatorKind::kMetropolisHastings) {
    report->value = result.estimate;
    RunningStats stats;
    for (double f : result.f_series) stats.Add(f);
    const double ess = EffectiveSampleSize(result.f_series);
    report->ess = ess;
    report->std_error =
        ess > 1.0 ? std::sqrt(stats.variance() / ess) : stats.stddev();
  } else {
    report->value = result.proposal_estimate;
    const double count = static_cast<double>(result.proposal_series.size());
    report->ess = count;
    report->std_error =
        count > 1.0 ? StdDev(result.proposal_series) / std::sqrt(count) : 0.0;
  }
}

}  // namespace

void BetweennessEngine::RunBudget(VertexId r, const EstimateRequest& request,
                                  const WallTimer& call_clock,
                                  EstimateReport* report) {
  const EstimatorEntry& entry = *FindEstimator(request.kind);
  const bool fixed = request.budget == BudgetKind::kSamples;
  const bool se_mode = request.budget == BudgetKind::kStandardError;
  const std::uint64_t cap = fixed ? request.samples : request.max_samples;

  // RK at kSamples reads its batches off the whole-graph credit vector;
  // a cached vector serves any vertex at zero passes and no new samples.
  std::vector<double> credit_batches;
  SourceSampler* iid = nullptr;
  if (fixed && request.kind == EstimatorKind::kShortestPath) {
    bool served_from_cache = false;
    const RkCredit& credit = EnsureRkCredit(request.samples, request.seed, r,
                                            &credit_batches,
                                            &served_from_cache);
    if (served_from_cache) {
      report->value = credit.values[r];
      report->ess = static_cast<double>(request.samples);
      report->cache_hit = true;
      return;
    }
  } else if (entry.chain_based) {
    if (!chain_) {
      MhOptions mh_options;
      mh_options.record_series = true;  // f/proposal series feed the SE
      chain_ = std::make_unique<MhBetweennessSampler>(*graph_, mh_options,
                                                      oracle());
    }
  } else {
    iid = sampler(entry);
    iid->Reset(request.seed);
  }

  // Chain kinds re-run one chain from the request seed per step, so every
  // report is reproducible as a kSamples request with samples_used; iid
  // kinds add a batch per step to one stream, and the weighted batch mean
  // equals a single call of the total size.
  double weighted_sum = 0.0;
  RunningStats batch_means;
  std::uint64_t total = 0;
  for (std::uint64_t step = 0;; ++step) {
    if (entry.chain_based) {
      total = step > 0 ? std::min(2 * total, cap)
                       : (fixed ? cap : std::min(kAdaptiveBatch, cap));
      chain_->Reset(request.seed);
      FillChainReport(chain_->Run(r, total), request.kind, report);
    } else {
      const std::uint64_t size = fixed ? ReportBatchSize(cap, step)
                                       : std::min(kAdaptiveBatch, cap - total);
      const double estimate =
          iid != nullptr ? iid->Estimate(r, size) : credit_batches[step];
      weighted_sum += estimate * static_cast<double>(size);
      total += size;
      batch_means.Add(estimate);
      report->value = weighted_sum / static_cast<double>(total);
      report->ess = static_cast<double>(total);
      report->std_error = BatchMeansStdError(batch_means);
    }
    report->samples_used = total;
    // Batch means need three batches before their SE can stop a run.
    if (se_mode && (entry.chain_based || batch_means.count() >= 3) &&
        report->std_error <= request.target_std_error) {
      report->converged = true;
      return;
    }
    if (request.budget == BudgetKind::kDeadline &&
        call_clock.ElapsedSeconds() >= request.deadline_seconds) {
      return;  // deadline reached; converged stays true
    }
    if (total >= cap) {
      report->converged = !se_mode;
      return;
    }
  }
}

StatusOr<EstimateReport> BetweennessEngine::Estimate(
    VertexId r, const EstimateRequest& request) {
  const WallTimer call_clock;
  const Status status = ValidateRequest(r, request);
  if (!status.ok()) return status;
  return ServeValidated(r, request, call_clock);
}

EstimateReport BetweennessEngine::ServeValidated(
    VertexId r, const EstimateRequest& request, const WallTimer& call_clock) {
  EstimateReport report;
  report.vertex = r;
  report.kind = request.kind;
  const std::uint64_t passes_before = total_sp_passes();
  const std::uint64_t hits_before = dependency_cache_hits();
  WallTimer timer;

  if (request.kind == EstimatorKind::kExact) {
    report.cache_hit = exact_ready_;
    report.value = exact_scores()[r];
  } else {
    RunBudget(r, request, call_clock, &report);
  }

  report.seconds = timer.ElapsedSeconds();
  report.sp_passes = total_sp_passes() - passes_before;
  report.cache_hit =
      report.cache_hit || dependency_cache_hits() > hits_before;
  report.ci_half_width = kConfidenceZ * report.std_error;
  return report;
}

StatusOr<std::vector<EstimateReport>> BetweennessEngine::EstimateBatch(
    const std::vector<EstimateRequest>& requests) {
  const WallTimer call_clock;
  bool all_sharded = !requests.empty();
  for (const EstimateRequest& request : requests) {
    const Status status = ValidateRequest(request.vertex, request);
    if (!status.ok()) return status;  // fail fast, before any work
    all_sharded = all_sharded && FindEstimator(request.kind)->sharded_many;
  }
  // Pool-splitting policy (see engine.h): fan out across shards only when
  // the queries can occupy the pool; smaller batches serve sequentially on
  // the owning engine, whose passes then use the pool internally. Both
  // shapes return identical statistical fields.
  if (!all_sharded || requests.size() < 2 || resolved_threads() < 2 ||
      requests.size() < resolved_threads()) {
    std::vector<EstimateReport> reports;
    reports.reserve(requests.size());
    for (const EstimateRequest& request : requests) {
      reports.push_back(ServeValidated(request.vertex, request, call_clock));
    }
    return reports;
  }
  // Shards are bound to this engine's graph, which the requests were
  // validated against, and share its memo.
  EnsureShards();
  return ParallelMap<EstimateReport>(
      pool(), requests.size(),
      [this, &requests, &call_clock](unsigned worker, std::size_t i) {
        return shards_[worker]->ServeValidated(requests[i].vertex,
                                               requests[i], call_clock);
      });
}

StatusOr<std::vector<EstimateReport>> BetweennessEngine::EstimateMany(
    const std::vector<VertexId>& vertices, const EstimateRequest& request) {
  std::vector<EstimateRequest> requests(vertices.size(), request);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    requests[i].vertex = vertices[i];
  }
  return EstimateBatch(requests);
}

StatusOr<JointResult> BetweennessEngine::EstimateRelative(
    const std::vector<VertexId>& targets, std::uint64_t iterations,
    std::uint64_t seed) {
  const Status status = ValidateTargets(targets, iterations);
  if (!status.ok()) return status;
  if (joint_cache_ && joint_cache_->targets == targets &&
      joint_cache_->iterations == iterations && joint_cache_->seed == seed) {
    return joint_cache_->result;
  }
  JointOptions joint_options;
  joint_options.seed = seed;
  JointSpaceSampler sampler(*graph_, targets, joint_options, oracle());
  auto cache = std::make_unique<JointCache>();
  cache->targets = targets;
  cache->iterations = iterations;
  cache->seed = seed;
  cache->result = sampler.Run(iterations);
  joint_cache_ = std::move(cache);
  return joint_cache_->result;
}

StatusOr<std::vector<std::size_t>> BetweennessEngine::RankTargets(
    const std::vector<VertexId>& targets, std::uint64_t iterations,
    std::uint64_t seed) {
  StatusOr<JointResult> result = EstimateRelative(targets, iterations, seed);
  if (!result.ok()) return result.status();
  return RankOrderFromScores(result.value().copeland_scores);
}

StatusOr<std::vector<TopKEntry>> BetweennessEngine::TopK(std::uint32_t k,
                                                         double eps,
                                                         double delta,
                                                         std::uint64_t seed) {
  if (graph_->num_vertices() < 2) {
    return Status::InvalidArgument("graph needs at least two vertices");
  }
  if (k == 0 || k > graph_->num_vertices()) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (!(eps > 0.0 && eps < 1.0) || !(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("eps and delta must lie in (0, 1)");
  }
  const std::uint32_t diameter = std::max(vertex_diameter(seed), 2u);
  const std::uint64_t samples = RkSampler::SampleBound(diameter, eps, delta);
  bool served_from_cache = false;
  const RkCredit& credit = EnsureRkCredit(samples, seed, /*se_vertex=*/0,
                                          /*batch_estimates=*/nullptr,
                                          &served_from_cache);
  const std::vector<std::size_t> order = RankOrderFromScores(credit.values);
  std::vector<TopKEntry> top;
  top.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    top.push_back(TopKEntry{static_cast<VertexId>(order[i]),
                            credit.values[order[i]]});
  }
  return top;
}

// -------------------------------------------------------------- mutation

Status BetweennessEngine::ApplyDelta(const GraphDelta& delta) {
  if (delta.empty()) return Status::Ok();
  std::vector<GraphEdit> resolved;
  StatusOr<CsrGraph> edited =
      DynamicGraph::ApplyToCopy(*graph_, delta, &resolved);
  if (!edited.ok()) return edited.status();  // the engine is untouched
  auto next = std::make_unique<const CsrGraph>(std::move(edited).value());
  // The memo moves to the post-edit graph's memo, carried from the oracle's
  // (or, before the first query, the one the engine holds). The carry reads
  // the pre-edit graph, which stays alive until BindEpoch releases it.
  std::shared_ptr<DependencyMemo> memo = oracle_ ? oracle_->memo() : memo_;
  if (memo) {
    memo = memo->Carry(*next, resolved, options_.spd.tie_epsilon,
                       DependencyMemo::MinWeightsOf(*graph_));
  }
  BindEpoch(*next, std::move(memo), graph_epoch_ + 1);
  owned_graph_ = std::move(next);
  return Status::Ok();
}

void BetweennessEngine::BindEpoch(const CsrGraph& graph,
                                  std::shared_ptr<DependencyMemo> memo,
                                  std::uint64_t epoch) {
  ResetGraphState();
  graph_ = &graph;
  memo_ = std::move(memo);
  graph_epoch_ = epoch;
  owned_graph_.reset();
}

void BetweennessEngine::ResetGraphState() {
  // Samplers and shards rebuild lazily on next use, and so does the
  // oracle, on the memo bound with the graph. Whole-graph products (exact
  // scores, RK credit vector, diameter estimate, joint-space result) are
  // aggregates over all vertex pairs, which any edge edit — or, for a
  // vertex append, the n-dependent normalization — touches, so they always
  // reset; the dependency memo is the selectively-surviving part, carried
  // by whoever built the new graph. Retired oracles and shards keep their
  // work in the counters, which never go back.
  samplers_.clear();
  chain_.reset();
  if (oracle_) {
    extra_passes_ += oracle_->num_passes();
    retired_cache_hits_ += oracle_->cache_hits();
    oracle_.reset();
  }
  for (const std::unique_ptr<BetweennessEngine>& shard : shards_) {
    extra_passes_ += shard->total_sp_passes();
    retired_cache_hits_ += shard->dependency_cache_hits();
  }
  shards_.clear();
  exact_scores_.clear();
  exact_ready_ = false;
  vertex_diameter_.reset();
  rk_credit_.reset();
  joint_cache_.reset();
}

}  // namespace mhbc
