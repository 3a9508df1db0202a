#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/source_sampler.h"
#include "centrality/estimate.h"
#include "core/joint_space.h"
#include "core/mh_betweenness.h"
#include "exact/dependency_oracle.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "sp/spd.h"
#include "util/status.h"

/// \file
/// BetweennessEngine — the session-object estimation API.
///
/// Every estimator in this library is a "pay setup once, then iterate"
/// algorithm, and one shortest-path pass from a source v yields the
/// dependency of v on *every* target at once. An engine exploits both: it
/// is constructed once per graph and serves EstimateRequest ->
/// EstimateReport queries whose work amortizes across calls. Querying a
/// second vertex on a live engine costs strictly fewer shortest-path
/// passes than asking a fresh engine, because dependency vectors computed
/// for the first query are served from the memo.
///
/// Quickstart:
/// \code
///   mhbc::BetweennessEngine engine(graph);
///   mhbc::EstimateRequest req;
///   req.kind = mhbc::EstimatorKind::kMetropolisHastings;
///   req.samples = 2'000;
///   auto a = engine.Estimate(10, req);   // pays the passes
///   auto b = engine.Estimate(11, req);   // reuses a's dependency vectors
///   // b.value().std_error, .acceptance_rate, .ess, .cache_hit ...
/// \endcode
///
/// One pass engine. Every pass a query runs — the MH chain's, the iid
/// samplers', RK's path draws and Geisberger's scaled sweeps — runs on
/// the engine's one memoizing DependencyOracle (one BFS or delta-stepping
/// engine plus one dependency accumulator), and is counted there. Only the
/// exact-score build (source-parallel Brandes), the diameter probes and
/// the distance sampler's distance table (recorded on the oracle) run
/// passes of their own; the sharded paths below run on the shards'
/// oracles.
///
/// One memo. The oracle memoizes in a DependencyMemo
/// (exact/dependency_memo.h), private to the engine by default. An engine
/// constructed or bound on a shared memo reads and fills that one instead:
/// the serving catalog publishes one memo per graph epoch and binds every
/// session's engine to it (serve/catalog.h, BindEpoch), so a pass one
/// session runs is a hit for the others. Either way the engine sizes its
/// memo from EngineOptions::dependency_cache_bytes.
/// The memo is thread-safe and keeps a returned vector alive until its
/// oracle's next call, so sessions on different threads may share it while
/// each engine stays single-threaded. The engine's shards share its memo.
///
/// Per-estimator state, all built lazily on first use: one sampler per
/// iid kind, made by its registry entry's factory on the oracle
/// (baselines/source_sampler.h); one MhBetweennessSampler shared by the
/// two chain kinds; and the whole-graph products — exact scores, the RK
/// credit vector, the diameter probe behind TopK, the last joint-space
/// result.
///
/// Budgets. Every sampling kind runs one budget loop. iid kinds draw
/// batches from one stream: `samples` split into up to 16 near-equal
/// batches at kSamples, 128-sample batches at kDeadline and
/// kStandardError; the value is the weighted batch mean and the standard
/// error comes from the batch means. Chain kinds re-run one chain from
/// the request seed: one run of `samples` iterations at kSamples, runs of
/// 128, 256, ... iterations otherwise; the standard error comes from the
/// chain (Geyer ESS for `mh`, iid proposal terms for `mh-rb`). RK at
/// kSamples reads its batches off the credit vector's build, whose batches
/// are seeded apart and run in parallel. Every report's ci_half_width is
/// kConfidenceZ (1.96) times its std_error.
///
/// Reports are deterministic: a fixed (request, engine-construction) pair
/// reproduces the same value bit-for-bit no matter how many queries ran in
/// between (samplers are Reset to the request seed per query, and memo
/// hits return bit-identical vectors), only the work accounting differs.
/// The SPD kernel knob (EngineOptions::spd) is deliberately *outside* the
/// determinism key: dependency vectors — and therefore every statistical
/// report field — are bit-identical across SpdKernel choices and α/β
/// settings, because both BFS kernels emit the canonical per-level
/// ascending order and the backward sweep is pinned to it (sp/spd.h).
/// Kernel selection changes how fast a pass runs, never what it returns.
///
/// Parallelism and the thread contract. Set EngineOptions::num_threads to
/// parallelize *inside* the engine: the exact-score build runs the
/// source-parallel Brandes, the RK credit vector accumulates its sample
/// batches concurrently (each worker on its shard's oracle), and
/// EstimateMany / EstimateBatch fan independent per-vertex queries out
/// across internal per-worker engine shards (each shard is a fully
/// sequential engine with its own samplers and oracle, on the owning
/// engine's memo, so a pass one shard runs serves the other shards and
/// every later query of the engine). Because every per-vertex report is a
/// pure function of
/// (graph, request) and every parallel reduction uses a fixed,
/// thread-count-independent grouping, all *statistical* report fields —
/// value, samples_used, acceptance_rate, ess, std_error, ci_half_width,
/// converged — are bit-identical at every num_threads setting. Work
/// accounting (sp_passes attribution, cache_hit, seconds) legitimately
/// depends on scheduling and is excluded from that guarantee, as are
/// kDeadline budgets (wall-clock stop rules are nondeterministic even
/// sequentially). Chain-driven calls (EstimateRelative / RankTargets) stay
/// sequential by design: a Markov chain is one serial dependency, and
/// splitting it would change the estimator — but their *passes* do
/// parallelize: with EngineOptions::spd.num_threads inherited (0), the
/// engine's own pass engine runs frontier-parallel level steps inside each
/// BFS + dependency sweep (sp/bfs_spd.h), which is what makes single-query
/// Estimate / EstimateRelative latency scale with cores.
///
/// Pool-splitting policy. Query-level sharding and intra-pass parallelism
/// split one thread budget instead of multiplying: EstimateMany /
/// EstimateBatch fan out across engine shards only when the query count
/// can occupy the pool (count >= resolved threads, shards run fully
/// sequential passes); smaller batches are served sequentially on the
/// owning engine, whose passes then use the whole pool internally
/// (sequential-across-sources × parallel-within-pass). The exact-score
/// build (BrandesBetweenness) and the RK credit batches likewise force
/// per-worker passes sequential while their own fan-out is the parallel
/// axis. Every choice on this policy surface is bit-neutral: both serving
/// shapes and every spd.num_threads value produce identical statistical
/// fields.
///
/// External thread-compatibility is unchanged: concurrent calls into ONE
/// engine still require external synchronization (queries mutate shared
/// caches). For concurrent serving either put a mutex in front of one
/// engine or shard one engine per server worker — engines share nothing
/// but the graph and, when constructed or bound on one, the thread-safe
/// memo.
///
/// Graph mutation. ApplyDelta(delta) builds the post-edit graph as a new
/// engine-owned CSR (see DynamicGraph::ApplyToCopy) and advances
/// graph_epoch(). The determinism contract extends to mutation: after
/// ApplyDelta, every statistical report field is bit-identical to what a
/// cold engine constructed on the post-edit graph (same options) would
/// return for the same request — at every thread count and SPD kernel
/// setting. Samplers, shards and whole-graph products (exact scores, the
/// RK credit vector, the diameter probe, the joint-space result) are
/// rebuilt on next use; the dependency memo survives *selectively*: the
/// engine moves to a memo carried from its old one, which keeps only the
/// cached passes no edit touches (DependencyMemo::Carry). That is what
/// makes a small edit batch cheaper to re-estimate than a cold rebuild.
/// A memo serves one graph, so an engine that shared its memo with others
/// moves to a memo of its own across its own edits; engines that must keep
/// sharing one after an edit are rebound instead. BindEpoch points the
/// engine at a graph epoch published by someone else — the serving
/// catalog builds each epoch's graph and memo once and binds its sessions
/// to it — and resets the same graph-bound state ApplyDelta resets. The
/// work counters (total_sp_passes, dependency_cache_hits) never go
/// backwards across either. After the first ApplyDelta, graph() returns
/// the engine-owned post-edit graph; the construction graph is no longer
/// referenced.

namespace mhbc {

class ThreadPool;
class WallTimer;

/// How an EstimateRequest's budget is interpreted.
enum class BudgetKind {
  /// Spend exactly `samples` samples / chain iterations (kExact: n/a).
  kSamples,
  /// Keep sampling in batches until `deadline_seconds` of wall clock,
  /// measured from the start of the Estimate, EstimateMany or
  /// EstimateBatch call: the vertices of one call share one deadline.
  kDeadline,
  /// Keep sampling in batches until the estimate's standard error drops
  /// to `target_std_error` (or `max_samples` is hit); KADABRA-style
  /// adaptivity driven by batch means / chain ESS.
  kStandardError,
};

/// Normal quantile behind every report's ci_half_width (1.96 ~ 95%).
inline constexpr double kConfidenceZ = 1.96;

/// One estimation query: the estimator, its seed, and a budget that is a
/// sample count, a wall-clock deadline, or a target standard error.
struct EstimateRequest {
  /// Target vertex — used by EstimateBatch; Estimate/EstimateMany take the
  /// vertex as an argument and ignore this field.
  VertexId vertex = kInvalidVertex;
  EstimatorKind kind = EstimatorKind::kMetropolisHastings;
  BudgetKind budget = BudgetKind::kSamples;
  /// kSamples: the exact budget. Other budgets: ignored.
  std::uint64_t samples = 1000;
  /// kDeadline only: wall-clock budget in seconds (> 0), for the whole
  /// call (see BudgetKind::kDeadline).
  double deadline_seconds = 0.0;
  /// kStandardError only: stop once std_error <= this (> 0).
  double target_std_error = 0.0;
  /// Safety valve for kDeadline / kStandardError runs.
  std::uint64_t max_samples = 1 << 20;
  std::uint64_t seed = 0x5eed;
};

/// Outcome of one engine query: the plain estimate plus diagnostics.
struct EstimateReport {
  /// Paper-normalized (Eq. 1) betweenness score in [0, 1].
  double value = 0.0;
  /// Shortest-path passes the call consumed (work unit; exact runs report
  /// n passes; cache-served calls can report 0).
  std::uint64_t sp_passes = 0;
  /// Wall-clock seconds.
  double seconds = 0.0;
  /// Estimator that produced the value.
  EstimatorKind kind = EstimatorKind::kExact;
  /// The queried vertex.
  VertexId vertex = kInvalidVertex;
  /// Samples / chain iterations backing `value` (0 for kExact and for
  /// result-cache serves, which spend no new work). For adaptive chain
  /// budgets this is the *final* chain's length — the value is
  /// reproducible as a kSamples request with this count and the same
  /// seed; the doubling re-runs' total work shows up in sp_passes.
  std::uint64_t samples_used = 0;
  /// Fraction of MH proposals accepted (chain estimators only, else 0).
  double acceptance_rate = 0.0;
  /// Effective sample size: Geyer ESS of the chain's f-series for
  /// kMetropolisHastings, the iid draw count otherwise (0 for kExact).
  double ess = 0.0;
  /// Standard error of `value` (0 when not measurable: kExact,
  /// result-cache serves, or single-batch runs).
  double std_error = 0.0;
  /// kConfidenceZ * std_error — the normal-approximation confidence
  /// half-width.
  double ci_half_width = 0.0;
  /// True when engine caches did part of the work: dependency-memo hits,
  /// or a whole-result serve (exact scores, RK credit vector).
  bool cache_hit = false;
  /// kStandardError: whether the target was met before max_samples.
  /// Other budgets: always true.
  bool converged = true;
};

/// Engine-wide knobs.
struct EngineOptions {
  /// Memory budget (bytes) for the engine's dependency-vector memo, which
  /// every estimator of the engine shares; the entry capacity is
  /// DependencyMemo::CapacityFor(budget, graph) — budget over
  /// DependencyMemo::EntryBytes (n doubles on either graph kind), capped
  /// at n entries — so the footprint stays bounded on any graph size. The
  /// engine's shards share its memo. An engine
  /// constructed on a shared memo sizes that memo by the same rule; the
  /// engines sharing one have the same options and graph, so they agree,
  /// and the budget is per memo: per graph, not per session, in the
  /// serving catalog. 0 disables cross-query pass reuse.
  std::size_t dependency_cache_bytes = std::size_t{256} << 20;  // 256 MiB
  /// Worker threads for the engine's parallel paths (exact Brandes build,
  /// RK credit batches, sharded EstimateMany / EstimateBatch). 0 = one per
  /// hardware thread, 1 = fully sequential (the pre-parallel behavior).
  /// Statistical report fields are bit-identical at every setting — see
  /// the file comment for the exact contract.
  unsigned num_threads = 1;
  /// Shortest-path kernel tuning — BFS kernel selection + direction
  /// switching unweighted, canonical-wave delta-stepping bucket width
  /// weighted — applied to every pass the engine (and its shards and
  /// exact builds) runs. spd.num_threads == 0 (the default) inherits
  /// num_threads for the engine's serial-path pass engine, giving
  /// single-query calls frontier-parallel passes; fan-out paths force
  /// per-worker passes sequential (pool-splitting — see the file comment).
  /// Off the determinism key: all settings produce bit-identical reports.
  SpdOptions spd;
};

/// Registry metadata for one estimator. The registry is the single
/// dispatch table the engine, CLI tools, benches, and tests share, keyed
/// by both EstimatorKind and its stable string name.
struct EstimatorEntry {
  EstimatorKind kind = EstimatorKind::kExact;
  /// EstimatorKindName(kind): "exact", "mh", "mh-rb", ...
  const char* name = nullptr;
  /// One-line description for CLI help / bench tables.
  const char* summary = nullptr;
  /// False for estimators restricted to unweighted graphs.
  bool supports_weighted = true;
  /// True for the MH chain family (acceptance rate / ESS diagnostics).
  bool chain_based = false;
  /// True when EstimateMany / EstimateBatch may fan this kind out across
  /// per-worker engine shards (each per-vertex query is independent).
  /// False for whole-graph products (exact scores, the RK credit vector)
  /// that are computed once and serve every vertex at zero marginal
  /// passes — sharding those would rebuild the product per worker.
  bool sharded_many = true;
  /// Builds the kind's iid sampler on an engine's oracle; null for `exact`
  /// and the chain kinds.
  SourceSamplerFactory make_sampler = nullptr;
};

/// All registered estimators, in AllEstimatorKinds() order.
const std::vector<EstimatorEntry>& EstimatorRegistry();

/// Registry lookup by kind; never null for a valid kind.
const EstimatorEntry* FindEstimator(EstimatorKind kind);

/// Registry lookup by stable name; null for unknown names.
const EstimatorEntry* FindEstimator(const std::string& name);

/// Reusable estimation session bound to one graph. See file comment.
class BetweennessEngine {
 public:
  /// The graph must outlive the engine. Construction is O(1); all
  /// per-estimator state is built lazily on first use. `memo` is the
  /// dependency memo of `graph` to share with other engines on it with the
  /// same options (the catalog's sessions, serve/catalog.h); the engine's
  /// shards share it too. Null (the default) gives the engine a private
  /// memo. Either way the engine sizes its memo from
  /// options.dependency_cache_bytes when it builds its oracle.
  explicit BetweennessEngine(const CsrGraph& graph,
                             EngineOptions options = EngineOptions(),
                             std::shared_ptr<DependencyMemo> memo = nullptr);
  ~BetweennessEngine();

  BetweennessEngine(const BetweennessEngine&) = delete;
  BetweennessEngine& operator=(const BetweennessEngine&) = delete;

  /// Estimates the (paper-normalized) betweenness of vertex r.
  ///
  /// Fails with InvalidArgument for out-of-range r, empty/ill-formed
  /// budgets, or an estimator that does not support the graph (e.g.
  /// linear-scaling sampling on weighted graphs). The graph should be
  /// connected for meaningful scores (the paper's model); disconnected
  /// graphs are allowed and treat cross-component pairs as zero.
  StatusOr<EstimateReport> Estimate(VertexId r, const EstimateRequest& request);

  /// Serves heterogeneous requests (each naming its vertex in
  /// `request.vertex`) through the shared caches. Fails fast: the first
  /// invalid request aborts the batch.
  ///
  /// kDeadline budgets, here and in EstimateMany, run against one clock
  /// started when the call begins, on the sequential and the sharded path
  /// alike, so a k-vertex call overruns its deadline by about one batch,
  /// not k-fold. A vertex whose turn comes after the deadline still gets
  /// one batch (128 samples or chain iterations), so every report carries
  /// statistics.
  StatusOr<std::vector<EstimateReport>> EstimateBatch(
      const std::vector<EstimateRequest>& requests);

  /// One request applied to many vertices — the multi-vertex serving shape
  /// setup amortizes best over (for kShortestPath, all vertices after the
  /// first are served from the shared credit vector at zero passes; for
  /// the chain kinds at kSamples, every chain proposes the same sources,
  /// so chains after the first are served from the dependency memo).
  StatusOr<std::vector<EstimateReport>> EstimateMany(
      const std::vector<VertexId>& vertices, const EstimateRequest& request);

  /// Relative betweenness scores and ratios for `targets` via the paper's
  /// joint-space sampler (§4.3). The last result is cached keyed on
  /// (targets, iterations, seed), so asking for scores and then a ranking
  /// runs the chain once.
  StatusOr<JointResult> EstimateRelative(const std::vector<VertexId>& targets,
                                         std::uint64_t iterations,
                                         std::uint64_t seed = 0x5eed);

  /// Ranks `targets` by the joint-space chain's Copeland scores; returns
  /// indices into `targets`, most central first. Ties keep input order
  /// (RankOrderFromScores contract).
  StatusOr<std::vector<std::size_t>> RankTargets(
      const std::vector<VertexId>& targets, std::uint64_t iterations,
      std::uint64_t seed = 0x5eed);

  /// Approximate top-k betweenness vertices via shortest-path sampling at
  /// the VC-dimension budget for (eps, delta) uniform accuracy. The
  /// diameter probe and the credit vector are cached, so repeat calls
  /// (any k) cost no new passes.
  StatusOr<std::vector<TopKEntry>> TopK(std::uint32_t k, double eps = 0.02,
                                        double delta = 0.1,
                                        std::uint64_t seed = 0x5eed);

  /// Applies a batched edit script to the served graph, atomically: on any
  /// invalid op (duplicate insert, missing removal, self-loop,
  /// out-of-range vertex) the engine and its caches are left untouched.
  /// On success the graph epoch advances, state bound to the pre-edit
  /// graph is dropped or selectively invalidated (see the file comment's
  /// mutation contract), and subsequent queries serve the post-edit graph
  /// bit-identically to a cold engine built on it. An empty delta is a
  /// no-op that keeps the epoch.
  Status ApplyDelta(const GraphDelta& delta);

  /// Binds the engine to a graph epoch published elsewhere: `graph`, the
  /// memo `memo` that serves it (null: a private one), and `epoch`, which
  /// graph_epoch() then reports. `graph` must stay alive until the next
  /// BindEpoch or ApplyDelta, or the engine's destruction. Drops the state
  /// bound to the previous graph as ApplyDelta does, and releases the
  /// previous graph and memo; reports after it are bit-identical to a cold
  /// engine constructed on `graph` with the same options.
  void BindEpoch(const CsrGraph& graph, std::shared_ptr<DependencyMemo> memo,
                 std::uint64_t epoch);

  /// The bound graph's epoch: 0 at construction, one more per successful
  /// non-empty ApplyDelta, or the epoch BindEpoch named.
  std::uint64_t graph_epoch() const { return graph_epoch_; }

  const CsrGraph& graph() const { return *graph_; }
  const EngineOptions& options() const { return options_; }

  /// Total shortest-path passes this engine has executed, over all
  /// estimators and queries (setup passes included).
  std::uint64_t total_sp_passes() const;

  /// Dependencies served from the shared memo instead of a pass.
  std::uint64_t dependency_cache_hits() const;

  /// Counters of the dependency memo the engine reads and fills. ApplyDelta
  /// carries them into the next epoch's memo, so carry_passes and
  /// invalidated add up over the engine's edits (all zero before the
  /// engine has a memo).
  DependencyMemoStats memo_stats() const;

 private:
  struct RkCredit;     // cached all-vertices RK credit vector
  struct JointCache;   // cached joint-space result

  Status ValidateRequest(VertexId r, const EstimateRequest& request) const;
  Status ValidateTargets(const std::vector<VertexId>& targets,
                         std::uint64_t iterations) const;

  /// Drops every piece of state bound to the current graph — samplers,
  /// the oracle, shards and whole-graph products — folding the retired
  /// oracle's and shards' work into the counters.
  void ResetGraphState();

  /// options_.num_threads resolved (0 -> hardware concurrency).
  unsigned resolved_threads() const;
  /// options_.spd with num_threads == 0 (inherit) resolved to the engine's
  /// thread budget — the SpdOptions of the engine's own oracle, so
  /// single-query latency scales with the pool via frontier-parallel
  /// passes. Fan-out paths instead run on shards whose spd.num_threads is
  /// 1 (see the pool-splitting policy in the file comment). An explicit
  /// options_.spd.num_threads is passed through untouched.
  SpdOptions IntraPassSpd() const;
  /// Lazily-built worker pool (resolved_threads() wide).
  ThreadPool* pool();
  /// Lazily builds one sequential engine shard per pool worker.
  void EnsureShards();
  /// One validated query. `call_clock` was started when the public call
  /// began; kDeadline budgets run against it.
  EstimateReport ServeValidated(VertexId r, const EstimateRequest& request,
                                const WallTimer& call_clock);

  /// The budget loop every sampling kind runs (see the file comment).
  void RunBudget(VertexId r, const EstimateRequest& request,
                 const WallTimer& call_clock, EstimateReport* report);

  // Lazily-built shared state.
  DependencyOracle* oracle();
  /// The iid sampler of `entry`'s kind (entry.make_sampler is non-null).
  SourceSampler* sampler(const EstimatorEntry& entry);
  const std::vector<double>& exact_scores();
  std::uint32_t vertex_diameter(std::uint64_t seed);

  /// Returns the all-vertices RK credit vector for (samples, seed),
  /// serving the cache when the key matches and (re)building it through
  /// the batched accumulation otherwise — one construction path, so a
  /// cache serve is always bit-identical to a rebuild. When building and
  /// `batch_estimates` is non-null, it receives the per-batch estimates
  /// of `se_vertex` (the budget loop's batches).
  const RkCredit& EnsureRkCredit(std::uint64_t samples, std::uint64_t seed,
                                 VertexId se_vertex,
                                 std::vector<double>* batch_estimates,
                                 bool* served_from_cache);

  const CsrGraph* graph_;
  EngineOptions options_;

  /// The post-edit graph the last ApplyDelta built, which graph_ points
  /// at; null while the engine serves a graph it does not own.
  std::unique_ptr<const CsrGraph> owned_graph_;
  std::uint64_t graph_epoch_ = 0;

  /// The memo the oracle is built on: the one the engine was constructed
  /// or bound on, or the one ApplyDelta carried (null: private).
  std::shared_ptr<DependencyMemo> memo_;
  std::unique_ptr<DependencyOracle> oracle_;
  /// One iid sampler per kind, indexed by kind; empty until first use.
  std::vector<std::unique_ptr<SourceSampler>> samplers_;
  /// The chain sampler `mh` and `mh-rb` share.
  std::unique_ptr<MhBetweennessSampler> chain_;

  std::vector<double> exact_scores_;
  bool exact_ready_ = false;
  std::optional<std::uint32_t> vertex_diameter_;
  std::uint64_t diameter_seed_ = 0;
  std::unique_ptr<RkCredit> rk_credit_;
  std::unique_ptr<JointCache> joint_cache_;

  /// Worker pool and per-worker engine shards for the parallel paths;
  /// both lazily built, both absent while the engine runs sequentially.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<BetweennessEngine>> shards_;

  /// Passes run outside the oracle and shards (exact build, probes), plus
  /// the passes and memo hits of the oracles and shards that
  /// ResetGraphState retired.
  std::uint64_t extra_passes_ = 0;
  std::uint64_t retired_cache_hits_ = 0;
};

}  // namespace mhbc
