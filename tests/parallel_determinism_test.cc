#include <gtest/gtest.h>

#include <vector>

#include "centrality/engine.h"
#include "core/multi_chain.h"
#include "exact/brandes.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"

/// \file
/// Thread-count invariance — the parallel subsystem's hard requirement:
/// for fixed seeds, every statistical result is bit-identical at 1, 2,
/// and 4 threads. Work accounting (sp_passes attribution, cache_hit,
/// seconds) is explicitly outside the guarantee (see centrality/engine.h)
/// and is not compared here.

namespace mhbc {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 4};

// ------------------------------------------------------------- Brandes

TEST(ParallelBrandesTest, BitIdenticalAtEveryThreadCount) {
  const CsrGraph g = MakeBarabasiAlbert(400, 3, 7);
  const std::vector<double> baseline =
      BrandesBetweenness(g, Normalization::kPaper, 1);
  for (unsigned threads : kThreadCounts) {
    const std::vector<double> scores =
        BrandesBetweenness(g, Normalization::kPaper, threads);
    ASSERT_EQ(scores.size(), baseline.size());
    for (std::size_t v = 0; v < scores.size(); ++v) {
      EXPECT_EQ(scores[v], baseline[v]) << "vertex " << v << " at "
                                        << threads << " threads";
    }
  }
}

TEST(ParallelBrandesTest, MatchesSequentialExactWithinRounding) {
  // BrandesBetweenness regroups the per-source sum (fixed shards), so it
  // may differ from ExactBetweenness by floating-point associativity only.
  for (const CsrGraph& g :
       {MakeBarbell(8, 2), MakeConnectedCaveman(5, 8), MakeGrid(9, 9)}) {
    const std::vector<double> sharded = BrandesBetweenness(g);
    const std::vector<double> sequential = ExactBetweenness(g);
    ASSERT_EQ(sharded.size(), sequential.size());
    for (std::size_t v = 0; v < sharded.size(); ++v) {
      EXPECT_NEAR(sharded[v], sequential[v], 1e-12) << "vertex " << v;
    }
  }
}

TEST(ParallelBrandesTest, WeightedGraphSupported) {
  const CsrGraph wg = AssignUniformWeights(MakeBarbell(6, 1), 1.0, 2.0, 3);
  const std::vector<double> one = BrandesBetweenness(wg, Normalization::kPaper, 1);
  const std::vector<double> four = BrandesBetweenness(wg, Normalization::kPaper, 4);
  EXPECT_EQ(one, four);
}

// --------------------------------------------------------- multi-chain

TEST(ParallelMultiChainTest, ResultBitIdenticalAtEveryThreadCount) {
  const CsrGraph g = MakeConnectedCaveman(5, 8);
  MhOptions options;
  options.seed = 29;
  const MultiChainResult baseline =
      RunMultipleChains(g, /*r=*/7, /*iterations=*/600, /*num_chains=*/4,
                        options, /*num_threads=*/1);
  for (unsigned threads : kThreadCounts) {
    const MultiChainResult result =
        RunMultipleChains(g, 7, 600, 4, options, threads);
    EXPECT_EQ(result.pooled_estimate, baseline.pooled_estimate)
        << threads << " threads";
    EXPECT_EQ(result.pooled_proposal_estimate,
              baseline.pooled_proposal_estimate);
    EXPECT_EQ(result.r_hat, baseline.r_hat);
    EXPECT_EQ(result.chain_estimates, baseline.chain_estimates);
    EXPECT_EQ(result.sp_passes, baseline.sp_passes);
  }
}

// -------------------------------------------------------------- engine

/// Compares the statistical fields of two reports bit-for-bit.
void ExpectSameStatistics(const EstimateReport& got,
                          const EstimateReport& want,
                          const std::string& label) {
  EXPECT_EQ(got.vertex, want.vertex) << label;
  EXPECT_EQ(got.kind, want.kind) << label;
  EXPECT_EQ(got.value, want.value) << label;
  EXPECT_EQ(got.samples_used, want.samples_used) << label;
  EXPECT_EQ(got.acceptance_rate, want.acceptance_rate) << label;
  EXPECT_EQ(got.ess, want.ess) << label;
  EXPECT_EQ(got.std_error, want.std_error) << label;
  EXPECT_EQ(got.ci_half_width, want.ci_half_width) << label;
  EXPECT_EQ(got.converged, want.converged) << label;
}

std::vector<EstimateReport> ManyAtThreads(const CsrGraph& g, unsigned threads,
                                          const EstimateRequest& request,
                                          const std::vector<VertexId>& vs) {
  EngineOptions options;
  options.num_threads = threads;
  BetweennessEngine engine(g, options);
  auto reports = engine.EstimateMany(vs, request);
  EXPECT_TRUE(reports.ok());
  return std::move(reports).value();
}

TEST(ParallelEngineTest, EstimateManyReportsInvariantAcrossThreadCounts) {
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  const std::vector<VertexId> vertices{9, 19, 29, 39, 49, 59, 3, 14};
  for (EstimatorKind kind :
       {EstimatorKind::kMetropolisHastings, EstimatorKind::kMhRaoBlackwell,
        EstimatorKind::kUniformSource, EstimatorKind::kDistanceProportional,
        EstimatorKind::kLinearScaling}) {
    EstimateRequest request;
    request.kind = kind;
    request.samples = 300;
    request.seed = 0xDE7;
    const std::vector<EstimateReport> baseline =
        ManyAtThreads(g, 1, request, vertices);
    for (unsigned threads : kThreadCounts) {
      const std::vector<EstimateReport> reports =
          ManyAtThreads(g, threads, request, vertices);
      ASSERT_EQ(reports.size(), baseline.size());
      for (std::size_t i = 0; i < reports.size(); ++i) {
        ExpectSameStatistics(reports[i], baseline[i],
                             std::string(EstimatorKindName(kind)) + " @" +
                                 std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(ParallelEngineTest, AdaptiveBudgetInvariantAcrossThreadCounts) {
  // kStandardError stop rules depend only on batch means, so the sharded
  // fan-out must reproduce samples_used and convergence bit-for-bit too.
  const CsrGraph g = MakeBarbell(6, 2);
  const std::vector<VertexId> vertices{6, 7, 0, 12};
  EstimateRequest request;
  request.kind = EstimatorKind::kUniformSource;
  request.budget = BudgetKind::kStandardError;
  request.target_std_error = 0.02;
  request.seed = 0xADA;
  const std::vector<EstimateReport> baseline =
      ManyAtThreads(g, 1, request, vertices);
  for (unsigned threads : kThreadCounts) {
    const std::vector<EstimateReport> reports =
        ManyAtThreads(g, threads, request, vertices);
    ASSERT_EQ(reports.size(), baseline.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      ExpectSameStatistics(reports[i], baseline[i],
                           "adaptive @" + std::to_string(threads));
    }
  }
}

TEST(ParallelEngineTest, ExactAndTopKInvariantAcrossThreadCounts) {
  const CsrGraph g = MakeConnectedCaveman(4, 8);
  EstimateRequest exact;
  exact.kind = EstimatorKind::kExact;

  EngineOptions base_options;
  base_options.num_threads = 1;
  BetweennessEngine baseline_engine(g, base_options);
  const auto baseline_exact = baseline_engine.Estimate(7, exact);
  const auto baseline_topk = baseline_engine.TopK(5, 0.05, 0.1, 17);
  ASSERT_TRUE(baseline_exact.ok() && baseline_topk.ok());

  for (unsigned threads : kThreadCounts) {
    EngineOptions options;
    options.num_threads = threads;
    BetweennessEngine engine(g, options);
    const auto report = engine.Estimate(7, exact);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().value, baseline_exact.value().value)
        << threads << " threads";
    const auto top = engine.TopK(5, 0.05, 0.1, 17);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top.value().size(), baseline_topk.value().size());
    for (std::size_t i = 0; i < top.value().size(); ++i) {
      EXPECT_EQ(top.value()[i].vertex, baseline_topk.value()[i].vertex);
      EXPECT_EQ(top.value()[i].estimate, baseline_topk.value()[i].estimate);
    }
  }
}

TEST(ParallelEngineTest, BatchInvariantAcrossThreadCountsAndFailsFast) {
  const CsrGraph g = MakeBarbell(5, 1);
  EstimateRequest mh;
  mh.vertex = 5;
  mh.kind = EstimatorKind::kMetropolisHastings;
  mh.samples = 200;
  EstimateRequest uniform;
  uniform.vertex = 6;
  uniform.kind = EstimatorKind::kUniformSource;
  uniform.samples = 250;
  const std::vector<EstimateRequest> requests{mh, uniform};

  EngineOptions base_options;
  BetweennessEngine baseline_engine(g, base_options);
  const auto baseline = baseline_engine.EstimateBatch(requests);
  ASSERT_TRUE(baseline.ok());

  for (unsigned threads : kThreadCounts) {
    EngineOptions options;
    options.num_threads = threads;
    BetweennessEngine engine(g, options);
    const auto batch = engine.EstimateBatch(requests);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch.value().size(), baseline.value().size());
    for (std::size_t i = 0; i < batch.value().size(); ++i) {
      ExpectSameStatistics(batch.value()[i], baseline.value()[i],
                           "batch @" + std::to_string(threads));
    }
    // Validation still rejects the whole batch before any work.
    EstimateRequest bad = mh;
    bad.vertex = 99;
    EXPECT_FALSE(engine.EstimateBatch({mh, bad}).ok());
  }
}

// --------------------------------------------------- intra-pass threads

TEST(ParallelBrandesTest, IntraPassSpdBitIdenticalToSequential) {
  // Frontier-parallel passes inside ExactBetweenness / BrandesBetweenness:
  // any spd.num_threads (grain 0 forces every level through the sharded
  // steps) must reproduce the sequential kernel bit-for-bit.
  const CsrGraph g = MakeBarabasiAlbert(350, 3, 11);
  const std::vector<double> exact_baseline = ExactBetweenness(g);
  // Note the distinct baselines: BrandesBetweenness regroups the
  // per-source sum into fixed shards even at 1 thread, so it is compared
  // against itself, never bitwise against ExactBetweenness.
  const std::vector<double> sharded_baseline =
      BrandesBetweenness(g, Normalization::kPaper, 1);
  for (unsigned intra : kThreadCounts) {
    SpdOptions spd;
    spd.num_threads = intra;
    spd.parallel_grain = 0;
    EXPECT_EQ(ExactBetweenness(g, Normalization::kPaper, spd), exact_baseline)
        << intra << " intra-pass threads";
    // Source-parallel at 1 thread: the caller's intra-pass setting applies
    // within each pass.
    EXPECT_EQ(BrandesBetweenness(g, Normalization::kPaper, 1, spd),
              sharded_baseline)
        << intra << " intra-pass threads (source-serial)";
    // Source-parallel at >1 threads: pool splitting forces the passes
    // sequential; still bit-identical to the 1-thread sharded run.
    EXPECT_EQ(BrandesBetweenness(g, Normalization::kPaper, 4, spd),
              sharded_baseline)
        << intra << " intra-pass threads (source-parallel)";
  }
}

TEST(ParallelEngineTest, IntraPassThreadsInvariantForSerialQueries) {
  // A serial engine (num_threads = 1) with frontier-parallel passes must
  // report every statistical field bit-identically to the default.
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  for (EstimatorKind kind :
       {EstimatorKind::kMetropolisHastings, EstimatorKind::kUniformSource,
        EstimatorKind::kShortestPath, EstimatorKind::kExact}) {
    EstimateRequest request;
    request.kind = kind;
    request.samples = 250;
    request.seed = 0x17A;
    EngineOptions base_options;
    base_options.num_threads = 1;
    BetweennessEngine baseline_engine(g, base_options);
    const auto baseline = baseline_engine.Estimate(19, request);
    ASSERT_TRUE(baseline.ok());
    for (unsigned intra : kThreadCounts) {
      EngineOptions options;
      options.num_threads = 1;
      options.spd.num_threads = intra;
      options.spd.parallel_grain = 0;
      BetweennessEngine engine(g, options);
      const auto report = engine.Estimate(19, request);
      ASSERT_TRUE(report.ok());
      ExpectSameStatistics(report.value(), baseline.value(),
                           std::string(EstimatorKindName(kind)) + " @" +
                               std::to_string(intra) + " intra threads");
    }
  }
}

TEST(ParallelEngineTest, IntraPassInheritsEnginePoolForSingleQueries) {
  // spd.num_threads == 0 (default) inherits the engine pool width for
  // serial-path queries; the composition must stay bit-neutral, including
  // for EstimateMany fan-outs where shards force passes sequential.
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  const std::vector<VertexId> vertices{9, 19, 29, 39, 49, 59, 3, 14};
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 300;
  request.seed = 0xDE7;
  const std::vector<EstimateReport> baseline =
      ManyAtThreads(g, 1, request, vertices);
  for (unsigned threads : kThreadCounts) {
    EngineOptions options;
    options.num_threads = threads;  // spd.num_threads stays 0 = inherit
    options.spd.parallel_grain = 0;
    BetweennessEngine engine(g, options);
    // Single query: runs on the serial path with intra-pass parallelism.
    const auto single = engine.Estimate(19, request);
    ASSERT_TRUE(single.ok());
    ExpectSameStatistics(single.value(), baseline[1],
                         "inherited intra @" + std::to_string(threads));
    // Fan-out: fewer queries than threads stays serial-across-sources but
    // intra-parallel; at or above the width it shards with serial passes.
    auto many = engine.EstimateMany(vertices, request);
    ASSERT_TRUE(many.ok());
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      ExpectSameStatistics(many.value()[i], baseline[i],
                           "inherited many @" + std::to_string(threads));
    }
  }
}

TEST(ParallelEngineTest, IntraPassAfterApplyDeltaMatchesColdEngine) {
  // The mutation contract extends to frontier-parallel passes: after
  // ApplyDelta, reports must match a cold engine built on the post-edit
  // graph at every intra-pass width.
  const CsrGraph g = MakeBarabasiAlbert(220, 3, 0x1D);
  const GraphDelta delta = MakeRandomEditScript(g, 12, 0xED17);
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 220;
  request.seed = 0xF00;
  for (unsigned intra : kThreadCounts) {
    EngineOptions options;
    options.num_threads = 1;
    options.spd.num_threads = intra;
    options.spd.parallel_grain = 0;
    BetweennessEngine engine(g, options);
    ASSERT_TRUE(engine.Estimate(7, request).ok());  // warm the memo
    ASSERT_TRUE(engine.ApplyDelta(delta).ok());
    const auto edited = engine.Estimate(7, request);
    ASSERT_TRUE(edited.ok());
    BetweennessEngine cold(engine.graph(), options);
    const auto cold_report = cold.Estimate(7, request);
    ASSERT_TRUE(cold_report.ok());
    ExpectSameStatistics(edited.value(), cold_report.value(),
                         "post-delta @" + std::to_string(intra));
  }
}

TEST(ParallelEngineTest, ShardMemosMergeBackIntoOwningEngine) {
  // After a parallel fan-out, a sequential query on the same engine must
  // reuse the shards' passes through the memo the shards share with it.
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  EngineOptions options;
  options.num_threads = 4;
  BetweennessEngine engine(g, options);
  EstimateRequest request;
  request.kind = EstimatorKind::kUniformSource;
  request.samples = 400;  // >> n = 60: every source gets sampled
  request.seed = 0x5EED;
  ASSERT_TRUE(engine.EstimateMany({9, 19, 29, 39}, request).ok());
  const std::uint64_t passes_before = engine.total_sp_passes();
  const auto sequential = engine.Estimate(49, request);
  ASSERT_TRUE(sequential.ok());
  EXPECT_TRUE(sequential.value().cache_hit);
  // The shared memo means the follow-up costs less than a cold engine
  // pays.
  BetweennessEngine cold(g);
  const auto cold_report = cold.Estimate(49, request);
  ASSERT_TRUE(cold_report.ok());
  EXPECT_LT(engine.total_sp_passes() - passes_before,
            cold_report.value().sp_passes);
  EXPECT_EQ(sequential.value().value, cold_report.value().value);
}

}  // namespace
}  // namespace mhbc
