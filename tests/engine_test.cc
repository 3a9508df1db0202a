#include "centrality/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "exact/brandes.h"
#include "graph/generators.h"

namespace mhbc {
namespace {

// ----------------------------------------------------------- registry

TEST(EstimatorRegistryTest, CoversEveryKindInCanonicalOrder) {
  const std::vector<EstimatorEntry>& registry = EstimatorRegistry();
  ASSERT_EQ(registry.size(), AllEstimatorKinds().size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(registry[i].kind, AllEstimatorKinds()[i]);
    EXPECT_STREQ(registry[i].name, EstimatorKindName(registry[i].kind));
  }
}

TEST(EstimatorRegistryTest, LookupByKindAndNameAgree) {
  for (EstimatorKind kind : AllEstimatorKinds()) {
    const EstimatorEntry* by_kind = FindEstimator(kind);
    ASSERT_NE(by_kind, nullptr);
    const EstimatorEntry* by_name = FindEstimator(std::string(by_kind->name));
    ASSERT_NE(by_name, nullptr);
    EXPECT_EQ(by_name->kind, kind);
  }
  EXPECT_EQ(FindEstimator(std::string("nonsense")), nullptr);
}

TEST(EstimatorRegistryTest, EstimatorKindNamesRoundTrip) {
  // Every kind — AllEstimatorKinds() is the canonical list, so a newly
  // added estimator is covered (or fails here) automatically.
  for (EstimatorKind kind : AllEstimatorKinds()) {
    EstimatorKind parsed;
    ASSERT_TRUE(ParseEstimatorKind(EstimatorKindName(kind), &parsed))
        << EstimatorKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  EstimatorKind parsed;
  EXPECT_FALSE(ParseEstimatorKind("nonsense", &parsed));
  EXPECT_FALSE(ParseEstimatorKind("", &parsed));
  EXPECT_FALSE(ParseEstimatorKind("unknown", &parsed));
}

TEST(EstimatorRegistryTest, WeightedSupportMatchesValidation) {
  const CsrGraph wg = AssignUniformWeights(MakeCycle(8), 1.0, 2.0, 5);
  BetweennessEngine engine(wg);
  for (const EstimatorEntry& entry : EstimatorRegistry()) {
    EstimateRequest request;
    request.kind = entry.kind;
    request.samples = 20;
    EXPECT_EQ(engine.Estimate(0, request).ok(), entry.supports_weighted)
        << entry.name;
  }
}

// ------------------------------------------------- cache amortization

TEST(EngineTest, SecondVertexCostsFewerPassesThanFreshEngines) {
  // The acceptance bar of the engine design: one engine serving two
  // vertices beats two fresh engines, one per vertex, on total passes,
  // because one pass from source v yields delta_v(.) for EVERY target.
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  const VertexId v1 = 9, v2 = 19;
  for (EstimatorKind kind : {EstimatorKind::kDistanceProportional,
                             EstimatorKind::kMetropolisHastings}) {
    EstimateRequest request;
    request.kind = kind;
    request.samples = 400;
    request.seed = 7;
    const auto free1 = BetweennessEngine(g).Estimate(v1, request);
    const auto free2 = BetweennessEngine(g).Estimate(v2, request);
    ASSERT_TRUE(free1.ok() && free2.ok());
    const std::uint64_t free_total =
        free1.value().sp_passes + free2.value().sp_passes;

    BetweennessEngine engine(g);
    const auto session1 = engine.Estimate(v1, request);
    const auto session2 = engine.Estimate(v2, request);
    ASSERT_TRUE(session1.ok() && session2.ok());
    const std::uint64_t session_total =
        session1.value().sp_passes + session2.value().sp_passes;

    EXPECT_LT(session_total, free_total) << EstimatorKindName(kind);
    EXPECT_LT(session2.value().sp_passes, session1.value().sp_passes)
        << EstimatorKindName(kind);
    EXPECT_TRUE(session2.value().cache_hit) << EstimatorKindName(kind);
    // Caching changes work, never values: each query matches its
    // fresh-engine twin exactly.
    EXPECT_DOUBLE_EQ(session1.value().value, free1.value().value);
    EXPECT_DOUBLE_EQ(session2.value().value, free2.value().value);
  }
}

TEST(EngineTest, RepeatedQueryIsServedFromCaches) {
  const CsrGraph g = MakeConnectedCaveman(5, 8);
  BetweennessEngine engine(g);
  EstimateRequest request;
  request.kind = EstimatorKind::kDistanceProportional;
  request.samples = 300;
  request.seed = 21;
  const auto first = engine.Estimate(10, request);
  const auto second = engine.Estimate(10, request);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_DOUBLE_EQ(second.value().value, first.value().value);
  EXPECT_EQ(second.value().sp_passes, 0u);  // every source memoized
  EXPECT_TRUE(second.value().cache_hit);
}

TEST(EngineTest, ShardMemoKeepsOneEntryUnderATinyBudget) {
  // A sharded fan-out runs its shards on the engine's memo, sized from the
  // engine's budget: here exactly one entry (n doubles on an unweighted
  // graph). The shards must keep memoizing in that one entry while they
  // fill it concurrently.
  const CsrGraph g = MakePath(4);
  EngineOptions options;
  options.num_threads = 2;
  options.dependency_cache_bytes = g.num_vertices() * sizeof(double);
  BetweennessEngine engine(g, options);
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 64;
  const auto reports = engine.EstimateMany({1, 2}, request);
  ASSERT_TRUE(reports.ok());
  // Two queries on two threads fan out, so every hit is a shard's.
  EXPECT_GT(engine.dependency_cache_hits(), 0u);
}

TEST(EngineTest, ExactScoresComputedOnceServeEveryVertex) {
  const CsrGraph g = MakeBarbell(5, 1);
  BetweennessEngine engine(g);
  EstimateRequest request;
  request.kind = EstimatorKind::kExact;
  const auto first = engine.Estimate(4, request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().sp_passes, g.num_vertices());
  EXPECT_NEAR(first.value().value, ExactBetweennessSingle(g, 4), 1e-12);

  const auto second = engine.Estimate(5, request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().sp_passes, 0u);
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_NEAR(second.value().value, ExactBetweennessSingle(g, 5), 1e-12);
}

TEST(EngineTest, RkCreditVectorIsSharedAcrossVertices) {
  const CsrGraph g = MakeConnectedCaveman(4, 8);
  BetweennessEngine engine(g);
  EstimateRequest request;
  request.kind = EstimatorKind::kShortestPath;
  request.samples = 500;
  request.seed = 3;
  const auto reports = engine.EstimateMany({7, 15, 23}, request);
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports.value().size(), 3u);
  EXPECT_EQ(reports.value()[0].sp_passes, 500u);
  EXPECT_EQ(reports.value()[1].sp_passes, 0u);  // served from the vector
  EXPECT_EQ(reports.value()[2].sp_passes, 0u);
  EXPECT_TRUE(reports.value()[1].cache_hit);
  // Cached serves agree with a fresh engine paying full price.
  BetweennessEngine fresh(g);
  const auto direct = fresh.Estimate(15, request);
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(reports.value()[1].value, direct.value().value);
  EXPECT_EQ(fresh.total_sp_passes(), 500u);
  // At four threads the credit batches pass on the shards' oracles: each
  // sampled path is still one pass, counted once.
  EngineOptions wide_options;
  wide_options.num_threads = 4;
  BetweennessEngine wide(g, wide_options);
  const auto wide_report = wide.Estimate(15, request);
  ASSERT_TRUE(wide_report.ok());
  EXPECT_EQ(wide_report.value().sp_passes, 500u);
  EXPECT_EQ(wide.total_sp_passes(), 500u);
  EXPECT_DOUBLE_EQ(wide_report.value().value, direct.value().value);
}

TEST(EngineTest, JointResultCacheServesScoresAndRanking) {
  const CsrGraph g = MakeBarbell(5, 1);
  BetweennessEngine engine(g);
  const std::vector<VertexId> targets{4, 5, 6};
  const auto joint = engine.EstimateRelative(targets, 5'000, 99);
  ASSERT_TRUE(joint.ok());
  const std::uint64_t passes_after_joint = engine.total_sp_passes();
  const auto ranking = engine.RankTargets(targets, 5'000, 99);
  ASSERT_TRUE(ranking.ok());
  // The ranking came from the cached joint result — no new chain.
  EXPECT_EQ(engine.total_sp_passes(), passes_after_joint);
  EXPECT_EQ(ranking.value(),
            RankOrderFromScores(joint.value().copeland_scores));
  EXPECT_EQ(ranking.value().front(), 1u);  // the bridge out-ranks gateways
}

TEST(EngineTest, RankOrderFromScoresBreaksTiesByInputOrder) {
  // The documented stable_sort contract: equal scores keep input order.
  const std::vector<double> scores{2.0, 5.0, 2.0, 7.0, 2.0};
  const std::vector<std::size_t> order = RankOrderFromScores(scores);
  const std::vector<std::size_t> expected{3, 1, 0, 2, 4};
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(RankOrderFromScores({}).empty());
  const std::vector<std::size_t> all_tied = RankOrderFromScores({1.0, 1.0, 1.0});
  const std::vector<std::size_t> identity{0, 1, 2};
  EXPECT_EQ(all_tied, identity);
}

// -------------------------------------------------------- determinism

TEST(EngineTest, FixedSeedsReproduceIdenticalReports) {
  const CsrGraph g = MakeConnectedCaveman(5, 8);
  for (EstimatorKind kind : AllEstimatorKinds()) {
    EstimateRequest request;
    request.kind = kind;
    request.samples = 250;
    request.seed = 0xD5;
    BetweennessEngine a(g);
    BetweennessEngine b(g);
    // Warm b with an unrelated query first: caches must not leak into
    // the reported values.
    EstimateRequest warmup = request;
    warmup.seed = 0xF00;
    ASSERT_TRUE(b.Estimate(3, warmup).ok());
    const auto from_a = a.Estimate(12, request);
    const auto from_b = b.Estimate(12, request);
    ASSERT_TRUE(from_a.ok() && from_b.ok()) << EstimatorKindName(kind);
    EXPECT_DOUBLE_EQ(from_a.value().value, from_b.value().value)
        << EstimatorKindName(kind);
    EXPECT_EQ(from_a.value().samples_used, from_b.value().samples_used);
    EXPECT_DOUBLE_EQ(from_a.value().std_error, from_b.value().std_error)
        << EstimatorKindName(kind);
    EXPECT_DOUBLE_EQ(from_a.value().ess, from_b.value().ess)
        << EstimatorKindName(kind);
  }
}

// ------------------------------------------------- budgets and reports

TEST(EngineTest, ChainReportsCarryDiagnostics) {
  const CsrGraph g = MakeBarbell(6, 2);
  BetweennessEngine engine(g);
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 600;
  const auto report = engine.Estimate(6, request);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().acceptance_rate, 0.0);
  EXPECT_LE(report.value().acceptance_rate, 1.0);
  EXPECT_GT(report.value().ess, 0.0);
  EXPECT_GT(report.value().std_error, 0.0);
  EXPECT_DOUBLE_EQ(report.value().ci_half_width,
                   kConfidenceZ * report.value().std_error);
  EXPECT_EQ(report.value().samples_used, 600u);
  EXPECT_EQ(report.value().vertex, 6u);
}

TEST(EngineTest, StandardErrorBudgetConverges) {
  const CsrGraph g = MakeBarbell(5, 1);
  BetweennessEngine engine(g);
  EstimateRequest request;
  request.kind = EstimatorKind::kUniformSource;
  request.budget = BudgetKind::kStandardError;
  request.target_std_error = 0.02;
  const auto report = engine.Estimate(5, request);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().converged);
  EXPECT_LE(report.value().std_error, 0.02);
  EXPECT_GT(report.value().samples_used, 0u);
  const double exact = ExactBetweennessSingle(g, 5);
  EXPECT_NEAR(report.value().value, exact, 10 * 0.02);
}

TEST(EngineTest, StandardErrorBudgetReportsNonConvergence) {
  const CsrGraph g = MakeBarabasiAlbert(200, 3, 11);
  BetweennessEngine engine(g);
  EstimateRequest request;
  request.kind = EstimatorKind::kUniformSource;
  request.budget = BudgetKind::kStandardError;
  request.target_std_error = 1e-12;  // unreachable
  request.max_samples = 512;
  const auto report = engine.Estimate(0, request);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().converged);
  EXPECT_LE(report.value().samples_used, 512u);
  // A chain kind hits the cap too: its doubling runs end at exactly
  // max_samples iterations.
  request.kind = EstimatorKind::kMetropolisHastings;
  const auto chain = engine.Estimate(0, request);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain.value().converged);
  EXPECT_EQ(chain.value().samples_used, 512u);
}

TEST(EngineTest, AdaptiveChainBudgetConverges) {
  const CsrGraph g = MakeBarbell(5, 1);
  BetweennessEngine engine(g);
  EstimateRequest request;
  request.kind = EstimatorKind::kMhRaoBlackwell;
  request.budget = BudgetKind::kStandardError;
  request.target_std_error = 0.02;
  request.max_samples = 1 << 15;
  const auto report = engine.Estimate(5, request);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().converged);
  EXPECT_LE(report.value().std_error, 0.02);
  // The converged report is a pure function of (seed, samples_used):
  // replaying it as a fixed-budget request reproduces the value exactly.
  EstimateRequest replay;
  replay.kind = request.kind;
  replay.samples = report.value().samples_used;
  replay.seed = request.seed;
  BetweennessEngine fresh(g);
  const auto replayed = fresh.Estimate(5, replay);
  ASSERT_TRUE(replayed.ok());
  EXPECT_DOUBLE_EQ(replayed.value().value, report.value().value);
  // A tighter target costs more iterations.
  request.target_std_error = 0.005;
  const auto tighter = engine.Estimate(5, request);
  ASSERT_TRUE(tighter.ok());
  EXPECT_TRUE(tighter.value().converged);
  EXPECT_GT(tighter.value().samples_used, report.value().samples_used);
  // A zero-betweenness clique vertex stops at the first run: every term
  // is 0, so the standard error is too.
  const auto zero = engine.Estimate(0, request);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero.value().converged);
  EXPECT_EQ(zero.value().samples_used, 128u);
  EXPECT_EQ(zero.value().value, 0.0);
}

TEST(EngineTest, DeadlineBudgetStopsAndReports) {
  const CsrGraph g = MakeConnectedCaveman(4, 8);
  BetweennessEngine engine(g);
  EstimateRequest request;
  request.kind = EstimatorKind::kUniformSource;
  request.budget = BudgetKind::kDeadline;
  request.deadline_seconds = 0.02;
  request.max_samples = 1 << 22;
  const auto report = engine.Estimate(7, request);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().converged);
  EXPECT_GT(report.value().samples_used, 0u);
  EXPECT_LE(report.value().seconds, 1.0);  // generous sanity bound
}

TEST(EngineTest, BatchServesHeterogeneousRequestsAndFailsFast) {
  const CsrGraph g = MakeBarbell(4, 1);
  BetweennessEngine engine(g);
  EstimateRequest mh;
  mh.vertex = 4;
  mh.samples = 200;
  EstimateRequest exact;
  exact.vertex = 5;
  exact.kind = EstimatorKind::kExact;
  const auto batch = engine.EstimateBatch({mh, exact});
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 2u);
  EXPECT_EQ(batch.value()[0].kind, EstimatorKind::kMetropolisHastings);
  EXPECT_EQ(batch.value()[1].kind, EstimatorKind::kExact);

  // An invalid vertex anywhere rejects the whole batch before any work.
  EstimateRequest bad = mh;
  bad.vertex = 99;
  const std::uint64_t passes_before = engine.total_sp_passes();
  EXPECT_FALSE(engine.EstimateBatch({mh, bad}).ok());
  EXPECT_EQ(engine.total_sp_passes(), passes_before);
}

// -------------------------------------------------------- validation

TEST(EngineTest, ValidationRejectsMalformedRequests) {
  const CsrGraph g = MakeCycle(6);
  BetweennessEngine engine(g);
  EstimateRequest request;
  const auto out_of_range = engine.Estimate(6, request);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  request.samples = 0;
  EXPECT_FALSE(engine.Estimate(0, request).ok());  // empty budget
  request.samples = 10;
  request.budget = BudgetKind::kDeadline;
  EXPECT_FALSE(engine.Estimate(0, request).ok());  // no deadline given
  request.budget = BudgetKind::kStandardError;
  EXPECT_FALSE(engine.Estimate(0, request).ok());  // no target given
  const CsrGraph trivial = MakePath(1);
  BetweennessEngine tiny(trivial);
  EXPECT_FALSE(tiny.Estimate(0, EstimateRequest()).ok());
}

TEST(EngineTest, RelativeBetweennessValidation) {
  const CsrGraph g = MakeCycle(8);
  BetweennessEngine engine(g);
  EXPECT_FALSE(engine.EstimateRelative({0}, 100).ok());     // one target
  EXPECT_FALSE(engine.EstimateRelative({0, 9}, 100).ok());  // out of range
  EXPECT_FALSE(engine.EstimateRelative({0, 0}, 100).ok());  // duplicate
  EXPECT_FALSE(engine.EstimateRelative({0, 4}, 0).ok());    // empty budget
  EXPECT_TRUE(engine.EstimateRelative({0, 4}, 100).ok());
}

TEST(EngineTest, TopKReusesDiameterAndCreditAcrossCalls) {
  const CsrGraph g = MakeConnectedCaveman(5, 8);
  BetweennessEngine engine(g);
  const auto first = engine.TopK(3, 0.05, 0.1, 17);
  ASSERT_TRUE(first.ok());
  const std::uint64_t passes_after_first = engine.total_sp_passes();
  const auto second = engine.TopK(5, 0.05, 0.1, 17);  // larger k, same probe
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.total_sp_passes(), passes_after_first);
  ASSERT_EQ(second.value().size(), 5u);
  for (std::size_t i = 0; i < first.value().size(); ++i) {
    EXPECT_EQ(second.value()[i].vertex, first.value()[i].vertex);
  }
}

}  // namespace
}  // namespace mhbc
