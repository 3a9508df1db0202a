// The dependency memo shared by several oracles (exact/dependency_memo.h)
// and by the sessions of a served graph (serve/catalog.h). Every vector an
// oracle returns must equal a fresh pass bit for bit and stay alive until
// that oracle's next call, whatever another oracle evicts (ASan catches a
// dangling reference); concurrent oracles must be race-free (this suite
// runs in the TSan CI job); one session must reuse another's passes; and a
// mutate must filter the shared memo once, as one private oracle would.

#include "exact/dependency_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "centrality/engine.h"
#include "datasets/registry.h"
#include "exact/dependency_oracle.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "serve/catalog.h"
#include "sp/bfs_spd.h"
#include "sp/delta_spd.h"
#include "sp/dependency.h"
#include "util/thread_pool.h"

namespace mhbc {
namespace {

/// delta_{source.}(.) from a pass engine and accumulator of its own.
std::vector<double> FreshDependencies(const CsrGraph& graph, VertexId source) {
  DependencyAccumulator accumulator(graph);
  if (graph.weighted()) {
    DeltaSpd delta(graph);
    delta.Run(source);
    return accumulator.Accumulate(delta);
  }
  BfsSpd bfs(graph);
  bfs.Run(source);
  return accumulator.Accumulate(bfs);
}

CsrGraph WeightedGrid() {
  return AssignUniformWeights(MakeGrid(6, 6), 1.0, 2.0, 0x9e1d);
}

void ExpectSameStatistics(const EstimateReport& got,
                          const EstimateReport& want) {
  EXPECT_EQ(got.vertex, want.vertex);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.samples_used, want.samples_used);
  EXPECT_EQ(got.acceptance_rate, want.acceptance_rate);
  EXPECT_EQ(got.ess, want.ess);
  EXPECT_EQ(got.std_error, want.std_error);
  EXPECT_EQ(got.ci_half_width, want.ci_half_width);
  EXPECT_EQ(got.converged, want.converged);
}

EstimateRequest MhRequest(std::uint64_t samples, std::uint64_t seed) {
  EstimateRequest request;
  request.samples = samples;
  request.seed = seed;
  return request;
}

// (a) Two oracles on one memo of capacity 1: each insert evicts the other
// oracle's entry, yet every vector an oracle returned stays readable — and
// equal to a fresh pass — until that oracle's next call.
TEST(DependencyMemoTest, ReturnedVectorOutlivesEvictionByAnotherOracle) {
  for (const CsrGraph& graph : {MakeBarabasiAlbert(120, 3, 5), WeightedGrid()}) {
    auto memo = std::make_shared<DependencyMemo>(/*capacity=*/1);
    DependencyOracle first(graph, SpdOptions(), memo);
    DependencyOracle second(graph, SpdOptions(), memo);
    const std::vector<VertexId> sources = {3, 17, 3, 17, 29, 3};
    for (std::size_t i = 0; i + 1 < sources.size(); ++i) {
      const std::vector<double>& mine = first.Dependencies(sources[i]);
      // Evicts `mine` from the memo (capacity 1) or serves it as a hit.
      const std::vector<double>& theirs = second.Dependencies(sources[i + 1]);
      EXPECT_EQ(mine, FreshDependencies(graph, sources[i])) << i;
      EXPECT_EQ(theirs, FreshDependencies(graph, sources[i + 1])) << i;
    }
    EXPECT_EQ(first.num_passes() + second.num_passes() +
                  first.cache_hits() + second.cache_hits(),
              2 * (sources.size() - 1));
    EXPECT_LE(memo->Stats().entries, 1u);
  }
}

// (b) The same from two threads on overlapping sources, each thread on its
// own oracle, with a memo small enough that bulk evictions keep racing the
// lookups.
TEST(DependencyMemoTest, ConcurrentOraclesMatchFreshPasses) {
  for (const CsrGraph& graph : {MakeBarabasiAlbert(200, 3, 9), WeightedGrid()}) {
    std::vector<std::vector<double>> fresh;
    for (VertexId s = 0; s < graph.num_vertices(); ++s) {
      fresh.push_back(FreshDependencies(graph, s));
    }
    auto memo = std::make_shared<DependencyMemo>(/*capacity=*/4);
    ThreadPool pool(2);
    std::vector<std::unique_ptr<DependencyOracle>> oracles;
    for (unsigned w = 0; w < pool.num_threads(); ++w) {
      oracles.push_back(
          std::make_unique<DependencyOracle>(graph, SpdOptions(), memo));
    }
    const VertexId n = graph.num_vertices();
    const std::vector<std::size_t> mismatches = ParallelMap<std::size_t>(
        &pool, 8, [&](unsigned worker, std::size_t item) {
          std::size_t wrong = 0;
          // Items share a window of 12 sources, so the oracles keep hitting
          // and evicting each other's entries.
          for (VertexId step = 0; step < 48; ++step) {
            const VertexId source =
                static_cast<VertexId>((item * 5 + step * 7) % 12) % n;
            if (oracles[worker]->Dependencies(source) != fresh[source]) {
              ++wrong;
            }
          }
          return wrong;
        });
    for (std::size_t item = 0; item < mismatches.size(); ++item) {
      EXPECT_EQ(mismatches[item], 0u) << "item " << item;
    }
    const DependencyMemoStats stats = memo->Stats();
    EXPECT_LE(stats.entries, 4u);
    EXPECT_GT(stats.hits, 0u);
  }
}

// Each graph epoch has its own memo. An oracle that applies an edit batch
// moves to a memo carried from the shared one, holding exactly the passes
// that survive the edits; an oracle still on the pre-edit graph keeps the
// shared memo, and with it every entry, whatever the other one does.
TEST(DependencyMemoTest, EachEpochKeepsItsOwnMemo) {
  const CsrGraph start = MakeGrid(5, 5);
  DynamicGraph dynamic(start);
  GraphDelta delta;
  delta.AddEdge(0, 6);  // a diagonal chord: passes from equidistant sources
                        // survive it
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(delta, &resolved).ok());
  const CsrGraph& next = dynamic.Csr();

  auto memo = std::make_shared<DependencyMemo>(/*capacity=*/25);
  DependencyOracle ahead(start, SpdOptions(), memo);
  DependencyOracle behind(start, SpdOptions(), memo);
  const std::vector<VertexId> warmed = {1, 5, 10, 12, 24};
  for (const VertexId s : warmed) (void)ahead.Dependencies(s);
  ahead.ApplyGraphDelta(next, resolved);
  (void)ahead.Dependencies(6);

  // `behind` still reads the pre-edit memo: ahead's pass from 12 is a hit,
  // bit-identical to a fresh pass on the pre-edit graph.
  EXPECT_EQ(behind.Dependencies(12), FreshDependencies(start, 12));
  EXPECT_EQ(behind.cache_hits(), 1u);
  EXPECT_EQ(behind.num_passes(), 0u);
  // Ahead's post-edit pass from 6 went to the carried memo only.
  EXPECT_EQ(behind.Dependencies(6), FreshDependencies(start, 6));
  EXPECT_EQ(behind.num_passes(), 1u);
  EXPECT_EQ(memo->Stats().entries, warmed.size() + 1);
  EXPECT_EQ(memo->Stats().invalidated, 0u);

  // Ahead's memo holds exactly the survivors (the sources at equal hop
  // distance from both endpoints) plus its own pass from 6, and serves the
  // survivors as fresh passes on the post-edit graph.
  std::vector<VertexId> survivors;
  BfsSpd bfs(start);
  for (const VertexId s : warmed) {
    bfs.Run(s);
    if (bfs.dag().dist[0] == bfs.dag().dist[6]) survivors.push_back(s);
  }
  ASSERT_EQ(survivors, (std::vector<VertexId>{1, 5, 10}));
  EXPECT_EQ(ahead.cached_entries(), survivors.size() + 1);
  EXPECT_EQ(ahead.invalidated_entries(), warmed.size() - survivors.size());
  for (const VertexId s : warmed) {
    const std::uint64_t hits = ahead.cache_hits();
    EXPECT_EQ(ahead.Dependencies(s), FreshDependencies(next, s)) << s;
    const bool survived =
        std::find(survivors.begin(), survivors.end(), s) != survivors.end();
    EXPECT_EQ(ahead.cache_hits() - hits, survived ? 1u : 0u) << s;
  }
}

// (c) In a 2-session catalog entry, session 1 answers the request session 0
// just served without a single pass, with the same statistics.
TEST(DependencyMemoTest, SecondSessionServesFirstSessionsPasses) {
  auto graph = MakeDataset("caveman-36");
  ASSERT_TRUE(graph.ok());
  serve::GraphEntry entry("g", graph.value(), EngineOptions(),
                          /*sessions=*/2);
  serve::ReadLease first = entry.AcquireRead();
  serve::ReadLease second = entry.AcquireRead();
  ASSERT_NE(&first.engine(), &second.engine());
  const std::vector<VertexId> targets = {0, 8, 17};
  const EstimateRequest request = MhRequest(200, 41);
  auto served = first.engine().EstimateMany(targets, request);
  auto again = second.engine().EstimateMany(targets, request);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(again.ok());
  EXPECT_GT(served.value().front().sp_passes, 0u);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(again.value()[i].sp_passes, 0u) << "target " << targets[i];
    EXPECT_TRUE(again.value()[i].cache_hit);
    ExpectSameStatistics(again.value()[i], served.value()[i]);
  }
}

// Sharded fan-outs run their shards on the session's memo, the shared one,
// so the second session's shards find the first session's passes.
TEST(DependencyMemoTest, ShardedSessionsShareThroughTheMemo) {
  auto graph = MakeDataset("caveman-36");
  ASSERT_TRUE(graph.ok());
  EngineOptions options;
  options.num_threads = 2;
  serve::GraphEntry entry("g", graph.value(), options, /*sessions=*/2);
  serve::ReadLease first = entry.AcquireRead();
  serve::ReadLease second = entry.AcquireRead();
  const std::vector<VertexId> targets = {0, 8, 17, 30};
  const EstimateRequest request = MhRequest(150, 12);
  BetweennessEngine cold(graph.value());
  auto want = cold.EstimateMany(targets, request);
  auto served = first.engine().EstimateMany(targets, request);
  auto again = second.engine().EstimateMany(targets, request);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(again.ok());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ExpectSameStatistics(served.value()[i], want.value()[i]);
    ExpectSameStatistics(again.value()[i], want.value()[i]);
    EXPECT_EQ(again.value()[i].sp_passes, 0u) << "target " << targets[i];
  }
}

// (d) After a mutate, both sessions answer as a cold engine on the
// post-edit graph, and the shared memo dropped exactly the entries one
// private oracle holding the same sources drops for that delta: the edits
// were filtered once, not once per session.
void CheckMutateFiltersOnce(const CsrGraph& base, const GraphDelta& delta,
                            const std::vector<VertexId>& targets) {
  const EngineOptions options;
  serve::GraphEntry entry("g", base, options, /*sessions=*/2);
  {
    // Warm both sessions until the memo holds every source.
    serve::ReadLease first = entry.AcquireRead();
    serve::ReadLease second = entry.AcquireRead();
    ASSERT_TRUE(first.engine().EstimateMany(targets, MhRequest(2000, 1)).ok());
    ASSERT_TRUE(second.engine().EstimateMany(targets, MhRequest(2000, 2)).ok());
  }
  const serve::GraphEntryStats warm = entry.Stats();
  ASSERT_EQ(warm.memo.entries, base.num_vertices());
  EXPECT_EQ(warm.memo.invalidated, 0u);

  DependencyOracle private_oracle(base);
  private_oracle.set_cache_capacity(base.num_vertices());
  for (VertexId s = 0; s < base.num_vertices(); ++s) {
    (void)private_oracle.Dependencies(s);
  }
  DynamicGraph dynamic(base);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(delta, &resolved).ok());
  const CsrGraph& next = dynamic.Csr();
  private_oracle.ApplyGraphDelta(next, resolved);

  const auto installed = entry.Mutate(delta);
  ASSERT_TRUE(installed.ok());
  EXPECT_EQ(installed.value().epoch, 1u);
  EXPECT_EQ(installed.value().shape.num_vertices, next.num_vertices());
  EXPECT_EQ(installed.value().shape.num_edges, next.num_edges());
  const serve::GraphEntryStats mutated = entry.Stats();
  EXPECT_GT(private_oracle.invalidated_entries(), 0u);
  EXPECT_EQ(mutated.memo.invalidated, private_oracle.invalidated_entries());
  EXPECT_EQ(mutated.memo.entries, private_oracle.cached_entries());
  EXPECT_LT(mutated.memo.entries, warm.memo.entries);

  BetweennessEngine cold(next, options);
  const EstimateRequest request = MhRequest(300, 77);
  auto want = cold.EstimateMany(targets, request);
  ASSERT_TRUE(want.ok());
  serve::ReadLease first = entry.AcquireRead();
  serve::ReadLease second = entry.AcquireRead();
  for (BetweennessEngine* session : {&first.engine(), &second.engine()}) {
    auto got = session->EstimateMany(targets, request);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().size(), targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      ExpectSameStatistics(got.value()[i], want.value()[i]);
    }
  }
}

TEST(DependencyMemoTest, MutateFiltersTheSharedMemoOnce) {
  auto caveman = MakeDataset("caveman-36");
  ASSERT_TRUE(caveman.ok());
  CheckMutateFiltersOnce(caveman.value(),
                         MakeRandomEditScript(caveman.value(), 3, 0xd17a),
                         {0, 8, 17});
}

/// The edit-survival rule the memo applied while unweighted entries kept
/// their pre-edit hop distances `dist`: the pass survives iff every edge
/// edit {u,v} has dist(u) == dist(v) (the directed arc u→v: u unreached or
/// dist(u) + 1 > dist(v)); appended vertices read as unreached.
bool PreEditHopRuleKeeps(const std::vector<std::uint32_t>& dist,
                         std::span<const GraphEdit> edits, bool directed) {
  const auto dist_of = [&dist](VertexId v) -> std::uint64_t {
    return v < dist.size() ? dist[v] : kUnreachedDistance;
  };
  for (const GraphEdit& edit : edits) {
    if (edit.kind == GraphEdit::Kind::kAddVertex) continue;
    const std::uint64_t du = dist_of(edit.u);
    const std::uint64_t dv = dist_of(edit.v);
    if (directed ? du != kUnreachedDistance && du + 1 <= dv : du != dv) {
      return false;
    }
  }
  return true;
}

/// The edit-survival rule the memo applied while weighted entries kept
/// their pre-edit distances `wdist` (-1 unreached; appended vertices read
/// as unreached): per edge edit {u,v,w}, both endpoints unreached survives,
/// one reached drops, and both reached survives iff the edge is slack both
/// ways by more than the canonical tie window `eps` and w leaves both
/// endpoints' pre-edit minw (`min_weight`) unchanged. The directed arc u→v
/// survives when u is unreached, or when v is reached, the arc is slack one
/// way and w leaves minw(v) unchanged.
bool PreEditWeightedRuleKeeps(const std::vector<double>& wdist,
                              std::span<const GraphEdit> edits,
                              const DependencyMemo::MinWeightFn& min_weight,
                              double eps, bool directed) {
  const auto wdist_of = [&wdist](VertexId v) {
    return v < wdist.size() ? wdist[v] : -1.0;
  };
  const auto minw_of = [&](VertexId v) {
    return v < wdist.size() ? min_weight(v)
                            : std::numeric_limits<double>::infinity();
  };
  for (const GraphEdit& edit : edits) {
    if (edit.kind == GraphEdit::Kind::kAddVertex) continue;
    const double du = wdist_of(edit.u);
    const double dv = wdist_of(edit.v);
    const double w = edit.weight;
    const auto slack = [w, eps](double from, double to) {
      return from + w > to && from + w - to > eps * (from + w);
    };
    const auto leaves_minw = [&edit, w](double minw) {
      return edit.kind == GraphEdit::Kind::kAddEdge ? w >= minw : w > minw;
    };
    if (directed) {
      if (du < 0.0) continue;
      if (dv < 0.0 || !slack(du, dv) || !leaves_minw(minw_of(edit.v))) {
        return false;
      }
      continue;
    }
    if (du < 0.0 && dv < 0.0) continue;
    if (du < 0.0 || dv < 0.0 || !slack(du, dv) || !slack(dv, du) ||
        !leaves_minw(minw_of(edit.u)) || !leaves_minw(minw_of(edit.v))) {
      return false;
    }
  }
  return true;
}

/// The pre-edit rule for the pass from `source` on `graph`, run on a fresh
/// pass' stored distances (hops unweighted, DeltaSpd wdist weighted).
bool PreEditRuleKeeps(const CsrGraph& graph, VertexId source,
                      std::span<const GraphEdit> edits) {
  if (graph.weighted()) {
    DeltaSpd delta(graph);
    delta.Run(source);
    return PreEditWeightedRuleKeeps(delta.dag().wdist, edits,
                                    DependencyMemo::MinWeightsOf(graph),
                                    SpdOptions().tie_epsilon,
                                    graph.directed());
  }
  BfsSpd bfs(graph);
  bfs.Run(source);
  return PreEditHopRuleKeeps(bfs.dag().dist, edits, graph.directed());
}

/// A memo holding every source of `graph`, carried across `delta`, keeps
/// exactly the sources the pre-edit rule keeps (a full memo never meets
/// the work bound here: 2n reverse passes cover any batch of n edits), and
/// every survivor equals a fresh pass on the post-edit graph. Returns the
/// survivor count.
std::size_t CheckCarryMatchesPreEditRule(const CsrGraph& graph,
                                         const GraphDelta& delta) {
  const VertexId n = graph.num_vertices();
  DynamicGraph dynamic(graph);
  std::vector<GraphEdit> resolved;
  EXPECT_TRUE(dynamic.Apply(delta, &resolved).ok());
  const CsrGraph& next = dynamic.Csr();
  auto memo = std::make_shared<DependencyMemo>(n);
  DependencyOracle oracle(graph, SpdOptions(), memo);
  std::vector<VertexId> want;
  for (VertexId s = 0; s < n; ++s) {
    (void)oracle.Dependencies(s);
    if (PreEditRuleKeeps(graph, s, resolved)) want.push_back(s);
  }
  const auto carried = memo->Carry(next, resolved, SpdOptions().tie_epsilon,
                                   DependencyMemo::MinWeightsOf(graph));
  std::vector<VertexId> got;
  for (VertexId s = 0; s < n; ++s) {
    const DependencyMemo::EntryPtr entry = carried->Find(s);
    if (entry == nullptr) continue;
    got.push_back(s);
    EXPECT_EQ(entry->deps, FreshDependencies(next, s)) << "source " << s;
  }
  EXPECT_EQ(got, want);
  const DependencyMemoStats stats = carried->Stats();
  EXPECT_EQ(stats.invalidated, n - got.size());
  EXPECT_LE(stats.carry_passes, 2 * resolved.size());
  return got.size();
}

/// A grid whose edge weights are 1, 2 or 3 by a hash of the endpoints:
/// exact ties, so many vertices have several shortest-path parents.
CsrGraph IntegerWeightGrid(VertexId rows, VertexId cols) {
  const CsrGraph grid = MakeGrid(rows, cols);
  GraphBuilder builder(grid.num_vertices());
  for (const CsrGraph::Edge& e : grid.CollectEdges()) {
    const std::uint64_t hash = (std::uint64_t{e.u} * 0x9E3779B1ULL) ^
                               (std::uint64_t{e.v} * 0x85EBCA6BULL);
    builder.AddWeightedEdge(e.u, e.v,
                            static_cast<double>(1 + (hash >> 7) % 3));
  }
  return std::move(builder.Build()).value();
}

TEST(DependencyMemoTest, CarriedSurvivorsMatchThePreEditHopRule) {
  const std::vector<std::pair<const char*, CsrGraph>> graphs = {
      {"ba-150", MakeBarabasiAlbert(150, 3, 0x5eed)},
      {"directed-150", MakeRandomDirected(150, 300, 0xd1)},
      {"grid-10x10", MakeGrid(10, 10)},
      {"grid-10x10-w[1,2)",
       AssignUniformWeights(MakeGrid(10, 10), 1.0, 2.0, 0x9e1d)},
      {"integer-grid-10x10", IntegerWeightGrid(10, 10)},
      {"ba-150-w[1,3]",
       AssignUniformWeights(MakeBarabasiAlbert(150, 3, 0x5eed), 1.0, 3.0,
                            0xba3)},
      {"directed-150-w[1,3]",
       AssignUniformWeights(MakeRandomDirected(150, 300, 0xd1), 1.0, 3.0,
                            0xd1e)},
      // A tree: every removal cuts the reached set, one endpoint per side.
      {"ba-tree-150-w[1,3]",
       AssignUniformWeights(MakeBarabasiAlbert(150, 1, 0x7ee), 1.0, 3.0,
                            0x7e3)}};
  for (const auto& [name, graph] : graphs) {
    SCOPED_TRACE(name);
    std::size_t survivors = 0;
    for (std::size_t edits = 1; edits <= 8; ++edits) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        SCOPED_TRACE(testing::Message() << edits << " edits, seed " << seed);
        survivors += CheckCarryMatchesPreEditRule(
            graph, MakeRandomEditScript(graph, edits, 0xca77 + seed));
      }
    }
    // A vertex appended with an edge to it: its anchor's reached sources
    // newly reach it and drop, the others keep their pass.
    GraphDelta append;
    append.AddVertices(1);
    append.AddEdge(graph.num_vertices() / 2, graph.num_vertices());
    survivors += CheckCarryMatchesPreEditRule(graph, append);
    EXPECT_GT(survivors, 0u);  // some carries kept entries to compare
  }
}

// The work bound: a carry runs at most two reverse passes per entry it
// starts with. On the 5×5 grid the chords 0–6 and 0–2 both join vertices at
// one hop from source 1, so its pass survives either edit, and the pair;
// the first chord drops the pass from `dropped`. On the [1,2)-weighted grid
// the chords weigh 2, no less than any edge, so they leave every minw as it
// was, and they are slack both ways from source 1, whose distances to 0, 2
// and 6 are single edges under 2; from source 0 the chord to 6 is itself a
// shortest path (two grid edges weigh at least 2), so that pass drops.
TEST(DependencyMemoTest, CarryDropsWhatItsPassBoundLeavesUntested) {
  struct Case {
    const char* name;
    CsrGraph start;
    double chord_weight;
    VertexId dropped;
  };
  const Case cases[] = {
      {"grid-5x5", MakeGrid(5, 5), 1.0, 24},
      {"grid-5x5-w[1,2)",
       AssignUniformWeights(MakeGrid(5, 5), 1.0, 2.0, 0x9e1d), 2.0, 0}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    GraphDelta one;
    one.AddEdge(0, 6, c.chord_weight);
    GraphDelta two = one;
    two.AddEdge(0, 2, c.chord_weight);
    const auto carry = [&c](const GraphDelta& delta,
                            const std::vector<VertexId>& warmed) {
      DynamicGraph dynamic(c.start);
      std::vector<GraphEdit> resolved;
      EXPECT_TRUE(dynamic.Apply(delta, &resolved).ok());
      auto memo = std::make_shared<DependencyMemo>(warmed.size());
      DependencyOracle oracle(c.start, SpdOptions(), memo);
      for (const VertexId s : warmed) (void)oracle.Dependencies(s);
      EXPECT_TRUE(PreEditRuleKeeps(c.start, 1, resolved));
      const auto carried = memo->Carry(dynamic.Csr(), resolved,
                                       SpdOptions().tie_epsilon,
                                       DependencyMemo::MinWeightsOf(c.start));
      return carried->Stats();
    };
    // One entry, one edit: two reverse passes, the whole budget; it stays.
    DependencyMemoStats stats = carry(one, {1});
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.carry_passes, 2u);
    EXPECT_EQ(stats.invalidated, 0u);
    // One entry, two edits: the second edit would need a third reverse
    // pass, so the entry is dropped untested.
    stats = carry(two, {1});
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.carry_passes, 2u);
    EXPECT_EQ(stats.invalidated, 1u);
    // With the dropped source beside it, the budget is four passes: both
    // edits are tested and source 1 stays.
    stats = carry(two, {1, c.dropped});
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.carry_passes, 4u);
    EXPECT_EQ(stats.invalidated, 1u);
  }
}

// The shape of pass_digest_test's near-tie graph: source 0 reaches relays 1
// and 2 (distances 10 and 20), relay 1 reaches target 3 over a path of
// 1000, and target 3 feeds a sink 4. An inserted edge from relay 2 makes a
// second path to the target 3 tie_epsilon longer: slack by more than the
// canonical tie window, so the test on stored distances kept the pass, but
// inside the window the post-edit test widens it to, where a reverse
// Dijkstra and the forward pass may round apart. The pass is dropped.
TEST(DependencyMemoTest, CarryDropsAPassWithinTheWidenedTieWindow) {
  constexpr double kLength = 1000.0;
  const double eps = SpdOptions().tie_epsilon;
  GraphBuilder builder(5);
  builder.AddWeightedEdge(0, 1, 10.0);
  builder.AddWeightedEdge(0, 2, 20.0);
  builder.AddWeightedEdge(1, 3, kLength - 10.0);
  builder.AddWeightedEdge(3, 4, 1.0);
  const CsrGraph start = std::move(builder.Build()).value();
  GraphDelta delta;
  delta.AddEdge(2, 3, (kLength - 20.0) + 3.0 * eps * kLength);
  DynamicGraph dynamic(start);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(delta, &resolved).ok());
  ASSERT_TRUE(PreEditRuleKeeps(start, 0, resolved));

  auto memo = std::make_shared<DependencyMemo>(start.num_vertices());
  DependencyOracle oracle(start, SpdOptions(), memo);
  for (VertexId s = 0; s < start.num_vertices(); ++s) {
    (void)oracle.Dependencies(s);
  }
  const auto carried = memo->Carry(dynamic.Csr(), resolved, eps,
                                   DependencyMemo::MinWeightsOf(start));
  EXPECT_EQ(carried->Find(0), nullptr);
  for (VertexId s = 0; s < start.num_vertices(); ++s) {
    if (const DependencyMemo::EntryPtr entry = carried->Find(s)) {
      EXPECT_EQ(entry->deps, FreshDependencies(dynamic.Csr(), s)) << s;
    }
  }
}

// A weighted graph edited down to no edges reads weighted() false. Entries
// do not record their pass kind, so the carry drops every one, the
// isolated vertex' too, without a reverse pass.
TEST(DependencyMemoTest, CarryOntoAnEdgelessGraphDropsEveryEntry) {
  GraphBuilder builder(4);
  builder.AddWeightedEdge(0, 1, 1.5);
  builder.AddWeightedEdge(1, 2, 2.5);
  const CsrGraph start = std::move(builder.Build()).value();
  ASSERT_TRUE(start.weighted());
  GraphDelta delta;
  delta.RemoveEdge(0, 1);
  delta.RemoveEdge(1, 2);
  DynamicGraph dynamic(start);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(delta, &resolved).ok());
  ASSERT_FALSE(dynamic.Csr().weighted());

  auto memo = std::make_shared<DependencyMemo>(start.num_vertices());
  DependencyOracle oracle(start, SpdOptions(), memo);
  for (VertexId s = 0; s < start.num_vertices(); ++s) {
    (void)oracle.Dependencies(s);
  }
  const DependencyMemoStats stats =
      memo->Carry(dynamic.Csr(), resolved, SpdOptions().tie_epsilon,
                  DependencyMemo::MinWeightsOf(start))
          ->Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidated, start.num_vertices());
  EXPECT_EQ(stats.carry_passes, 0u);
}

TEST(DependencyMemoTest, MutateFiltersTheSharedWeightedMemoOnce) {
  const CsrGraph grid = WeightedGrid();
  GraphDelta delta;
  delta.RemoveEdge(14, 15);
  delta.AddEdge(0, 7, 1.5);
  CheckMutateFiltersOnce(grid, delta, {0, 14, 21});
}

}  // namespace
}  // namespace mhbc
