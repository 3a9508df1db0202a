// Concurrency + epoch-safety suite for the serving stack (runs in the
// TSan CI job). N client threads fire estimate traffic while a mutator
// thread streams a pre-generated delta chain through `mutate`; every
// response carries the epoch its lease observed, and afterwards each
// response is replayed against a COLD engine built on that epoch's graph
// — every statistical report field must match bit for bit, through the
// %.17g wire round-trip. A reader racing a mutation must therefore see
// either the old epoch's exact answer or the new one's, never a torn mix.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "centrality/engine.h"
#include "datasets/registry.h"
#include "graph/dynamic_graph.h"
#include "gtest/gtest.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace mhbc::serve {
namespace {

constexpr std::size_t kReaderThreads = 4;
constexpr std::size_t kReadsPerThread = 6;
constexpr std::size_t kMutations = 4;
constexpr std::size_t kEditsPerMutation = 3;
constexpr std::uint64_t kSamples = 200;
const std::vector<VertexId> kTargets = {0, 8, 17};

/// Serializes a GraphDelta back into the docs/formats.md text format for
/// the wire (`edits` field).
std::string DeltaToText(const GraphDelta& delta) {
  std::string text;
  for (const GraphEdit& edit : delta.edits()) {
    switch (edit.kind) {
      case GraphEdit::Kind::kAddEdge:
        text += "add ";
        text += std::to_string(edit.u);
        text += ' ';
        text += std::to_string(edit.v);
        if (edit.weight != 1.0) {
          text += ' ';
          text += std::to_string(edit.weight);
        }
        break;
      case GraphEdit::Kind::kRemoveEdge:
        text += "remove ";
        text += std::to_string(edit.u);
        text += ' ';
        text += std::to_string(edit.v);
        break;
      case GraphEdit::Kind::kAddVertex:
        text += "addvertex";
        break;
    }
    text += "\\n";  // JSON-escaped newline, embedded in the request string
  }
  return text;
}

std::string EstimateLine(std::uint64_t id, std::uint64_t seed) {
  std::string vertices;
  for (const VertexId v : kTargets) {
    if (!vertices.empty()) vertices += ", ";
    vertices += std::to_string(v);
  }
  return "{\"id\": " + std::to_string(id) +
         ", \"method\": \"estimate\", \"graph\": \"caveman-36\", "
         "\"vertices\": [" +
         vertices + "], \"samples\": " + std::to_string(kSamples) +
         ", \"seed\": " + std::to_string(seed) + "}";
}

TEST(ServeConcurrencyTest, ConcurrentReadsMatchColdEngineAtEveryEpoch) {
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());

  // Pre-generate the delta chain and the per-epoch graph snapshots the
  // cold-engine replay will verify against: snapshot[e] is the graph at
  // epoch e. The chain is built through the same DynamicGraph machinery
  // the engines use, so the replay graphs are the served graphs.
  std::vector<GraphDelta> deltas;
  std::vector<CsrGraph> snapshots;
  {
    DynamicGraph dyn(base.value());
    snapshots.push_back(dyn.Csr());
    for (std::size_t i = 0; i < kMutations; ++i) {
      const GraphDelta delta =
          MakeRandomEditScript(dyn.Csr(), kEditsPerMutation, 0xec0 + i);
      ASSERT_TRUE(dyn.Apply(delta).ok());
      deltas.push_back(delta);
      snapshots.push_back(dyn.Csr());
    }
  }

  const EngineOptions engine_options;  // identical for pool and replay
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddGraph("caveman-36", base.value(), engine_options,
                            /*sessions=*/kReaderThreads)
                  .ok());
  ServerOptions server_options;
  server_options.workers = kReaderThreads + 1;
  server_options.queue_capacity = 64;
  Server server(&catalog, server_options);

  // Fire the mixed workload. Seeds are globally unique so no session
  // serves a repeated request from its result cache (which would report
  // samples_used=0 and weaken the comparison below).
  struct Observed {
    std::uint64_t epoch;
    std::uint64_t seed;
    std::vector<WireReport> reports;
  };
  std::vector<std::vector<Observed>> per_thread(kReaderThreads);
  std::vector<std::string> mutate_responses(kMutations);
  std::vector<std::thread> threads;
  threads.reserve(kReaderThreads + 1);
  for (std::size_t t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kReadsPerThread; ++i) {
        const std::uint64_t seed = 1000 * (t + 1) + i;
        const std::string line =
            server.Call(EstimateLine(/*id=*/seed, seed));
        auto response = ParseServeResponse(line);
        ASSERT_TRUE(response.ok()) << line;
        ASSERT_TRUE(response.value().ok) << line;
        per_thread[t].push_back(Observed{response.value().epoch, seed,
                                         response.value().reports});
      }
    });
  }
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < kMutations; ++i) {
      const std::string line = server.Call(
          "{\"id\": " + std::to_string(900 + i) +
          ", \"method\": \"mutate\", \"graph\": \"caveman-36\", "
          "\"edits\": \"" +
          DeltaToText(deltas[i]) + "\"}");
      mutate_responses[i] = line;
      std::this_thread::yield();  // let readers interleave between epochs
    }
  });
  for (std::thread& thread : threads) thread.join();

  // Mutations installed in order, one epoch each.
  for (std::size_t i = 0; i < kMutations; ++i) {
    auto response = ParseServeResponse(mutate_responses[i]);
    ASSERT_TRUE(response.ok()) << mutate_responses[i];
    ASSERT_TRUE(response.value().ok) << mutate_responses[i];
    EXPECT_EQ(response.value().epoch, i + 1);
  }

  // Replay every observation on a cold engine built on its epoch's graph.
  // The engine mutation contract promises bit-identical statistical
  // fields; the %.17g wire preserves them; so EXPECT_EQ on doubles is the
  // correct comparison — any tolerance would mask a torn read.
  std::size_t replayed = 0;
  for (const auto& observations : per_thread) {
    EXPECT_EQ(observations.size(), kReadsPerThread);
    for (const Observed& observed : observations) {
      ASSERT_LE(observed.epoch, kMutations);
      BetweennessEngine cold(snapshots[observed.epoch], engine_options);
      EstimateRequest request;
      request.samples = kSamples;
      request.seed = observed.seed;
      auto expected = cold.EstimateMany(kTargets, request);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(observed.reports.size(), kTargets.size());
      for (std::size_t v = 0; v < kTargets.size(); ++v) {
        const EstimateReport& want = expected.value()[v];
        const WireReport& got = observed.reports[v];
        EXPECT_EQ(got.vertex, want.vertex);
        EXPECT_EQ(got.value, want.value) << "epoch " << observed.epoch
                                         << " seed " << observed.seed;
        EXPECT_EQ(got.std_error, want.std_error);
        EXPECT_EQ(got.ci_half_width, want.ci_half_width);
        EXPECT_EQ(got.ess, want.ess);
        EXPECT_EQ(got.acceptance_rate, want.acceptance_rate);
        EXPECT_EQ(got.samples_used, want.samples_used);
        EXPECT_EQ(got.converged, want.converged);
        ++replayed;
      }
    }
  }
  EXPECT_EQ(replayed, kReaderThreads * kReadsPerThread * kTargets.size());

  // The pool must be fully parked and at the final epoch.
  const GraphEntryStats stats = catalog.Find("caveman-36")->Stats();
  EXPECT_EQ(stats.epoch, kMutations);
  EXPECT_EQ(stats.sessions_free, stats.sessions);
  EXPECT_EQ(stats.mutations_applied, kMutations);
}

TEST(ServeConcurrencyTest, WriterDrainsReadersAndReadersNeverSeeTornPool) {
  // Direct catalog-level hammering (no protocol): many lease/release
  // cycles racing mutations; every lease must observe a consistent
  // (epoch, graph) pair — checked via vertex count, which the delta
  // chain changes over time.
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  std::vector<GraphDelta> deltas;
  std::vector<VertexId> vertices_at_epoch;
  {
    DynamicGraph dyn(base.value());
    vertices_at_epoch.push_back(dyn.num_vertices());
    for (std::size_t i = 0; i < 6; ++i) {
      const GraphDelta delta = MakeRandomEditScript(dyn.Csr(), 4, 0xbeef + i);
      ASSERT_TRUE(dyn.Apply(delta).ok());
      deltas.push_back(delta);
      vertices_at_epoch.push_back(dyn.num_vertices());
    }
  }
  GraphEntry entry("g", base.value(), EngineOptions(), /*sessions=*/3);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        ReadLease lease = entry.AcquireRead();
        ASSERT_LE(lease.epoch(), deltas.size());
        // Torn-pool detector: the engine's graph must be the one this
        // lease's epoch promises.
        EXPECT_EQ(lease.engine().graph().num_vertices(),
                  vertices_at_epoch[lease.epoch()]);
      }
    });
  }
  threads.emplace_back([&] {
    for (const GraphDelta& delta : deltas) {
      ASSERT_TRUE(entry.Mutate(delta).ok());
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(entry.Stats().epoch, deltas.size());
}

/// The mutate request line for `delta`.
std::string MutateLine(std::uint64_t id, const GraphDelta& delta) {
  return "{\"id\": " + std::to_string(id) +
         ", \"method\": \"mutate\", \"graph\": \"caveman-36\", "
         "\"edits\": \"" +
         DeltaToText(delta) + "\"}";
}

TEST(ServeConcurrencyTest, StatsPolledDuringMutateChainMatchTheirEpoch) {
  // `stats` runs inline on the caller's thread while a worker's mutate
  // edits the sessions: every snapshot must pair an epoch with that
  // epoch's graph shape, and reading it must race nothing (TSan).
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  constexpr std::size_t kChain = 100;
  std::vector<GraphDelta> deltas;
  std::vector<std::pair<VertexId, std::uint64_t>> shape_at_epoch;
  {
    DynamicGraph dyn(base.value());
    shape_at_epoch.emplace_back(dyn.Csr().num_vertices(),
                                dyn.Csr().num_edges());
    for (std::size_t i = 0; i < kChain; ++i) {
      const GraphDelta delta = MakeRandomEditScript(dyn.Csr(), 2, 0x57a7 + i);
      ASSERT_TRUE(dyn.Apply(delta).ok());
      deltas.push_back(delta);
      shape_at_epoch.emplace_back(dyn.Csr().num_vertices(),
                                  dyn.Csr().num_edges());
    }
  }
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddGraph("caveman-36", base.value(), EngineOptions(),
                            /*sessions=*/2)
                  .ok());
  ServerOptions server_options;
  server_options.workers = 2;
  Server server(&catalog, server_options);

  std::atomic<bool> chain_done{false};
  std::size_t polls = 0;
  std::uint64_t last_epoch = 0;
  std::thread poller([&] {
    while (!chain_done.load() || polls == 0) {
      const std::string line =
          server.Call(R"({"method": "stats", "graph": "caveman-36"})");
      const auto response = ParseServeResponse(line);
      ASSERT_TRUE(response.ok()) << line;
      const JsonValue& graph =
          response.value().body.Find("result")->Find("graphs")->array.at(0);
      const auto epoch =
          static_cast<std::uint64_t>(graph.Find("epoch")->number_value);
      ASSERT_LE(epoch, kChain);
      EXPECT_GE(epoch, last_epoch);
      last_epoch = epoch;
      EXPECT_EQ(graph.Find("num_vertices")->number_value,
                static_cast<double>(shape_at_epoch[epoch].first))
          << "epoch " << epoch;
      EXPECT_EQ(graph.Find("num_edges")->number_value,
                static_cast<double>(shape_at_epoch[epoch].second))
          << "epoch " << epoch;
      ++polls;
    }
  });
  std::thread reader([&] {
    // Keeps the shared memo busy between mutates.
    for (std::uint64_t seed = 1; !chain_done.load(); ++seed) {
      const auto response = ParseServeResponse(
          server.Call(EstimateLine(/*id=*/seed, seed)));
      ASSERT_TRUE(response.ok());
    }
  });
  for (std::size_t i = 0; i < kChain; ++i) {
    const auto response =
        ParseServeResponse(server.Call(MutateLine(900 + i, deltas[i])));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response.value().ok);
    EXPECT_EQ(response.value().epoch, i + 1);
  }
  chain_done.store(true);
  poller.join();
  reader.join();
  EXPECT_GT(polls, 0u);
  EXPECT_EQ(catalog.Find("caveman-36")->Stats().epoch, kChain);
}

TEST(ServeConcurrencyTest, ConcurrentMutatesReportTheEpochTheyInstalled) {
  // k mutates sent at once, each adding one distinct absent edge (so any
  // order is valid): the responses must carry epochs exactly 1..k, each
  // with the edge count of the graph that mutate installed.
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  const CsrGraph& graph = base.value();
  constexpr std::size_t kMutates = 8;
  std::vector<GraphDelta> deltas;
  for (VertexId u = 0; u < graph.num_vertices() && deltas.size() < kMutates;
       ++u) {
    for (VertexId v = u + 1; v < graph.num_vertices(); ++v) {
      if (!graph.HasEdge(u, v)) {
        deltas.emplace_back();
        deltas.back().AddEdge(u, v);
        break;
      }
    }
  }
  ASSERT_EQ(deltas.size(), kMutates);
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddGraph("caveman-36", graph, EngineOptions(),
                            /*sessions=*/2)
                  .ok());
  ServerOptions server_options;
  server_options.workers = 2;
  Server server(&catalog, server_options);

  std::vector<std::string> responses(kMutates);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kMutates; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = server.Call(MutateLine(i, deltas[i]));
    });
  }
  for (std::thread& client : clients) client.join();

  std::vector<std::uint64_t> epochs;
  for (const std::string& line : responses) {
    const auto response = ParseServeResponse(line);
    ASSERT_TRUE(response.ok()) << line;
    ASSERT_TRUE(response.value().ok) << line;
    const std::uint64_t epoch = response.value().epoch;
    epochs.push_back(epoch);
    EXPECT_EQ(response.value().body.Find("result")->Find("num_edges")
                  ->number_value,
              static_cast<double>(graph.num_edges() + epoch))
        << line;
  }
  std::sort(epochs.begin(), epochs.end());
  for (std::size_t i = 0; i < kMutates; ++i) EXPECT_EQ(epochs[i], i + 1);
}

void ExpectSameStatistics(const StatusOr<std::vector<EstimateReport>>& got,
                          const StatusOr<std::vector<EstimateReport>>& want) {
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got.value().size(), want.value().size());
  for (std::size_t i = 0; i < got.value().size(); ++i) {
    const EstimateReport& a = got.value()[i];
    const EstimateReport& b = want.value()[i];
    EXPECT_EQ(a.vertex, b.vertex);
    EXPECT_EQ(a.value, b.value) << "vertex " << a.vertex;
    EXPECT_EQ(a.samples_used, b.samples_used);
    EXPECT_EQ(a.acceptance_rate, b.acceptance_rate);
    EXPECT_EQ(a.ess, b.ess);
    EXPECT_EQ(a.std_error, b.std_error);
    EXPECT_EQ(a.ci_half_width, b.ci_half_width);
    EXPECT_EQ(a.converged, b.converged);
  }
}

TEST(ServeConcurrencyTest, MutatePublishesWithoutWaitingForALease) {
  // A mutate builds and publishes the next epoch while a lease on the
  // current one is held. The held lease keeps reading its epoch bit for
  // bit, a new lease reads the published one, and neither session's work
  // counters go back.
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  const GraphDelta delta = MakeRandomEditScript(base.value(), 3, 0xe90c);
  DynamicGraph dynamic(base.value());
  ASSERT_TRUE(dynamic.Apply(delta).ok());
  const CsrGraph next = dynamic.Csr();

  const EngineOptions options;
  GraphEntry entry("caveman-36", base.value(), options, /*sessions=*/2);
  EstimateRequest request;
  request.samples = kSamples;
  request.seed = 0x1ea5e;
  EstimateRequest warm = request;
  warm.seed = 0x3a7;

  ReadLease held = entry.AcquireRead();
  ASSERT_EQ(held.epoch(), 0u);
  BetweennessEngine* const idle_engine = [&] {
    ReadLease other = entry.AcquireRead();
    EXPECT_TRUE(other.engine().EstimateMany(kTargets, warm).ok());
    return &other.engine();
  }();
  const std::uint64_t idle_passes = idle_engine->total_sp_passes();
  const std::uint64_t idle_hits = idle_engine->dependency_cache_hits();
  ASSERT_GT(idle_passes, 0u);
  ASSERT_TRUE(held.engine().EstimateMany(kTargets, warm).ok());
  const std::uint64_t held_passes = held.engine().total_sp_passes();
  const std::uint64_t held_hits = held.engine().dependency_cache_hits();

  std::future<StatusOr<MutateResult>> mutated = std::async(
      std::launch::async, [&entry, &delta] { return entry.Mutate(delta); });
  const std::future_status status = mutated.wait_for(std::chrono::seconds(5));
  // A writer that drains leases is still waiting here; let it finish, so
  // the test fails instead of hanging.
  if (status != std::future_status::ready) held.Release();
  ASSERT_EQ(status, std::future_status::ready)
      << "Mutate waited for the held lease";
  const StatusOr<MutateResult> installed = mutated.get();
  ASSERT_TRUE(installed.ok());
  EXPECT_EQ(installed.value().epoch, 1u);
  EXPECT_EQ(installed.value().shape.num_edges, next.num_edges());

  // The held lease still serves epoch 0.
  EXPECT_EQ(held.epoch(), 0u);
  EXPECT_GE(held.engine().total_sp_passes(), held_passes);
  EXPECT_GE(held.engine().dependency_cache_hits(), held_hits);
  BetweennessEngine cold_before(base.value(), options);
  ExpectSameStatistics(held.engine().EstimateMany(kTargets, request),
                       cold_before.EstimateMany(kTargets, request));

  // A new lease gets the idle session, bound to epoch 1.
  ReadLease fresh = entry.AcquireRead();
  EXPECT_EQ(fresh.epoch(), 1u);
  ASSERT_EQ(&fresh.engine(), idle_engine);
  EXPECT_GE(fresh.engine().total_sp_passes(), idle_passes);
  EXPECT_GE(fresh.engine().dependency_cache_hits(), idle_hits);
  BetweennessEngine cold_after(next, options);
  ExpectSameStatistics(fresh.engine().EstimateMany(kTargets, request),
                       cold_after.EstimateMany(kTargets, request));
}

TEST(ServeConcurrencyTest, EpochsLiveAsLongAsTheirLeases) {
  // `stats` counts the published epochs still held: a lease pins its
  // epoch, an epoch nobody leased is freed once superseded, and idle
  // sessions pin none. The memo counters stay cumulative across epochs.
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  std::vector<GraphDelta> deltas;
  {
    DynamicGraph dyn(base.value());
    for (std::size_t i = 0; i < 3; ++i) {
      deltas.push_back(MakeRandomEditScript(dyn.Csr(), 2, 0x11fe + i));
      ASSERT_TRUE(dyn.Apply(deltas.back()).ok());
    }
  }
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddGraph("caveman-36", base.value(), EngineOptions(),
                            /*sessions=*/2)
                  .ok());
  GraphEntry* entry = catalog.Find("caveman-36");
  Server server(&catalog);
  const auto wire_epochs_live = [&server] {
    const std::string line =
        server.Call(R"({"method": "stats", "graph": "caveman-36"})");
    const auto response = ParseServeResponse(line);
    EXPECT_TRUE(response.ok()) << line;
    if (!response.ok()) return -1.0;
    const JsonValue* live = response.value()
                                .body.Find("result")
                                ->Find("graphs")
                                ->array.at(0)
                                .Find("epochs_live");
    EXPECT_NE(live, nullptr) << line;
    return live == nullptr ? -1.0 : live->number_value;
  };
  const auto mutate = [&server, &deltas](std::size_t i) {
    const auto response =
        ParseServeResponse(server.Call(MutateLine(700 + i, deltas[i])));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response.value().ok);
    EXPECT_EQ(response.value().epoch, i + 1);
  };
  EXPECT_EQ(entry->Stats().epochs_live, 1u);
  ASSERT_TRUE(ParseServeResponse(server.Call(EstimateLine(1, 1))).ok());

  ReadLease held = entry->AcquireRead();
  ASSERT_EQ(held.epoch(), 0u);
  const DependencyMemoStats memo_before = entry->Stats().memo;
  ASSERT_GT(memo_before.inserts, 0u);
  mutate(0);
  mutate(1);
  const GraphEntryStats pinned = entry->Stats();
  EXPECT_EQ(pinned.epoch, 2u);
  // Epoch 0 (held) and epoch 2 (current); epoch 1 had no lease.
  EXPECT_EQ(pinned.epochs_live, 2u);
  EXPECT_EQ(wire_epochs_live(), 2.0);
  EXPECT_GE(pinned.memo.hits, memo_before.hits);
  EXPECT_GE(pinned.memo.inserts, memo_before.inserts);
  EXPECT_GE(pinned.memo.invalidated, memo_before.invalidated);
  EXPECT_EQ(held.epoch(), 0u);

  held.Release();
  EXPECT_EQ(entry->Stats().epochs_live, 1u);
  EXPECT_EQ(wire_epochs_live(), 1.0);

  mutate(2);  // every session idle
  EXPECT_EQ(entry->Stats().epochs_live, 1u);
  EXPECT_EQ(wire_epochs_live(), 1.0);
  ReadLease fresh = entry->AcquireRead();
  EXPECT_EQ(fresh.epoch(), 3u);
  EXPECT_EQ(fresh.engine().graph_epoch(), 3u);
}

TEST(ServeConcurrencyTest, SessionEditedByItsHolderIsReboundOnReturn) {
  // A lease holder may edit its engine with ApplyDelta. Once the session
  // returns it serves the current epoch again, even when its own epoch
  // count happens to equal the entry's.
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  const GraphDelta own = MakeRandomEditScript(base.value(), 2, 0x0e1);
  const GraphDelta published = MakeRandomEditScript(base.value(), 2, 0x0e2);
  DynamicGraph dynamic(base.value());
  ASSERT_TRUE(dynamic.Apply(published).ok());
  const CsrGraph next = dynamic.Csr();
  GraphEntry entry("caveman-36", base.value(), EngineOptions(),
                   /*sessions=*/1);
  {
    ReadLease lease = entry.AcquireRead();
    ASSERT_TRUE(lease.engine().ApplyDelta(own).ok());
    std::future<StatusOr<MutateResult>> mutated =
        std::async(std::launch::async,
                   [&entry, &published] { return entry.Mutate(published); });
    const std::future_status status =
        mutated.wait_for(std::chrono::seconds(5));
    if (status != std::future_status::ready) lease.Release();
    ASSERT_EQ(status, std::future_status::ready)
        << "Mutate waited for the held lease";
    ASSERT_TRUE(mutated.get().ok());
    ASSERT_EQ(lease.engine().graph_epoch(), entry.Stats().epoch);
  }
  ReadLease lease = entry.AcquireRead();
  EXPECT_EQ(lease.epoch(), 1u);
  EstimateRequest request;
  request.samples = kSamples;
  request.seed = 0x0e3;
  BetweennessEngine cold(next);
  ExpectSameStatistics(lease.engine().EstimateMany(kTargets, request),
                       cold.EstimateMany(kTargets, request));
}

}  // namespace
}  // namespace mhbc::serve
