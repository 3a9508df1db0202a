// Parser/protocol negative battery for the mhbc_serve surface: every
// malformed line in this file must come back as ONE well-formed response
// carrying the documented error class (docs/serving.md) — and the server
// must keep answering afterwards. The sanity probe at the end of each
// test is the "without killing the daemon" half of that contract.

#include <cmath>
#include <string>
#include <vector>

#include "centrality/engine.h"
#include "datasets/registry.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace mhbc::serve {
namespace {

class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto graph = MakeDataset("caveman-36");
    ASSERT_TRUE(graph.ok());
    ASSERT_TRUE(catalog_
                    .AddGraph("caveman-36-w",
                              AssignUniformWeights(graph.value(), 1.0, 3.0,
                                                   0xc4e),
                              EngineOptions(), /*sessions=*/1)
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddGraph("caveman-36", std::move(graph).value(),
                              EngineOptions(), /*sessions=*/1)
                    .ok());
    ServerOptions options;
    options.workers = 1;
    options.max_line_bytes = 4096;  // small so the oversize test is cheap
    server_ = std::make_unique<Server>(&catalog_, options);
  }

  /// Calls the server and asserts the response parses as an error of
  /// `expected` class.
  ServeResponse ExpectError(const std::string& line, ServeErrorClass expected) {
    const std::string response_line = server_->Call(line);
    auto response = ParseServeResponse(response_line);
    EXPECT_TRUE(response.ok()) << response_line;
    if (!response.ok()) return ServeResponse{};
    EXPECT_FALSE(response.value().ok) << response_line;
    EXPECT_EQ(ServeErrorClassName(response.value().error_class),
              std::string(ServeErrorClassName(expected)))
        << response_line;
    return std::move(response).value();
  }

  /// The daemon-survival probe: a valid request must still succeed.
  void ExpectStillServing() {
    const std::string line = server_->Call(
        R"({"id": 777, "method": "estimate", "graph": "caveman-36", )"
        R"("vertices": [0], "samples": 50})");
    auto response = ParseServeResponse(line);
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_TRUE(response.value().ok) << line;
    EXPECT_EQ(response.value().id, 777u);
    ASSERT_EQ(response.value().reports.size(), 1u);
    EXPECT_EQ(response.value().reports[0].vertex, 0u);
  }

  GraphCatalog catalog_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeProtocolTest, TruncatedAndMalformedJsonIsParseClass) {
  for (const char* line : {
           "",                                     // empty line
           "{",                                    // truncated object
           R"({"method": "stats")",                // missing brace
           R"({"method": "stats"} trailing)",      // trailing garbage
           R"({"method": "stats" "id": 1})",       // missing comma
           R"({"method": })",                      // missing value
           R"("just a string")" "extra",           // two documents
           "[1, 2, 3]",                            // not an object... parse?
           "not json at all",
           R"({"method": "stats", "method": "stats"})",  // duplicate key
       }) {
    ExpectError(line, ServeErrorClass::kParse);
  }
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, OversizedLineRejectedBeforeJsonParsing) {
  std::string line = R"({"method": "stats", "graph": ")";
  line.append(8192, 'x');  // far past max_line_bytes=4096
  line += R"("})";
  const ServeResponse response = ExpectError(line, ServeErrorClass::kParse);
  EXPECT_NE(response.message.find("byte limit"), std::string::npos)
      << response.message;
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, MissingAndUnknownMethodIsMethodClass) {
  ExpectError(R"({"id": 4})", ServeErrorClass::kMethod);
  ExpectError(R"({"id": 4, "method": "frobnicate"})", ServeErrorClass::kMethod);
  ExpectError(R"({"method": 7})", ServeErrorClass::kMethod);
  // The id is still echoed so pipelining clients can match the failure.
  const ServeResponse echoed =
      ExpectError(R"({"id": 42, "method": "nope"})", ServeErrorClass::kMethod);
  EXPECT_TRUE(echoed.has_id);
  EXPECT_EQ(echoed.id, 42u);
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, UnknownGraphIsGraphClass) {
  const ServeResponse response = ExpectError(
      R"({"method": "estimate", "graph": "no-such", "vertices": [0]})",
      ServeErrorClass::kGraph);
  // The message lists what IS being served, for operator sanity.
  EXPECT_NE(response.message.find("caveman-36"), std::string::npos);
  ExpectError(R"({"method": "stats", "graph": "no-such"})",
              ServeErrorClass::kGraph);
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, VertexIdProblemsAreFieldClass) {
  // Type/range problems caught at parse time...
  for (const char* line : {
           R"({"method": "estimate", "graph": "caveman-36", "vertices": 3})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": ["a"]})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [-1]})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [1.5]})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [4294967295]})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": []})",
       }) {
    ExpectError(line, ServeErrorClass::kField);
  }
  // ...and graph-relative range problems caught at execution time.
  const ServeResponse response = ExpectError(
      R"({"method": "estimate", "graph": "caveman-36", "vertices": [36]})",
      ServeErrorClass::kField);
  EXPECT_NE(response.message.find("out of range"), std::string::npos);
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, MalformedBudgetFieldsAreFieldClass) {
  for (const char* line : {
           // deadline_ms: wrong type, negative, non-finite-ish strings
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "deadline_ms": "soon"})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "deadline_ms": -5})",
           // samples: fractional, negative, wrong type, absurd
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": 1.5})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": -3})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": "many"})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": 99999999999999999999})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": 0})",
           // priority outside [0, 9]
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "priority": 10})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "priority": -1})",
           // estimator registry miss
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "estimator": "frobnicator"})",
           // topk shape
           R"({"method": "topk", "graph": "caveman-36", "k": 0})",
           R"({"method": "topk", "graph": "caveman-36", "eps": 2.0})",
           // unknown field: strict surface, no silent typo swallowing
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "sample": 100})",
       }) {
    ExpectError(line, ServeErrorClass::kField);
  }
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, MutateValidationIsFieldClass) {
  // Missing/empty edit script, unparseable script, semantically invalid
  // script (removing a non-edge) — all the client's fault.
  ExpectError(R"({"method": "mutate", "graph": "caveman-36"})",
              ServeErrorClass::kField);
  ExpectError(
      R"({"method": "mutate", "graph": "caveman-36", "edits": "frob 1 2"})",
      ServeErrorClass::kField);
  const ServeResponse response = ExpectError(
      R"({"method": "mutate", "graph": "caveman-36", "edits": "remove 40 41"})",
      ServeErrorClass::kField);
  EXPECT_FALSE(response.message.empty());
  // A failed mutate must not advance the epoch.
  const auto stats = ParseServeResponse(server_->Call(
      R"({"method": "stats", "graph": "caveman-36"})"));
  ASSERT_TRUE(stats.ok());
  const JsonValue* graphs = stats.value().body.Find("result")->Find("graphs");
  ASSERT_NE(graphs, nullptr);
  const JsonValue* epoch = graphs->array.at(0).Find("epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->number_value, 0.0);
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, MutateAddingTooManyVerticesIsFieldClass) {
  // 2^32 - 1 added vertices would be ~100 GB of edits: the parser's
  // per-delta cap answers instead of exhausting memory.
  const ServeResponse response = ExpectError(
      R"({"id": 1, "method": "mutate", "graph": "caveman-36", )"
      R"("edits": "addvertex 4294967295"})",
      ServeErrorClass::kField);
  EXPECT_NE(response.message.find("mutate request:1"), std::string::npos)
      << response.message;
  ExpectStillServing();
}

// `stats` reports the graph's dependency memo: a repeated estimate is served
// from it (hits rise, inserts do not), and a mutate drops entries after two
// reverse passes (one per endpoint of its one edit), BFS on caveman-36 and
// Dijkstra on its weighted copy.
TEST_F(ServeProtocolTest, StatsReportTheGraphsMemo) {
  struct Memo {
    double entries = -1, capacity = -1, hits = -1, inserts = -1,
           invalidated = -1, carry_passes = -1;
  };
  for (const std::string name : {"caveman-36", "caveman-36-w"}) {
    SCOPED_TRACE(name);
    const auto read_memo = [this, &name] {
      Memo memo;
      const std::string line = server_->Call(
          R"({"method": "stats", "graph": ")" + name + R"("})");
      const auto stats = ParseServeResponse(line);
      EXPECT_TRUE(stats.ok()) << line;
      if (!stats.ok()) return memo;
      const JsonValue& graph =
          stats.value().body.Find("result")->Find("graphs")->array.at(0);
      const auto field = [&graph, &line](const char* field_name) {
        const JsonValue* value = graph.Find(field_name);
        EXPECT_NE(value, nullptr) << field_name << " missing: " << line;
        return value == nullptr ? -1.0 : value->number_value;
      };
      memo.entries = field("memo_entries");
      memo.capacity = field("memo_capacity");
      memo.hits = field("memo_hits");
      memo.inserts = field("memo_inserts");
      memo.invalidated = field("memo_invalidated");
      memo.carry_passes = field("memo_carry_passes");
      return memo;
    };
    const std::string estimate =
        R"({"method": "estimate", "graph": ")" + name +
        R"(", "vertices": [0, 8], "samples": 100, "seed": 5})";

    const Memo fresh = read_memo();
    EXPECT_EQ(fresh.entries, 0.0);
    EXPECT_EQ(fresh.capacity, 36.0);  // 256 MiB holds every source
    EXPECT_EQ(fresh.hits, 0.0);
    EXPECT_EQ(fresh.inserts, 0.0);
    EXPECT_EQ(fresh.invalidated, 0.0);
    EXPECT_EQ(fresh.carry_passes, 0.0);

    ASSERT_TRUE(ParseServeResponse(server_->Call(estimate)).value().ok);
    const Memo served = read_memo();
    EXPECT_GT(served.inserts, 0.0);
    EXPECT_EQ(served.entries, served.inserts);

    ASSERT_TRUE(ParseServeResponse(server_->Call(estimate)).value().ok);
    const Memo repeated = read_memo();
    EXPECT_GT(repeated.hits, served.hits);
    EXPECT_EQ(repeated.inserts, served.inserts);
    EXPECT_EQ(repeated.entries, served.entries);

    auto graph = MakeDataset("caveman-36");
    ASSERT_TRUE(graph.ok());
    const VertexId neighbor = graph.value().neighbors(0)[0];
    const std::string mutate =
        R"({"method": "mutate", "graph": ")" + name +
        R"(", "edits": "remove 0 )" + std::to_string(neighbor) + R"("})";
    ASSERT_TRUE(ParseServeResponse(server_->Call(mutate)).value().ok);
    const Memo mutated = read_memo();
    EXPECT_LT(mutated.entries, repeated.entries);
    EXPECT_EQ(mutated.invalidated, repeated.entries - mutated.entries);
    EXPECT_EQ(mutated.carry_passes, 2.0);
  }
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, JsonDoubleRoundTripsBitForBit) {
  // %.17g through strtod must reproduce the exact bits — this is what
  // makes the concurrency suite's wire-level bit-identity check valid.
  for (const double value :
       {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, 0.0, 123456.789012345678}) {
    auto parsed = ParseJson(JsonDouble(value));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().number_value, value);
  }
  EXPECT_EQ(JsonDouble(std::nan("")), "null");  // JSON has no NaN
}

TEST_F(ServeProtocolTest, RequestDefaultsAndFieldLifting) {
  ServeRequest request;
  ServeError error;
  ASSERT_TRUE(ParseServeRequest(
      R"({"id": 9, "method": "estimate", "graph": "g", "vertices": [3, 1],)"
      R"( "estimator": "mh-rb", "samples": 250, "seed": 99,)"
      R"( "deadline_ms": 1500.5, "priority": 7})",
      1 << 20, &request, &error));
  EXPECT_EQ(request.id, 9u);
  EXPECT_EQ(request.method, ServeMethod::kEstimate);
  EXPECT_EQ(request.graph, "g");
  EXPECT_EQ(request.vertices, (std::vector<VertexId>{3, 1}));
  EXPECT_EQ(request.estimator, EstimatorKind::kMhRaoBlackwell);
  EXPECT_EQ(request.samples, 250u);
  EXPECT_EQ(request.seed, 99u);
  EXPECT_EQ(request.deadline_ms, 1500.5);
  EXPECT_EQ(request.priority, 7);

  ServeRequest defaults;
  ASSERT_TRUE(ParseServeRequest(R"({"method": "stats"})", 1 << 20, &defaults,
                                &error));
  EXPECT_FALSE(defaults.has_id);
  EXPECT_LT(defaults.deadline_ms, 0.0);  // "no deadline"
  EXPECT_EQ(defaults.priority, 0);
}

// Cutting a path's last edge leaves vertex 3 reaching no other vertex. Its
// betweenness is exactly 0, and every estimator must answer so without
// aborting the daemon — distance included, whose proposal table is then
// empty.
TEST(ServeReplayTest, IsolatedTargetAnswersZeroForEveryEstimator) {
  GraphCatalog catalog;
  ASSERT_TRUE(
      catalog.AddGraph("p", MakePath(4), EngineOptions(), /*sessions=*/1)
          .ok());
  Server server(&catalog, ServerOptions());
  const auto mutate = ParseServeResponse(server.Call(
      R"({"id": 1, "method": "mutate", "graph": "p", "edits": "remove 2 3"})"));
  ASSERT_TRUE(mutate.ok());
  ASSERT_TRUE(mutate.value().ok);
  for (const EstimatorEntry& entry : EstimatorRegistry()) {
    const std::string line = server.Call(
        std::string(R"({"id": 2, "method": "estimate", "graph": "p", )") +
        R"("vertices": [3], "samples": 8, "estimator": ")" + entry.name +
        R"("})");
    const auto response = ParseServeResponse(line);
    ASSERT_TRUE(response.ok()) << line;
    ASSERT_TRUE(response.value().ok) << line;
    ASSERT_EQ(response.value().reports.size(), 1u) << line;
    EXPECT_EQ(response.value().reports[0].value, 0.0) << line;
  }
}

}  // namespace
}  // namespace mhbc::serve
