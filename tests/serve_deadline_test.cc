// Deadline + admission-control suite for the serving stack. The three
// contract points (docs/serving.md "Deadlines and admission"):
//   1. deadline_ms=0 is "expired on arrival" — rejected at admission with
//      the `deadline` class, never queued, never counted as admitted.
//   2. A deadline that fires mid-flight does NOT error: the response is
//      ok with partial reports flagged "kDeadline" (0 < samples_used <
//      requested), because partial statistics are still statistics.
//   3. A full admission queue rejects immediately with the `overload`
//      class — admission never blocks the client on a saturated server.
// The saturation tests are deterministic without sleeps: workers=1 and
// queue_capacity=1 make the server state machine small, and the
// queue-bypassing `stats` method (plus Server::Stats()) lets the test
// observe busy_workers/queue_depth transitions by polling, not timing.

#include <string>
#include <thread>

#include "datasets/registry.h"
#include "gtest/gtest.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/timer.h"

namespace mhbc::serve {
namespace {

// Large enough that no machine finishes it inside any deadline used here
// (still under the protocol's samples field cap).
constexpr std::uint64_t kHugeSamples = 1u << 29;

std::string EstimateLine(std::uint64_t id, std::uint64_t samples,
                         double deadline_ms,
                         const std::string& vertices = "[0]") {
  std::string line = "{\"id\": " + std::to_string(id) +
                     ", \"method\": \"estimate\", \"graph\": \"caveman-36\", "
                     "\"vertices\": " + vertices + ", \"samples\": " +
                     std::to_string(samples);
  if (deadline_ms >= 0.0) {
    line += ", \"deadline_ms\": " + JsonDouble(deadline_ms);
  }
  return line + "}";
}

ServeResponse MustParse(const std::string& line) {
  auto response = ParseServeResponse(line);
  EXPECT_TRUE(response.ok()) << line;
  return response.ok() ? std::move(response).value() : ServeResponse{};
}

/// Polls Server::Stats() until `predicate` holds. No wall clock: the
/// bound is an iteration count, generous because a yield is ~free.
template <typename Predicate>
bool PollStats(Server& server, Predicate predicate) {
  for (long i = 0; i < 50'000'000L; ++i) {
    if (predicate(server.Stats())) return true;
    std::this_thread::yield();
  }
  return false;
}

class ServeDeadlineTest : public ::testing::Test {
 protected:
  void MakeServer(std::size_t workers, std::size_t queue_capacity) {
    auto graph = MakeDataset("caveman-36");
    ASSERT_TRUE(graph.ok());
    ASSERT_TRUE(catalog_
                    .AddGraph("caveman-36", std::move(graph).value(),
                              EngineOptions(), /*sessions=*/workers)
                    .ok());
    ServerOptions options;
    options.workers = workers;
    options.queue_capacity = queue_capacity;
    server_ = std::make_unique<Server>(&catalog_, options);
  }

  GraphCatalog catalog_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeDeadlineTest, ExpiredOnArrivalIsRejectedAtAdmission) {
  MakeServer(/*workers=*/1, /*queue_capacity=*/4);
  const ServeResponse response =
      MustParse(server_->Call(EstimateLine(/*id=*/1, 100, /*deadline_ms=*/0)));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_class, ServeErrorClass::kDeadline);
  EXPECT_NE(response.message.find("expired on arrival"), std::string::npos)
      << response.message;
  EXPECT_TRUE(response.has_id);
  EXPECT_EQ(response.id, 1u);

  // Never admitted, counted as a deadline rejection.
  const ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.rejected_overload, 0u);

  // The daemon keeps serving.
  const ServeResponse ok =
      MustParse(server_->Call(EstimateLine(/*id=*/2, 100, /*deadline_ms=*/-1)));
  EXPECT_TRUE(ok.ok);
}

TEST_F(ServeDeadlineTest, MidFlightDeadlineReturnsPartialFlaggedReports) {
  MakeServer(/*workers=*/1, /*queue_capacity=*/4);
  const ServeResponse response = MustParse(server_->Call(
      EstimateLine(/*id=*/7, kHugeSamples, /*deadline_ms=*/60.0)));
  // Partial results are a SUCCESS with a flag, not an error: the report
  // carries whatever statistics the budget bought.
  ASSERT_TRUE(response.ok) << response.message;
  ASSERT_EQ(response.reports.size(), 1u);
  const WireReport& report = response.reports[0];
  EXPECT_TRUE(report.deadline_flagged);
  EXPECT_GT(report.samples_used, 0u);
  EXPECT_LT(report.samples_used, kHugeSamples);
  // The flag travels on the wire as the documented string.
  const JsonValue* result = response.body.Find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* flag = result->Find("reports")->array.at(0).Find("flag");
  ASSERT_NE(flag, nullptr);
  EXPECT_EQ(flag->string_value, "kDeadline");
}

TEST_F(ServeDeadlineTest, MultiVertexRequestSharesOneDeadline) {
  // The vertices of one request share its deadline: the engine measures a
  // kDeadline budget from the start of EstimateMany, not per vertex. The
  // first vertex's doubling loop may overshoot up to 2x; the later ones
  // get one minimal batch each, so three vertices take well under 3x.
  MakeServer(/*workers=*/1, /*queue_capacity=*/4);
  constexpr double kDeadlineMs = 300.0;
  const WallTimer timer;
  const ServeResponse response = MustParse(server_->Call(EstimateLine(
      /*id=*/9, kHugeSamples, kDeadlineMs, /*vertices=*/"[0, 7, 20]")));
  const double elapsed_ms = timer.ElapsedSeconds() * 1000.0;
  ASSERT_TRUE(response.ok) << response.message;
  ASSERT_EQ(response.reports.size(), 3u);
  for (const WireReport& report : response.reports) {
    EXPECT_TRUE(report.deadline_flagged) << "vertex " << report.vertex;
    EXPECT_GT(report.samples_used, 0u);
  }
  EXPECT_LT(elapsed_ms, 3.0 * kDeadlineMs);
}

TEST_F(ServeDeadlineTest, GenerousDeadlineCompletesUnflagged) {
  MakeServer(/*workers=*/1, /*queue_capacity=*/4);
  const ServeResponse response = MustParse(server_->Call(
      EstimateLine(/*id=*/8, /*samples=*/200, /*deadline_ms=*/60'000.0)));
  ASSERT_TRUE(response.ok) << response.message;
  ASSERT_EQ(response.reports.size(), 1u);
  EXPECT_FALSE(response.reports[0].deadline_flagged);
  EXPECT_EQ(response.reports[0].samples_used, 200u);
}

TEST_F(ServeDeadlineTest, QueueExpiryAndOverloadOnSaturatedServer) {
  // One worker, one queue slot: occupy the worker, let a tight-deadline
  // request rot in the queue, and bounce a third off the full queue.
  MakeServer(/*workers=*/1, /*queue_capacity=*/1);

  std::string occupier_line;
  std::thread occupier([&] {
    // Holds the only worker for ~its whole deadline (the sample budget
    // is unreachable), then returns a flagged partial.
    occupier_line = server_->Call(
        EstimateLine(/*id=*/100, kHugeSamples, /*deadline_ms=*/400.0));
  });
  ASSERT_TRUE(PollStats(*server_, [](const ServerStats& stats) {
    return stats.busy_workers == 1;
  })) << "occupier never reached a worker";

  std::string queued_line;
  std::thread queued([&] {
    // Admitted into the queue (capacity 1) behind the occupier; its 1 ms
    // deadline expires long before the worker frees up, so it must come
    // back as a queue-expiry `deadline` error, not run.
    queued_line = server_->Call(
        EstimateLine(/*id=*/101, kHugeSamples, /*deadline_ms=*/1.0));
  });
  ASSERT_TRUE(PollStats(*server_, [](const ServerStats& stats) {
    return stats.queue_depth == 1;
  })) << "queued request never admitted";

  // Queue full -> immediate overload, while both others are in flight.
  const ServeResponse overload = MustParse(
      server_->Call(EstimateLine(/*id=*/102, 100, /*deadline_ms=*/-1)));
  EXPECT_FALSE(overload.ok);
  EXPECT_EQ(overload.error_class, ServeErrorClass::kOverload);
  EXPECT_NE(overload.message.find("admission queue full"), std::string::npos)
      << overload.message;
  EXPECT_EQ(overload.id, 102u);

  occupier.join();
  queued.join();

  const ServeResponse occupier_response = MustParse(occupier_line);
  ASSERT_TRUE(occupier_response.ok) << occupier_response.message;
  ASSERT_EQ(occupier_response.reports.size(), 1u);
  EXPECT_TRUE(occupier_response.reports[0].deadline_flagged);

  const ServeResponse queued_response = MustParse(queued_line);
  EXPECT_FALSE(queued_response.ok);
  EXPECT_EQ(queued_response.error_class, ServeErrorClass::kDeadline);
  EXPECT_NE(queued_response.message.find("in queue"), std::string::npos)
      << queued_response.message;

  // Responses are fulfilled just before the worker's own bookkeeping, so
  // poll for quiescence rather than asserting the instant after join.
  ASSERT_TRUE(PollStats(*server_, [](const ServerStats& stats) {
    return stats.busy_workers == 0 && stats.queue_depth == 0;
  }));
  const ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_GE(stats.rejected_deadline, 1u);  // the queue expiry
  EXPECT_EQ(stats.admitted, 2u);           // occupier + queued, not overload
}

TEST_F(ServeDeadlineTest, PriorityOrdersTheQueueUnderSaturation) {
  // One worker, room to queue: while the worker is occupied, enqueue a
  // low-priority then a high-priority request; the high one must run
  // first even though it was admitted second. Completion order is
  // observed through the server's completed counter snapshot each
  // response races to read... simpler: epochs can't order reads, so use
  // the mutate method — mutations are serialized by the catalog, and the
  // graph's edge count records which applied first.
  MakeServer(/*workers=*/1, /*queue_capacity=*/4);

  std::string occupier_line;
  std::thread occupier([&] {
    occupier_line = server_->Call(
        EstimateLine(/*id=*/200, kHugeSamples, /*deadline_ms=*/300.0));
  });
  ASSERT_TRUE(PollStats(*server_, [](const ServerStats& stats) {
    return stats.busy_workers == 1;
  }));

  // Low priority admitted first, high priority second.
  std::string low_line;
  std::string high_line;
  std::thread low([&] {
    low_line = server_->Call(
        R"({"id": 201, "method": "mutate", "graph": "caveman-36",)"
        R"( "edits": "addvertex", "priority": 0})");
  });
  ASSERT_TRUE(PollStats(*server_, [](const ServerStats& stats) {
    return stats.queue_depth == 1;
  }));
  std::thread high([&] {
    high_line = server_->Call(
        R"({"id": 202, "method": "mutate", "graph": "caveman-36",)"
        R"( "edits": "addvertex", "priority": 9})");
  });
  ASSERT_TRUE(PollStats(*server_, [](const ServerStats& stats) {
    return stats.queue_depth == 2;
  }));

  occupier.join();
  low.join();
  high.join();

  // Each mutate advanced the epoch once; the high-priority one must have
  // gone first, i.e. observed the earlier epoch.
  const ServeResponse low_response = MustParse(low_line);
  const ServeResponse high_response = MustParse(high_line);
  ASSERT_TRUE(low_response.ok) << low_response.message;
  ASSERT_TRUE(high_response.ok) << high_response.message;
  EXPECT_EQ(high_response.epoch, 1u);
  EXPECT_EQ(low_response.epoch, 2u);
}

}  // namespace
}  // namespace mhbc::serve
