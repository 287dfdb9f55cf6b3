// The introspection endpoints round-trip over real loopback sockets on the
// scheduler daemon's one port, the deadline-aware connection handling never
// lets an idle client wedge a worker, and running the full observability
// stack (metrics + journal + daemon) changes no schedule byte. The
// renderer itself is checked socket-free through respond()/reply().
#include "obs/introspect.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kpbs/solver.hpp"
#include "net/socket.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "service/scheduler_service.hpp"
#include "workload/random_graphs.hpp"

namespace redist::obs {
namespace {

using service::SchedulerService;

// One request/response exchange: connect, send the request bytes, read the
// raw response until the server closes the connection.
std::string fetch(std::uint16_t port, const std::string& request) {
  TcpStream stream = TcpStream::connect_loopback(port);
  stream.set_io_timeout_ms(5000);
  stream.send_all(request.data(), request.size());
  std::string response;
  try {
    char c = 0;
    for (;;) {
      stream.recv_all(&c, 1);
      response.push_back(c);
    }
  } catch (const Error&) {
    // Peer close ends the response; the server always closes after one
    // exchange (Connection: close).
  }
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

TEST(Introspect, HealthzRoundTripsBareLineProtocol) {
  MetricsRegistry registry;
  Journal journal(256);
  ScopedTelemetry telemetry(&registry, nullptr);
  ScopedJournal scoped_journal(&journal);
  SchedulerService daemon;
  ASSERT_GT(daemon.port(), 0);

  const std::string response = fetch(daemon.port(), "healthz\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_ms\":"), std::string::npos);
  EXPECT_NE(body_of(fetch(daemon.port(), "statusz\n"))
                .find("\"requests_served\":1"),
            std::string::npos);
  EXPECT_EQ(daemon.requests_served(), 0u);  // no solve request was made
}

TEST(Introspect, StatuszRoundTripsHttpRequestLine) {
  MetricsRegistry registry;
  registry.gauge("runtime.pool.queue_depth").set(3);
  Journal journal(256);
  {
    const SolveIdScope scope(11);
    journal.record(JournalEventKind::kSolveBegin, 2, 2);
    journal.record(JournalEventKind::kSolveEnd, 1, 4, 1.0);
    journal.record(JournalEventKind::kSolveBegin, 2, 2);  // still in flight
  }
  ScopedTelemetry telemetry(&registry, nullptr);
  ScopedJournal scoped_journal(&journal);
  SchedulerService daemon;

  const std::string body =
      body_of(fetch(daemon.port(), "GET /statusz HTTP/1.1\r\n"));
  EXPECT_NE(body.find("\"solves_begun\":2"), std::string::npos);
  EXPECT_NE(body.find("\"solves_finished\":1"), std::string::npos);
  EXPECT_NE(body.find("\"solves_in_flight\":1"), std::string::npos);
  // The daemon's own pool moves the gauge's value; its maximum remains.
  EXPECT_NE(body.find("\"pool_queue_depth_max\":3"), std::string::npos);
  EXPECT_NE(body.find("\"journal\":{\"head_seq\":"), std::string::npos);
}

TEST(Introspect, MetricszServesPrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("kpbs.solve.count").add(5);
  Introspector introspector(&registry, nullptr);

  const std::string response = introspector.reply("metricsz\n");
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_NE(body.find("# TYPE redist_kpbs_solve_count counter"),
            std::string::npos);
  EXPECT_NE(body.find("redist_kpbs_solve_count 5"), std::string::npos);
}

TEST(Introspect, JournalzHonorsLastParameter) {
  Journal journal(256);
  for (int i = 0; i < 10; ++i) {
    journal.record(JournalEventKind::kPeelStep, i);
  }
  Introspector introspector(nullptr, &journal);

  const std::string body =
      body_of(introspector.reply("GET /journalz?last=3 HTTP/1.0\r\n"));
  EXPECT_NE(body.find("\"schema\":\"redist.journal.v1\""), std::string::npos);
  EXPECT_NE(body.find("\"events\":3"), std::string::npos);
  EXPECT_NE(body.find("\"seq\":9"), std::string::npos);
  EXPECT_EQ(body.find("\"seq\":6"), std::string::npos);

  const std::string all = body_of(introspector.reply("journalz\n"));
  EXPECT_NE(all.find("\"events\":10"), std::string::npos);
}

TEST(Introspect, RespondCoversErrorAndUninstalledSurfaces) {
  const Introspector introspector(nullptr, nullptr);

  const Introspector::Response missing = introspector.respond("nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("healthz"), std::string::npos);

  const Introspector::Response health = introspector.respond("healthz");
  EXPECT_EQ(health.status, 200);

  const Introspector::Response metrics = introspector.respond("metricsz");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("no metrics registry"), std::string::npos);

  const Introspector::Response journalz = introspector.respond("journalz");
  EXPECT_NE(journalz.body.find("no journal installed"), std::string::npos);

  // Garbage ?last= values degrade to "all events", never throw.
  const Introspector::Response garbage =
      introspector.respond("journalz?last=banana");
  EXPECT_NE(garbage.body.find("no journal installed"), std::string::npos);

  const Introspector::Response statusz = introspector.respond("statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"journal\":null"), std::string::npos);
}

// Deadline-aware I/O: a client that connects and never sends a byte is
// dropped by the per-connection idle deadline instead of wedging the
// daemon's single worker — the next real request still gets an answer.
TEST(Introspect, IdleClientCannotWedgeTheServer) {
  service::SchedulerServiceOptions options;
  options.threads = 1;
  options.io_timeout_ms = 200;
  SchedulerService daemon(options);

  TcpStream idle = TcpStream::connect_loopback(daemon.port());
  ASSERT_TRUE(idle.valid());
  // The only worker is now blocked reading this connection's first four
  // bytes; the 200ms deadline frees it. fetch()'s own 5s client deadline
  // bounds the wait for the queued connection below.
  const std::string response = fetch(daemon.port(), "healthz\n");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
}

TEST(Introspect, StopIsIdempotentAndPortsAreDistinct) {
  SchedulerService a;
  SchedulerService b;
  EXPECT_NE(a.port(), b.port());
  a.stop();
  a.stop();  // second stop is a no-op
}

// The full observability stack is observation-only: serving introspection
// requests mid-solve changes no schedule byte versus a bare solve.
TEST(Introspect, FullStackDoesNotChangeSchedules) {
  const BipartiteGraph g = [] {
    Rng rng(21);
    RandomGraphConfig config;
    config.max_left = 12;
    config.max_right = 12;
    config.max_edges = 60;
    config.min_weight = 1;
    config.max_weight = 20;
    return random_bipartite(rng, config);
  }();
  const SolverOptions options{4, 1, Algorithm::kOGGP, MatchingEngine::kWarm};
  const Schedule plain = solve_kpbs(g, options).schedule;

  Schedule instrumented;
  {
    MetricsRegistry registry;
    Journal journal(4096);
    ScopedTelemetry telemetry(&registry, nullptr);
    ScopedJournal scoped_journal(&journal);
    SchedulerService daemon;
    instrumented = solve_kpbs(g, options).schedule;
    const std::string body = body_of(fetch(daemon.port(), "statusz\n"));
    EXPECT_NE(body.find("\"solves_finished\":1"), std::string::npos);
  }

  ASSERT_EQ(plain.step_count(), instrumented.step_count());
  for (std::size_t s = 0; s < plain.step_count(); ++s) {
    const Step& sp = plain.steps()[s];
    const Step& si = instrumented.steps()[s];
    ASSERT_EQ(sp.comms.size(), si.comms.size()) << "step " << s;
    for (std::size_t c = 0; c < sp.comms.size(); ++c) {
      EXPECT_EQ(sp.comms[c].sender, si.comms[c].sender);
      EXPECT_EQ(sp.comms[c].receiver, si.comms[c].receiver);
      EXPECT_EQ(sp.comms[c].amount, si.comms[c].amount);
    }
  }
}

}  // namespace
}  // namespace redist::obs
