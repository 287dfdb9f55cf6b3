// rpc.v1 over real loopback sockets: the Hello/HelloAck version handshake,
// typed solve round-trips through ClientSession, first-class error
// responses (bad requests, version mismatches) that keep the connection
// usable, and the remote shutdown frame. Codec domain validation is also
// covered here; byte-level mutation fuzzing lives in test_fuzz_parsers.
#include "net/rpc.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"
#include "net/client_session.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "robust/retry.hpp"
#include "service/scheduler_service.hpp"
#include "validate/schedule_validator.hpp"

namespace redist {
namespace {

/// A small 3x3 instance with enough structure to need several steps.
rpc::SolveRequest small_request(std::uint64_t request_id) {
  rpc::SolveRequest req;
  req.request_id = request_id;
  req.k = 2;
  req.beta = 1;
  req.senders = 3;
  req.receivers = 3;
  req.entries = {{0, 0, 10}, {0, 1, 4}, {1, 1, 7},
                 {1, 2, 3},  {2, 0, 5}, {2, 2, 8}};
  return req;
}

TEST(Rpc, AlgorithmAndEngineCodesRoundTrip) {
  for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP,
                               Algorithm::kGGPMaxWeight}) {
    for (const MatchingEngine engine :
         {MatchingEngine::kCold, MatchingEngine::kWarm}) {
      rpc::SolveRequest req = small_request(7);
      req.algorithm = algo;
      req.engine = engine;
      std::vector<char> wire;
      rpc::encode_solve_request(wire, req);
      const rpc::SolveRequest parsed = rpc::decode_solve_request(wire);
      EXPECT_EQ(parsed.algorithm, algo);
      EXPECT_EQ(parsed.engine, engine);
    }
  }
}

TEST(Rpc, DecoderRejectsOutOfDomainRequests) {
  const auto reject = [](rpc::SolveRequest req) {
    std::vector<char> wire;
    rpc::encode_solve_request(wire, req);
    EXPECT_THROW((void)rpc::decode_solve_request(wire), Error);
  };
  {
    rpc::SolveRequest req = small_request(1);
    req.k = 0;  // k must be >= 1
    reject(req);
  }
  {
    rpc::SolveRequest req = small_request(2);
    req.beta = -1;  // negative setup cost
    reject(req);
  }
  {
    rpc::SolveRequest req = small_request(3);
    req.senders = 0;  // empty cluster
    req.entries.clear();
    reject(req);
  }
  {
    rpc::SolveRequest req = small_request(4);
    req.entries.push_back({3, 0, 5});  // sender id == senders (out of range)
    reject(req);
  }
  {
    rpc::SolveRequest req = small_request(5);
    req.entries.push_back({0, 0, 0});  // zero-byte transfer is not an entry
    reject(req);
  }
}

TEST(Rpc, ErrorCodeNamesAreStable) {
  // Wire contract: these names appear in metrics (service.error.<name>)
  // and docs/SERVICE.md; renaming one is a breaking change.
  EXPECT_STREQ(rpc::rpc_error_code_name(rpc::RpcErrorCode::kBadRequest),
               "bad_request");
  EXPECT_STREQ(rpc::rpc_error_code_name(rpc::RpcErrorCode::kVersionMismatch),
               "version_mismatch");
  EXPECT_STREQ(rpc::rpc_error_code_name(rpc::RpcErrorCode::kRateLimited),
               "rate_limited");
  EXPECT_STREQ(rpc::rpc_error_code_name(rpc::RpcErrorCode::kShuttingDown),
               "shutting_down");
  EXPECT_STREQ(rpc::rpc_error_code_name(rpc::RpcErrorCode::kInternal),
               "internal");
  EXPECT_STREQ(rpc::served_from_name(rpc::ServedFrom::kCold), "cold");
  EXPECT_STREQ(rpc::served_from_name(rpc::ServedFrom::kCacheHit),
               "cache_hit");
  EXPECT_STREQ(rpc::served_from_name(rpc::ServedFrom::kWarmNearMiss),
               "warm_near_miss");
}

// The daemon no longer sends kWarmNearMiss, but the enum is append-only:
// code 2 stays reserved and decodable, and the next code is rejected.
TEST(Rpc, ServedFromCodesRoundTripIncludingTheReservedOne) {
  for (const rpc::ServedFrom served :
       {rpc::ServedFrom::kCold, rpc::ServedFrom::kCacheHit,
        rpc::ServedFrom::kWarmNearMiss}) {
    rpc::SolveResponse resp;
    resp.request_id = 9;
    resp.served_from = served;
    resp.schedule_text = "schedule 0\n";
    std::vector<char> wire;
    rpc::encode_solve_response(wire, resp);
    const rpc::SolveResponse parsed = rpc::decode_solve_response(wire);
    EXPECT_EQ(parsed.served_from, served);
    EXPECT_EQ(parsed.schedule_text, resp.schedule_text);
  }
  rpc::SolveResponse resp;
  std::vector<char> wire;
  rpc::encode_solve_response(wire, resp);
  wire[16] = 3;  // served_from follows request_id and solve_id
  EXPECT_THROW((void)rpc::decode_solve_response(wire), Error);
}

TEST(Rpc, HandshakeAndSolveRoundTripOverSocket) {
  service::SchedulerService daemon;
  ClientSession session = ClientSession::dial_rpc(daemon.port());

  const rpc::SolveRequest request = small_request(42);
  const rpc::SolveResponse response = session.solve(request);
  EXPECT_EQ(response.request_id, 42u);
  EXPECT_EQ(response.served_from, rpc::ServedFrom::kCold);
  EXPECT_GE(response.evaluation_ratio, 1.0);
  EXPECT_GT(response.lb_den, 0);

  // The shipped schedule must parse and validate against the instance.
  const Schedule schedule = schedule_from_string(response.schedule_text);
  BipartiteGraph g(3, 3);
  for (const rpc::TrafficEntry& e : request.entries) {
    g.add_edge(e.sender, e.receiver, e.bytes);
  }
  ScheduleValidatorOptions options;
  options.k = 2;
  options.beta = 1;
  EXPECT_TRUE(ScheduleValidator(options).validate(g, schedule).ok());
  daemon.stop();
}

TEST(Rpc, VersionMismatchAnswersTypedErrorAtConnectTime) {
  service::SchedulerService daemon;
  TcpStream stream = TcpStream::connect_loopback(daemon.port());
  stream.set_io_timeout_ms(5000);

  std::vector<char> hello;
  rpc::encode_hello(hello, rpc::kRpcProtocolVersion + 41);
  send_message(stream, static_cast<std::uint32_t>(rpc::RpcTag::kHello),
               hello.data(), hello.size());

  std::vector<char> payload;
  const std::uint32_t tag = recv_message(stream, payload);
  ASSERT_EQ(tag, static_cast<std::uint32_t>(rpc::RpcTag::kError));
  const rpc::ErrorResponse err = rpc::decode_error_response(payload);
  EXPECT_EQ(err.code, rpc::RpcErrorCode::kVersionMismatch);
  daemon.stop();
}

TEST(Rpc, DialRpcSurfacesVersionMismatchAfterRetryBudget) {
  service::SchedulerService daemon;
  // A client pinned to a version the server cannot speak fails loudly —
  // the handshake error survives the (small) retry budget.
  ClientSessionOptions options;
  options.retry.max_attempts = 2;
  options.retry.base_delay_ms = 1;
  options.retry.max_delay_ms = 2;
  TcpStream probe = TcpStream::connect_loopback(daemon.port());  // sanity
  probe.set_io_timeout_ms(1000);
  EXPECT_THROW(
      {
        ClientSession session = ClientSession::dial(
            daemon.port(), options, [](TcpStream& stream) {
              std::vector<char> hello;
              rpc::encode_hello(hello, rpc::kRpcProtocolVersion + 1);
              send_message(stream,
                           static_cast<std::uint32_t>(rpc::RpcTag::kHello),
                           hello.data(), hello.size());
              std::vector<char> payload;
              const std::uint32_t tag = recv_message(stream, payload);
              if (tag != static_cast<std::uint32_t>(rpc::RpcTag::kHelloAck)) {
                throw RpcRemoteError(rpc::decode_error_response(payload));
              }
            });
      },
      Error);
  daemon.stop();
}

TEST(Rpc, MalformedSolvePayloadGetsBadRequestAndConnectionSurvives) {
  service::SchedulerService daemon;
  ClientSession session = ClientSession::dial_rpc(daemon.port());

  // Garbage payload under the solve tag: typed kBadRequest, not a hangup.
  const char garbage[] = "definitely not a solve request";
  send_message(session.stream(),
               static_cast<std::uint32_t>(rpc::RpcTag::kSolveRequest),
               garbage, sizeof(garbage));
  std::vector<char> payload;
  const std::uint32_t tag = recv_message(session.stream(), payload);
  ASSERT_EQ(tag, static_cast<std::uint32_t>(rpc::RpcTag::kError));
  EXPECT_EQ(rpc::decode_error_response(payload).code,
            rpc::RpcErrorCode::kBadRequest);

  // The same connection then serves a well-formed request.
  const rpc::SolveResponse response = session.solve(small_request(8));
  EXPECT_EQ(response.request_id, 8u);
  daemon.stop();
}

TEST(Rpc, UnknownTagGetsBadRequest) {
  service::SchedulerService daemon;
  ClientSession session = ClientSession::dial_rpc(daemon.port());
  send_message(session.stream(), 0x9999, nullptr, 0);
  std::vector<char> payload;
  const std::uint32_t tag = recv_message(session.stream(), payload);
  ASSERT_EQ(tag, static_cast<std::uint32_t>(rpc::RpcTag::kError));
  EXPECT_EQ(rpc::decode_error_response(payload).code,
            rpc::RpcErrorCode::kBadRequest);
  daemon.stop();
}

// A frame announcing 2^40 payload bytes is refused with a typed error
// before the daemon allocates anything; the daemon keeps serving.
TEST(Rpc, OversizedFrameGetsBadRequestAndDaemonSurvives) {
  service::SchedulerService daemon;
  {
    ClientSession session = ClientSession::dial_rpc(daemon.port());
    // tag kSolveRequest (0x5203), size 2^40, both little-endian.
    const unsigned char header[12] = {0x03, 0x52, 0, 0, 0, 0,
                                      0,    0,    0, 1, 0, 0};
    session.stream().send_all(header, sizeof(header));
    std::vector<char> payload;
    const std::uint32_t tag = recv_message(session.stream(), payload);
    ASSERT_EQ(tag, static_cast<std::uint32_t>(rpc::RpcTag::kError));
    EXPECT_EQ(rpc::decode_error_response(payload).code,
              rpc::RpcErrorCode::kBadRequest);
  }
  ClientSession fresh = ClientSession::dial_rpc(daemon.port());
  EXPECT_EQ(fresh.solve(small_request(11)).request_id, 11u);
  daemon.stop();
}

TEST(Rpc, RemoteShutdownStopsTheDaemon) {
  service::SchedulerService daemon;
  ASSERT_FALSE(daemon.stopping());
  {
    ClientSession session = ClientSession::dial_rpc(daemon.port());
    session.shutdown_server();
  }
  // The shutdown frame is processed by the connection handler; the stop
  // flag must flip without any client-side join handle.
  for (int spin = 0; spin < 200 && !daemon.stopping(); ++spin) {
    robust::sleep_ms(10);
  }
  EXPECT_TRUE(daemon.stopping());
  daemon.stop();
}

TEST(Rpc, ShutdownCanBeDisabledByPolicy) {
  service::SchedulerServiceOptions options;
  options.allow_remote_shutdown = false;
  service::SchedulerService daemon(options);
  ClientSession session = ClientSession::dial_rpc(daemon.port());
  session.shutdown_server();
  // Frame is ignored; the daemon keeps serving on the same connection.
  const rpc::SolveResponse response = session.solve(small_request(9));
  EXPECT_EQ(response.request_id, 9u);
  EXPECT_FALSE(daemon.stopping());
  daemon.stop();
}

TEST(Rpc, SolveValidatesRequestIdEcho) {
  // ClientSession::solve rejects a response whose request_id does not echo
  // the request — catching daemon-side bookkeeping bugs at the client.
  service::SchedulerService daemon;
  ClientSession session = ClientSession::dial_rpc(daemon.port());
  const rpc::SolveResponse first = session.solve(small_request(1001));
  EXPECT_EQ(first.request_id, 1001u);
  const rpc::SolveResponse second = session.solve(small_request(1002));
  EXPECT_EQ(second.request_id, 1002u);
  daemon.stop();
}

}  // namespace
}  // namespace redist
