#include "service/scheduler_service.hpp"

#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"
#include "net/message.hpp"
#include "obs/journal.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace redist::service {

namespace {

/// Longest introspection request line read from a peer, newline included.
constexpr std::size_t kMaxRequestLineBytes = 1024;

void send_rpc(TcpStream& stream, rpc::RpcTag tag,
              const std::vector<char>& payload) {
  send_message(stream, static_cast<std::uint32_t>(tag), payload.data(),
               payload.size());
}

void send_rpc_error(TcpStream& stream, std::uint64_t request_id,
                    rpc::RpcErrorCode code, const std::string& message) {
  rpc::ErrorResponse error;
  error.request_id = request_id;
  error.code = code;
  error.message = message;
  std::vector<char> payload;
  rpc::encode_error_response(payload, error);
  send_rpc(stream, rpc::RpcTag::kError, payload);
  obs::MetricsRegistry* const metrics = obs::metrics();
  if (metrics != nullptr) {
    metrics->counter(std::string("service.error.") +
                     rpc::rpc_error_code_name(code))
        .add();
  }
}

/// request_id is the leading u64 of every SolveRequest payload; peeking it
/// lets pre-decode rejections (rate limit, draining) echo the id without
/// paying for a full decode of a request that will not be served.
std::uint64_t peek_request_id(const std::vector<char>& payload) {
  if (payload.size() < sizeof(std::uint64_t)) return 0;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < sizeof(std::uint64_t); ++i) {
    id |= static_cast<std::uint64_t>(static_cast<unsigned char>(payload[i]))
          << (8 * i);
  }
  return id;
}

}  // namespace

SchedulerService::SchedulerService(SchedulerServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity),
      admission_(options.admission_rate_rps, options.admission_burst),
      introspector_(obs::metrics(), obs::journal()),
      listener_(TcpListener::bind_loopback()),
      pool_(options.threads) {
  listener_.set_accept_timeout_ms(options_.accept_poll_ms);
  accept_thread_ = std::thread([this] { serve(); });
}

SchedulerService::~SchedulerService() { stop(); }

void SchedulerService::stop() {
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  // In-flight connection handlers observe stopping_ after their current
  // request (or their next idle timeout) and return; the pool member's
  // destructor waits for exactly that, bounded by io_timeout_ms.
}

void SchedulerService::serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    TcpStream stream;
    try {
      stream = listener_.accept();
    } catch (const TimeoutError&) {
      continue;  // poll tick: re-check the stop flag
    } catch (const Error&) {
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;
    }
    stream.set_nodelay(true);
    stream.set_io_timeout_ms(options_.io_timeout_ms);
    // shared_ptr because std::function requires a copyable closure.
    auto conn = std::make_shared<TcpStream>(std::move(stream));
    pool_.submit([this, conn] { handle_connection(std::move(*conn)); });
  }
}

void SchedulerService::handle_connection(TcpStream stream) {
  try {
    // One port, two protocols: every rpc.v1 connection opens with a frame
    // tag, and no introspection request line starts with one.
    const std::uint32_t first = recv_tag(stream);
    if (rpc::is_rpc_tag(first)) {
      serve_rpc(stream, first);
    } else {
      serve_introspection(stream, first);
    }
  } catch (const PayloadTooLargeError& e) {
    // The unread payload leaves the stream unframed: answer, then close.
    try {
      send_rpc_error(stream, 0, rpc::RpcErrorCode::kBadRequest, e.what());
    } catch (const std::exception&) {
    }
  } catch (const Error&) {
    // Connection-level failure (peer closed, idled past the deadline, send
    // to a vanished peer): drop it; the daemon itself is unaffected.
  } catch (const std::exception& e) {
    // Anything else is unexpected, but no exception may leave a pool task.
    obs::log_event(obs::LogLevel::kWarn, "service", "connection dropped",
                   {obs::log_field("error", e.what())});
  }
}

void SchedulerService::serve_introspection(TcpStream& stream,
                                           std::uint32_t first_bytes) {
  std::string line;
  for (int i = 0; i < 4; ++i) {
    line.push_back(static_cast<char>(first_bytes >> (8 * i)));
  }
  bool done = line.find('\n') != std::string::npos;
  while (!done && line.size() < kMaxRequestLineBytes) {
    char c = 0;
    stream.recv_all(&c, 1);
    line.push_back(c);
    done = c == '\n';
  }
  const std::string reply = introspector_.reply(line);
  stream.send_all(reply.data(), reply.size());
}

void SchedulerService::serve_rpc(TcpStream& stream, std::uint32_t first_tag) {
  std::vector<char> payload;
  recv_payload(stream, payload, rpc::kMaxRequestPayload);
  // Version handshake first: anything else on a fresh connection is a
  // protocol violation worth a typed reply before closing.
  if (first_tag != static_cast<std::uint32_t>(rpc::RpcTag::kHello)) {
    send_rpc_error(stream, 0, rpc::RpcErrorCode::kBadRequest,
                   "expected Hello frame, got tag " +
                       std::to_string(first_tag));
    return;
  }
  const std::uint32_t version = rpc::decode_hello(payload);
  if (version != rpc::kRpcProtocolVersion) {
    send_rpc_error(stream, 0, rpc::RpcErrorCode::kVersionMismatch,
                   "server speaks rpc.v" +
                       std::to_string(rpc::kRpcProtocolVersion) +
                       ", client sent v" + std::to_string(version));
    return;
  }
  std::vector<char> ack;
  rpc::encode_hello(ack, rpc::kRpcProtocolVersion);
  send_rpc(stream, rpc::RpcTag::kHelloAck, ack);

  while (!stopping_.load(std::memory_order_acquire)) {
    // A peer that closes or idles past the deadline ends the connection
    // through handle_connection's catch.
    const std::uint32_t tag =
        recv_message(stream, payload, rpc::kMaxRequestPayload);
    obs::journal_record(obs::JournalEventKind::kRpcRequest,
                        static_cast<std::int64_t>(tag),
                        static_cast<std::int64_t>(payload.size()));
    if (tag == static_cast<std::uint32_t>(rpc::RpcTag::kShutdown)) {
      if (options_.allow_remote_shutdown) {
        stopping_.store(true, std::memory_order_release);
        return;
      }
      // Policy says no: the fire-and-forget frame is dropped and the
      // connection keeps serving (a reply here would desynchronize the
      // client's request/response pairing).
      continue;
    }
    if (tag != static_cast<std::uint32_t>(rpc::RpcTag::kSolveRequest)) {
      send_rpc_error(stream, 0, rpc::RpcErrorCode::kBadRequest,
                     "unexpected tag " + std::to_string(tag));
      continue;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry* const metrics = obs::metrics();
    if (metrics != nullptr) metrics->counter("service.requests").add();
    const std::uint64_t request_id = peek_request_id(payload);
    if (stopping_.load(std::memory_order_acquire)) {
      send_rpc_error(stream, request_id, rpc::RpcErrorCode::kShuttingDown,
                     "daemon is draining");
      return;
    }
    // Admission control: one token per request from the global lock-free
    // bucket. Rejection keeps the connection alive — the client backs
    // off and retries without redialing.
    if (!admission_.try_acquire(1)) {
      if (metrics != nullptr) {
        metrics->counter("service.rate_limited").add();
      }
      send_rpc_error(stream, request_id, rpc::RpcErrorCode::kRateLimited,
                     "admission rate exceeded; retry later");
      continue;
    }
    rpc::SolveRequest request;
    try {
      request = rpc::decode_solve_request(payload);
    } catch (const Error& e) {
      send_rpc_error(stream, 0, rpc::RpcErrorCode::kBadRequest, e.what());
      continue;
    }
    try {
      const rpc::SolveResponse response = serve_solve(request);
      std::vector<char> body;
      rpc::encode_solve_response(body, response);
      send_rpc(stream, rpc::RpcTag::kSolveResponse, body);
    } catch (const std::exception& e) {
      send_rpc_error(stream, request.request_id,
                     rpc::RpcErrorCode::kInternal, e.what());
    }
  }
}

rpc::SolveResponse SchedulerService::serve_solve(
    const rpc::SolveRequest& request) {
  const Stopwatch timer;
  TrafficMatrix matrix(request.senders, request.receivers);
  for (const rpc::TrafficEntry& entry : request.entries) {
    matrix.add(entry.sender, entry.receiver, entry.bytes);
  }
  SolverOptions options;
  options.k = request.k;
  options.beta = request.beta;
  options.algorithm = request.algorithm;
  options.engine = request.engine;

  CanonicalInstance instance = canonicalize(matrix, options);
  const InstanceFingerprint fp = fingerprint_instance(instance);
  SolveCache::Lookup lookup = cache_.lookup(fp, instance);

  rpc::SolveResponse response;
  response.request_id = request.request_id;

  if (lookup.kind == SolveCache::Lookup::Kind::kHit) {
    response.served_from = rpc::ServedFrom::kCacheHit;
    response.solve_id = lookup.solve.solve_id;
    response.lb_min_steps = lookup.solve.lb_min_steps;
    response.lb_num = lookup.solve.lb_num;
    response.lb_den = lookup.solve.lb_den;
    response.evaluation_ratio = lookup.solve.evaluation_ratio;
    response.schedule_text = std::move(lookup.solve.schedule_text);
    response.solve_ms = timer.elapsed_ms();
    return response;
  }

  const BipartiteGraph demand = matrix.to_graph_bytes();
  const SolveResult solved = solve_kpbs(demand, options);

  CachedSolve cached;
  cached.schedule_text = schedule_to_string(solved.schedule);
  cached.lb_min_steps = solved.lower_bound.min_steps;
  cached.lb_num = solved.lower_bound.min_transmission.num();
  cached.lb_den = solved.lower_bound.min_transmission.den();
  cached.evaluation_ratio = solved.evaluation_ratio;
  cached.solve_id = solved.solve_id;

  response.served_from = rpc::ServedFrom::kCold;
  response.solve_id = cached.solve_id;
  response.lb_min_steps = cached.lb_min_steps;
  response.lb_num = cached.lb_num;
  response.lb_den = cached.lb_den;
  response.evaluation_ratio = cached.evaluation_ratio;
  response.schedule_text = cached.schedule_text;

  cache_.insert_solve(fp, std::move(instance), std::move(cached));
  response.solve_ms = timer.elapsed_ms();
  return response;
}

}  // namespace redist::service
