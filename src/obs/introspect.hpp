// Live introspection — healthz / statusz / metricsz / journalz.
//
// Renders the process's observability state on demand:
//
//   healthz             liveness: {"status":"ok","uptime_ms":...}
//   statusz             uptime, solves in flight (journal begun - finished),
//                       pool queue depth gauge, journal head/dropped
//   metricsz            Prometheus-style text exposition of the installed
//                       MetricsRegistry (see obs/export.hpp)
//   journalz?last=N     versioned JSONL dump of the flight recorder's last
//                       N events (all retained events when N is omitted)
//
// Requests are a single line: either a plain endpoint name ("statusz\n")
// or an HTTP/1.0-style request line ("GET /statusz HTTP/1.1"), so both
// `redist_cli inspect` and curl-equivalent probes work. Replies are
// minimal HTTP/1.0 (status line, Content-Length, close).
//
// This class owns no socket. The scheduler daemon reads the request line
// on its one rpc port, which it tells apart from rpc.v1 frames by the
// connection's first four bytes, and writes back reply()
// (service/scheduler_service.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/contract_annotations.hpp"

REDIST_LAYER("obs");

namespace redist::obs {

class Journal;
class MetricsRegistry;

/// Both sinks may be nullptr — the endpoints then report the corresponding
/// surface as uninstalled rather than failing.
class Introspector {
 public:
  Introspector(MetricsRegistry* metrics, Journal* journal);

  /// Renders the response body + status for a request target (e.g.
  /// "statusz", "journalz?last=8").
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  Response respond(std::string_view target) const;

  /// Turns one request line (bare or HTTP form) into the full HTTP/1.0
  /// reply text, and counts it in statusz's requests_served.
  std::string reply(std::string_view request_line);

 private:
  MetricsRegistry* metrics_;
  Journal* journal_;
  std::uint64_t start_ns_;
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace redist::obs
