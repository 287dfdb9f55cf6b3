// The shipped daemon as a child process, and the open-loop client that
// drives it over rpc.v1.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core.hpp"
#include "net/client_session.hpp"
#include "net/rpc.hpp"

namespace perfbench {

/// The daemon runs with no flags, so at the defaults of `redist_cli
/// daemon`; the benchmark's offered rates and connection counts are set
/// against these values.
inline constexpr int kDaemonThreads = 2;
inline constexpr double kDaemonAdmissionRps = 512;
inline constexpr const char* kDaemonDefaults =
    "threads=2 cache-capacity=64 io-timeout-ms=5000 rate-rps=512 burst=64";

/// `redist_cli daemon` started with fork/exec; the constructor returns once
/// the daemon has published its port. stop() (also run by the destructor)
/// asks it to shut down, waits for it and collects its peak RSS.
class DaemonProcess {
 public:
  /// `cli` is the redist_cli binary, `work_dir` an existing directory for
  /// the port file and the daemon's log.
  DaemonProcess(const std::string& cli, const std::string& work_dir);
  ~DaemonProcess();

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  std::uint16_t port() const { return port_; }

  /// The daemon's start-up line, which states its flags.
  const std::string& banner() const { return banner_; }

  /// Sends the rpc shutdown frame on the first of `sessions`, closes them
  /// all (an open idle connection would hold a handler until its idle
  /// deadline), waits for exit (SIGKILL after 10 s) and returns the
  /// daemon's peak resident set in MiB (wait4 ru_maxrss: the kernel's
  /// VmHWM at exit). With no sessions the daemon is killed.
  double stop(std::vector<redist::ClientSession>& sessions);

 private:
  double reap();

  pid_t pid_ = -1;
  int banner_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string banner_;
  std::string log_path_;
};

/// Opens `count` rpc.v1 sessions to `port`.
std::vector<redist::ClientSession> dial_sessions(std::uint16_t port,
                                                 int count);

/// Sends every request of `inputs` once over `sessions`, in parallel,
/// untimed (cache seeding during set-up). Returns the responses in order;
/// throws on any failure.
std::vector<redist::rpc::SolveResponse> send_all(
    std::vector<redist::ClientSession>& sessions,
    const std::vector<redist::rpc::SolveRequest>& inputs);

/// One open-loop window: one sender thread per session claims the next
/// arrival, sleeps until it is due and sends it. Outcomes are indexed like
/// `arrivals`; the schedule texts of successful replies land in `texts`.
std::vector<Outcome> run_open_loop(
    std::vector<redist::ClientSession>& sessions,
    const std::vector<Arrival>& arrivals,
    const std::vector<redist::rpc::SolveRequest>& inputs,
    std::vector<redist::rpc::SolveResponse>* responses);

}  // namespace perfbench
