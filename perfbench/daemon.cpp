#include "daemon.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/error.hpp"

namespace perfbench {

using redist::ClientSession;
using redist::Error;
using redist::rpc::SolveRequest;
using redist::rpc::SolveResponse;
using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Reads one '\n'-terminated line from `fd` (the daemon's stdout banner:
// "daemon on 127.0.0.1:<port> (threads=...)").
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return line;
}

}  // namespace

DaemonProcess::DaemonProcess(const std::string& cli,
                             const std::string& work_dir)
    : log_path_(work_dir + "/daemon.log") {
  int out[2];
  if (::pipe(out) != 0) throw Error("perfbench: pipe failed");
  pid_ = ::fork();
  if (pid_ < 0) throw Error("perfbench: fork failed");
  if (pid_ == 0) {
    // Child: stdout to the pipe (the banner carries the port), stderr to
    // the log. No flags: the daemon runs at its shipped defaults. It dies
    // with the benchmark, so a crashed run leaves no daemon behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out[1], STDOUT_FILENO);
    std::FILE* log = std::fopen(log_path_.c_str(), "w");
    if (log != nullptr) ::dup2(fileno(log), STDERR_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execl(cli.c_str(), cli.c_str(), "daemon", static_cast<char*>(nullptr));
    std::perror("perfbench: exec redist_cli");
    ::_exit(127);
  }
  ::close(out[1]);
  banner_fd_ = out[0];
  banner_ = read_line(banner_fd_);
  const std::string::size_type colon = banner_.find("127.0.0.1:");
  if (colon == std::string::npos) {
    ::kill(pid_, SIGKILL);
    reap();
    throw Error("perfbench: daemon did not start (banner '" + banner_ +
                "', see " + log_path_ + ")");
  }
  port_ = static_cast<std::uint16_t>(
      std::stoul(banner_.substr(colon + std::strlen("127.0.0.1:"))));
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    reap();
  }
}

double DaemonProcess::stop(std::vector<ClientSession>& sessions) {
  if (pid_ <= 0) return 0;
  if (sessions.empty()) {
    ::kill(pid_, SIGKILL);
  } else {
    try {
      sessions.front().shutdown_server();
    } catch (const Error&) {
      ::kill(pid_, SIGKILL);  // connection already broken
    }
  }
  sessions.clear();
  return reap();
}

double DaemonProcess::reap() {
  int status = 0;
  rusage usage{};
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    const pid_t done = ::wait4(pid_, &status, WNOHANG, &usage);
    if (done == pid_ || done < 0) break;
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  if (banner_fd_ >= 0) {
    ::close(banner_fd_);
    banner_fd_ = -1;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<ClientSession> dial_sessions(std::uint16_t port, int count) {
  redist::ClientSessionOptions options;
  options.io_timeout_ms = 30000;
  std::vector<ClientSession> sessions;
  for (int i = 0; i < count; ++i) {
    sessions.push_back(ClientSession::dial_rpc(port, options));
  }
  return sessions;
}

std::vector<SolveResponse> send_all(std::vector<ClientSession>& sessions,
                                    const std::vector<SolveRequest>& inputs) {
  std::vector<SolveResponse> responses(inputs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::string error;
  std::vector<std::thread> threads;
  for (ClientSession& session : sessions) {
    threads.emplace_back([&, s = &session] {
      for (std::size_t i = next++; i < inputs.size(); i = next++) {
        SolveRequest request = inputs[i];
        request.request_id = i + 1;
        try {
          responses[i] = s->solve(request);
        } catch (const Error& e) {
          if (!failed.exchange(true)) error = e.what();
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failed) throw Error("perfbench: cache seeding failed: " + error);
  return responses;
}

std::vector<Outcome> run_open_loop(std::vector<ClientSession>& sessions,
                                   const std::vector<Arrival>& arrivals,
                                   const std::vector<SolveRequest>& inputs,
                                   std::vector<SolveResponse>* responses) {
  std::vector<Outcome> outcomes(arrivals.size());
  responses->assign(arrivals.size(), SolveResponse{});
  std::atomic<std::size_t> next{0};
  // Start a little in the future so every sender is parked before the
  // first arrival is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (ClientSession& session : sessions) {
    threads.emplace_back([&, s = &session] {
      for (std::size_t i = next++; i < arrivals.size(); i = next++) {
        SolveRequest request = inputs[arrivals[i].input];
        request.request_id = i + 1;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            arrivals[i].due_ms));
        const Clock::time_point claimed = Clock::now();
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        Outcome& o = outcomes[i];
        // Generator lateness: how long after it could have sent (the later
        // of due time and the moment this sender was free) it did send.
        o.late_ms = ms_between(std::max(due, claimed), sent);
        try {
          (*responses)[i] = s->solve(request);
          o.ok = true;
          o.served_from = (*responses)[i].served_from;
          o.server_ms = (*responses)[i].solve_ms;
        } catch (const redist::RpcRemoteError& e) {
          o.rate_limited =
              e.response().code == redist::rpc::RpcErrorCode::kRateLimited;
          o.error = e.what();
        } catch (const Error& e) {
          // Transport error or timeout: a failure, never a fast reply.
          o.error = e.what();
        }
        const Clock::time_point replied = Clock::now();
        o.latency_ms = ms_between(due, replied);
        o.round_trip_ms = ms_between(sent, replied);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return outcomes;
}

}  // namespace perfbench
