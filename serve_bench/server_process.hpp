// A child example_spanner_server process: spawned with a pinned
// SPANNERS_TRACE level, ready once it prints "listening on PORT", and
// always reaped -- the destructor SIGKILLs and waits, and the child dies
// with this process (PR_SET_PDEATHSIG) if the benchmark itself is killed.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace spanners::bench {

class ServerProcess {
 public:
  /// Runs \p binary with \p args and waits up to \p timeout_s for its
  /// listening line.
  static Expected<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& trace_level, double timeout_s);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// Sends \p signal and waits for the process to exit.
  void Stop(int signal);

  /// The peak resident set (VmHWM) so far, in MiB; 0 if unreadable.
  double PeakRssMiB() const;

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_;
  int stdout_fd_;
  uint16_t port_ = 0;
};

}  // namespace spanners::bench
