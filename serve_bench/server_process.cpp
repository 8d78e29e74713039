#include "server_process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>

extern char** environ;

namespace spanners::bench {

Expected<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& trace_level, double timeout_s) {
  // Everything the child needs is built before fork: between fork and exec
  // only async-signal-safe calls are allowed.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SPANNERS_TRACE=", 15) != 0) env_strings.emplace_back(*e);
  }
  env_strings.push_back("SPANNERS_TRACE=" + trace_level);
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> argv_strings{binary};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return Unexpected("server: pipe failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Unexpected("server: fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<ServerProcess> process(new ServerProcess(pid, fds[0]));

  // Wait for "listening on PORT" (earlier lines report recovery).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::string buffer;
  while (true) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.rfind("listening on ", 0) == 0) {
        process->port_ = static_cast<uint16_t>(std::atoi(line.c_str() + 13));
        if (process->port_ == 0) return Unexpected("server: bad listening line");
        return process;
      }
      continue;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return Unexpected("server: not listening in time");
    struct pollfd pfd = {fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(fds[0], chunk, sizeof(chunk));
    if (got <= 0) return Unexpected("server: exited before listening");
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
}

ServerProcess::~ServerProcess() {
  Stop(SIGKILL);
  ::close(stdout_fd_);
}

void ServerProcess::Stop(int signal) {
  if (pid_ <= 0) return;
  ::kill(pid_, signal);
  // Drain stdout while waiting so a chatty shutdown can never block on a
  // full pipe.
  char chunk[4096];
  while (::read(stdout_fd_, chunk, sizeof(chunk)) > 0) {
  }
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

double ServerProcess::PeakRssMiB() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace spanners::bench
