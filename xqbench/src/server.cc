#include "server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace xqbench {

HttpdProcess::~HttpdProcess() { Stop(); }

bool HttpdProcess::Start(const std::string& binary,
                         const std::vector<std::string>& args,
                         std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> argv_s = {binary, "--port", "0"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Child: the server must not outlive the benchmark, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  stderr_fd_ = fds[0];
  // Read stderr until "listening on ADDR:PORT" (or exit / 30 s).
  std::string seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd p{stderr_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    seen.append(buf, static_cast<size_t>(n));
    const size_t at = seen.find("listening on ");
    const size_t nl = at == std::string::npos ? at : seen.find(' ', at + 13);
    if (nl != std::string::npos) {
      const size_t colon = seen.rfind(':', nl);
      port_ = std::atoi(seen.c_str() + colon + 1);
      if (port_ > 0) return true;
    }
  }
  *error = "xqc_httpd did not start: " + seen;
  Stop(1000);
  return false;
}

int HttpdProcess::Stop(int grace_ms) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  int code = -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  while (true) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0) {
      status = -1;
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    // Drain the child's stderr so a chatty drain can never block it.
    char buf[512];
    pollfd p{stderr_fd_, POLLIN, 0};
    if (::poll(&p, 1, 10) > 0 && ::read(stderr_fd_, buf, sizeof(buf)) <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (status >= 0) {
    code = WIFEXITED(status) ? WEXITSTATUS(status)
                             : 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  }
  ::close(stderr_fd_);
  stderr_fd_ = -1;
  pid_ = -1;
  return code;
}

long long StatsField(const std::string& json, const std::string& section,
                     const std::string& field) {
  const size_t s = json.find("\"" + section + "\"");
  if (s == std::string::npos) return -1;
  const size_t end = json.find('}', s);
  const size_t f = json.find("\"" + field + "\":", s);
  if (f == std::string::npos || f > end) return -1;
  return std::atoll(json.c_str() + f + field.size() + 3);
}

}  // namespace xqbench
