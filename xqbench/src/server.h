// An xqc_httpd child process on a loopback ephemeral port. The child is
// started with fork/exec (and dies with the benchmark via PDEATHSIG); it
// is stopped with SIGTERM and reaped on every path, killed if it does not
// exit within the drain bound.
#ifndef XQBENCH_SERVER_H_
#define XQBENCH_SERVER_H_

#include <string>
#include <vector>

namespace xqbench {

class HttpdProcess {
 public:
  HttpdProcess() = default;
  ~HttpdProcess();  // Stop()s a running child
  HttpdProcess(const HttpdProcess&) = delete;
  HttpdProcess& operator=(const HttpdProcess&) = delete;

  /// Starts `binary --port 0 <args>` and waits for its "listening" line.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* error);
  int port() const { return port_; }

  /// SIGTERM, then wait; SIGKILL after `grace_ms`. Returns the exit code
  /// (128 + signal when killed); -1 when nothing was running.
  int Stop(int grace_ms = 10000);

 private:
  int pid_ = -1;
  int port_ = 0;
  int stderr_fd_ = -1;
};

/// One integer counter, `section`.`field`, from a GET /stats JSON body;
/// -1 when absent.
long long StatsField(const std::string& stats_json, const std::string& section,
                     const std::string& field);

}  // namespace xqbench

#endif  // XQBENCH_SERVER_H_
