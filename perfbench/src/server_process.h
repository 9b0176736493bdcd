// The ambit_serve child process under test.
#pragma once

#include <string>

#include <sys/types.h>

namespace perfbench {

/// Spawns `binary --tcp 127.0.0.1:0` with every other option at its
/// default, its stdout and stderr appended to `log_path`, and learns the
/// bound port from the "tcp bound port <n>" line. The destructor stops
/// the server if stop() was not called.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  /// Peak resident set (VmHWM) of the server so far, in MiB.
  double peak_rss_mb() const;

  /// Asks the server to SHUTDOWN and waits for it; kills it when it does
  /// not exit within a few seconds. Idempotent.
  void stop();

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace perfbench
