#include "server_process.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness.h"

extern char** environ;

namespace perfbench {

namespace {

/// Waits up to `timeout` for `pid` to exit; true when it was reaped.
bool wait_exit(pid_t pid, std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) {
      return true;
    }
    if (Clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The port from the server's "tcp bound port <n>" announcement, or 0.
int scan_port(const std::string& log_path) {
  std::ifstream in(log_path);
  const std::string marker = "tcp bound port ";
  std::string line;
  while (std::getline(in, line)) {
    const auto at = line.find(marker);
    if (at != std::string::npos) {
      return std::stoi(line.substr(at + marker.size()));
    }
  }
  return 0;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addclose(&actions, 0);
  posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 2, 1);
  std::string tcp = "--tcp";
  std::string addr = "127.0.0.1:0";
  std::string prog = binary;
  char* argv[] = {prog.data(), tcp.data(), addr.data(), nullptr};
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv,
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while ((port_ = scan_port(log_path)) == 0) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("ambit_serve exited before binding; see " +
                               log_path);
    }
    if (Clock::now() >= deadline) {
      kill_and_reap();
      throw std::runtime_error("ambit_serve never announced its port");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void ServerProcess::stop() {
  if (pid_ < 0) {
    return;
  }
  try {
    Conn conn(port_);
    conn.transact("SHUTDOWN\n");
  } catch (const std::exception&) {
    // Unreachable server: fall through to the kill below.
  }
  if (wait_exit(pid_, std::chrono::seconds(10))) {
    pid_ = -1;
    return;
  }
  kill_and_reap();
}

void ServerProcess::kill_and_reap() {
  if (pid_ < 0) {
    return;
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

}  // namespace perfbench
