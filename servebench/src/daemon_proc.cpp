#include "daemon_proc.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "daemon/client.h"

namespace servebench {

namespace {

bool path_exists(const std::string& path) {
  struct stat st {};
  return ::lstat(path.c_str(), &st) == 0;
}

}  // namespace

DaemonProcess::~DaemonProcess() { (void)stop(); }

bool DaemonProcess::start(const std::string& binary,
                          const std::string& socket_path,
                          const std::vector<std::string>& args,
                          int timeout_ms) {
  socket_path_ = socket_path;
  if (path_exists(socket_path)) ::unlink(socket_path.c_str());

  std::vector<std::string> argv_s = {binary, "--socket", socket_path};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    error_ = "fork failed";
    return false;
  }
  if (pid == 0) {
    // The daemon must not outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    // Keep the benchmark's stdout for its result line.
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  pid_ = pid;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      error_ = "vihotd exited during start-up";
      return false;
    }
    if (vihot::daemon::Client::connect(socket_path,
                                      vihot::daemon::Role::kControl, 200)
            .ok()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  error_ = "vihotd did not open its socket in time";
  (void)stop();
  return false;
}

bool DaemonProcess::stop(int timeout_ms) {
  if (pid_ <= 0) return error_.empty();
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    error_ = "vihotd ignored SIGTERM";
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    error_ = "vihotd exited abnormally (status " + std::to_string(status) + ")";
  } else if (path_exists(socket_path_)) {
    error_ = "vihotd left its socket behind";
    ::unlink(socket_path_.c_str());
  }
  pid_ = -1;
  return error_.empty();
}

double DaemonProcess::cpu_s() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double DaemonProcess::peak_rss_mb() const {
  return proc_status_mb("/proc/" + std::to_string(pid_) + "/status",
                        "VmHWM:");
}

}  // namespace servebench
