// A vihotd child process on a private socket: started for one run and
// stopped with SIGTERM on every exit path (the destructor covers early
// returns; stop() is the checked path that verifies exit 0 and that the
// daemon unlinked its socket).
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace servebench {

class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Spawns `binary --socket socket_path args...` and waits until the
  /// socket accepts a connection. False (with error()) on failure.
  bool start(const std::string& binary, const std::string& socket_path,
             const std::vector<std::string>& args, int timeout_ms = 10000);

  /// SIGTERM, wait for the exit; true only for exit status 0 with the
  /// socket file gone. Idempotent.
  bool stop(int timeout_ms = 10000);

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// user + system CPU seconds the daemon has used so far.
  [[nodiscard]] double cpu_s() const;
  /// Peak resident set (VmHWM), MB.
  [[nodiscard]] double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
  std::string error_;
};

}  // namespace servebench
