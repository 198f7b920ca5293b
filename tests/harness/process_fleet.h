// Process-fleet helpers for the multi-process chaos harness: spawn real
// elastic_worker child processes (fork/exec), SIGKILL them mid-protocol,
// respawn them under the same member id / data port / backup root, and reap
// exit codes (crash points _Exit(41)). The worker binary path comes from the
// SDG_ELASTIC_WORKER_BIN compile definition (tests/CMakeLists.txt).
#ifndef SDG_TESTS_HARNESS_PROCESS_FLEET_H_
#define SDG_TESTS_HARNESS_PROCESS_FLEET_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace sdg::harness {

// Binds an ephemeral loopback port, releases it, and returns its number —
// the classic pick-then-reuse race is acceptable for loopback CI and buys a
// data port that stays stable across worker restarts.
inline uint16_t PickFreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return 0;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

struct WorkerSpec {
  std::string app = "kv";  // kv | wordcount
  uint16_t head_port = 0;
  uint32_t member_id = 0;
  uint16_t data_port = 0;  // stable across respawns
  std::string backup_root;
  uint32_t partitions = 4;
  int slow_us = 0;
  int ckpt_interval_ms = 100;
  std::string crash_at;
  bool serve = false;  // kv only: serving entries + replica feed
  // Disk-backed store mode (kv only): resident budget in KiB, 0 = no spill.
  // spill_dir defaults inside the worker to <backup_root>/spill-m<id>.
  uint64_t spill_budget_kb = 0;
  std::string spill_dir;
  uint32_t store_stripes = 0;
};

// fork/exec one worker. Child stdout/stderr go to /dev/null unless
// SDG_CHAOS_VERBOSE is set. Returns -1 on failure.
inline pid_t SpawnElasticWorker(const std::string& binary,
                                const WorkerSpec& spec) {
  std::vector<std::string> args = {
      binary,
      "--app", spec.app,
      "--head-port", std::to_string(spec.head_port),
      "--id", std::to_string(spec.member_id),
      "--data-port", std::to_string(spec.data_port),
      "--backup", spec.backup_root,
      "--partitions", std::to_string(spec.partitions),
      "--ckpt-interval-ms", std::to_string(spec.ckpt_interval_ms),
      "--slow-us", std::to_string(spec.slow_us),
  };
  if (!spec.crash_at.empty()) {
    args.push_back("--crash-at");
    args.push_back(spec.crash_at);
  }
  if (spec.serve) {
    args.push_back("--serve");
  }
  if (spec.spill_budget_kb > 0) {
    args.push_back("--spill-budget-kb");
    args.push_back(std::to_string(spec.spill_budget_kb));
    if (!spec.spill_dir.empty()) {
      args.push_back("--spill-dir");
      args.push_back(spec.spill_dir);
    }
    if (spec.store_stripes > 0) {
      args.push_back("--store-stripes");
      args.push_back(std::to_string(spec.store_stripes));
    }
  }
  pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  // Own process group, so the parent's kill helpers can take out the whole
  // worker subtree; and die with the parent (pdeathsig) so a test run that
  // ctest SIGKILLs on timeout — no exit handlers run — cannot leave orphaned
  // workers holding ports and spinning checkpoint loops.
  ::setpgid(0, 0);
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) {
    std::_Exit(126);  // parent already gone before pdeathsig armed
  }
  if (std::getenv("SDG_CHAOS_VERBOSE") == nullptr) {
    int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  ::execv(binary.c_str(), argv.data());
  std::_Exit(127);  // exec failed
}

// Blocks until the child exits; returns its exit code, or -signal when it
// died on one, or -1000 on waitpid failure.
inline int WaitExit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    return -1000;
  }
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  if (WIFSIGNALED(status)) {
    return -WTERMSIG(status);
  }
  return -1000;
}

// SIGKILL + reap: the mid-protocol process death the harness is about.
// Signals the process group (the worker is its own group leader) so any
// children it spawned die with it.
inline void KillHard(pid_t pid) {
  ::kill(-pid, SIGKILL);
  ::kill(pid, SIGKILL);  // in case setpgid lost the race with exec
  (void)WaitExit(pid);
}

// Graceful stop; escalates to a group SIGKILL if the worker ignores SIGTERM.
inline int StopSoft(pid_t pid, int timeout_ms = 10000) {
  ::kill(pid, SIGTERM);
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    int status = 0;
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status)
                               : (WIFSIGNALED(status) ? -WTERMSIG(status)
                                                      : -1000);
    }
    ::usleep(50 * 1000);
  }
  ::kill(-pid, SIGKILL);
  ::kill(pid, SIGKILL);
  return WaitExit(pid);
}

}  // namespace sdg::harness

#endif  // SDG_TESTS_HARNESS_PROCESS_FLEET_H_
