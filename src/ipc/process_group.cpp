#include "ipc/process_group.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace fastbns {
namespace {

/// Writing to a rank that already died must surface as EPIPE on the
/// write, not as a process-killing SIGPIPE. Installed once, before the
/// first fork, so ranks inherit it too (they write to the parent's pipe
/// and the parent can die first in teardown races).
void ignore_sigpipe_once() {
  static std::once_flag flag;
  std::call_once(flag, [] { ::signal(SIGPIPE, SIG_IGN); });
}

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

ProcessGroup::ProcessGroup(int rank_count)
    : ranks_(static_cast<std::size_t>(std::max(rank_count, 0))) {}

ProcessGroup::~ProcessGroup() { shutdown(); }

ProcessGroup::ProcessGroup(ProcessGroup&& other) noexcept
    : ranks_(std::move(other.ranks_)) {
  other.ranks_.clear();
}

ProcessGroup& ProcessGroup::operator=(ProcessGroup&& other) noexcept {
  if (this != &other) {
    shutdown();
    ranks_ = std::move(other.ranks_);
    other.ranks_.clear();
  }
  return *this;
}

void ProcessGroup::close_rank_fds(Rank& slot) noexcept {
  close_fd(slot.command_fd);
  close_fd(slot.result_fd);
}

void ProcessGroup::spawn(int rank, const RankMain& rank_main) {
  ignore_sigpipe_once();
  kill_rank(rank);  // no-op on an empty slot; frees channels + reaps
  Rank& slot = ranks_.at(static_cast<std::size_t>(rank));
  int command[2] = {-1, -1};  // parent writes [1], the rank reads [0]
  int result[2] = {-1, -1};   // the rank writes [1], parent reads [0]
  const auto close_pipes = [&]() noexcept {
    for (int* fd : {&command[0], &command[1], &result[0], &result[1]}) {
      close_fd(*fd);
    }
  };
  if (::pipe(command) != 0 || ::pipe(result) != 0) {
    close_pipes();
    throw std::runtime_error("ProcessGroup: pipe() failed for rank " +
                             std::to_string(rank));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    close_pipes();
    throw std::runtime_error("ProcessGroup: fork() failed for rank " +
                             std::to_string(rank));
  }
  if (pid == 0) {
    // Rank side. Drop the parent's ends of every other slot's pipes: a
    // rank holding a sibling's command write-end would keep that sibling
    // from seeing EOF when the parent closes the pipe or dies. The loop
    // covers the whole table, skipping the empty slots. Then drop the
    // parent's ends of this rank's pipes.
    for (Rank& sibling : ranks_) {
      close_rank_fds(sibling);
    }
    ::close(command[1]);
    ::close(result[0]);
    int status = 1;
    try {
      status = rank_main(rank, command[0], result[1]);
    } catch (...) {
      status = 1;
    }
    // _exit, not exit: the rank shares the parent's atexit stack,
    // gtest state and sanitizer hooks, none of which may run twice.
    ::_exit(status);
  }
  ::close(command[0]);
  ::close(result[1]);
  slot = {pid, command[1], result[0]};
}

void ProcessGroup::kill_rank(int rank) noexcept {
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) return;
  Rank& slot = ranks_[static_cast<std::size_t>(rank)];
  close_rank_fds(slot);
  if (slot.pid >= 0) {
    // SIGKILL then a blocking reap: after a SIGKILL the reap cannot
    // hang, and on a rank that already exited the kill is a no-op while
    // the reap still collects the zombie.
    ::kill(slot.pid, SIGKILL);
    ::waitpid(slot.pid, nullptr, 0);
    slot.pid = -1;
  }
}

bool ProcessGroup::rank_open(int rank) const noexcept {
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) return false;
  const Rank& slot = ranks_[static_cast<std::size_t>(rank)];
  return slot.command_fd >= 0 && slot.result_fd >= 0;
}

bool ProcessGroup::try_send(int rank, std::uint32_t tag,
                            std::span<const std::uint8_t> payload) noexcept {
  if (!rank_open(rank)) return false;
  return write_frame(ranks_[static_cast<std::size_t>(rank)].command_fd, tag,
                     payload);
}

FrameReadStatus ProcessGroup::try_receive(
    int rank, Frame& out, int timeout_ms,
    std::span<const std::uint32_t> allowed_tags) {
  if (!rank_open(rank)) return FrameReadStatus::kEof;
  return read_frame(ranks_[static_cast<std::size_t>(rank)].result_fd, out,
                    timeout_ms, allowed_tags);
}

std::string ProcessGroup::describe_rank(int rank) const noexcept {
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) {
    return "no such rank";
  }
  const Rank& slot = ranks_[static_cast<std::size_t>(rank)];
  if (slot.pid < 0) return "already reaped";
  // WNOWAIT leaves an exited rank a zombie, so its pid stays the group's
  // until kill_rank or shutdown reaps it: their SIGKILL can never reach
  // a pid the kernel has handed to another process. si_pid stays 0 when
  // the rank has not exited.
  siginfo_t info{};
  if (::waitid(P_PID, static_cast<id_t>(slot.pid), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0) {
    return "already reaped";
  }
  if (info.si_pid == 0) return "still running (wedged or slow)";
  if (info.si_code == CLD_EXITED) {
    return "exited with status " + std::to_string(info.si_status);
  }
  if (info.si_code == CLD_KILLED || info.si_code == CLD_DUMPED) {
    return "killed by signal " + std::to_string(info.si_status);
  }
  return "terminated";
}

void ProcessGroup::shutdown() noexcept {
  for (int rank = 0; rank < rank_count(); ++rank) kill_rank(rank);
  ranks_.clear();
}

}  // namespace fastbns
