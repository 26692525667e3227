// Fork-based worker-rank slots with a waitpid supervisor.
//
// A group is a fixed number of slots, all empty at construction.
// spawn() forks one process into one slot; it runs a caller-supplied
// function over a command/result pipe pair (commands flow parent→rank,
// results rank→parent) and _exit()s — never returning into the parent's
// atexit/test-framework machinery. Each side inherits both pipes and
// closes the ends it does not own. The parent talks to ranks through
// try_send()/try_receive(), which report a channel failure as a status
// rather than throwing or tearing the group down: every receive is
// deadline-bounded, a rank that dies shows as EOF on its channel
// (detected by the kernel immediately) and one that wedges as a
// timeout. The caller owns the recovery (the process engine's
// supervisor ladder), so a dead rank is a status, never a hang.
//
// fork() hazards this module owns:
//  - SIGPIPE is ignored process-wide (once, at first spawn) so writing to
//    a dead rank surfaces as EPIPE instead of killing the parent.
//  - Ranks inherit the parent's entire address space copy-on-write: the
//    CiTest prototype, the dataset it reads and whatever the caller built
//    before the fork. Nothing writes the dataset after construction, so
//    no page of it is copied.
//  - Ranks must never enter an OpenMP parallel region: libgomp's thread
//    team does not survive fork(). Rank functions use std::thread.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ipc/wire.hpp"

namespace fastbns {

class ProcessGroup {
 public:
  /// Runs inside the forked rank. `command_fd` carries parent→rank
  /// frames, `result_fd` rank→parent. The returned int becomes the
  /// rank's exit status. Must not touch OpenMP, gtest, or anything else
  /// that assumes it survives to normal process exit.
  using RankMain = std::function<int(int rank, int command_fd, int result_fd)>;

  ProcessGroup() = default;
  /// `rank_count` empty slots; spawn() fills one.
  explicit ProcessGroup(int rank_count);
  ~ProcessGroup();
  ProcessGroup(ProcessGroup&& other) noexcept;
  ProcessGroup& operator=(ProcessGroup&& other) noexcept;
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  [[nodiscard]] int rank_count() const noexcept {
    return static_cast<int>(ranks_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return ranks_.empty(); }

  /// Forks a fresh process running `rank_main` into slot `rank` over two
  /// fresh pipes, killing and reaping whatever the slot held first. The
  /// process closes every fd of the other slots it inherited, then
  /// _exit()s with rank_main's return value. Throws std::runtime_error
  /// when pipe creation or fork() fails, with the slot left empty — the
  /// caller's cue to degrade rather than retry forever.
  void spawn(int rank, const RankMain& rank_main);

  /// Sends one frame to `rank`; false when its pipe is broken or the
  /// slot is empty. Never throws, never tears the group down.
  [[nodiscard]] bool try_send(int rank, std::uint32_t tag,
                              std::span<const std::uint8_t> payload) noexcept;

  /// Receives one frame from `rank` with the wire layer's full status
  /// vocabulary (kOk / kEof / kTimeout / kCorrupt / kBadTag — see
  /// read_frame, including the allowed-tag validation). An empty slot
  /// reports kEof immediately. Never throws, never tears the group down.
  [[nodiscard]] FrameReadStatus try_receive(
      int rank, Frame& out, int timeout_ms,
      std::span<const std::uint32_t> allowed_tags = {});

  /// True while the slot has live pipes (spawned, not yet kill_rank'ed).
  /// A rank that exited on its own still reports true until kill_rank
  /// reaps it — liveness is discovered through try_receive's kEof, not
  /// polled.
  [[nodiscard]] bool rank_open(int rank) const noexcept;

  /// Closes `rank`'s pipes, then SIGKILLs and reaps its process (no-op
  /// on an empty slot). The slot stays empty — try_send/try_receive
  /// fail — until spawn() refills it. Safe on ranks that already exited
  /// (the kill is a no-op; the reap still collects the zombie).
  void kill_rank(int rank) noexcept;

  /// Exit forensics for `rank` ("exited with status 3", "killed by
  /// signal 9", "still running (wedged or slow)") for error messages and
  /// recovery-event logs, from one waitid probe that neither waits nor
  /// reaps. An exited rank stays a zombie holding its pid, so every probe
  /// reports its status until kill_rank or shutdown reaps it; after that
  /// the slot reads "already reaped".
  [[nodiscard]] std::string describe_rank(int rank) const noexcept;

  /// kill_rank()s every slot and drops the slots. Safe to call
  /// repeatedly; the destructor calls it too.
  void shutdown() noexcept;

 private:
  struct Rank {
    pid_t pid = -1;
    int command_fd = -1;  ///< parent writes commands here
    int result_fd = -1;   ///< parent reads results here
  };

  /// Closes a slot's channel fds — every teardown path funnels through it.
  static void close_rank_fds(Rank& slot) noexcept;

  std::vector<Rank> ranks_;
};

}  // namespace fastbns
