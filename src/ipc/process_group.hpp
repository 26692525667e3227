// Fork-based worker-rank group with a waitpid supervisor.
//
// spawn() forks N ranks; each runs a caller-supplied function over a
// command/result pipe pair (commands flow parent→rank, results
// rank→parent) and _exit()s — never returning into the parent's
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
//    CiTest prototype and the dataset it reads. Nothing writes the
//    dataset after construction, so no page of it is copied.
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
  ~ProcessGroup();
  ProcessGroup(ProcessGroup&& other) noexcept;
  ProcessGroup& operator=(ProcessGroup&& other) noexcept;
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  /// Forks `rank_count` ranks, each running `rank_main` and then
  /// _exit()ing with its return value. Throws std::runtime_error when
  /// pipe creation or fork fails (already-spawned ranks are torn down
  /// first).
  [[nodiscard]] static ProcessGroup spawn(int rank_count,
                                          const RankMain& rank_main);

  [[nodiscard]] int rank_count() const noexcept {
    return static_cast<int>(ranks_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return ranks_.empty(); }

  /// Sends one frame to `rank`; false when its pipe is broken or the
  /// slot is dead (kill_rank'ed and not yet respawned). Never throws,
  /// never tears the group down.
  [[nodiscard]] bool try_send(int rank, std::uint32_t tag,
                              std::span<const std::uint8_t> payload) noexcept;

  /// Receives one frame from `rank` with the wire layer's full status
  /// vocabulary (kOk / kEof / kTimeout / kCorrupt / kBadTag — see
  /// read_frame, including the allowed-tag validation). A dead slot
  /// reports kEof immediately. Never throws, never tears the group down.
  [[nodiscard]] FrameReadStatus try_receive(
      int rank, Frame& out, int timeout_ms,
      std::span<const std::uint32_t> allowed_tags = {});

  /// True while the slot has live pipes (spawned or respawned, not yet
  /// kill_rank'ed). A rank that exited on its own still reports true
  /// until kill_rank reaps it — liveness is discovered through
  /// try_receive's kEof, not polled.
  [[nodiscard]] bool rank_open(int rank) const noexcept;

  /// SIGKILLs and reaps `rank` (no-op on a dead slot), closing its
  /// pipes. The slot stays dead — try_send/try_receive fail — until
  /// respawn() refills it. Safe on ranks that already exited (the kill
  /// is a no-op; the reap still collects the zombie).
  void kill_rank(int rank) noexcept;

  /// Refills a dead (or still-open: it is kill_rank'ed first) slot with
  /// a fresh fork of `rank_main` over fresh pipes. Throws
  /// std::runtime_error when pipe creation or fork() fails — the
  /// caller's cue to degrade rather than retry forever. The respawned
  /// process closes every sibling fd it inherited, like the initial
  /// spawn.
  void respawn(int rank, const RankMain& rank_main);

  /// Exit forensics for `rank` ("exited with status 3", "killed by
  /// signal 9", "still running (wedged or slow)") for error messages and
  /// recovery-event logs, from one waitid probe that neither waits nor
  /// reaps. An exited rank stays a zombie holding its pid, so every probe
  /// reports its status until kill_rank or shutdown reaps it; after that
  /// the slot reads "already reaped".
  [[nodiscard]] std::string describe_rank(int rank) const noexcept;

  /// Graceful teardown: closes the command pipes (ranks see EOF and
  /// exit), reaps with a deadline, SIGKILLs and reaps whatever remains.
  /// Safe to call repeatedly; the destructor calls it too.
  void shutdown(int timeout_ms = 5000) noexcept;

 private:
  struct Rank {
    pid_t pid = -1;
    int command_fd = -1;  ///< parent writes commands here
    int result_fd = -1;   ///< parent reads results here
  };

  /// Closes a slot's channel fds — every teardown path funnels through it.
  static void close_rank_fds(Rank& slot) noexcept;

  /// Forks a fresh process into slot `rank` over two fresh pipes; throws
  /// std::runtime_error on pipe/fork failure with the slot left dead.
  void fork_into_slot(int rank, const RankMain& rank_main);

  std::vector<Rank> ranks_;
};

}  // namespace fastbns
