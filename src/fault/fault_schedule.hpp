// Deterministic, seedable fault schedules for the multi-process engine.
//
// A schedule is a semicolon-separated list of fault events parsed from
// PcOptions::fault_schedule or FASTBNS_FAULT_SCHEDULE. Each event names
// a kind, a target rank (or any), the depth it arms at, the rank
// generation it applies to (0 = the rank before any restart, g = after
// its g-th respawn — so a schedule can kill a respawned rank while it
// re-runs the list its predecessor lost), and a millisecond parameter
// for the delay kinds:
//
//   schedule := entry (';' entry)*
//   entry    := kind ('@' kv (',' kv)*)?  |  'seed=' N
//   kind     := kill | wedge | slow-rank | delay-frame | corrupt-frame
//             | truncate-frame | spawn-fail | drop-conn | partial-write
//   kv       := rank=N | depth=N | gen=N | ms=N
//   N        := a decimal integer in [0, 2147483647]
//
// The supervisor decides every fault before it forks: it keeps one
// RankFaultInjector per rank and hands each forked child the events the
// injector claims for the child's depth. The child executes kill (exit
// without replying), wedge (stop responding until the supervisor's
// per-frame deadline kills it), slow-rank (sleep ms before every reply
// from `depth` on), drop-conn (sever the channel — close the fds with
// the process still alive, so the supervisor reads EOF while waitpid
// says "still running"), and the frame faults (delay-frame,
// corrupt-frame, truncate-frame, partial-write — applied to the outgoing
// result frame, where the checksummed retrying frame layer must recover;
// partial-write sends a frame prefix and then severs the channel, so the
// supervisor reads half a frame followed by EOF); the supervisor itself
// executes spawn-fail (a fork/respawn that is declared to have failed —
// the deterministic trigger of the degrade-in-process rung). All
// randomness (which payload byte a corrupt-frame flips) derives from the
// schedule's seed plus the event coordinates, so every injected fault —
// and therefore every recovery path — replays bit-identically.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fastbns {

enum class FaultKind : std::uint8_t {
  /// _exit(42) without replying when a depth >= the event's arms.
  kKill,
  /// Stop responding (sleep) instead of replying; only the supervisor's
  /// per-frame deadline + SIGKILL can clear it.
  kWedge,
  /// Sleep `ms` before every reply from the event's depth on — a
  /// persistently slow rank that must NOT trigger recovery as long as it
  /// stays inside the frame deadline.
  kSlowRank,
  /// Sleep `ms` mid-frame (between header and payload) once, on the
  /// reply of the first depth >= the event's — exercises the per-frame
  /// deadline's tolerance and, past it, the retransmit path.
  kDelayFrame,
  /// Flip one seed-derived payload byte after the checksum is computed,
  /// once — the receiver's CRC must catch it and the retransmit must
  /// deliver the clean frame.
  kCorruptFrame,
  /// Write only a prefix of the frame and stay alive, once — the
  /// receiver's deadline expires mid-frame and its resync scan must find
  /// the retransmitted frame behind the garbage.
  kTruncateFrame,
  /// Declare the fork of this rank (gen > 0: its gen-th respawn;
  /// gen=0: the run's first forks, which the supervisor checks once for
  /// the whole group) to have failed — the supervisor must finish the
  /// run in-process.
  kSpawnFail,
  /// Sever the channel without replying when a depth >= the event's
  /// arms: close both channel fds (EOF at the supervisor) while the
  /// process parks alive — the only fault in the sweep that produces a
  /// clean EOF from a live rank. The supervisor's EOF handling must run
  /// the respawn ladder exactly as for a kill.
  kDropConn,
  /// Write only a prefix of the reply frame and then sever the channel,
  /// once, with the process parked alive — the only fault in the sweep
  /// that produces half a frame followed by EOF. The receiver sees a
  /// partial frame ending in EOF (kEof, not kTimeout) and must respawn
  /// the rank.
  kPartialWrite,
};

[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;
/// Throws std::invalid_argument naming the offending text.
[[nodiscard]] FaultKind fault_kind_from_string(std::string_view text);

struct FaultEvent {
  FaultKind kind = FaultKind::kKill;
  /// Target rank; -1 matches every rank.
  std::int32_t rank = -1;
  /// The event arms at this depth (fires at the first depth >= it).
  std::int32_t depth = 0;
  /// Rank generation the event applies to: 0 = before any restart, g =
  /// after the rank's g-th respawn.
  std::int32_t generation = 0;
  /// Milliseconds for kSlowRank / kDelayFrame.
  std::int32_t ms = 20;

  [[nodiscard]] std::string describe() const;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;
  /// Folded into every derived choice (e.g. which byte a corrupt-frame
  /// flips) so distinct seeds explore distinct corruptions, each
  /// reproducibly.
  std::uint64_t seed = 0;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] std::string describe() const;

  /// Parses the grammar above. Throws std::invalid_argument naming the
  /// offending entry (never a silently ignored fault — a typo in a CI
  /// fault sweep must fail the sweep, not skip the injection).
  [[nodiscard]] static FaultSchedule parse(std::string_view text);

  /// FASTBNS_FAULT_SCHEDULE. Parse errors are reported on stderr and
  /// ignored — an env-injected schedule must never turn a production
  /// run into a crash; PcOptions::fault_schedule is the validated path.
  [[nodiscard]] static FaultSchedule from_env();

  /// True when any event declares the fork of `rank` at `generation`
  /// failed (kSpawnFail; rank -1 in the event or as the query matches
  /// every rank, so the query (-1, 0) asks about the run's first forks).
  [[nodiscard]] bool spawn_should_fail(std::int32_t rank,
                                       std::int32_t generation) const noexcept;
};

/// One rank's view of the schedule: filters it down to the rank and
/// tracks which one-shot events already fired in the rank's current
/// generation. The supervisor keeps one per rank and consults it before
/// each fork of the rank, so a one-shot event fires once per (rank,
/// generation) however many depths' children the rank runs.
class RankFaultInjector {
 public:
  RankFaultInjector(FaultSchedule schedule, std::int32_t rank)
      : schedule_(std::move(schedule)),
        fired_(schedule_.events.size(), false),
        rank_(rank) {}

  /// The number of restarts the rank has used (0 until its first
  /// respawn); the supervisor raises it at each respawn.
  void set_generation(std::int32_t generation) noexcept {
    generation_ = generation;
  }
  [[nodiscard]] std::int32_t generation() const noexcept { return generation_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return schedule_.seed; }

  /// The first armed kill/wedge/drop-conn event for `depth`, or nullptr.
  /// The child executes it (each ends the generation: the rank is
  /// respawned or retired, so no fired bookkeeping is needed).
  [[nodiscard]] const FaultEvent* lethal_fault(std::int32_t depth) const;

  /// Claims the first unfired frame fault (delay/corrupt/truncate/
  /// partial-write) armed at `depth`, marking it fired; nullptr when
  /// none. One-shot: the retransmitted frame after a caught corruption
  /// goes out clean, and so do the rank's later replies. (partial-write
  /// does not return control either — the rank severs its channel after
  /// the prefix — but it rides the frame-fault channel because it fires
  /// on a specific outgoing reply.)
  [[nodiscard]] const FaultEvent* take_frame_fault(std::int32_t depth);

  /// Total slow-rank sleep for a reply at `depth` (0 when none apply).
  [[nodiscard]] std::int32_t slow_rank_ms(std::int32_t depth) const;

 private:
  [[nodiscard]] bool matches(const FaultEvent& event,
                             std::int32_t depth) const noexcept;

  FaultSchedule schedule_;
  std::vector<bool> fired_;
  std::int32_t rank_ = 0;
  std::int32_t generation_ = 0;
};

/// Writes one frame to `fd` while applying `event` (nullptr = clean
/// write, exactly write_frame). The corrupted byte is derived from
/// (seed, rank, depth) so the same schedule corrupts the same byte every
/// run. Returns false on write errors; a truncate-frame "succeeds" after
/// its deliberate partial write (the writer stays alive — that is the
/// fault being modeled).
bool send_frame_with_fault(int fd, std::uint32_t tag,
                           std::span<const std::uint8_t> payload,
                           const FaultEvent* event, std::uint64_t seed,
                           std::int32_t rank, std::int32_t depth);

}  // namespace fastbns
