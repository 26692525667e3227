// The multi-process rank engine: one forked process per rank, every
// depth's works dealt round-robin over the ranks as explicit lists, and
// an explicit allreduce for the commit barrier — the fork-based first
// step toward distributed (MPI-style) skeleton learning.
//
// Topology of a run:
//  - The driver process (this engine) forks rank_count worker ranks at
//    the first run_depth (never at construction, so building an engine
//    stays fork-free). Each rank inherits the CiTest prototype, the
//    dataset it reads and any matrix it holds (Fisher-z's correlation
//    matrix) copy-on-write. Nothing writes the dataset or the matrix
//    after construction, so no rank copies a page of them.
//  - Every rank keeps a full replica of the skeleton graph and derives
//    each depth's work list itself with the same build_depth_works the
//    driver uses — identical inputs give identical lists, so a work is
//    addressed across the process boundary by nothing more than its
//    index (endpoint ids double-check every reply; a divergent replica
//    is a protocol error, not silent corruption). A rank runs exactly
//    the indices its command lists; inside it, threads claim them one
//    at a time from an atomic cursor.
//  - Each depth runs in rounds. A round deals the pending work indices
//    round-robin over the live ranks — the i-th pending index goes to
//    live rank i mod L — and sends each rank its list. The first round
//    deals the whole work list and reaches every live rank, even one
//    whose list is empty; each later round re-deals the lists of the
//    ranks retired in the round before, and only to ranks it gives
//    work. The lists are built after the first fork, so the ranks
//    forked then do not inherit them.
//  - The per-depth commit barrier is an allreduce rooted at the driver:
//    the first round's RUN_DEPTH(depth, previous depth's union removal
//    set, list) goes out to every rank; each rank applies the removals
//    to its replica, runs its list, and replies with its removal set
//    (each removal's accepting test rank) + test count; the driver
//    merges the replies into the works vector (the same outcome slot
//    every engine fills), logs the removed edges for the respawn
//    replay, and carries the union forward to the next depth's first
//    round.
//
// Fault tolerance (the supervisor's recovery ladder, mildest rung
// first; every rung preserves result identity):
//  1. Retransmit — a reply that fails its CRC or its per-frame deadline
//     is re-requested up to kRetransmitLimit times with linear backoff;
//     ranks buffer their last encoded reply and resend it verbatim, and
//     per-command sequence numbers make duplicate replies (a late
//     original racing its own retransmission) harmlessly discardable.
//  2. Respawn + replay — a rank that died (EOF) or wedged (deadline,
//     retries exhausted — then SIGKILLed) is forked again and rebuilds
//     its graph replica by replaying the removal log (every removal set
//     the supervisor has sent, this depth's included), then re-runs its
//     list. Each respawn is a new generation; the fault injector
//     matches events per generation, so a gen-0 kill does not re-fire
//     on the replacement (and a gen-1 event deliberately does — the
//     death-during-recovery test).
//  3. Re-partition — once a rank's max_rank_restarts budget is spent it
//     is retired: the depth's next round re-deals its list over the
//     surviving ranks, and later depths deal over the survivors alone.
//  4. Degrade — when fork itself fails (initial spawn or a respawn) or
//     no rank survives, the supervisor finishes the current depth's
//     unmerged works in-process (std::thread clones with the exact rank
//     semantics) and runs every subsequent depth's whole work list the
//     same way. The run completes; only the topology changed.
//
// Result identity: a rank runs each of its works whole, in canonical
// rank order with first-accept early stop — the edge-parallel engine's
// per-work semantics — so adjacency, sepsets, removal depths and
// executed-test counts are bit-identical to the sequential reference at
// any rank_count / rank_threads combination, under every recovery rung:
// a failed rank never contributes a partial reply (frames are atomic at
// merge time), so each work is merged exactly once no matter who
// eventually ran it.
//
// fork() discipline (see also ipc/process_group.hpp): ranks never enter
// an OpenMP parallel region — libgomp's team threads do not exist in the
// child — so rank_threads parallelism is plain std::thread over
// per-thread CiTest clones forced to serial table builds; ranks leave
// through _exit, never the parent's atexit/gtest/sanitizer epilogue.
#include "engine/process_engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "fault/fault_schedule.hpp"
#include "ipc/process_group.hpp"
#include "ipc/wire.hpp"

namespace fastbns {
namespace {

// Protocol tags. Commands flow parent→rank, replies rank→parent;
// shutdown is the command pipe's EOF. Both directions validate the tag
// set on receive (read_frame's allowed_tags) — an unknown tag is a loud
// protocol error naming rank and tag, never a misparsed payload.
constexpr std::uint32_t kTagRunDepth = 1;    ///< parent → rank
constexpr std::uint32_t kTagDepthResult = 2; ///< rank → parent
constexpr std::uint32_t kTagError = 3;       ///< rank → parent (fatal)
constexpr std::uint32_t kTagReplay = 4;      ///< parent → respawned rank
constexpr std::uint32_t kTagRetransmit = 5;  ///< parent → rank (resend)

/// Per-frame receive deadline; FASTBNS_RANK_TIMEOUT_MS overrides it (the
/// fault sweeps tighten it so wedges surface in seconds).
constexpr int kDefaultRankTimeoutMs = 120000;
/// Retransmit requests per reply that fails its CRC or its deadline
/// before the rank enters the respawn rung.
constexpr int kRetransmitLimit = 2;
/// Backoff step between retransmit requests; attempt k waits k steps.
constexpr int kRetransmitBackoffMs = 10;
/// Stale replies (duplicates of already-merged frames left over from a
/// retransmit race) tolerated per gather before the rank is declared
/// failed: a sane rank can queue at most kRetransmitLimit duplicates.
constexpr int kMaxStaleReplies = 32;

/// Strictly-parsed positive int from the environment; `fallback` when
/// unset or malformed (a malformed timeout must not become timeout 0).
int env_positive_int(const char* name, int fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == nullptr || *end != '\0' || value <= 0 || value > 1 << 30) {
    return fallback;
  }
  return static_cast<int>(value);
}

/// Everything a rank needs beyond the COW-inherited prototype, fixed at
/// spawn time in the parent (ranks parse nothing themselves).
struct RankConfig {
  int rank = 0;
  VarId num_vars = 0;
  std::int32_t rank_threads = 1;
  /// The run's deterministic fault schedule; the rank filters it down to
  /// itself through a RankFaultInjector (fault/fault_schedule.hpp).
  FaultSchedule schedule;
};

/// A removed edge, as removal sets and the replay log carry it: the
/// replica needs nothing else, and the driver commits the sepsets
/// itself.
struct Removal {
  VarId x = 0;
  VarId y = 0;
};

/// Writes a u32 count, then each removal's endpoints.
void put_removals(WireWriter& writer, std::span<const Removal> removals) {
  writer.put_u32(static_cast<std::uint32_t>(removals.size()));
  for (const Removal& removal : removals) {
    writer.put_i32(removal.x);
    writer.put_i32(removal.y);
  }
}

/// Reads what put_removals wrote and removes each edge from `replica`.
void apply_removals(WireReader& reader, UndirectedGraph& replica) {
  const std::uint32_t count = reader.get_u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const VarId x = reader.get_i32();
    const VarId y = reader.get_i32();
    replica.remove_edge(x, y);
  }
}

/// The command payload of one depth: the removals the replica must apply
/// first, then the work indices the rank runs — exactly those.
void encode_run_depth(WireWriter& writer, std::int32_t depth,
                      std::uint32_t seq, bool grouped,
                      std::span<const Removal> removals,
                      std::span<const std::int64_t> indices) {
  writer.put_i32(depth);
  writer.put_u32(seq);
  writer.put_u8(grouped ? 1 : 0);
  put_removals(writer, removals);
  writer.put_u32(static_cast<std::uint32_t>(indices.size()));
  for (const std::int64_t index : indices) {
    writer.put_u64(static_cast<std::uint64_t>(index));
  }
}

/// Keeps a faulted rank alive but silent until the supervisor kills it,
/// then _exits with `status`. Capped (10 minutes) so an orphan cannot
/// outlive a crashed parent forever.
[[noreturn]] void park_then_exit(int status) {
  for (int i = 0; i < 6000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ::_exit(status);
}

/// Runs the works `mine` lists with one std::thread per clone (the
/// calling thread serves clone 0). Each thread claims its next position
/// in `mine` from one atomic cursor and runs that work whole, so a
/// preempted thread delays only the work it holds; the joins publish the
/// works. Rethrows the first worker exception after all joins. Also the
/// degrade rung's local executor — the semantics must stay byte-for-byte
/// those of a rank.
std::int64_t run_shard_works(std::vector<EdgeWork>& works,
                             const std::vector<std::int64_t>& mine,
                             std::int32_t depth,
                             std::vector<std::unique_ptr<CiTest>>& clones) {
  const auto threads = clones.size();
  std::vector<std::int64_t> tests(threads, 0);
  std::vector<std::exception_ptr> errors(threads);
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&](std::size_t t) {
    try {
      CiTest& test = *clones[t];
      std::vector<VarId> z;
      std::int64_t executed = 0;
      for (std::size_t p = cursor.fetch_add(1, std::memory_order_relaxed);
           p < mine.size();
           p = cursor.fetch_add(1, std::memory_order_relaxed)) {
        executed += run_edge_tests(works[static_cast<std::size_t>(mine[p])],
                                   depth, /*group=*/1, test, z);
      }
      tests[t] = executed;
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  std::vector<std::thread> team;
  team.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) team.emplace_back(worker, t);
  worker(0);
  for (std::thread& thread : team) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::int64_t total = 0;
  for (const std::int64_t count : tests) total += count;
  return total;
}

/// The rank main loop (runs inside the forked process — no OpenMP, no
/// gtest, exit only through the return value / _exit).
int run_rank(const RankConfig& config, const CiTest& prototype, int command_fd,
             int result_fd) {
  try {
    RankFaultInjector injector(config.schedule, config.rank);
    UndirectedGraph replica = UndirectedGraph::complete(config.num_vars);
    // Rebuilt by each depth's build_depth_works; that depth's works point
    // into it.
    AdjacencySnapshot snapshot;
    std::vector<std::unique_ptr<CiTest>> clones;
    // The last encoded reply, kept verbatim for retransmission: after a
    // corrupt or truncated frame the supervisor asks for these exact
    // bytes again instead of re-running the depth.
    std::vector<std::uint8_t> last_reply;
    Frame frame;
    for (;;) {
      static constexpr std::uint32_t kCommandTags[] = {
          kTagRunDepth, kTagReplay, kTagRetransmit};
      const FrameReadStatus status =
          read_frame(command_fd, frame, /*timeout_ms=*/-1, kCommandTags);
      if (status == FrameReadStatus::kEof) {
        return 0;  // command pipe EOF: the parent shut the group down
      }
      if (status != FrameReadStatus::kOk) {
        // kBadTag (an unknown command is a supervisor logic bug — the
        // transport is checksummed) or kCorrupt: fail loudly with the
        // offending tag / status named; the parent surfaces the error.
        throw std::runtime_error(
            "process engine rank " + std::to_string(config.rank) +
            ": command channel " + std::string(to_string(status)) +
            (status == FrameReadStatus::kBadTag
                 ? " — unknown command tag " + std::to_string(frame.tag)
                 : ""));
      }
      if (frame.tag == kTagReplay) {
        // Replay after a respawn: rebuild the replica from the removal
        // log. No reply — the RUN_DEPTH that follows produces the next
        // frame.
        WireReader reader(frame.payload);
        injector.set_generation(reader.get_i32());
        apply_removals(reader, replica);
        continue;
      }
      if (frame.tag == kTagRetransmit) {
        if (last_reply.empty()) {
          throw std::runtime_error(
              "process engine rank " + std::to_string(config.rank) +
              ": asked to retransmit before any reply was sent");
        }
        if (!write_frame_bytes(result_fd, last_reply)) {
          return 1;  // parent is gone; nothing left to report to
        }
        continue;
      }
      // kTagRunDepth.
      WireReader reader(frame.payload);
      const std::int32_t depth = reader.get_i32();
      const std::uint32_t seq = reader.get_u32();
      const bool grouped = reader.get_u8() != 0;
      // The previous depth's union removal set, on the depth's first
      // command only — every rank's replica replays the same removal
      // stream the driver committed, so every replica agrees with the
      // driver's graph by induction. (Later commands of the depth carry
      // none: a re-dealt list goes to a replica that already applied
      // them, a respawned one rebuilt itself through the replay frame.)
      apply_removals(reader, replica);
      std::vector<std::int64_t> mine(reader.get_u32());
      for (std::int64_t& index : mine) {
        index = static_cast<std::int64_t>(reader.get_u64());
      }
      if (const FaultEvent* lethal = injector.lethal_fault(depth)) {
        if (lethal->kind == FaultKind::kKill) {
          ::_exit(42);  // injected mid-depth death; the parent must notice
        }
        if (lethal->kind == FaultKind::kDropConn) {
          // Sever the channel with the process still alive: the
          // supervisor sees a clean EOF while waitpid still says
          // "running" — no other fault produces that — and must run the
          // same respawn ladder a death triggers.
          ::close(result_fd);
          ::close(command_fd);
          park_then_exit(44);
        }
        // Wedge: alive but unresponsive — only the supervisor's
        // per-frame deadline and SIGKILL clear it.
        park_then_exit(43);
      }
      const WallTimer compute_timer;
      std::vector<EdgeWork> works =
          build_depth_works(replica, depth, grouped, snapshot);
      for (const std::int64_t index : mine) {
        if (index < 0 || static_cast<std::size_t>(index) >= works.size()) {
          throw std::runtime_error(
              "process engine rank " + std::to_string(config.rank) +
              ": commanded work #" + std::to_string(index) +
              " is outside its depth-" + std::to_string(depth) +
              " work list (" + std::to_string(works.size()) +
              " works) — replica divergence");
        }
      }
      if (clones.empty()) {
        clones.reserve(static_cast<std::size_t>(config.rank_threads));
        for (std::int32_t t = 0; t < config.rank_threads; ++t) {
          clones.push_back(prototype.clone());
          // Serial table builds, always: sample-parallel builds are
          // OpenMP regions, and OpenMP must never run in a forked rank.
          clones.back()->set_sample_parallel(false);
        }
      }
      const std::int64_t tests = run_shard_works(works, mine, depth, clones);
      if (const std::int32_t slow = injector.slow_rank_ms(depth); slow > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(slow));
      }
      WireWriter writer;
      writer.put_i32(depth);
      writer.put_u32(seq);
      writer.put_i64(tests);
      writer.put_i64(
          static_cast<std::int64_t>(compute_timer.seconds() * 1e6));
      std::uint32_t removed = 0;
      for (const std::int64_t index : mine) {
        if (works[static_cast<std::size_t>(index)].removed()) ++removed;
      }
      writer.put_u32(removed);
      for (const std::int64_t index : mine) {
        const EdgeWork& work = works[static_cast<std::size_t>(index)];
        if (!work.removed()) continue;
        writer.put_u64(static_cast<std::uint64_t>(index));
        writer.put_i32(work.x);
        writer.put_i32(work.y);
        writer.put_u64(work.accepted);
      }
      last_reply = encode_frame(kTagDepthResult, writer.payload());
      const FaultEvent* frame_fault = injector.take_frame_fault(depth);
      const bool sent =
          frame_fault != nullptr
              ? send_frame_with_fault(result_fd, kTagDepthResult,
                                      writer.payload(), frame_fault,
                                      injector.seed(), config.rank, depth)
              : write_frame_bytes(result_fd, last_reply);
      if (frame_fault != nullptr &&
          frame_fault->kind == FaultKind::kPartialWrite) {
        // The prefix went out (send_frame_with_fault wrote half the
        // frame); now sever the channel — the supervisor reads half a
        // frame followed by EOF from a rank that is still alive, and
        // must respawn + replay.
        ::close(result_fd);
        ::close(command_fd);
        park_then_exit(45);
      }
      if (!sent) {
        return 1;  // parent is gone; nothing left to report to
      }
    }
  } catch (const std::exception& error) {
    WireWriter writer;
    writer.put_string(error.what());
    (void)write_frame(result_fd, kTagError, writer.payload());
    return 1;
  }
}

class ProcessEngine final : public SkeletonEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "process(rank-partition)";
  }

  void prepare_run() override {
    group_.shutdown();
    spawned_ = false;
    rank_main_ = nullptr;
    state_.clear();
    removal_log_.clear();
    pending_removals_.clear();
    depth_stats_.clear();
    events_.clear();
    degraded_ = false;
    local_clones_.clear();
    next_seq_ = 1;
  }

  std::int64_t run_depth(std::vector<EdgeWork>& works, std::int32_t depth,
                         const CiTest& prototype,
                         const PcOptions& options) override {
    const WallTimer depth_timer;
    const std::size_t events_before = events_.size();
    // A previous depth degraded, or the initial spawn failed (fork error
    // or an injected spawn-fail): the whole depth runs in-process.
    if (degraded_ ||
        (!spawned_ && !spawn_ranks(works, depth, prototype, options))) {
      return finish_depth_degraded(works, depth, prototype, all_indices(works),
                                   /*total_so_far=*/0, depth_timer,
                                   events_before);
    }
    const bool grouped = options.group_endpoints;

    // The previous depth's union removal set rides on the first round
    // only. It joins the replay log *before* it is sent: a rank respawned
    // during this depth replays a log that already holds it, so its
    // re-issued list carries no removals.
    std::vector<Removal> removals;
    removals.swap(pending_removals_);
    removal_log_.insert(removal_log_.end(), removals.begin(), removals.end());

    // Rounds (see the file comment). The gather merges in rank order, so
    // the error attribution stays deterministic; ranks own disjoint
    // works, so merge order cannot change an outcome. Each rank's failure
    // is handled inside gather_rank (retransmit → respawn ladder); what
    // comes back is merged, retired (its list goes to the next round) or
    // a degrade verdict. The loop ends because every round either merges
    // everything or retires at least one more rank.
    WallTimer gather_timer;
    DepthTally tally;
    std::vector<std::int64_t> pending = all_indices(works);
    std::vector<std::vector<std::int64_t>> lists(
        static_cast<std::size_t>(rank_count_));
    std::vector<std::uint32_t> seq(static_cast<std::size_t>(rank_count_), 0);
    for (bool first_round = true; first_round || !pending.empty();
         first_round = false) {
      std::vector<int> live;
      for (int rank = 0; rank < rank_count_; ++rank) {
        if (!state_[static_cast<std::size_t>(rank)].retired) {
          live.push_back(rank);
        }
      }
      if (live.empty()) {
        record_event(depth, -1, RecoveryAction::kDegrade,
                     "no rank survived the depth — finishing in-process");
        return finish_depth_degraded(works, depth, prototype, pending,
                                     tally.tests, depth_timer, events_before);
      }
      for (std::vector<std::int64_t>& list : lists) list.clear();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        lists[static_cast<std::size_t>(live[i % live.size()])].push_back(
            pending[i]);
      }
      pending.clear();
      // A rank that already died fails its try_send silently here — the
      // gather discovers the EOF and runs the recovery ladder.
      std::vector<int> sent;
      for (const int rank : live) {
        const auto slot = static_cast<std::size_t>(rank);
        if (!first_round && lists[slot].empty()) continue;
        seq[slot] = next_seq_++;
        WireWriter writer;
        encode_run_depth(writer, depth, seq[slot], grouped,
                         first_round ? std::span<const Removal>(removals)
                                     : std::span<const Removal>(),
                         lists[slot]);
        (void)group_.try_send(rank, kTagRunDepth, writer.payload());
        sent.push_back(rank);
      }
      if (first_round) gather_timer.reset();
      for (std::size_t i = 0; i < sent.size(); ++i) {
        const auto slot = static_cast<std::size_t>(sent[i]);
        switch (gather_rank(works, depth, grouped, sent[i], seq[slot],
                            lists[slot], tally)) {
          case Gather::kMerged:
            break;
          case Gather::kRetired:
            pending.insert(pending.end(), lists[slot].begin(),
                           lists[slot].end());
            break;
          case Gather::kDegraded:
            // Everything not yet merged — this rank's list, the lists
            // of ranks not yet gathered and of ranks retired this round
            // — finishes locally, and so does every later depth.
            for (std::size_t j = i; j < sent.size(); ++j) {
              const auto& list = lists[static_cast<std::size_t>(sent[j])];
              pending.insert(pending.end(), list.begin(), list.end());
            }
            return finish_depth_degraded(works, depth, prototype, pending,
                                         tally.tests, depth_timer,
                                         events_before);
        }
      }
    }

    depth_stats_.push_back(
        {depth, tally.tests, depth_timer.seconds(), gather_timer.seconds(),
         tally.max_rank_seconds, tally.max_rank_tests,
         static_cast<std::int32_t>(events_.size() - events_before)});
    return tally.tests;
  }

  [[nodiscard]] const std::vector<ProcessDepthStats>& depth_stats()
      const noexcept {
    return depth_stats_;
  }

  [[nodiscard]] const std::vector<RecoveryEvent>& recovery_events()
      const noexcept {
    return events_;
  }

 private:
  enum class Gather : std::uint8_t {
    kMerged,    ///< reply merged into the works vector
    kRetired,   ///< restart budget spent; caller re-partitions its works
    kDegraded,  ///< fork machinery failed; caller degrades the run
  };

  /// What the gather has merged of one depth's replies so far.
  struct DepthTally {
    std::int64_t tests = 0;           ///< executed tests, summed
    std::int64_t max_rank_tests = 0;  ///< the busiest reply's tests
    double max_rank_seconds = 0.0;    ///< the slowest reply's compute
  };

  struct RankState {
    std::int32_t generation = 0;  ///< 0 = initial fork, g = g-th respawn
    std::int32_t restarts = 0;    ///< respawn budget already consumed
    bool retired = false;         ///< permanently re-partitioned away
  };

  void record_event(std::int32_t depth, int rank, RecoveryAction action,
                    std::string detail) {
    events_.push_back({depth, rank, action, std::move(detail)});
  }

  static std::vector<std::int64_t> all_indices(
      const std::vector<EdgeWork>& works) {
    std::vector<std::int64_t> indices(works.size());
    for (std::size_t i = 0; i < works.size(); ++i) {
      indices[i] = static_cast<std::int64_t>(i);
    }
    return indices;
  }

  /// Receives and merges one rank's reply for (depth, seq), running the
  /// retransmit rung and, past it, the respawn ladder.
  Gather gather_rank(std::vector<EdgeWork>& works, std::int32_t depth,
                     bool grouped, int rank, std::uint32_t seq,
                     const std::vector<std::int64_t>& indices,
                     DepthTally& tally) {
    int attempt = 0;
    int stale = 0;
    std::string failure;
    for (;;) {
      Frame frame;
      static constexpr std::uint32_t kReplyTags[] = {kTagDepthResult,
                                                     kTagError};
      const FrameReadStatus status =
          group_.try_receive(rank, frame, deadline_ms_, kReplyTags);
      if (status == FrameReadStatus::kOk) {
        if (frame.tag == kTagError) {
          // The rank itself hit an exception (bad data, replica
          // divergence, a logic bug): unrecoverable by design — a
          // respawn would deterministically hit it again.
          WireReader reader(frame.payload);
          const std::string message = reader.get_string();
          group_.shutdown();
          throw std::runtime_error("process engine: rank " +
                                   std::to_string(rank) +
                                   " failed: " + message);
        }
        WireReader reader(frame.payload);
        const std::int32_t reply_depth = reader.get_i32();
        const std::uint32_t reply_seq = reader.get_u32();
        if (reply_depth != depth || reply_seq != seq) {
          // A duplicate of an already-merged reply (a late original
          // racing its own retransmission). Harmless; discard and read
          // on — bounded, so a rank stuck replaying old frames still
          // fails over to the ladder.
          if (++stale <= kMaxStaleReplies) continue;
          failure = "it kept replaying stale frames (last: depth " +
                    std::to_string(reply_depth) + ", seq " +
                    std::to_string(reply_seq) + ")";
        } else {
          merge_reply(works, reader, rank, tally);
          return Gather::kMerged;
        }
      } else if (status == FrameReadStatus::kBadTag) {
        // Satellite of the checksummed transport: the frame is
        // CRC-valid, so an unknown tag is a protocol logic bug, not
        // line noise — fail loudly naming rank and tag, never merge.
        group_.shutdown();
        throw std::runtime_error(
            "process engine: rank " + std::to_string(rank) +
            " replied with unknown protocol tag " + std::to_string(frame.tag) +
            " — protocol error (the transport is checksummed, so this is "
            "a logic bug, not wire corruption)");
      } else if ((status == FrameReadStatus::kCorrupt ||
                  status == FrameReadStatus::kTimeout) &&
                 attempt < kRetransmitLimit) {
        // Rung 1: ask for the buffered reply again, with linear backoff.
        ++attempt;
        record_event(depth, rank, RecoveryAction::kRetransmit,
                     "its depth-" + std::to_string(depth) + " reply " +
                         std::string(status == FrameReadStatus::kCorrupt
                                         ? "failed the frame checksum"
                                         : "missed the frame deadline") +
                         "; retransmit request " + std::to_string(attempt) +
                         "/" + std::to_string(kRetransmitLimit));
        if (group_.try_send(rank, kTagRetransmit, {})) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(attempt * kRetransmitBackoffMs));
          continue;
        }
        failure = "its command pipe broke when asked to retransmit — the "
                  "rank " +
                  group_.describe_rank(rank);
      } else if (status == FrameReadStatus::kEof) {
        failure = "its result pipe closed before its depth-" +
                  std::to_string(depth) + " reply — the rank " +
                  group_.describe_rank(rank);
      } else if (status == FrameReadStatus::kTimeout) {
        failure = "no usable reply within " + std::to_string(deadline_ms_) +
                  " ms after " + std::to_string(attempt) +
                  " retransmit request(s) — the rank " +
                  group_.describe_rank(rank);
      } else {
        failure = "its replies kept failing the frame checksum after " +
                  std::to_string(attempt) + " retransmit request(s)";
      }
      return respawn_ladder(works, depth, grouped, rank, indices, tally,
                            failure);
    }
  }

  /// Rungs 2 and 3: respawn-with-replay while the restart budget lasts,
  /// then retire the rank (the caller re-partitions its works). A fork
  /// that fails — really or by injected decree — returns the degrade
  /// verdict instead.
  Gather respawn_ladder(std::vector<EdgeWork>& works, std::int32_t depth,
                        bool grouped, int rank,
                        const std::vector<std::int64_t>& indices,
                        DepthTally& tally, const std::string& reason) {
    RankState& state = state_[static_cast<std::size_t>(rank)];
    while (state.restarts < max_restarts_) {
      const std::int32_t generation = ++state.restarts;
      if (schedule_.spawn_should_fail(rank, generation)) {
        record_event(depth, rank, RecoveryAction::kDegrade,
                     reason + "; respawn generation " +
                         std::to_string(generation) +
                         " declared failed by the fault schedule — "
                         "finishing the run in-process");
        return Gather::kDegraded;
      }
      try {
        group_.respawn(rank, rank_main_);
      } catch (const std::exception& error) {
        record_event(depth, rank, RecoveryAction::kDegrade,
                     reason + "; respawn generation " +
                         std::to_string(generation) + " failed (" +
                         error.what() + ") — finishing the run in-process");
        return Gather::kDegraded;
      }
      state.generation = generation;
      record_event(
          depth, rank, RecoveryAction::kRespawn,
          reason + "; respawned as generation " + std::to_string(generation) +
              ", replaying " + std::to_string(removal_log_.size()) +
              " logged removals and re-running its " +
              std::to_string(indices.size()) + " works");
      // Rebuild the replica from the log (which already holds this
      // depth's removals), then re-issue the rank's list with none. A
      // send that fails here means the replacement died instantly; the
      // loop charges another restart and tries again.
      WireWriter replay;
      replay.put_i32(generation);
      put_removals(replay, removal_log_);
      if (!group_.try_send(rank, kTagReplay, replay.payload())) continue;
      const std::uint32_t seq = next_seq_++;
      WireWriter command;
      encode_run_depth(command, depth, seq, grouped, {}, indices);
      if (!group_.try_send(rank, kTagRunDepth, command.payload())) continue;
      return gather_rank(works, depth, grouped, rank, seq, indices, tally);
    }
    record_event(depth, rank, RecoveryAction::kRepartition,
                 reason + "; restart budget (" +
                     std::to_string(max_restarts_) +
                     ") exhausted — retiring the rank and re-partitioning "
                     "its " +
                     std::to_string(indices.size()) +
                     " works onto the survivors");
    group_.kill_rank(rank);
    state.retired = true;
    return Gather::kRetired;
  }

  /// Merges one validated DepthResult payload (cursor past depth + seq)
  /// into the works vector and the pending-removal set.
  void merge_reply(std::vector<EdgeWork>& works, WireReader& reader,
                   int rank, DepthTally& tally) {
    const std::int64_t tests = reader.get_i64();
    tally.tests += tests;
    tally.max_rank_tests = std::max(tally.max_rank_tests, tests);
    tally.max_rank_seconds = std::max(
        tally.max_rank_seconds, static_cast<double>(reader.get_i64()) * 1e-6);
    const std::uint32_t removed = reader.get_u32();
    for (std::uint32_t i = 0; i < removed; ++i) {
      const auto index = static_cast<std::size_t>(reader.get_u64());
      const VarId x = reader.get_i32();
      const VarId y = reader.get_i32();
      const std::uint64_t accepted = reader.get_u64();
      // The index addresses the rank's replica-built list; it is only
      // meaningful if that list matches the driver's. The endpoint
      // check turns a divergent replica into a loud protocol error.
      if (index >= works.size() || works[index].x != x ||
          works[index].y != y) {
        group_.shutdown();
        throw std::runtime_error(
            "process engine: rank " + std::to_string(rank) +
            " removed work #" + std::to_string(index) + " (" +
            std::to_string(x) + ", " + std::to_string(y) +
            "), which does not match the driver's work list — replica "
            "divergence");
      }
      EdgeWork& work = works[index];
      // A rank past the work's tests cannot come from an identical list;
      // checked here because the commit's unranking only asserts the
      // bound.
      if (accepted >= work.total_tests()) {
        group_.shutdown();
        throw std::runtime_error(
            "process engine: rank " + std::to_string(rank) +
            " removed work #" + std::to_string(index) + " (" +
            std::to_string(x) + ", " + std::to_string(y) + ") at test rank " +
            std::to_string(accepted) + ", but the driver's work has " +
            std::to_string(work.total_tests()) +
            " tests — replica divergence");
      }
      work.accepted = accepted;
      pending_removals_.push_back({x, y});
    }
  }

  /// Rung 4: the group is gone (or never existed). Finish this depth's
  /// unmerged works in-process with rank-identical semantics; every
  /// later depth of the run comes back here with its whole work list.
  std::int64_t finish_depth_degraded(std::vector<EdgeWork>& works,
                                     std::int32_t depth,
                                     const CiTest& prototype,
                                     const std::vector<std::int64_t>& indices,
                                     std::int64_t total_so_far,
                                     const WallTimer& depth_timer,
                                     std::size_t events_before) {
    group_.shutdown();
    degraded_ = true;
    std::int64_t local = 0;
    if (!indices.empty()) {
      if (local_clones_.empty()) {
        const auto threads = static_cast<std::size_t>(std::max<std::int32_t>(
            1, rank_count_ > 0 ? rank_count_ * rank_threads_ : 1));
        local_clones_.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) {
          local_clones_.push_back(prototype.clone());
          local_clones_.back()->set_sample_parallel(false);
        }
      }
      local = run_shard_works(works, indices, depth, local_clones_);
    }
    depth_stats_.push_back(
        {depth, total_so_far + local, depth_timer.seconds(),
         /*gather_seconds=*/0.0, /*max_rank_seconds=*/0.0,
         /*max_rank_tests=*/0,
         static_cast<std::int32_t>(events_.size() - events_before)});
    return total_so_far + local;
  }

  /// Resolves the run's configuration and forks the group. Returns false
  /// — after recording the degrade event — when the spawn fails for
  /// real or by injected decree; the engine then never retries forking.
  bool spawn_ranks(const std::vector<EdgeWork>& works, std::int32_t depth,
                   const CiTest& prototype, const PcOptions& options) {
    spawned_ = true;  // one attempt per run, success or not
    schedule_ = options.fault_schedule.empty()
                    ? FaultSchedule::from_env()
                    : FaultSchedule::parse(options.fault_schedule);
    deadline_ms_ =
        env_positive_int("FASTBNS_RANK_TIMEOUT_MS", kDefaultRankTimeoutMs);
    max_restarts_ = options.max_rank_restarts;
    // Every rank's replica starts as the complete graph over the
    // variables, which the first depth's works (depth 0's complete
    // graph) name; later depths' shrinking lists could miss some.
    num_vars_ = 0;
    for (const EdgeWork& work : works) {
      num_vars_ = std::max(num_vars_, std::max(work.x, work.y) + 1);
    }
    rank_count_ = resolve_rank_count(options.rank_count);
    rank_threads_ = resolve_rank_threads(options.rank_threads, rank_count_,
                                         options.num_threads);

    std::vector<RankConfig> configs(static_cast<std::size_t>(rank_count_));
    for (std::int32_t rank = 0; rank < rank_count_; ++rank) {
      RankConfig& config = configs[static_cast<std::size_t>(rank)];
      config.rank = rank;
      config.num_vars = num_vars_;
      config.rank_threads = rank_threads_;
      config.schedule = schedule_;
    }
    const CiTest* prototype_ptr = &prototype;
    rank_main_ = [configs = std::move(configs), prototype_ptr](
                     int rank, int command_fd, int result_fd) {
      return run_rank(configs[static_cast<std::size_t>(rank)], *prototype_ptr,
                      command_fd, result_fd);
    };
    state_.assign(static_cast<std::size_t>(rank_count_), {});
    if (schedule_.spawn_should_fail(/*rank=*/-1, /*generation=*/0)) {
      record_event(depth, -1, RecoveryAction::kDegrade,
                   "initial spawn declared failed by the fault schedule — "
                   "running in-process");
      return false;
    }
    try {
      group_ = ProcessGroup::spawn(rank_count_, rank_main_);
    } catch (const std::exception& error) {
      record_event(depth, -1, RecoveryAction::kDegrade,
                   std::string("initial spawn failed (") + error.what() +
                       ") — running in-process");
      return false;
    }
    return true;
  }

  ProcessGroup group_;
  ProcessGroup::RankMain rank_main_;
  bool spawned_ = false;
  std::int32_t rank_count_ = 0;
  std::int32_t rank_threads_ = 1;
  VarId num_vars_ = 0;
  FaultSchedule schedule_;
  int deadline_ms_ = kDefaultRankTimeoutMs;
  std::int32_t max_restarts_ = 1;
  /// Per-command sequence numbers, echoed in replies: the duplicate
  /// detector of the retransmit rung.
  std::uint32_t next_seq_ = 1;
  std::vector<RankState> state_;
  /// Every removal sent to the ranks so far, in order — what a
  /// respawned rank replays to rebuild its replica.
  std::vector<Removal> removal_log_;
  /// The union removal set of the previous depth, pending the next
  /// depth's first round.
  std::vector<Removal> pending_removals_;
  std::vector<ProcessDepthStats> depth_stats_;
  std::vector<RecoveryEvent> events_;
  /// True once rung 4 fired: the rest of the run executes in-process.
  bool degraded_ = false;
  /// Clones for the degrade rung's local execution.
  std::vector<std::unique_ptr<CiTest>> local_clones_;
};

}  // namespace

std::unique_ptr<SkeletonEngine> make_process_engine() {
  return std::make_unique<ProcessEngine>();
}

std::string_view to_string(RecoveryAction action) noexcept {
  switch (action) {
    case RecoveryAction::kRetransmit:
      return "retransmit";
    case RecoveryAction::kRespawn:
      return "respawn";
    case RecoveryAction::kRepartition:
      return "re-partition";
    case RecoveryAction::kDegrade:
      return "degrade";
  }
  return "unknown";
}

const std::vector<ProcessDepthStats>* process_engine_depth_stats(
    const SkeletonEngine& engine) {
  const auto* process = dynamic_cast<const ProcessEngine*>(&engine);
  return process == nullptr ? nullptr : &process->depth_stats();
}

const std::vector<RecoveryEvent>* process_engine_recovery_events(
    const SkeletonEngine& engine) {
  const auto* process = dynamic_cast<const ProcessEngine*>(&engine);
  return process == nullptr ? nullptr : &process->recovery_events();
}

std::int32_t resolve_rank_count(std::int32_t requested) noexcept {
  if (requested > 0) return requested;
  return std::max(1, std::min(2, hardware_threads()));
}

std::int32_t resolve_rank_threads(std::int32_t requested,
                                  std::int32_t rank_count,
                                  int num_threads) noexcept {
  if (requested > 0) return requested;
  const int budget = num_threads > 0 ? num_threads : hardware_threads();
  return std::max(1, budget / std::max(1, rank_count));
}

}  // namespace fastbns
