// The multi-process rank engine: every depth's units dealt round-robin
// over the ranks as explicit lists, one forked child per rank and list,
// and a gather of their replies as the commit barrier — the fork-based
// first step toward distributed (MPI-style) skeleton learning.
//
// Topology of a run:
//  - A depth's unit is a word of the pair bitmap at depth 0 (the 64
//    pairs pc/pair_index.hpp puts in it, one marginal test each) and a
//    work of the driver's list at depth >= 1. The engine forks one child
//    for every live rank it deals a non-empty list (never at
//    construction, so building an engine stays fork-free). The child
//    inherits copy-on-write the CiTest prototype, the dataset it reads
//    and any matrix it holds (Fisher-z's correlation matrix), the works
//    and their adjacency snapshot or the bitmap, and its own list.
//    Nothing writes the dataset, the matrix or the snapshot while a child
//    lives, so no child copies a page of them. A unit crosses the process
//    boundary as nothing more than its index. Inside a child, threads
//    claim the units of its list one at a time from an atomic cursor.
//  - Each depth runs in rounds. A round deals the pending unit indices
//    round-robin over the live ranks — the i-th pending index goes to
//    live rank i mod L — and forks a child for each rank it gives work.
//    The first round deals every unit; each later round re-deals the
//    lists of the ranks retired in the round before.
//  - The per-depth commit barrier is a gather rooted at the driver: each
//    child runs its list and sends one DEPTH_RESULT (the depth, its test
//    count and compute time, and its outcomes: at depth 0 the index and
//    bits of each word with a removal, at depth >= 1 the index, endpoints
//    and accepting test rank of each removed work). The driver checks
//    every outcome against what it dealt that rank, merges the replies in
//    rank order into the bitmap or the works vector, and reaps each child
//    as soon as its reply merges. No child outlives its depth.
//
// Fault tolerance (the supervisor's recovery ladder, mildest rung
// first; every rung preserves result identity):
//  1. Retransmit — a reply that fails its CRC or its per-frame deadline
//     is re-requested up to kRetransmitLimit times with linear backoff;
//     a child keeps its encoded reply and resends it verbatim until it is
//     reaped. Its pipe carries nothing but that reply, so a late original
//     racing its own retransmission dies unread with the reaped child.
//  2. Respawn — a child that died (EOF) or wedged (deadline, retries
//     exhausted — then SIGKILLed) is replaced by a fresh fork of the same
//     list, which inherits the same job. Each respawn starts a new
//     generation of the rank; the fault injector matches events per
//     generation, so a gen-0 kill does not re-fire on the replacement
//     (and a gen-1 event deliberately does — the death-during-recovery
//     test).
//  3. Re-partition — once a rank's max_rank_restarts budget is spent it
//     is retired: the depth's next round re-deals its list over the
//     surviving ranks, and later depths deal over the survivors alone.
//  4. Degrade — when fork itself fails (or the fault schedule declares
//     it failed) or no rank survives, the supervisor finishes the current
//     depth's unmerged units in-process (std::thread clones with the
//     exact rank semantics) and runs all units of every subsequent depth
//     the same way. The run completes; only the topology changed.
//
// Result identity: a rank runs each of its units whole — a word's pairs
// with the edge-parallel engine's depth-0 calls, a work in canonical rank
// order with first-accept early stop — so adjacency, sepsets, removal
// depths and executed-test counts are bit-identical to the sequential
// reference at any rank_count / rank_threads combination, under every
// recovery rung: a failed child never contributes a partial reply
// (frames are atomic at merge time), so each unit is merged exactly once
// no matter who eventually ran it.
//
// fork() discipline (see also ipc/process_group.hpp): children never
// enter an OpenMP parallel region — libgomp's team threads do not exist
// in the child — so rank_threads parallelism is plain std::thread over
// per-thread CiTest clones forced to serial table builds; children leave
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
#include "engine/engine_common.hpp"
#include "fault/fault_schedule.hpp"
#include "ipc/process_group.hpp"
#include "ipc/wire.hpp"
#include "pc/pair_index.hpp"

namespace fastbns {
namespace {

// Protocol tags. A child sends one reply; the parent can only ask for it
// again. Both directions validate the tag set on receive (read_frame's
// allowed_tags) — an unknown tag is a loud protocol error naming rank
// and tag, never a misparsed payload.
constexpr std::uint32_t kTagDepthResult = 2; ///< child → parent
constexpr std::uint32_t kTagError = 3;       ///< child → parent (fatal)
constexpr std::uint32_t kTagRetransmit = 5;  ///< parent → child (resend)

/// Per-frame receive deadline; FASTBNS_RANK_TIMEOUT_MS overrides it (the
/// fault sweeps tighten it so wedges surface in seconds).
constexpr int kDefaultRankTimeoutMs = 120000;
/// Retransmit requests per reply that fails its CRC or its deadline
/// before the rank enters the respawn rung.
constexpr int kRetransmitLimit = 2;
/// Backoff step between retransmit requests; attempt k waits k steps.
constexpr int kRetransmitBackoffMs = 10;

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

/// Keeps a faulted child alive but silent until the supervisor kills it,
/// then _exits with `status`. Capped (10 minutes) so an orphan cannot
/// outlive a crashed parent forever.
[[noreturn]] void park_then_exit(int status) {
  for (int i = 0; i < 6000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ::_exit(status);
}

/// One depth's job, fixed in the parent before its first fork; a child
/// reads it from the memory it inherits. Its units are the works when
/// there are works, otherwise the words of depth 0's pair bitmap.
struct DepthJob {
  std::int32_t depth = 0;
  /// The depth's work list; nullptr when the depth runs bitmap words.
  std::vector<EdgeWork>* works = nullptr;
  /// Bitmap words only: the variables, how each pair is tested, and the
  /// bitmap each word's removal bits are written to.
  VarId num_nodes = 0;
  DepthZeroCalls calls{};
  std::span<std::uint64_t> removed{};

  [[nodiscard]] std::size_t units() const noexcept {
    return works != nullptr ? works->size() : removed.size();
  }
  /// Whether unit `index` removed an edge.
  [[nodiscard]] bool removes(std::int64_t index) const noexcept {
    const auto i = static_cast<std::size_t>(index);
    return works != nullptr ? (*works)[i].removed() : removed[i] != 0;
  }
};

/// Runs the units `mine` lists with one std::thread per clone (the
/// calling thread serves clone 0). Each thread claims its next position
/// in `mine` from one atomic cursor and runs that unit whole — a work,
/// or the pairs of a bitmap word — so a preempted thread delays only the
/// unit it holds; the joins publish the outcomes. Rethrows the first
/// worker exception after all joins. Also the degrade rung's local
/// executor — the semantics must stay byte-for-byte those of a rank.
std::int64_t run_shard(const DepthJob& job,
                       const std::vector<std::int64_t>& mine,
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
        const auto unit = static_cast<std::size_t>(mine[p]);
        executed += job.works != nullptr
                        ? run_edge_tests((*job.works)[unit], job.depth,
                                         /*group=*/1, test, z)
                        : run_depth_zero_words(job.num_nodes, unit, unit + 1,
                                               job.calls, test, job.removed);
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

/// Clones of `prototype` forced to serial table builds: sample-parallel
/// builds are OpenMP regions, which must never run in a forked child, and
/// the degrade rung already runs one std::thread per clone.
std::vector<std::unique_ptr<CiTest>> serial_clones(const CiTest& prototype,
                                                   std::size_t count) {
  std::vector<std::unique_ptr<CiTest>> clones;
  clones.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    clones.push_back(prototype.clone());
    clones.back()->set_sample_parallel(false);
  }
  return clones;
}

/// Writes the outcomes of the units `list` names, behind their count: the
/// index and bits of each word with a removal, or the index, endpoints
/// and accepting rank of each removed work.
void put_outcomes(const DepthJob& job, const std::vector<std::int64_t>& list,
                  WireWriter& writer) {
  writer.put_u32(static_cast<std::uint32_t>(
      std::count_if(list.begin(), list.end(),
                    [&](std::int64_t index) { return job.removes(index); })));
  for (const std::int64_t index : list) {
    if (!job.removes(index)) continue;
    const auto i = static_cast<std::size_t>(index);
    writer.put_u64(i);
    if (job.works == nullptr) {
      writer.put_u64(job.removed[i]);
      continue;
    }
    const EdgeWork& work = (*job.works)[i];
    writer.put_i32(work.x);
    writer.put_i32(work.y);
    writer.put_u64(work.accepted);
  }
}

/// One child's whole job, fixed in the parent before the fork; the child
/// reads it from the memory it inherits.
struct ChildTask {
  const DepthJob& job;
  const std::vector<std::int64_t>& list;
  const CiTest& prototype;
  std::int32_t threads = 1;
  /// The faults the rank's injector claimed for this child
  /// (fault/fault_schedule.hpp); nullptr or 0 when none.
  const FaultEvent* lethal = nullptr;
  const FaultEvent* frame_fault = nullptr;
  std::int32_t slow_ms = 0;
  std::uint64_t seed = 0;
};

/// A forked child's life (no OpenMP, no gtest, exit only through the
/// return value / _exit): runs its list, sends one DEPTH_RESULT, then
/// answers RETRANSMIT with the same bytes until the parent reaps it.
int run_child(const ChildTask& task, int rank, int command_fd,
              int result_fd) {
  try {
    if (task.lethal != nullptr) {
      if (task.lethal->kind == FaultKind::kKill) {
        ::_exit(42);  // injected mid-depth death; the parent must notice
      }
      if (task.lethal->kind == FaultKind::kDropConn) {
        // Sever the channel with the process still alive: the
        // supervisor sees a clean EOF while waitpid still says
        // "running" — no other fault produces that — and must run the
        // same respawn ladder a death triggers.
        ::close(result_fd);
        ::close(command_fd);
        park_then_exit(44);
      }
      // Wedge: alive but unresponsive — only the supervisor's per-frame
      // deadline and SIGKILL clear it.
      park_then_exit(43);
    }
    const WallTimer compute_timer;
    std::vector<std::unique_ptr<CiTest>> clones = serial_clones(
        task.prototype, static_cast<std::size_t>(task.threads));
    const std::int64_t tests = run_shard(task.job, task.list, clones);
    if (task.slow_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(task.slow_ms));
    }
    WireWriter writer;
    writer.put_i32(task.job.depth);
    writer.put_i64(tests);
    writer.put_i64(static_cast<std::int64_t>(compute_timer.seconds() * 1e6));
    put_outcomes(task.job, task.list, writer);
    const std::vector<std::uint8_t> reply =
        encode_frame(kTagDepthResult, writer.payload());
    bool sent = task.frame_fault != nullptr
                    ? send_frame_with_fault(result_fd, kTagDepthResult,
                                            writer.payload(), task.frame_fault,
                                            task.seed, rank, task.job.depth)
                    : write_frame_bytes(result_fd, reply);
    if (task.frame_fault != nullptr &&
        task.frame_fault->kind == FaultKind::kPartialWrite) {
      // The prefix went out (send_frame_with_fault wrote half the frame);
      // now sever the channel — the supervisor reads half a frame
      // followed by EOF from a child that is still alive, and must
      // respawn the rank.
      ::close(result_fd);
      ::close(command_fd);
      park_then_exit(45);
    }
    Frame frame;
    static constexpr std::uint32_t kCommandTags[] = {kTagRetransmit};
    while (sent) {
      const FrameReadStatus status =
          read_frame(command_fd, frame, /*timeout_ms=*/-1, kCommandTags);
      if (status == FrameReadStatus::kEof) return 0;  // the parent is done
      if (status != FrameReadStatus::kOk) {
        // kBadTag (an unknown command is a supervisor logic bug — the
        // transport is checksummed) or kCorrupt: fail loudly with the
        // offending tag / status named; the parent surfaces the error.
        throw std::runtime_error(
            "process engine rank " + std::to_string(rank) +
            ": command channel " + std::string(to_string(status)) +
            (status == FrameReadStatus::kBadTag
                 ? " — unknown command tag " + std::to_string(frame.tag)
                 : ""));
      }
      sent = write_frame_bytes(result_fd, reply);
    }
    return 1;  // the parent is gone; nothing left to report to
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
    configured_ = false;
    state_.clear();
    depth_stats_.clear();
    events_.clear();
    degraded_ = false;
    local_clones_.clear();
  }

  std::int64_t run_depth_zero(VarId num_nodes, const CiTest& prototype,
                              const PcOptions& options,
                              std::span<std::uint64_t> removed) override {
    return run_job({.num_nodes = num_nodes,
                    .calls = {.grouped = options.group_endpoints},
                    .removed = removed},
                   prototype, options);
  }

  std::int64_t run_depth(std::vector<EdgeWork>& works, std::int32_t depth,
                         const CiTest& prototype,
                         const PcOptions& options) override {
    return run_job({.depth = depth, .works = &works}, prototype, options);
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
    kMerged,    ///< reply merged into the job's outcomes, child reaped
    kRetired,   ///< restart budget spent; caller re-partitions its units
    kDegraded,  ///< fork machinery failed; caller degrades the run
  };

  /// What the gather has merged of one depth's replies so far.
  struct DepthTally {
    std::int64_t tests = 0;           ///< executed tests, summed
    std::int64_t max_rank_tests = 0;  ///< the busiest reply's tests
    double max_rank_seconds = 0.0;    ///< the slowest reply's compute
  };

  struct RankState {
    /// The rank's view of the fault schedule; its generation is the
    /// number of restarts the rank has used.
    RankFaultInjector injector;
    bool retired = false;  ///< permanently re-partitioned away
  };

  /// Runs one depth's job over the ranks and returns its executed tests.
  std::int64_t run_job(const DepthJob& job, const CiTest& prototype,
                       const PcOptions& options) {
    const std::int32_t depth = job.depth;
    const WallTimer depth_timer;
    const std::size_t events_before = events_.size();
    if (!configured_) configure(depth, options);
    // A previous depth degraded, or the fault schedule declared the run's
    // first forks failed: the whole depth runs in-process.
    if (degraded_) {
      return finish_depth_degraded(job, prototype, all_indices(job.units()),
                                   /*total_so_far=*/0, depth_timer,
                                   events_before);
    }

    // Rounds (see the file comment). The gather merges in rank order, so
    // the error attribution stays deterministic; ranks own disjoint
    // units, so merge order cannot change an outcome. Each rank's failure
    // is handled inside gather_rank (retransmit → respawn ladder); what
    // comes back is merged, retired (its list goes to the next round) or
    // a degrade verdict. The loop ends because every round either merges
    // everything or retires at least one more rank.
    const WallTimer gather_timer;
    DepthTally tally;
    std::vector<std::int64_t> pending = all_indices(job.units());
    std::vector<std::vector<std::int64_t>> lists(
        static_cast<std::size_t>(rank_count_));
    while (!pending.empty()) {
      std::vector<int> live;
      for (int rank = 0; rank < rank_count_; ++rank) {
        if (!state_[static_cast<std::size_t>(rank)].retired) {
          live.push_back(rank);
        }
      }
      if (live.empty()) {
        record_event(depth, -1, RecoveryAction::kDegrade,
                     "no rank survived the depth — finishing in-process");
        return finish_depth_degraded(job, prototype, pending, tally.tests,
                                     depth_timer, events_before);
      }
      for (std::vector<std::int64_t>& list : lists) list.clear();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        lists[static_cast<std::size_t>(live[i % live.size()])].push_back(
            pending[i]);
      }
      pending.clear();
      std::vector<int> forked;
      for (const int rank : live) {
        const auto& list = lists[static_cast<std::size_t>(rank)];
        if (list.empty()) continue;
        if (const std::string error = fork_child(job, prototype, rank, list);
            !error.empty()) {
          record_event(depth, rank, RecoveryAction::kDegrade,
                       "forking its depth-" + std::to_string(depth) +
                           " child failed (" + error +
                           ") — finishing the run in-process");
          // Nothing of this round has merged: every list it dealt
          // finishes locally.
          for (const auto& dealt : lists) {
            pending.insert(pending.end(), dealt.begin(), dealt.end());
          }
          return finish_depth_degraded(job, prototype, pending, tally.tests,
                                       depth_timer, events_before);
        }
        forked.push_back(rank);
      }
      for (std::size_t i = 0; i < forked.size(); ++i) {
        const auto& list = lists[static_cast<std::size_t>(forked[i])];
        switch (gather_rank(job, prototype, forked[i], list, tally)) {
          case Gather::kMerged:
            break;
          case Gather::kRetired:
            pending.insert(pending.end(), list.begin(), list.end());
            break;
          case Gather::kDegraded:
            // Everything not yet merged — this rank's list, the lists
            // of ranks not yet gathered and of ranks retired this round
            // — finishes locally, and so does every later depth.
            for (std::size_t j = i; j < forked.size(); ++j) {
              const auto& rest = lists[static_cast<std::size_t>(forked[j])];
              pending.insert(pending.end(), rest.begin(), rest.end());
            }
            return finish_depth_degraded(job, prototype, pending,
                                         tally.tests, depth_timer,
                                         events_before);
        }
      }
    }

    const double gather_seconds = gather_timer.seconds();  // read first
    depth_stats_.push_back(
        {depth, tally.tests, depth_timer.seconds(), gather_seconds,
         tally.max_rank_seconds, tally.max_rank_tests,
         static_cast<std::int32_t>(events_.size() - events_before)});
    return tally.tests;
  }

  void record_event(std::int32_t depth, int rank, RecoveryAction action,
                    std::string detail) {
    events_.push_back({depth, rank, action, std::move(detail)});
  }

  static std::vector<std::int64_t> all_indices(std::size_t count) {
    std::vector<std::int64_t> indices(count);
    for (std::size_t i = 0; i < count; ++i) {
      indices[i] = static_cast<std::int64_t>(i);
    }
    return indices;
  }

  /// Claims the faults the rank's injector arms for this child, then
  /// forks it into the rank's slot (reaping whatever the slot held).
  /// Returns the fork's error, empty on success.
  std::string fork_child(const DepthJob& job, const CiTest& prototype,
                         int rank, const std::vector<std::int64_t>& list) {
    const std::int32_t depth = job.depth;
    RankFaultInjector& injector =
        state_[static_cast<std::size_t>(rank)].injector;
    const ChildTask task{.job = job,
                         .list = list,
                         .prototype = prototype,
                         .threads = rank_threads_,
                         .lethal = injector.lethal_fault(depth),
                         .frame_fault = injector.take_frame_fault(depth),
                         .slow_ms = injector.slow_rank_ms(depth),
                         .seed = injector.seed()};
    try {
      group_.spawn(rank, [&task](int child_rank, int command_fd,
                                 int result_fd) {
        return run_child(task, child_rank, command_fd, result_fd);
      });
    } catch (const std::exception& error) {
      return error.what();
    }
    return {};
  }

  /// Receives and merges the reply of `rank`'s child for `depth`, running
  /// the retransmit rung and, past it, the respawn ladder.
  Gather gather_rank(const DepthJob& job, const CiTest& prototype, int rank,
                     const std::vector<std::int64_t>& list,
                     DepthTally& tally) {
    const std::int32_t depth = job.depth;
    int attempt = 0;
    std::string failure;
    for (;;) {
      Frame frame;
      static constexpr std::uint32_t kReplyTags[] = {kTagDepthResult,
                                                     kTagError};
      const FrameReadStatus status =
          group_.try_receive(rank, frame, deadline_ms_, kReplyTags);
      if (status == FrameReadStatus::kOk) {
        if (frame.tag == kTagError) {
          // The child itself hit an exception (bad data, a logic bug):
          // unrecoverable by design — a respawn would deterministically
          // hit it again.
          WireReader reader(frame.payload);
          const std::string message = reader.get_string();
          group_.shutdown();
          throw std::runtime_error("process engine: rank " +
                                   std::to_string(rank) +
                                   " failed: " + message);
        }
        WireReader reader(frame.payload);
        merge_reply(job, reader, rank, list, tally);
        group_.kill_rank(rank);
        return Gather::kMerged;
      }
      if (status == FrameReadStatus::kBadTag) {
        // Satellite of the checksummed transport: the frame is
        // CRC-valid, so an unknown tag is a protocol logic bug, not
        // line noise — fail loudly naming rank and tag, never merge.
        group_.shutdown();
        throw std::runtime_error(
            "process engine: rank " + std::to_string(rank) +
            " replied with unknown protocol tag " + std::to_string(frame.tag) +
            " — protocol error (the transport is checksummed, so this is "
            "a logic bug, not wire corruption)");
      }
      if ((status == FrameReadStatus::kCorrupt ||
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
      return respawn_ladder(job, prototype, rank, list, tally, failure);
    }
  }

  /// Rungs 2 and 3: a fresh fork of the same list while the restart
  /// budget lasts (a replacement that fails too comes back here through
  /// gather_rank), then retire the rank (the caller re-partitions its
  /// units). A fork that fails — really or by injected decree — returns
  /// the degrade verdict instead.
  Gather respawn_ladder(const DepthJob& job, const CiTest& prototype,
                        int rank, const std::vector<std::int64_t>& list,
                        DepthTally& tally, const std::string& reason) {
    const std::int32_t depth = job.depth;
    RankState& state = state_[static_cast<std::size_t>(rank)];
    if (state.injector.generation() < max_restarts_) {
      const std::int32_t generation = state.injector.generation() + 1;
      state.injector.set_generation(generation);
      if (schedule_.spawn_should_fail(rank, generation)) {
        record_event(depth, rank, RecoveryAction::kDegrade,
                     reason + "; respawn generation " +
                         std::to_string(generation) +
                         " declared failed by the fault schedule — "
                         "finishing the run in-process");
        return Gather::kDegraded;
      }
      if (const std::string error = fork_child(job, prototype, rank, list);
          !error.empty()) {
        record_event(depth, rank, RecoveryAction::kDegrade,
                     reason + "; respawn generation " +
                         std::to_string(generation) + " failed (" + error +
                         ") — finishing the run in-process");
        return Gather::kDegraded;
      }
      record_event(depth, rank, RecoveryAction::kRespawn,
                   reason + "; respawned as generation " +
                       std::to_string(generation) + " to re-run its " +
                       std::to_string(list.size()) + " " + unit_name(job));
      return gather_rank(job, prototype, rank, list, tally);
    }
    record_event(depth, rank, RecoveryAction::kRepartition,
                 reason + "; restart budget (" + std::to_string(max_restarts_) +
                     ") exhausted — retiring the rank and re-partitioning "
                     "its " +
                     std::to_string(list.size()) + " " + unit_name(job) +
                     " onto the survivors");
    group_.kill_rank(rank);
    state.retired = true;
    return Gather::kRetired;
  }

  /// What the job's units are called in recovery events.
  static std::string unit_name(const DepthJob& job) {
    return job.works != nullptr ? "works" : "pair words";
  }

  /// Checks one DepthResult payload against what the driver dealt `rank`
  /// (`list`) and merges it into the job's outcomes. Any mismatch is a
  /// protocol error: the child ran a copy of this very job.
  void merge_reply(const DepthJob& job, WireReader& reader, int rank,
                   const std::vector<std::int64_t>& list, DepthTally& tally) {
    const std::int32_t depth = job.depth;
    const auto protocol_error = [&](const std::string& what) {
      group_.shutdown();
      return std::runtime_error("process engine: rank " +
                                std::to_string(rank) + " " + what +
                                " — protocol error");
    };
    const std::int32_t reply_depth = reader.get_i32();
    if (reply_depth != depth) {
      throw protocol_error("replied for depth " + std::to_string(reply_depth) +
                           " during depth " + std::to_string(depth));
    }
    const std::int64_t tests = reader.get_i64();
    tally.tests += tests;
    tally.max_rank_tests = std::max(tally.max_rank_tests, tests);
    tally.max_rank_seconds = std::max(
        tally.max_rank_seconds, static_cast<double>(reader.get_i64()) * 1e-6);
    const std::uint32_t outcomes = reader.get_u32();
    // Words come back in the order they were dealt, so one pass over the
    // list checks that each was dealt to this rank, and only once.
    std::size_t dealt = 0;
    for (std::uint32_t i = 0; i < outcomes; ++i) {
      const auto index = static_cast<std::size_t>(reader.get_u64());
      if (job.works == nullptr) {
        const std::uint64_t bits = reader.get_u64();
        const std::string word = "sent pair word #" + std::to_string(index);
        while (dealt < list.size() &&
               static_cast<std::size_t>(list[dealt]) != index) {
          ++dealt;
        }
        if (dealt == list.size()) {
          throw protocol_error(word + ", which the driver did not deal it");
        }
        ++dealt;
        const std::uint64_t pairs =
            pair_count(job.num_nodes) - index * kPairsPerWord;
        if (pairs < kPairsPerWord && bits >> pairs != 0) {
          throw protocol_error(word + " with a bit past the last of the " +
                               std::to_string(pair_count(job.num_nodes)) +
                               " pairs");
        }
        job.removed[index] = bits;
        continue;
      }
      std::vector<EdgeWork>& works = *job.works;
      const VarId x = reader.get_i32();
      const VarId y = reader.get_i32();
      const std::uint64_t accepted = reader.get_u64();
      const std::string removal = "removed work #" + std::to_string(index) +
                                  " (" + std::to_string(x) + ", " +
                                  std::to_string(y) + ")";
      if (index >= works.size() || works[index].x != x ||
          works[index].y != y) {
        throw protocol_error(removal +
                             ", which does not match the driver's work list");
      }
      EdgeWork& work = works[index];
      // Checked here because the commit's unranking only asserts the
      // bound.
      if (accepted >= work.total_tests()) {
        throw protocol_error(removal + " at test rank " +
                             std::to_string(accepted) +
                             ", but the driver's work has " +
                             std::to_string(work.total_tests()) + " tests");
      }
      work.accepted = accepted;
    }
  }

  /// Rung 4: the group is gone (or never forked). Finish this depth's
  /// unmerged units in-process with rank-identical semantics; every
  /// later depth of the run comes back here with all of its units.
  std::int64_t finish_depth_degraded(const DepthJob& job,
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
        local_clones_ = serial_clones(
            prototype, static_cast<std::size_t>(std::max<std::int32_t>(
                           1, rank_count_ * rank_threads_)));
      }
      local = run_shard(job, indices, local_clones_);
    }
    depth_stats_.push_back(
        {job.depth, total_so_far + local, depth_timer.seconds(),
         /*gather_seconds=*/0.0, /*max_rank_seconds=*/0.0,
         /*max_rank_tests=*/0,
         static_cast<std::int32_t>(events_.size() - events_before)});
    return total_so_far + local;
  }

  /// Resolves the run's configuration at its first depth and gives every
  /// rank an empty slot and a fault injector. When the fault schedule
  /// declares the run's first forks failed, records the degrade event and
  /// leaves the run degraded.
  void configure(std::int32_t depth, const PcOptions& options) {
    configured_ = true;
    schedule_ = options.fault_schedule.empty()
                    ? FaultSchedule::from_env()
                    : FaultSchedule::parse(options.fault_schedule);
    deadline_ms_ =
        env_positive_int("FASTBNS_RANK_TIMEOUT_MS", kDefaultRankTimeoutMs);
    max_restarts_ = options.max_rank_restarts;
    rank_count_ = resolve_rank_count(options.rank_count);
    rank_threads_ = resolve_rank_threads(options.rank_threads, rank_count_,
                                         options.num_threads);
    for (std::int32_t rank = 0; rank < rank_count_; ++rank) {
      state_.push_back({RankFaultInjector(schedule_, rank)});
    }
    group_ = ProcessGroup(rank_count_);
    if (schedule_.spawn_should_fail(/*rank=*/-1, /*generation=*/0)) {
      record_event(depth, -1, RecoveryAction::kDegrade,
                   "initial spawn declared failed by the fault schedule — "
                   "running in-process");
      degraded_ = true;
    }
  }

  ProcessGroup group_;
  bool configured_ = false;
  std::int32_t rank_count_ = 0;
  std::int32_t rank_threads_ = 1;
  FaultSchedule schedule_;
  int deadline_ms_ = kDefaultRankTimeoutMs;
  std::int32_t max_restarts_ = 1;
  std::vector<RankState> state_;
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
