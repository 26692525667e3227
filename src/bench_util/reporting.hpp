// Bench output conventions: print the paper-style table to stdout and
// persist the same rows as CSV and machine-readable JSON under
// bench_results/.
#pragma once

#include <string>

#include "common/table_printer.hpp"

namespace fastbns {

/// Prints `table` with a titled banner, writes `<stem>.csv` to the bench
/// result directory, and mirrors the rows as `BENCH_<stem>.json` (see
/// bench_json) — the file the perf trajectory tooling ingests.
void emit_table(const std::string& title, const std::string& stem,
                const TablePrinter& table);

/// The JSON document emit_table writes: one object per data row keyed by
/// header, cells emitted as numbers when they parse as one —
/// {"bench": stem, "title": ..., "context": {...}, "headers": [...],
/// "rows": [{...}]}. The context block (bench_context_json) records the
/// machine the numbers were taken on.
[[nodiscard]] std::string bench_json(const std::string& title,
                                     const std::string& stem,
                                     const TablePrinter& table);

/// The machine-context object embedded in every BENCH_*.json: the NUMA
/// node count (the node<k> entries under /sys/devices/system/node, 1
/// when that directory is unreadable), so a multi-socket run is told
/// apart; the OpenMP default thread count; whether OMP_PROC_BIND /
/// OMP_PLACES binding is active; and the worker-rank count + IPC
/// transport declared via set_bench_rank_context. A bench number without
/// the machine it ran on is unreproducible.
[[nodiscard]] std::string bench_context_json();

/// Benchmark stub: perfbench calls it. It records nothing.
void set_bench_pinning_policy(const std::string& policy);

/// Declares the multi-process configuration for subsequent emit_table /
/// bench_json calls: the largest worker-rank count the bench swept
/// (0 = single-process, the default) and the IPC transport the ranks
/// sent their removals over ("none" when single-process; the process
/// engine's is "fork+pipe"). Emitted as the context block's
/// `rank_count` / `ipc_transport` fields so a BENCH_*.json records how
/// it was produced. Process-global, like the result directory
/// convention.
void set_bench_rank_context(int rank_count, const std::string& transport);

}  // namespace fastbns
