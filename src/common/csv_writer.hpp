// CSV output for bench results so figures can be re-plotted downstream.
#pragma once

#include <string>

namespace fastbns {

/// Creates parent directories as needed and writes `content` to `path`.
/// Returns false (and warns on stderr) on I/O failure; benches keep
/// running because stdout already carries the results.
bool write_text_file(const std::string& path, const std::string& content);

/// Directory used by all benches, overridable via FASTBNS_RESULT_DIR.
[[nodiscard]] std::string bench_result_dir();

}  // namespace fastbns
