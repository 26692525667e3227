// The names PcOptions::ipc_transport accepts. The multi-process engine
// has one rank channel — a fork-inherited pipe pair per rank (see
// ipc/process_group.hpp) — so every accepted name means pipe.
#pragma once

#include <stdexcept>
#include <string>

namespace fastbns {

/// Resolves PcOptions::ipc_transport: "", "auto" and "pipe" all resolve
/// to "pipe". Anything else throws std::invalid_argument naming the
/// value and the accepted names — the PcOptions::validate path.
[[nodiscard]] inline std::string resolve_transport_name(
    const std::string& name) {
  if (name.empty() || name == "auto" || name == "pipe") return "pipe";
  throw std::invalid_argument("PcOptions::ipc_transport \"" + name +
                              "\" is not a known transport; known "
                              "transports: auto pipe");
}

}  // namespace fastbns
