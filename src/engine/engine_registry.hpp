// The fixed table of builtin skeleton engines: one per EngineKind, with
// its string names (canonical + CLI aliases) and factory.
// learn_skeleton, the bench runner and every CLI parser resolve engines
// here. A backend outside the table runs through learn_skeleton's engine
// overload.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/skeleton_engine.hpp"
#include "pc/pc_options.hpp"

namespace fastbns {

struct EngineInfo {
  EngineKind kind = EngineKind::kCiParallel;
  /// Canonical name; to_string(kind) returns it.
  std::string name;
  /// Short CLI spellings ("ci", "edge", ...) accepted alongside the
  /// canonical name.
  std::vector<std::string> aliases;
};

class EngineRegistry {
 public:
  /// The process-wide table of the six builtin engines (the five paper
  /// engines plus the process extension).
  [[nodiscard]] static const EngineRegistry& instance();

  /// Factory lookups; the string overload accepts canonical names and
  /// aliases and throws std::invalid_argument (listing the valid names)
  /// for anything unknown. The options overload builds `options.engine`.
  [[nodiscard]] std::unique_ptr<SkeletonEngine> create(EngineKind kind) const;
  [[nodiscard]] std::unique_ptr<SkeletonEngine> create(
      std::string_view name) const;
  [[nodiscard]] std::unique_ptr<SkeletonEngine> create(
      const PcOptions& options) const;

  /// Metadata lookups; nullptr when absent.
  [[nodiscard]] const EngineInfo* find(std::string_view name) const noexcept;
  [[nodiscard]] const EngineInfo* find(EngineKind kind) const noexcept;

  /// Canonical names in table order (the five paper engines first).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  EngineRegistry();

  struct Entry {
    EngineInfo info;
    std::unique_ptr<SkeletonEngine> (*factory)();
  };
  [[nodiscard]] const Entry* entry_for(std::string_view name) const noexcept;
  [[nodiscard]] const Entry* entry_for(EngineKind kind) const noexcept;
  std::vector<Entry> entries_;
};

/// Resolves a canonical engine name or alias to its kind; throws
/// std::invalid_argument listing the valid names on failure. Inverse of
/// to_string(EngineKind): engine_from_string(to_string(k)) == k for every
/// kind.
[[nodiscard]] EngineKind engine_from_string(std::string_view name);

/// Canonical names of every engine, sorted — the stable order CLI help
/// text and registry-driven tests enumerate.
[[nodiscard]] std::vector<std::string> list_engines();

}  // namespace fastbns
