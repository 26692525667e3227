// The single place skeleton backends register: string names (canonical +
// CLI aliases) ↔ factories ↔ EngineKind. The driver, the bench runner,
// and every CLI parser resolve engines here, so adding a backend means
// one registration — not editing a switch in the driver plus five
// parsers.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/skeleton_engine.hpp"
#include "pc/pc_options.hpp"

namespace fastbns {

using EngineFactory = std::function<std::unique_ptr<SkeletonEngine>()>;

struct EngineInfo {
  EngineKind kind = EngineKind::kCiParallel;
  /// Canonical name; to_string(kind) returns this for the first engine
  /// registered with `kind`.
  std::string name;
  /// Short CLI spellings ("ci", "edge", ...) accepted alongside the
  /// canonical name.
  std::vector<std::string> aliases;
  std::string description;
  /// Trait mirrors of the engine's behavioural virtuals, so metadata
  /// consumers (bench runner, tests) need not construct an instance.
  /// Filled in by register_engine from a probe instance — caller-supplied
  /// values are ignored, so they cannot drift from the engine.
  bool sample_parallel_test = false;
  bool supports_endpoint_grouping = true;
};

class EngineRegistry {
 public:
  /// A standalone registry pre-populated with the builtin engines (the
  /// five paper engines plus the process extension). Most callers want the
  /// process-wide instance() instead; standalone registries exist for
  /// tests and sandboxed extension experiments.
  EngineRegistry();

  /// The process-wide registry. Registration is not thread-safe;
  /// register extensions during startup.
  [[nodiscard]] static EngineRegistry& instance();

  /// Registers a backend. Throws std::invalid_argument when the
  /// canonical name or an alias collides with an existing registration,
  /// or when a probe instance's name() disagrees with info.name.
  /// Reusing an EngineKind is allowed (lookups by kind resolve to the
  /// first registration), so experimental variants can piggyback on an
  /// existing kind while keeping a distinct name — by-name selection
  /// (PcOptions::engine_name) still reaches them.
  void register_engine(EngineInfo info, EngineFactory factory);

  /// Factory lookups; the string overload accepts canonical names and
  /// aliases and throws std::invalid_argument (listing the valid names)
  /// for anything unknown.
  [[nodiscard]] std::unique_ptr<SkeletonEngine> create(EngineKind kind) const;
  [[nodiscard]] std::unique_ptr<SkeletonEngine> create(
      std::string_view name) const;
  /// Resolves `options.engine_name` when set (by-name selection keeps
  /// kind-sharing extension engines reachable), `options.engine`
  /// otherwise — the lookup every driver entry point uses.
  [[nodiscard]] std::unique_ptr<SkeletonEngine> create(
      const PcOptions& options) const;

  /// Metadata lookups; nullptr when absent.
  [[nodiscard]] const EngineInfo* find(std::string_view name) const noexcept;
  [[nodiscard]] const EngineInfo* find(EngineKind kind) const noexcept;

  /// Canonical names in registration order (the five paper engines
  /// first).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  struct Entry {
    EngineInfo info;
    EngineFactory factory;
  };
  [[nodiscard]] const Entry* entry_for(std::string_view name) const noexcept;
  std::vector<Entry> entries_;
};

/// Resolves a canonical engine name or alias to its kind; throws
/// std::invalid_argument listing the valid names on failure. Inverse of
/// to_string(EngineKind): engine_from_string(to_string(k)) == k for every
/// registered kind.
[[nodiscard]] EngineKind engine_from_string(std::string_view name);

/// Canonical names of every registered engine, sorted — the stable order
/// CLI help text and registry-driven tests enumerate, independent of
/// registration sequence.
[[nodiscard]] std::vector<std::string> list_engines();

}  // namespace fastbns
