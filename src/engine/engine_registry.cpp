#include "engine/engine_registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/engines.hpp"

namespace fastbns {
namespace {

std::string known_names_message() {
  std::string message = "known engines:";
  for (const std::string& name : list_engines()) {
    message += ' ';
    message += name;
  }
  return message;
}

}  // namespace

// One row per EngineKind, in enum order; engines.hpp documents each.
EngineRegistry::EngineRegistry()
    : entries_{
          {{EngineKind::kNaiveSequential, "naive-seq", {"naive"}},
           make_naive_sequential_engine},
          {{EngineKind::kFastSequential, "fastbns-seq", {"seq", "fast-seq"}},
           make_fast_sequential_engine},
          {{EngineKind::kEdgeParallel, "edge-parallel", {"edge"}},
           make_edge_parallel_engine},
          {{EngineKind::kSampleParallel, "sample-parallel", {"sample"}},
           make_sample_parallel_engine},
          {{EngineKind::kCiParallel,
            "fastbns-par(ci-level)",
            {"ci", "ci-parallel", "fastbns-par", "auto"}},
           make_ci_parallel_engine},
          {{EngineKind::kProcess,
            "process(rank-partition)",
            {"process", "mpp"}},
           make_process_engine},
      } {}

const EngineRegistry& EngineRegistry::instance() {
  static const EngineRegistry registry;
  return registry;
}

const EngineRegistry::Entry* EngineRegistry::entry_for(
    std::string_view name) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.info.name == name) return &entry;
    for (const std::string& alias : entry.info.aliases) {
      if (alias == name) return &entry;
    }
  }
  return nullptr;
}

const EngineRegistry::Entry* EngineRegistry::entry_for(
    EngineKind kind) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.info.kind == kind) return &entry;
  }
  return nullptr;
}

std::unique_ptr<SkeletonEngine> EngineRegistry::create(EngineKind kind) const {
  const Entry* entry = entry_for(kind);
  if (entry == nullptr) {
    throw std::invalid_argument("no engine for this EngineKind");
  }
  return entry->factory();
}

std::unique_ptr<SkeletonEngine> EngineRegistry::create(
    std::string_view name) const {
  const Entry* entry = entry_for(name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown engine \"" + std::string(name) +
                                "\"; " + known_names_message());
  }
  return entry->factory();
}

std::unique_ptr<SkeletonEngine> EngineRegistry::create(
    const PcOptions& options) const {
  return create(options.engine);
}

const EngineInfo* EngineRegistry::find(std::string_view name) const noexcept {
  const Entry* entry = entry_for(name);
  return entry == nullptr ? nullptr : &entry->info;
}

const EngineInfo* EngineRegistry::find(EngineKind kind) const noexcept {
  const Entry* entry = entry_for(kind);
  return entry == nullptr ? nullptr : &entry->info;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const Entry& entry : entries_) result.push_back(entry.info.name);
  return result;
}

EngineKind engine_from_string(std::string_view name) {
  const EngineInfo* info = EngineRegistry::instance().find(name);
  if (info == nullptr) {
    throw std::invalid_argument("unknown engine \"" + std::string(name) +
                                "\"; " + known_names_message());
  }
  return info->kind;
}

std::vector<std::string> list_engines() {
  // Sorted so CLI help, logs and registry-driven tests see one stable
  // alphabetical order.
  std::vector<std::string> names = EngineRegistry::instance().names();
  std::sort(names.begin(), names.end());
  return names;
}

// Declared in pc/pc_options.hpp; lives here so the registry's canonical
// names are the single source every CLI parser and log line agrees on.
std::string to_string(EngineKind kind) {
  const EngineInfo* info = EngineRegistry::instance().find(kind);
  return info == nullptr ? "unknown" : info->name;
}

}  // namespace fastbns
