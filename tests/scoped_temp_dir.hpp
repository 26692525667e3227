// Scratch directory for suites that write files. mkdtemp gives each
// instance a fresh directory under the system temp dir, so two runs of
// one suite at once (two build trees tested together on one machine)
// never write into or delete each other's files.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace fastbns {

class ScopedTempDir {
 public:
  /// Creates <temp dir>/<prefix>XXXXXX; throws std::runtime_error when
  /// mkdtemp fails.
  explicit ScopedTempDir(const std::string& prefix) {
    std::string pattern =
        (std::filesystem::temp_directory_path() / (prefix + "XXXXXX"))
            .string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + pattern);
    }
    path_ = pattern;
  }
  /// Removes the directory and everything under it; a failure is
  /// ignored, since a destructor must not throw.
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace fastbns
