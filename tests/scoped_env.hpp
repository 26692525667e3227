// setenv/unsetenv guard for tests that steer the library through its
// environment variables (FASTBNS_FAULT_SCHEDULE, FASTBNS_RANK_TIMEOUT_MS,
// ...): the prior value, or its absence, comes back on scope exit even
// when an assertion fails.
#pragma once

#include <cstdlib>
#include <string>

namespace fastbns {

class ScopedEnv {
 public:
  /// Sets `name` to `value`, or unsets it when `value` is null.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* previous = std::getenv(name);
    if (previous != nullptr) saved_ = previous;
    had_value_ = previous != nullptr;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string saved_;
  bool had_value_ = false;
};

}  // namespace fastbns
