// Tiny command-line flag parser used by examples and benches.
//
// Supports --name=value, --name value, and boolean --name. Unknown flags
// are an error so typos in experiment scripts fail fast instead of running
// the wrong configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fastbns {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declare flags before parse(). `help` is printed by usage().
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value);
  void add_bool_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false (after printing usage) on --help or error.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  /// Numeric getters parse the whole value: trailing text, no digits or
  /// an out-of-range value throws std::invalid_argument naming the flag
  /// and the value.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// get_int for flags stored in a 32-bit field: a value outside int32_t
  /// throws instead of wrapping.
  [[nodiscard]] std::int32_t get_int32(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  /// Accepts exactly true, false, 1, 0, yes and no; any other value
  /// throws std::invalid_argument naming the flag and the value.
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Comma-separated integer list, e.g. --threads=1,2,4,8; each item is
  /// parsed like get_int.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(const std::string& name) const;
  /// Comma-separated string list.
  [[nodiscard]] std::vector<std::string> get_list(const std::string& name) const;

  void print_usage() const;

 private:
  struct Flag {
    std::string help;
    std::string value;
    bool is_bool = false;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace fastbns
