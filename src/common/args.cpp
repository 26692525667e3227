#include "common/args.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <type_traits>

namespace fastbns {
namespace {

/// Parses all of `text` as a T. Trailing text, no digits or a value out
/// of T's range throws std::invalid_argument naming the flag and value.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::result_out_of_range) {
    throw std::invalid_argument("--" + flag + ": \"" + text +
                                "\" is out of range");
  }
  if (error != std::errc{} || stop != end) {
    throw std::invalid_argument(
        "--" + flag + ": \"" + text + "\" is not " +
        (std::is_integral_v<T> ? "an integer" : "a number"));
  }
  return value;
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         const std::string& default_value) {
  flags_[name] = Flag{help, default_value, /*is_bool=*/false};
  order_.push_back(name);
}

void ArgParser::add_bool_flag(const std::string& name, const std::string& help) {
  flags_[name] = Flag{help, "false", /*is_bool=*/true};
  order_.push_back(name);
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      print_usage();
      return false;
    }
    if (token.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected positional argument '%s'\n",
                   program_.c_str(), token.c_str());
      print_usage();
      return false;
    }
    token = token.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      value = token.substr(eq + 1);
      token = token.substr(0, eq);
      has_value = true;
    }
    const auto it = flags_.find(token);
    if (it == flags_.end()) {
      std::fprintf(stderr, "%s: unknown flag '--%s'\n", program_.c_str(),
                   token.c_str());
      print_usage();
      return false;
    }
    if (it->second.is_bool) {
      it->second.value = has_value ? value : "true";
    } else if (has_value) {
      it->second.value = value;
    } else if (i + 1 < argc) {
      it->second.value = argv[++i];
    } else {
      std::fprintf(stderr, "%s: flag '--%s' expects a value\n",
                   program_.c_str(), token.c_str());
      return false;
    }
  }
  return true;
}

std::string ArgParser::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::invalid_argument("undeclared flag: " + name);
  }
  return it->second.value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return parse_number<std::int64_t>(name, get(name));
}

std::int32_t ArgParser::get_int32(const std::string& name) const {
  return parse_number<std::int32_t>(name, get(name));
}

double ArgParser::get_double(const std::string& name) const {
  return parse_number<double>(name, get(name));
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string value = get(name);
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw std::invalid_argument("--" + name + ": \"" + value +
                              "\" is not true, false, 1, 0, yes or no");
}

std::vector<std::int64_t> ArgParser::get_int_list(const std::string& name) const {
  std::vector<std::int64_t> values;
  for (const auto& item : get_list(name)) {
    values.push_back(parse_number<std::int64_t>(name, item));
  }
  return values;
}

std::vector<std::string> ArgParser::get_list(const std::string& name) const {
  std::vector<std::string> items;
  std::stringstream stream(get(name));
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

void ArgParser::print_usage() const {
  std::fprintf(stderr, "%s — %s\n\nFlags:\n", program_.c_str(),
               description_.c_str());
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    std::fprintf(stderr, "  --%-18s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.value.c_str());
  }
}

}  // namespace fastbns
