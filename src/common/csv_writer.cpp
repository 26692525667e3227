#include "common/csv_writer.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace fastbns {

bool write_text_file(const std::string& path, const std::string& content) {
  std::error_code ec;
  const std::filesystem::path file_path(path);
  if (file_path.has_parent_path()) {
    std::filesystem::create_directories(file_path.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "fastbns: cannot create directory for %s: %s\n",
                   path.c_str(), ec.message().c_str());
      return false;
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "fastbns: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

std::string bench_result_dir() {
  if (const char* env = std::getenv("FASTBNS_RESULT_DIR")) {
    return env;
  }
  return "bench_results";
}

}  // namespace fastbns
