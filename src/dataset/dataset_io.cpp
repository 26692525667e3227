#include "dataset/dataset_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace fastbns {
namespace {

/// Every comma-separated field of `line`, trimmed of surrounding
/// whitespace and CR: "1," has two fields, the second empty.
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t end = line.find(',', begin);
    const std::string cell =
        line.substr(begin, end == std::string::npos ? end : end - begin);
    const auto first = cell.find_first_not_of(" \t\r");
    const auto last = cell.find_last_not_of(" \t\r");
    cells.push_back(first == std::string::npos
                        ? std::string{}
                        : cell.substr(first, last - first + 1));
    if (end == std::string::npos) return cells;
    begin = end + 1;
  }
}

/// The header row's variable names, each stripped of one surrounding
/// pair of double quotes (R's write.csv quotes every name). Throws on an
/// empty file or a name empty after stripping (a blank header is one),
/// naming the name's 1-based column.
std::vector<std::string> read_names(std::ifstream& in, const char* loader,
                                    const std::string& path) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error(std::string(loader) + ": empty file " + path);
  }
  std::vector<std::string> names = split_csv_line(line);
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::string& name = names[i];
    if (name.size() >= 2 && name.front() == '"' && name.back() == '"') {
      name = name.substr(1, name.size() - 2);
    }
    if (name.empty()) {
      throw std::runtime_error(std::string(loader) + ": header column " +
                               std::to_string(i + 1) + " in " + path +
                               " has an empty name");
    }
  }
  return names;
}

/// Reads the next non-empty data row's cells, counting 1-based data rows
/// in `row`. False at the end of the file. Throws when the row's cell
/// count differs from the header's, naming the row and both counts.
bool read_row(std::ifstream& in, const char* loader, const std::string& path,
              std::size_t num_vars, Count& row,
              std::vector<std::string>& cells) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++row;
    cells = split_csv_line(line);
    if (cells.size() != num_vars) {
      throw std::runtime_error(
          std::string(loader) + ": ragged row " + std::to_string(row) +
          " in " + path + " has " + std::to_string(cells.size()) +
          " cells, expected " + std::to_string(num_vars));
    }
    return true;
  }
  return false;
}

/// Writes the header row shared by both save_csv overloads.
void write_header(std::ofstream& out, VarId num_vars,
                  const std::vector<std::string>& names) {
  for (VarId v = 0; v < num_vars; ++v) {
    if (v != 0) out << ',';
    if (static_cast<std::size_t>(v) < names.size() && !names[v].empty()) {
      out << names[v];
    } else {
      out << 'V' << v;
    }
  }
  out << '\n';
}

/// Integer in [0, 255] — the discrete-cell grammar. `value` receives the
/// parse on success.
bool parse_byte_cell(const std::string& cell, int& value) {
  if (cell.empty()) return false;
  std::size_t consumed = 0;
  try {
    value = std::stoi(cell, &consumed);
  } catch (const std::exception&) {
    return false;
  }
  return consumed == cell.size() && value >= 0 && value <= 255;
}

/// Any finite floating-point number. `value` receives the parse.
/// std::stod also reads "nan" and "inf", which are not data.
bool parse_double_cell(const std::string& cell, double& value) {
  if (cell.empty()) return false;
  std::size_t consumed = 0;
  try {
    value = std::stod(cell, &consumed);
  } catch (const std::exception&) {
    return false;
  }
  return consumed == cell.size() && std::isfinite(value);
}

/// A loader's parse error naming the cell as written, its 1-based data
/// row, its column header and the file.
std::runtime_error bad_cell(const char* loader, const std::string& path,
                            const std::vector<std::string>& names,
                            const std::string& cell, Count row, VarId v,
                            const std::string& expected) {
  return std::runtime_error(std::string(loader) + ": cell \"" + cell +
                            "\" (row " + std::to_string(row) + ", column " +
                            names[v] + ") in " + path + " is " + expected);
}

}  // namespace

bool save_csv(const DiscreteDataset& data, const std::vector<std::string>& names,
              const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_header(out, data.num_vars(), names);
  for (Count s = 0; s < data.num_samples(); ++s) {
    for (VarId v = 0; v < data.num_vars(); ++v) {
      if (v != 0) out << ',';
      out << static_cast<int>(data.value(s, v));
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool save_csv(const ContinuousDataset& data,
              const std::vector<std::string>& names, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_header(out, data.num_vars(), names);
  char cell[64];
  for (Count s = 0; s < data.num_samples(); ++s) {
    for (VarId v = 0; v < data.num_vars(); ++v) {
      if (v != 0) out << ',';
      // 17 significant digits round-trip every double exactly.
      std::snprintf(cell, sizeof(cell), "%.17g", data.value(s, v));
      out << cell;
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

NamedDataset load_csv(const std::string& path, DataLayout layout,
                      const std::vector<std::int32_t>& cardinalities) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_csv: cannot open " + path);
  const std::vector<std::string> names = read_names(in, "load_csv", path);
  const auto num_vars = static_cast<VarId>(names.size());
  if (!cardinalities.empty() && cardinalities.size() != names.size()) {
    throw std::invalid_argument(
        "load_csv: " + std::to_string(cardinalities.size()) +
        " cardinalities declared for the " + std::to_string(names.size()) +
        " columns of " + path);
  }

  std::vector<std::vector<DataValue>> samples;
  std::vector<std::string> cells;
  Count row_index = 0;
  while (read_row(in, "load_csv", path, names.size(), row_index, cells)) {
    std::vector<DataValue> row(static_cast<std::size_t>(num_vars));
    for (VarId v = 0; v < num_vars; ++v) {
      int parsed = 0;
      if (!parse_byte_cell(cells[v], parsed)) {
        throw bad_cell("load_csv", path, names, cells[v], row_index, v,
                       "not an integer in [0, 255]");
      }
      if (!cardinalities.empty() && parsed >= cardinalities[v]) {
        throw bad_cell("load_csv", path, names, cells[v], row_index, v,
                       "not below the declared cardinality " +
                           std::to_string(cardinalities[v]));
      }
      row[v] = static_cast<DataValue>(parsed);
    }
    samples.push_back(std::move(row));
  }

  std::vector<std::int32_t> cards = cardinalities;
  if (cards.empty()) {
    cards.assign(static_cast<std::size_t>(num_vars), 1);
    for (const auto& row : samples) {
      for (VarId v = 0; v < num_vars; ++v) {
        cards[v] = std::max(cards[v], static_cast<std::int32_t>(row[v]) + 1);
      }
    }
  }

  DiscreteDataset data(num_vars, static_cast<Count>(samples.size()),
                       std::move(cards), layout);
  for (Count s = 0; s < data.num_samples(); ++s) {
    for (VarId v = 0; v < num_vars; ++v) {
      data.set(s, v, samples[static_cast<std::size_t>(s)][v]);
    }
  }
  return {std::move(data), names};
}

NamedData load_csv_auto(const std::string& path, DataLayout layout) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_csv_auto: cannot open " + path);
  const std::vector<std::string> names = read_names(in, "load_csv_auto", path);
  const auto num_vars = static_cast<VarId>(names.size());

  // One parsing pass: cells are kept as doubles (a byte-range integer is
  // exactly representable), and the first fractional / exponent /
  // out-of-byte-range cell switches the whole file to continuous.
  bool discrete = true;
  std::vector<std::vector<double>> samples;
  std::vector<std::string> cells;
  Count row_index = 0;
  while (read_row(in, "load_csv_auto", path, names.size(), row_index, cells)) {
    std::vector<double> row(static_cast<std::size_t>(num_vars));
    for (VarId v = 0; v < num_vars; ++v) {
      int byte_value = 0;
      double numeric = 0.0;
      if (discrete && parse_byte_cell(cells[v], byte_value)) {
        row[static_cast<std::size_t>(v)] = static_cast<double>(byte_value);
        continue;
      }
      if (!parse_double_cell(cells[v], numeric)) {
        throw bad_cell("load_csv_auto", path, names, cells[v], row_index, v,
                       "not numeric");
      }
      discrete = false;
      row[static_cast<std::size_t>(v)] = numeric;
    }
    samples.push_back(std::move(row));
  }

  const auto num_samples = static_cast<Count>(samples.size());
  if (discrete) {
    std::vector<std::int32_t> cards(static_cast<std::size_t>(num_vars), 1);
    for (const auto& row : samples) {
      for (VarId v = 0; v < num_vars; ++v) {
        cards[static_cast<std::size_t>(v)] =
            std::max(cards[static_cast<std::size_t>(v)],
                     static_cast<std::int32_t>(row[v]) + 1);
      }
    }
    DiscreteDataset data(num_vars, num_samples, std::move(cards), layout);
    for (Count s = 0; s < num_samples; ++s) {
      for (VarId v = 0; v < num_vars; ++v) {
        data.set(s, v,
                 static_cast<DataValue>(samples[static_cast<std::size_t>(s)][v]));
      }
    }
    return {Dataset(std::move(data)), names};
  }
  ContinuousDataset data(num_vars, num_samples);
  for (Count s = 0; s < num_samples; ++s) {
    for (VarId v = 0; v < num_vars; ++v) {
      data.set(s, v, samples[static_cast<std::size_t>(s)][v]);
    }
  }
  return {Dataset(std::move(data)), names};
}

}  // namespace fastbns
