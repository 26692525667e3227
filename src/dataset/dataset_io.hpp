// CSV persistence for datasets: header row of variable names, one value
// per cell. Integer CSVs match the format the FastBN reference release
// consumes; the auto-detecting loader additionally accepts numeric
// (floating-point) columns and returns a continuous dataset.
#pragma once

#include <string>
#include <vector>

#include "dataset/dataset.hpp"
#include "dataset/discrete_dataset.hpp"

namespace fastbns {

struct NamedDataset {
  DiscreteDataset data;
  std::vector<std::string> names;
};

/// Runtime-kinded result of the auto-detecting loader.
struct NamedData {
  Dataset data;
  std::vector<std::string> names;
};

/// Writes `data` to CSV. Returns false on I/O failure.
bool save_csv(const DiscreteDataset& data, const std::vector<std::string>& names,
              const std::string& path);

/// Continuous overload: one "%.17g" double per cell (round-trips exactly
/// through load_csv_auto). Returns false on I/O failure.
bool save_csv(const ContinuousDataset& data,
              const std::vector<std::string>& names, const std::string& path);

/// Loads a CSV written by save_csv (or any integer CSV with a header).
/// A header name loses one surrounding pair of double quotes, as R's
/// write.csv writes them. Cardinalities are inferred as max(value)+1 per
/// column unless `cardinalities` is provided. Throws std::runtime_error on
/// parse errors: it names the first cell that is not an integer in
/// [0, 255] or not below its declared cardinality (empty cells included)
/// by row and column, a ragged row by row and cell counts, and an empty
/// header name by column position.
[[nodiscard]] NamedDataset load_csv(
    const std::string& path, DataLayout layout = DataLayout::kColumnMajor,
    const std::vector<std::int32_t>& cardinalities = {});

/// Auto-detecting loader: when every cell parses as an integer in byte
/// range the file loads as a discrete dataset (identical to load_csv);
/// when every cell parses as a finite floating-point number it loads as a
/// continuous one (any fractional value, exponent, or integer outside
/// [0, 255] switches the whole file to continuous — columns are never
/// mixed-kind). Throws std::runtime_error naming the first
/// non-numeric cell otherwise ("nan" and "inf" included).
[[nodiscard]] NamedData load_csv_auto(
    const std::string& path, DataLayout layout = DataLayout::kColumnMajor);

}  // namespace fastbns
