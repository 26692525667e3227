#include "dataset/dataset_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>

#include "scoped_temp_dir.hpp"

namespace fastbns {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_.path() / name).string();
  }

  /// Writes `contents` to `name` and expects both loaders to reject it
  /// with a std::runtime_error whose message holds every one of `parts`.
  void expect_both_loaders_reject(const std::string& name,
                                  const std::string& contents,
                                  std::initializer_list<const char*> parts) {
    std::ofstream(path(name)) << contents;
    for (const bool automatic : {false, true}) {
      try {
        if (automatic) {
          (void)load_csv_auto(path(name));
        } else {
          (void)load_csv(path(name));
        }
        ADD_FAILURE() << "expected std::runtime_error, auto=" << automatic;
      } catch (const std::runtime_error& error) {
        const std::string message = error.what();
        for (const char* part : parts) {
          EXPECT_NE(message.find(part), std::string::npos) << message;
        }
      }
    }
  }

  ScopedTempDir dir_{"fastbns_io_test_"};
};

TEST_F(DatasetIoTest, RoundTripPreservesValuesAndNames) {
  DiscreteDataset data(3, 5, {2, 3, 4}, DataLayout::kBoth);
  for (Count s = 0; s < 5; ++s) {
    for (VarId v = 0; v < 3; ++v) {
      data.set(s, v, static_cast<DataValue>((s * 2 + v) % data.cardinality(v)));
    }
  }
  const std::vector<std::string> names = {"A", "B", "C"};
  ASSERT_TRUE(save_csv(data, names, path("roundtrip.csv")));

  const NamedDataset loaded = load_csv(path("roundtrip.csv"));
  EXPECT_EQ(loaded.names, names);
  ASSERT_EQ(loaded.data.num_vars(), 3);
  ASSERT_EQ(loaded.data.num_samples(), 5);
  for (Count s = 0; s < 5; ++s) {
    for (VarId v = 0; v < 3; ++v) {
      EXPECT_EQ(loaded.data.value(s, v), data.value(s, v));
    }
  }
}

TEST_F(DatasetIoTest, MissingNamesBecomeVPrefixed) {
  DiscreteDataset data(2, 1, {2, 2}, DataLayout::kColumnMajor);
  ASSERT_TRUE(save_csv(data, {}, path("unnamed.csv")));
  const NamedDataset loaded = load_csv(path("unnamed.csv"));
  EXPECT_EQ(loaded.names, (std::vector<std::string>{"V0", "V1"}));
}

TEST_F(DatasetIoTest, CardinalityInferredAsMaxPlusOne) {
  std::ofstream out(path("infer.csv"));
  out << "x,y\n0,2\n1,0\n0,1\n";
  out.close();
  const NamedDataset loaded = load_csv(path("infer.csv"));
  EXPECT_EQ(loaded.data.cardinality(0), 2);
  EXPECT_EQ(loaded.data.cardinality(1), 3);
}

TEST_F(DatasetIoTest, ExplicitCardinalitiesOverrideInference) {
  std::ofstream out(path("explicit.csv"));
  out << "x,y\n0,1\n";
  out.close();
  const NamedDataset loaded =
      load_csv(path("explicit.csv"), DataLayout::kColumnMajor, {4, 4});
  EXPECT_EQ(loaded.data.cardinality(0), 4);
}

TEST_F(DatasetIoTest, RaggedRowsFail) {
  // Blank lines are skipped, so the short row is data row 2.
  expect_both_loaders_reject("ragged.csv", "x,y,z\n0,1,0\n\n1,0\n",
                             {"row 2", "has 2 cells, expected 3"});
}

TEST_F(DatasetIoTest, ValueBeyondDeclaredCardinalityFails) {
  std::ofstream out(path("overflow.csv"));
  out << "x,y\n0,1\n1,0\n0,2\n";
  out.close();
  try {
    (void)load_csv(path("overflow.csv"), DataLayout::kColumnMajor, {2, 2});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    for (const char* part :
         {"\"2\"", "row 3", "column y", "declared cardinality 2"}) {
      EXPECT_NE(message.find(part), std::string::npos) << message;
    }
  }
  // The value at the cardinality's last state loads.
  const NamedDataset loaded =
      load_csv(path("overflow.csv"), DataLayout::kColumnMajor, {2, 3});
  EXPECT_EQ(loaded.data.value(2, 1), 2);
}

TEST_F(DatasetIoTest, RowEndingInACommaIsAnEmptyCellNamedByRowAndColumn) {
  expect_both_loaders_reject("trailing.csv", "A,B\n0,1\n1,\n",
                             {"cell \"\"", "row 2", "column B"});
}

TEST_F(DatasetIoTest, HeaderWithAnEmptyNameIsRejectedByPosition) {
  expect_both_loaders_reject("empty_name.csv", "A,B,\n0,1,0\n",
                             {"header column 3", "empty name"});
}

TEST_F(DatasetIoTest, QuotedHeaderNamesLoseOneSurroundingPairOfQuotes) {
  // R's write.csv quotes every header name; both loaders read the bare
  // name, strip one pair only, and leave an unquoted name as it is.
  std::ofstream(path("quoted.csv")) << "\"A\", B ,\"\"C\"\"\n0,1,0\n1,0,1\n";
  const std::vector<std::string> expected = {"A", "B", "\"C\""};
  EXPECT_EQ(load_csv(path("quoted.csv")).names, expected);
  const NamedData automatic = load_csv_auto(path("quoted.csv"));
  EXPECT_EQ(automatic.names, expected);
  EXPECT_TRUE(automatic.data.is_discrete());
  std::ofstream(path("quoted_cont.csv")) << "\"x\",\"y\"\n0.5,1\n";
  EXPECT_EQ(load_csv_auto(path("quoted_cont.csv")).names,
            (std::vector<std::string>{"x", "y"}));
  // A name that is empty once its quotes are gone is still rejected.
  expect_both_loaders_reject("quoted_empty.csv", "\"A\",\"\"\n0,1\n",
                             {"header column 2", "empty name"});
}

TEST_F(DatasetIoTest, MissingFileFails) {
  EXPECT_THROW((void)load_csv(path("does_not_exist.csv")), std::runtime_error);
}

TEST_F(DatasetIoTest, WindowsLineEndingsHandled) {
  std::ofstream out(path("crlf.csv"), std::ios::binary);
  out << "x,y\r\n1,0\r\n";
  out.close();
  const NamedDataset loaded = load_csv(path("crlf.csv"));
  EXPECT_EQ(loaded.data.value(0, 0), 1);
  EXPECT_EQ(loaded.data.value(0, 1), 0);
}

TEST_F(DatasetIoTest, AutoLoaderDetectsIntegerFileAsDiscrete) {
  std::ofstream out(path("auto_discrete.csv"));
  out << "a,b\n0,2\n1,0\n1,1\n";
  out.close();
  const NamedData loaded = load_csv_auto(path("auto_discrete.csv"));
  ASSERT_TRUE(loaded.data.is_discrete());
  const DiscreteDataset& data = loaded.data.discrete();
  EXPECT_EQ(data.cardinality(0), 2);
  EXPECT_EQ(data.cardinality(1), 3);
  EXPECT_EQ(data.value(0, 1), 2);
  // Same file through the classic loader: identical dataset.
  const NamedDataset classic = load_csv(path("auto_discrete.csv"));
  for (Count s = 0; s < data.num_samples(); ++s) {
    for (VarId v = 0; v < data.num_vars(); ++v) {
      EXPECT_EQ(data.value(s, v), classic.data.value(s, v));
    }
  }
}

TEST_F(DatasetIoTest, AutoLoaderSwitchesToContinuousOnFractionalCell) {
  std::ofstream out(path("auto_cont.csv"));
  // The first row is all byte-range integers; the 2.5 in row two flips
  // the whole file (earlier rows included) to continuous.
  out << "a,b\n1,3\n2.5,-1\n0,1e2\n";
  out.close();
  const NamedData loaded = load_csv_auto(path("auto_cont.csv"));
  ASSERT_TRUE(loaded.data.is_continuous());
  const ContinuousDataset& data = loaded.data.continuous();
  EXPECT_EQ(data.value(0, 0), 1.0);
  EXPECT_EQ(data.value(1, 0), 2.5);
  EXPECT_EQ(data.value(1, 1), -1.0);
  EXPECT_EQ(data.value(2, 1), 100.0);
}

TEST_F(DatasetIoTest, ContinuousRoundTripIsExact) {
  ContinuousDataset data(2, 3);
  data.set(0, 0, 1.0 / 3.0);
  data.set(1, 0, -2.718281828459045);
  data.set(2, 0, 1e-17);
  data.set(0, 1, 0.0);
  data.set(1, 1, 1234567.89);
  data.set(2, 1, -0.1);
  const std::vector<std::string> names = {"u", "v"};
  ASSERT_TRUE(save_csv(data, names, path("cont_roundtrip.csv")));
  const NamedData loaded = load_csv_auto(path("cont_roundtrip.csv"));
  EXPECT_EQ(loaded.names, names);
  ASSERT_TRUE(loaded.data.is_continuous());
  for (Count s = 0; s < 3; ++s) {
    for (VarId v = 0; v < 2; ++v) {
      // %.17g round-trips doubles bit-exactly.
      EXPECT_EQ(loaded.data.continuous().value(s, v), data.value(s, v));
    }
  }
}

TEST_F(DatasetIoTest, AutoLoaderNamesTheOffendingCell) {
  std::ofstream out(path("auto_bad.csv"));
  out << "a,b\n1,2\n1,oops\n";
  out.close();
  try {
    (void)load_csv_auto(path("auto_bad.csv"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("oops"), std::string::npos) << message;
    EXPECT_NE(message.find("row 2"), std::string::npos) << message;
    EXPECT_NE(message.find("column b"), std::string::npos) << message;
  }
}

TEST_F(DatasetIoTest, AutoLoaderRejectsNonFiniteCells) {
  // std::stod reads these; one such cell used to load as a NaN or
  // infinite sample and silently change the learned structure.
  for (const char* cell : {"nan", "inf", "-inf"}) {
    std::ofstream out(path("auto_nonfinite.csv"));
    out << "a,b\n0.5,1.25\n2.5," << cell << "\n";
    out.close();
    try {
      (void)load_csv_auto(path("auto_nonfinite.csv"));
      ADD_FAILURE() << "expected std::runtime_error for " << cell;
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(std::string("\"") + cell + "\""),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("row 2"), std::string::npos) << message;
      EXPECT_NE(message.find("column b"), std::string::npos) << message;
    }
  }
}

TEST_F(DatasetIoTest, IntegerLoaderRejectsCellsThatAreNotBytes) {
  // std::stoi used to read "1.5" as 1 and "2x" as 2, and let "abc"
  // escape as std::invalid_argument.
  for (const char* cell : {"1.5", "2x", "abc", "", "256", "-1"}) {
    std::ofstream out(path("not_bytes.csv"));
    out << "x,y,z\n0,1,0\n1," << cell << ",0\n";
    out.close();
    try {
      (void)load_csv(path("not_bytes.csv"));
      ADD_FAILURE() << "expected std::runtime_error for \"" << cell << '"';
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(std::string("\"") + cell + "\""),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("row 2"), std::string::npos) << message;
      EXPECT_NE(message.find("column y"), std::string::npos) << message;
    } catch (...) {
      ADD_FAILURE() << "\"" << cell << "\" threw something other than "
                    << "std::runtime_error";
    }
  }
}

}  // namespace
}  // namespace fastbns
