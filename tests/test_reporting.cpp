// The bench_util JSON reporter: numeric cells stay bare JSON numbers,
// everything else — including the strtod-accepted-but-not-JSON spellings
// "inf"/"nan"/hex floats — is quoted and escaped, so one degenerate
// bench cell can never make BENCH_<stem>.json unparseable for the perf
// trajectory tooling.
#include "bench_util/reporting.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace fastbns {
namespace {

TEST(BenchJson, NumericCellsAreBareAndStringsQuoted) {
  TablePrinter table({"kernel", "speedup", "samples"});
  table.add_row({"simd", "1.70", "4000000"});
  table.add_row({"batched", "4.5e+09", "-"});
  const std::string json = bench_json("title", "stem", table);
  EXPECT_NE(json.find("\"bench\": \"stem\""), std::string::npos);
  EXPECT_NE(json.find("\"speedup\": 1.70"), std::string::npos);
  EXPECT_NE(json.find("\"samples\": 4000000"), std::string::npos);
  EXPECT_NE(json.find("\"speedup\": 4.5e+09"), std::string::npos);
  EXPECT_NE(json.find("\"kernel\": \"simd\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\": \"-\""), std::string::npos);
}

TEST(BenchJson, NonFiniteAndHexCellsAreQuoted) {
  // strtod parses all of these; JSON accepts none of them bare. A
  // zero-denominator speedup printed as "inf" must arrive quoted.
  TablePrinter table({"value"});
  for (const char* cell : {"inf", "-inf", "nan", "infinity", "0x10", ""}) {
    table.add_row({cell});
  }
  const std::string json = bench_json("t", "s", table);
  EXPECT_NE(json.find("\"value\": \"inf\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": \"-inf\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": \"nan\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": \"infinity\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": \"0x10\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": \"\""), std::string::npos);
  EXPECT_EQ(json.find(": inf"), std::string::npos);
  EXPECT_EQ(json.find(": nan"), std::string::npos);
}

TEST(BenchJson, EscapesQuotesBackslashesAndControlCharacters) {
  TablePrinter table({"label"});
  table.add_row({"a\"b\\c\nd\te"});
  const std::string json = bench_json("t", "s", table);
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
}

TEST(BenchJson, MalformedStringsAnywhereStayValidJson) {
  // RFC 8259: every control character below 0x20 must be escaped — the
  // five short forms where they exist, \u00XX otherwise. A title or
  // *header* smuggling a carriage return, backspace, form feed or a raw
  // 0x01/0x1f must never reach the file unescaped (json.tool in CI
  // parses every committed BENCH_*.json).
  TablePrinter table({std::string("head\rer")});
  table.add_row({std::string("A\rB\bC\fD\x01" "E\x1f" "F")});
  const std::string json =
      bench_json(std::string("ti\btle\f\x02"), "st\rem", table);
  EXPECT_NE(json.find("ti\\btle\\f\\u0002"), std::string::npos);
  EXPECT_NE(json.find("st\\rem"), std::string::npos);
  EXPECT_NE(json.find("head\\rer"), std::string::npos);
  EXPECT_NE(json.find("A\\rB\\bC\\fD\\u0001E\\u001fF"), std::string::npos);
  // No raw control character may survive inside the document other than
  // the reporter's own layout newlines.
  for (const char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control char " << static_cast<int>(c);
  }
  // DEL (0x7f) is not a control character in JSON's grammar and passes
  // through raw.
  TablePrinter del_table({"label"});
  del_table.add_row({std::string("x\x7fy")});
  EXPECT_NE(bench_json("t", "s", del_table).find("x\x7fy"),
            std::string::npos);
}

TEST(BenchJson, MachineContextBlockIsEmbeddedInEveryBenchJson) {
  // Satellite contract: every BENCH_*.json carries the machine context a
  // perf number is meaningless without — node count, OpenMP threads and
  // binding, and the declared rank sweep.
  TablePrinter table({"col"});
  table.add_row({"1"});
  const std::string json = bench_json("t", "s", table);
  EXPECT_NE(json.find("\"context\": {"), std::string::npos);
  for (const char* key :
       {"\"numa_nodes\":", "\"omp_max_threads\":", "\"omp_binding_env\":",
        "\"rank_count\":", "\"ipc_transport\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // At least one node, also where /sys/devices/system/node is unreadable.
  const std::string context = bench_context_json();
  const std::string key = "{\"numa_nodes\": ";
  ASSERT_EQ(context.compare(0, key.size(), key), 0) << context;
  EXPECT_GE(std::atoi(context.c_str() + key.size()), 1) << context;
}

TEST(BenchJson, ContextReflectsTheDeclaredRankSweep) {
  // A multi-process bench must be distinguishable from a single-process
  // one by its JSON alone: rank_count/ipc_transport default to the
  // single-process 0/"none" and follow set_bench_rank_context.
  EXPECT_NE(bench_context_json().find(
                "\"rank_count\": 0, \"ipc_transport\": \"none\""),
            std::string::npos)
      << bench_context_json();
  set_bench_rank_context(4, "fork+pipe");
  const std::string context = bench_context_json();
  set_bench_rank_context(0, "none");
  EXPECT_NE(context.find("\"rank_count\": 4"), std::string::npos) << context;
  EXPECT_NE(context.find("\"ipc_transport\": \"fork+pipe\""),
            std::string::npos)
      << context;
}

}  // namespace
}  // namespace fastbns
