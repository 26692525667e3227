#include "common/args.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace fastbns {
namespace {

ArgParser make_parser() {
  ArgParser parser("prog", "test parser");
  parser.add_flag("threads", "thread count", "4");
  parser.add_flag("alpha", "significance", "0.05");
  parser.add_flag("names", "comma list", "a,b");
  parser.add_bool_flag("verbose", "chatty output");
  return parser;
}

TEST(ArgParser, DefaultsApplyWithoutArguments) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get_int("threads"), 4);
  EXPECT_DOUBLE_EQ(parser.get_double("alpha"), 0.05);
  EXPECT_FALSE(parser.get_bool("verbose"));
}

TEST(ArgParser, EqualsSyntax) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--threads=16", "--alpha=0.01"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_int("threads"), 16);
  EXPECT_DOUBLE_EQ(parser.get_double("alpha"), 0.01);
}

TEST(ArgParser, SpaceSyntax) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--threads", "8"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_int("threads"), 8);
}

TEST(ArgParser, BoolFlagImplicitTrue) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_TRUE(parser.get_bool("verbose"));
}

TEST(ArgParser, BoolFlagExplicitValue) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_FALSE(parser.get_bool("verbose"));
}

TEST(ArgParser, UnknownFlagFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, PositionalArgumentFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, MissingValueFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--threads"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, HelpReturnsFalse) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, IntListParsing) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--names=1,2,4,8"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_EQ(parser.get_int_list("names"),
            (std::vector<std::int64_t>{1, 2, 4, 8}));
}

TEST(ArgParser, StringListParsing) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--names=alarm,hepar2"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_EQ(parser.get_list("names"),
            (std::vector<std::string>{"alarm", "hepar2"}));
}

TEST(ArgParser, UndeclaredFlagLookupThrows) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_THROW((void)parser.get("nope"), std::invalid_argument);
}

/// Parses `--<flag>=<value>` and expects `read` to throw
/// std::invalid_argument naming the flag and the offending text (the
/// value, or the bad item of a list).
void expect_rejected(const std::string& flag, const std::string& value,
                     const std::string& offending,
                     const std::function<void(const ArgParser&)>& read) {
  ArgParser parser = make_parser();
  const std::string token = "--" + flag + "=" + value;
  const char* argv[] = {"prog", token.c_str()};
  ASSERT_TRUE(parser.parse(2, argv));
  try {
    read(parser);
    ADD_FAILURE() << "expected std::invalid_argument for " << token;
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("--" + flag), std::string::npos) << message;
    EXPECT_NE(message.find('"' + offending + '"'), std::string::npos)
        << message;
  } catch (const std::exception& error) {
    ADD_FAILURE() << token << " threw a non-invalid_argument: "
                  << error.what();
  }
}

TEST(ArgParser, GetIntRejectsMalformedNumbers) {
  const auto read = [](const ArgParser& parser) {
    (void)parser.get_int("threads");
  };
  expect_rejected("threads", "2x", "2x", read);
  expect_rejected("threads", "", "", read);
  expect_rejected("threads", "abc", "abc", read);
  expect_rejected("threads", "99999999999999999999", "99999999999999999999",
                  read);
  expect_rejected("threads", "1.5", "1.5", read);
}

TEST(ArgParser, GetInt32RejectsValuesPastInt32InsteadOfWrapping) {
  const auto read = [](const ArgParser& parser) {
    (void)parser.get_int32("threads");
  };
  // 2^32 + 2 would narrow to 2, and 2^31 to INT32_MIN.
  expect_rejected("threads", "4294967298", "4294967298", read);
  expect_rejected("threads", "2147483648", "2147483648", read);
  for (const auto& [text, value] :
       {std::pair<const char*, std::int32_t>{"2147483647", 2147483647},
        {"-1", -1}}) {
    ArgParser parser = make_parser();
    const std::string token = std::string("--threads=") + text;
    const char* argv[] = {"prog", token.c_str()};
    ASSERT_TRUE(parser.parse(2, argv));
    EXPECT_EQ(parser.get_int32("threads"), value) << token;
  }
}

TEST(ArgParser, GetDoubleRejectsMalformedNumbers) {
  const auto read = [](const ArgParser& parser) {
    (void)parser.get_double("alpha");
  };
  expect_rejected("alpha", "0.05abc", "0.05abc", read);
  expect_rejected("alpha", "", "", read);
  expect_rejected("alpha", "abc", "abc", read);
  expect_rejected("alpha", "1e999", "1e999", read);
}

TEST(ArgParser, GetIntListRejectsABadItem) {
  const auto read = [](const ArgParser& parser) {
    (void)parser.get_int_list("names");
  };
  expect_rejected("names", "1,2x,4", "2x", read);
  expect_rejected("names", "1,abc", "abc", read);
  expect_rejected("names", "1,99999999999999999999", "99999999999999999999",
                  read);
}

TEST(ArgParser, GetBoolAcceptsSixSpellingsAndRejectsTheRest) {
  for (const auto& [text, value] :
       {std::pair<const char*, bool>{"true", true}, {"1", true},
        {"yes", true}, {"false", false}, {"0", false}, {"no", false}}) {
    ArgParser parser = make_parser();
    const std::string token = std::string("--verbose=") + text;
    const char* argv[] = {"prog", token.c_str()};
    ASSERT_TRUE(parser.parse(2, argv));
    EXPECT_EQ(parser.get_bool("verbose"), value) << token;
  }
  const auto read = [](const ArgParser& parser) {
    (void)parser.get_bool("verbose");
  };
  expect_rejected("verbose", "ture", "ture", read);
  expect_rejected("verbose", "", "", read);
  expect_rejected("verbose", "TRUE", "TRUE", read);
  expect_rejected("verbose", "on", "on", read);
}

TEST(ArgParser, NumericGettersAcceptWholeNumbers) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--threads=-1", "--alpha=1e-3",
                        "--names=-2,0,16"};
  ASSERT_TRUE(parser.parse(4, argv));
  EXPECT_EQ(parser.get_int("threads"), -1);
  EXPECT_DOUBLE_EQ(parser.get_double("alpha"), 1e-3);
  EXPECT_EQ(parser.get_int_list("names"),
            (std::vector<std::int64_t>{-2, 0, 16}));
}

}  // namespace
}  // namespace fastbns
