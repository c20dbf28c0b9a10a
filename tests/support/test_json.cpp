// The minimal JSON layer behind the observability outputs: exact
// integer round-trips, insertion-ordered objects (deterministic dumps),
// shortest-round-trip doubles, and parse diagnostics with byte offsets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "src/support/json.h"

namespace opindyn {
namespace json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegersStayExact) {
  // Counters can exceed 2^53; they must not round-trip through double.
  const std::int64_t big = 9007199254740993;  // 2^53 + 1
  EXPECT_EQ(parse("9007199254740993").as_int(), big);
  EXPECT_EQ(Value(big).dump(), "9007199254740993");
}

TEST(Json, AsIntAcceptsExactIntegralDoubles) {
  EXPECT_EQ(parse("3.0").as_int(), 3);
  EXPECT_THROW(parse("3.5").as_int(), std::runtime_error);
}

TEST(Json, KindMismatchThrows) {
  EXPECT_THROW(parse("42").as_string(), std::runtime_error);
  EXPECT_THROW(parse("\"x\"").as_int(), std::runtime_error);
  EXPECT_THROW(parse("[]").as_object(), std::runtime_error);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Value v{Object{}};
  v.set("zebra", 1);
  v.set("apple", 2);
  v.set("mango", 3);
  EXPECT_EQ(v.dump(), "{\"zebra\": 1, \"apple\": 2, \"mango\": 3}");
  // set() replaces in place without reordering.
  v.set("apple", 9);
  EXPECT_EQ(v.dump(), "{\"zebra\": 1, \"apple\": 9, \"mango\": 3}");
}

TEST(Json, FindAndMissingKeys) {
  const Value v = parse(R"({"a": 1, "b": {"c": 2}})");
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.find("b")->find("c")->as_int(), 2);
  // find on a non-object is nullptr, not a throw.
  EXPECT_EQ(parse("[1]").find("a"), nullptr);
}

TEST(Json, RoundTripsThroughDump) {
  const char* text =
      R"({"s":"a\"b\\c\nd","arr":[1,2.5,true,null],"nested":{"k":-3}})";
  const Value parsed = parse(text);
  const Value reparsed = parse(parsed.dump());
  EXPECT_EQ(reparsed.dump(), parsed.dump());
  EXPECT_EQ(reparsed.find("s")->as_string(), "a\"b\\c\nd");
}

TEST(Json, DoublesRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 12345.6789,
                         std::numeric_limits<double>::denorm_min()}) {
    const double back = parse(Value(v).dump()).as_double();
    EXPECT_EQ(back, v) << Value(v).dump();
  }
}

TEST(Json, NonFiniteDoublesDumpAsNull) {
  EXPECT_EQ(Value(std::nan("")).dump(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(),
            "null");
}

TEST(Json, PrettyPrintIsStable) {
  Value v{Object{}};
  v.set("a", 1);
  v.set("b", Value{Array{Value(1), Value(2)}});
  EXPECT_EQ(v.dump(2),
            "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2\n  ]\n}");
  Value empty{Object{}};
  EXPECT_EQ(empty.dump(2), "{}");
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  // Control characters are escaped on the way out.
  EXPECT_EQ(Value(std::string("a\tb")).dump(), "\"a\\tb\"");
}

TEST(Json, MalformedInputThrowsWithOffset) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "1 2",
                          "\"unterminated", "{\"a\" 1}", ""}) {
    EXPECT_THROW(parse(bad), std::runtime_error) << bad;
  }
  try {
    parse("[1, 2, oops]");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("at byte"),
              std::string::npos);
  }
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

// Nesting is capped: kMaxDepth levels parse, one more is an ordinary
// parse error citing the offending bracket rather than a stack overflow.
TEST(Json, NestingDepthIsCappedAtMaxDepth) {
  const Value outermost = parse(nested_arrays(kMaxDepth));
  const Value* level = &outermost;
  for (int depth = 1; depth < kMaxDepth; ++depth) {
    ASSERT_EQ(level->as_array().size(), 1u) << depth;
    level = &level->as_array()[0];
  }
  EXPECT_TRUE(level->as_array().empty());
  try {
    parse(nested_arrays(kMaxDepth + 1));
    FAIL() << "expected a nesting-depth error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(
                  "at byte " + std::to_string(kMaxDepth)),
              std::string::npos)
        << error.what();
  }
}

// The cap bounds the containers open at once, not how many a document
// holds, and objects count the same as arrays.
TEST(Json, NestingDepthCountsOpenContainersOfEitherKind) {
  // Two siblings each reach kMaxDepth: the counter must fall back as
  // every container closes, or the second sibling would be rejected.
  const std::string inner = nested_arrays(kMaxDepth - 1);
  const Value siblings = parse("[" + inner + "," + inner + "]");
  EXPECT_EQ(siblings.as_array().size(), 2u);

  // Alternating {"a": [ ... ] } levels.
  const auto mixed = [](int depth) {
    std::string open;
    std::string close;
    for (int level = 0; level < depth; ++level) {
      if (level % 2 == 0) {
        open += "{\"a\":";
        close.insert(0, "}");
      } else {
        open += "[";
        close.insert(0, "]");
      }
    }
    return open + "0" + close;
  };
  const Value deepest = parse(mixed(kMaxDepth));
  const Value* level = &deepest;
  for (int depth = 0; depth < kMaxDepth; ++depth) {
    if (depth % 2 == 0) {
      ASSERT_NE(level->find("a"), nullptr) << depth;
      level = level->find("a");
    } else {
      ASSERT_EQ(level->as_array().size(), 1u) << depth;
      level = &level->as_array()[0];
    }
  }
  EXPECT_EQ(level->as_int(), 0);
  try {
    parse(mixed(kMaxDepth + 1));
    FAIL() << "expected a nesting-depth error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("nesting deeper than"),
              std::string::npos)
        << error.what();
  }
}

TEST(Json, ParseFileCitesPath) {
  const std::string path = ::testing::TempDir() + "opindyn_json_test.json";
  {
    std::ofstream out(path);
    out << R"({"x": [1, 2, 3]})";
  }
  const Value v = parse_file(path);
  EXPECT_EQ(v.find("x")->as_array().size(), 3u);
  std::remove(path.c_str());
  try {
    parse_file(path);  // now gone
    FAIL() << "expected a file error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos);
  }
}

TEST(Json, SetPromotesNullAndPushBackBuildsArrays) {
  Value v;
  v.set("k", "v");
  EXPECT_EQ(v.find("k")->as_string(), "v");
  Value arr;
  arr.push_back(1);
  arr.push_back("two");
  EXPECT_EQ(arr.as_array().size(), 2u);
  EXPECT_THROW(parse("3").set("k", 1), std::runtime_error);
}

}  // namespace
}  // namespace json
}  // namespace opindyn
