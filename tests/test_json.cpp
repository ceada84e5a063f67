#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/error.hpp"
#include "core/json.hpp"
#include "sim/metrics.hpp"

namespace wrsn {
namespace {

TEST(Json, EmptyObject) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(w.str(), "{}");
}

TEST(Json, EmptyArray) {
  JsonWriter w;
  w.begin_array().end_array();
  EXPECT_EQ(w.str(), "[]");
}

TEST(Json, ScalarFields) {
  JsonWriter w;
  w.begin_object()
      .field("s", "text")
      .field("d", 1.5)
      .field("i", std::int64_t{-3})
      .field("u", std::uint64_t{7})
      .field("b", true)
      .key("n")
      .null()
      .end_object();
  EXPECT_EQ(w.str(), R"({"s":"text","d":1.5,"i":-3,"u":7,"b":true,"n":null})");
}

TEST(Json, NestedStructures) {
  JsonWriter w;
  w.begin_object().key("xs").begin_array();
  w.value(1.0).value(2.0);
  w.begin_object().field("k", "v").end_object();
  w.end_array().end_object();
  EXPECT_EQ(w.str(), R"({"xs":[1,2,{"k":"v"}]})");
}

TEST(Json, StringEscaping) {
  JsonWriter w;
  w.begin_object().field("k", "a\"b\\c\nd\te").end_object();
  EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, ControlCharactersEscaped) {
  JsonWriter w;
  std::string s = "x";
  s += static_cast<char>(1);
  w.begin_array().value(s).end_array();
  EXPECT_EQ(w.str(), "[\"x\\u0001\"]");
}

TEST(Json, NonFiniteBecomesNull) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::infinity())
      .value(std::numeric_limits<double>::quiet_NaN())
      .end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, MisuseDetected) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1.0), InvalidArgument);  // value without key
  }
  {
    JsonWriter w;
    w.begin_object().key("a");
    EXPECT_THROW(w.key("b"), InvalidArgument);  // two keys in a row
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("a"), InvalidArgument);  // key inside array
    EXPECT_THROW(w.end_object(), InvalidArgument);
  }
  {
    JsonWriter w;
    w.begin_object().key("a");
    EXPECT_THROW(w.end_object(), InvalidArgument);  // dangling key
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW((void)w.str(), InvalidArgument);  // unclosed scope
  }
  {
    JsonWriter w;
    w.value(1.0);
    EXPECT_THROW(w.value(2.0), InvalidArgument);  // two top-level documents
  }
}

TEST(JsonValidate, AcceptsWellFormedDocuments) {
  for (const char* doc : {
           "{}",
           "[]",
           "null",
           "true",
           R"("a string with \"escapes\" and é")",
           "-12.5e3",
           "0",
           R"({"a":[1,2,{"b":null}],"c":-0.5,"d":"x"})",
           "  { \"spaced\" : [ 1 , 2 ] }  ",
       }) {
    std::string error;
    EXPECT_TRUE(json_validate(doc, &error)) << doc << ": " << error;
  }
}

TEST(JsonValidate, RejectsMalformedDocuments) {
  for (const char* doc : {
           "",
           "{",
           "[1,2",
           "{\"a\":}",
           "{\"a\":1,}",
           "[1,]",
           "{'a':1}",
           "\"unterminated",
           "\"bad \\u12 escape\"",
           "01",
           "1.",
           "1e",
           "nul",
           "truefalse",
           "{} extra",
           "\x01",
       }) {
    std::string error;
    EXPECT_FALSE(json_validate(doc, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

TEST(JsonValidate, ValidatesWriterOutput) {
  JsonWriter w;
  w.begin_object()
      .field("s", "text \"quoted\" \n")
      .field("d", 0.97)
      .field("neg", -1.5e-8)
      .key("arr")
      .begin_array()
      .value(std::int64_t{-3})
      .value(std::uint64_t{7})
      .end_array()
      .end_object();
  std::string error;
  EXPECT_TRUE(json_validate(w.str(), &error)) << error;
}

TEST(JsonValidate, ErrorIsOptional) {
  EXPECT_FALSE(json_validate("{"));
  EXPECT_TRUE(json_validate("{}"));
}

// A checksummed record stays valid JSON, verifies, and fails on any one
// changed byte before its sum field; records without one are told apart.
TEST(JsonChecksum, RecordsVerifyAndCatchEveryByteChange) {
  const std::string plain = R"({"record":"cell","id":7,"m":[0.10000000000000001,2]})";
  const std::string line = json_with_checksum(plain);
  std::string err;
  EXPECT_TRUE(json_validate(line, &err)) << err;
  EXPECT_EQ(line.rfind(plain.substr(0, plain.size() - 1), 0), 0u);
  EXPECT_EQ(json_checksum_ok(line), std::optional<bool>(true));
  for (std::size_t i = 0; i + 1 < plain.size(); ++i) {
    std::string damaged = line;
    damaged[i] = damaged[i] == '1' ? '2' : '1';
    EXPECT_EQ(json_checksum_ok(damaged), std::optional<bool>(false)) << i;
  }
  EXPECT_EQ(json_checksum_ok(plain), std::nullopt);
  EXPECT_EQ(json_checksum_ok(""), std::nullopt);
  std::string bad_digits = line;
  bad_digits[bad_digits.size() - 3] = 'z';
  EXPECT_EQ(json_checksum_ok(bad_digits), std::nullopt);
  EXPECT_THROW((void)json_with_checksum("[1,2]"), InvalidArgument);
}

TEST(Json, MetricsReportRoundTripKeys) {
  MetricsReport r;
  r.duration = days(1.0);
  r.rv_travel_energy = megajoules(1.5);
  r.energy_recharged = megajoules(3.0);
  r.coverage_ratio = 0.97;
  r.sensors_recharged = 42;
  const std::string json = to_json(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"duration_s\":86400"), std::string::npos);
  EXPECT_NE(json.find("\"energy_recharged_j\":3000000"), std::string::npos);
  EXPECT_NE(json.find("\"sensors_recharged\":42"), std::string::npos);
  EXPECT_NE(json.find("\"objective_score_j\":1500000"), std::string::npos);
  // Doubles print with full precision (0.97 -> 0.96999...); check prefix.
  EXPECT_NE(json.find("\"coverage_ratio\":0.9"), std::string::npos);
}

}  // namespace
}  // namespace wrsn
