#include "depmatch/nested/json.h"

#include <gtest/gtest.h>

#include <string>

namespace depmatch {
namespace nested {
namespace {

TEST(ParseJsonTest, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(ParseJson("true")->bool_value(), true);
  EXPECT_EQ(ParseJson("false")->bool_value(), false);
  EXPECT_EQ(ParseJson("42")->int_value(), 42);
  EXPECT_EQ(ParseJson("-7")->int_value(), -7);
  EXPECT_DOUBLE_EQ(ParseJson("2.5")->double_value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseJson("-1e3")->double_value(), -1000.0);
  EXPECT_EQ(ParseJson("\"hello\"")->string_value(), "hello");
}

TEST(ParseJsonTest, IntegerOverflowFallsBackToDouble) {
  auto v = ParseJson("123456789012345678901234567890");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->kind(), NodeKind::kDouble);
}

TEST(ParseJsonTest, StringEscapes) {
  auto v = ParseJson(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "a\"b\\c\nd\teA");
}

TEST(ParseJsonTest, UnicodeEscapeUtf8) {
  auto v = ParseJson(R"("\u00e9\u20acA")");  // e-acute, euro sign, 'A'
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(),
            "\xc3\xa9\xe2\x82\xac"
            "A");
}

TEST(ParseJsonTest, NestedStructure) {
  auto v = ParseJson(R"({"a": [1, {"b": null}, "x"], "c": {"d": 2.5}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->kind(), NodeKind::kObject);
  const NestedValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array_size(), 3u);
  EXPECT_EQ(a->array_element(0).int_value(), 1);
  EXPECT_TRUE(a->array_element(1).Find("b")->is_null());
  EXPECT_DOUBLE_EQ(v->Find("c")->Find("d")->double_value(), 2.5);
}

TEST(ParseJsonTest, WhitespaceTolerance) {
  auto v = ParseJson("  {\n\t\"a\" :\r [ 1 , 2 ] }  ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("a")->array_size(), 2u);
}

TEST(ParseJsonTest, EmptyContainers) {
  EXPECT_EQ(ParseJson("{}")->object_size(), 0u);
  EXPECT_EQ(ParseJson("[]")->array_size(), 0u);
}

TEST(ParseJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());       // trailing content
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());  // trailing comma
  EXPECT_FALSE(ParseJson(R"("\q")").ok());   // unknown escape
  EXPECT_FALSE(ParseJson(R"("\u12")").ok()); // truncated \u
  EXPECT_FALSE(ParseJson(R"("\ud800")").ok());  // surrogate
}

TEST(ParseJsonTest, RejectsDuplicateMembers) {
  EXPECT_FALSE(ParseJson(R"({"a":1,"a":2})").ok());
}

TEST(ParseJsonTest, RoundTripsThroughToJson) {
  const char* documents[] = {
      "{}",
      R"({"a":1,"b":[true,null,"s"],"c":{"d":-2}})",
      "[1,2,[3,[4]]]",
  };
  for (const char* text : documents) {
    auto first = ParseJson(text);
    ASSERT_TRUE(first.ok()) << text;
    auto second = ParseJson(first->ToJson());
    ASSERT_TRUE(second.ok()) << text;
    EXPECT_EQ(first.value(), second.value()) << text;
  }
}

TEST(ParseJsonLinesTest, ParsesCollection) {
  auto docs = ParseJsonLines("{\"a\":1}\n\n{\"a\":2}\n");
  ASSERT_TRUE(docs.ok());
  ASSERT_EQ(docs->size(), 2u);
  EXPECT_EQ((*docs)[1].Find("a")->int_value(), 2);
}

TEST(ParseJsonLinesTest, ReportsLineNumberOnError) {
  auto docs = ParseJsonLines("{\"a\":1}\n{bad}\n");
  ASSERT_FALSE(docs.ok());
  EXPECT_NE(docs.status().message().find("line 2"), std::string::npos);
}

TEST(ReadJsonLinesFileTest, MissingFile) {
  EXPECT_EQ(ReadJsonLinesFile("/no/such/file.jsonl").status().code(),
            StatusCode::kNotFound);
}

std::string NestedArrays(size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(ParseJsonTest, NestingIsCappedNotAStackOverflow) {
  EXPECT_TRUE(ParseJson(NestedArrays(kMaxNestingDepth)).ok());
  auto over = ParseJson(NestedArrays(kMaxNestingDepth + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  // Hostile depth: an error, not a crash.
  auto hostile = ParseJson(NestedArrays(100000));
  ASSERT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ParseJson("{\"a\":" + NestedArrays(100000) + "}").ok());
}

}  // namespace
}  // namespace nested
}  // namespace depmatch
