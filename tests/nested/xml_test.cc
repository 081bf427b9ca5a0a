#include "depmatch/nested/xml.h"

#include <gtest/gtest.h>

#include <string>

#include "depmatch/nested/flatten.h"

namespace depmatch {
namespace nested {
namespace {

TEST(ParseXmlTest, SimpleElementBecomesScalar) {
  auto doc = ParseXml("<v>42</v>");
  ASSERT_TRUE(doc.ok());
  const NestedValue* v = doc->Find("v");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->int_value(), 42);
}

TEST(ParseXmlTest, TextScalarInference) {
  EXPECT_EQ(ParseXml("<v>2.5</v>")->Find("v")->double_value(), 2.5);
  EXPECT_EQ(ParseXml("<v>hello</v>")->Find("v")->string_value(), "hello");
  EXPECT_TRUE(ParseXml("<v></v>")->Find("v")->is_null());
  EXPECT_TRUE(ParseXml("<v/>")->Find("v")->is_null());
}

TEST(ParseXmlTest, AttributesBecomeAtMembers) {
  auto doc = ParseXml(R"(<item id="3" name="bolt"/>)");
  ASSERT_TRUE(doc.ok());
  const NestedValue* item = doc->Find("item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->Find("@id")->int_value(), 3);
  EXPECT_EQ(item->Find("@name")->string_value(), "bolt");
}

TEST(ParseXmlTest, NestedElements) {
  auto doc = ParseXml(
      "<order><customer><city>oslo</city></customer>"
      "<total>99</total></order>");
  ASSERT_TRUE(doc.ok());
  const NestedValue* order = doc->Find("order");
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(order->Find("customer")->Find("city")->string_value(), "oslo");
  EXPECT_EQ(order->Find("total")->int_value(), 99);
}

TEST(ParseXmlTest, RepeatedChildrenCollapseToArray) {
  auto doc = ParseXml("<cart><item>1</item><item>2</item><item>3</item></cart>");
  ASSERT_TRUE(doc.ok());
  const NestedValue* items = doc->Find("cart")->Find("item");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->kind(), NodeKind::kArray);
  ASSERT_EQ(items->array_size(), 3u);
  EXPECT_EQ(items->array_element(2).int_value(), 3);
}

TEST(ParseXmlTest, MixedContentKeepsHashText) {
  auto doc = ParseXml("<p>hello <b>world</b></p>");
  ASSERT_TRUE(doc.ok());
  const NestedValue* p = doc->Find("p");
  EXPECT_EQ(p->Find("#text")->string_value(), "hello");
  EXPECT_EQ(p->Find("b")->string_value(), "world");
}

TEST(ParseXmlTest, EntitiesAndCharacterReferences) {
  auto doc = ParseXml("<v>a&amp;b &lt;c&gt; &quot;d&apos; &#65;&#x42;</v>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("v")->string_value(), "a&b <c> \"d' AB");
}

TEST(ParseXmlTest, CdataIsLiteral) {
  auto doc = ParseXml("<v><![CDATA[<not&parsed>]]></v>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("v")->string_value(), "<not&parsed>");
}

TEST(ParseXmlTest, SkipsDeclarationCommentsDoctype) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE note>\n"
      "<!-- comment -->\n"
      "<note>ok</note>\n"
      "<!-- trailing -->");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("note")->string_value(), "ok");
}

TEST(ParseXmlTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());                  // unterminated
  EXPECT_FALSE(ParseXml("<a></b>").ok());              // mismatched
  EXPECT_FALSE(ParseXml("<a x=1/>").ok());             // unquoted attr
  EXPECT_FALSE(ParseXml("<a x=\"1\" x=\"2\"/>").ok()); // dup attr
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());             // two roots
  EXPECT_FALSE(ParseXml("<a>&bogus;</a>").ok());       // unknown entity
  EXPECT_FALSE(ParseXml("text only").ok());
}

TEST(ParseXmlCollectionTest, ChildrenBecomeDocuments) {
  auto docs = ParseXmlCollection(
      "<records>"
      "<r><a>1</a></r>"
      "<r><a>2</a></r>"
      "<r><a>3</a></r>"
      "</records>");
  ASSERT_TRUE(docs.ok());
  ASSERT_EQ(docs->size(), 3u);
  EXPECT_EQ((*docs)[1].Find("r")->Find("a")->int_value(), 2);
}

TEST(ParseXmlCollectionTest, ScalarRootRejected) {
  EXPECT_FALSE(ParseXmlCollection("<root>just text</root>").ok());
}

TEST(ParseXmlCollectionTest, FlattensAndMatchesLikeJson) {
  // XML collection flows into the same flatten + match pipeline.
  auto docs = ParseXmlCollection(
      "<orders>"
      "<o status=\"new\"><amt>10</amt></o>"
      "<o status=\"old\"><amt>20</amt></o>"
      "</orders>");
  ASSERT_TRUE(docs.ok());
  auto table = FlattenDocuments(docs.value(), {});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_TRUE(table->schema().FindAttribute("o.@status").has_value());
  EXPECT_TRUE(table->schema().FindAttribute("o.amt").has_value());
}

TEST(ReadXmlCollectionFileTest, MissingFile) {
  EXPECT_EQ(ReadXmlCollectionFile("/no/such.xml").status().code(),
            StatusCode::kNotFound);
}

std::string NestedElements(size_t depth) {
  std::string text;
  for (size_t i = 0; i < depth; ++i) text += "<a>";
  for (size_t i = 0; i < depth; ++i) text += "</a>";
  return text;
}

TEST(ParseXmlTest, NestingIsCappedNotAStackOverflow) {
  EXPECT_TRUE(ParseXml(NestedElements(kMaxNestingDepth)).ok());
  auto over = ParseXml(NestedElements(kMaxNestingDepth + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  // Hostile depth: an error, not a crash.
  auto hostile = ParseXml(NestedElements(100000));
  ASSERT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace nested
}  // namespace depmatch
