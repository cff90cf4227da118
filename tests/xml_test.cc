// XML substrate tests: pull parser conformance on the supported subset,
// escaping, DOM building/serialization, canonical writer, generators.

#include <gtest/gtest.h>

#include "xml/dom.h"
#include "xml/escape.h"
#include "xml/generator.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace csxa {
namespace {

using xml::DomDocument;
using xml::Event;
using xml::EventType;
using xml::PullParser;

std::vector<Event> Parse(const std::string& text) {
  auto r = PullParser::ParseToEvents(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : std::vector<Event>{};
}

TEST(EscapeTest, RoundTrip) {
  std::string raw = "a<b&c>\"d'e";
  auto back = xml::Unescape(xml::Escape(raw));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(EscapeTest, NumericReferences) {
  EXPECT_EQ(xml::Unescape("&#65;&#x42;").value(), "AB");
  EXPECT_EQ(xml::Unescape("&#233;").value(), "\xC3\xA9");  // é in UTF-8
  EXPECT_FALSE(xml::Unescape("&#zz;").ok());
  EXPECT_FALSE(xml::Unescape("&bogus;").ok());
  EXPECT_FALSE(xml::Unescape("&unterminated").ok());
}

TEST(ParserTest, SimpleDocument) {
  auto events = Parse("<a><b>text</b></a>");
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].type, EventType::kOpen);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[2].type, EventType::kValue);
  EXPECT_EQ(events[2].text, "text");
  EXPECT_EQ(events[4].type, EventType::kClose);
}

TEST(ParserTest, AttributesBothQuoteStyles) {
  auto events = Parse("<a x=\"1\" y='two &amp; three'/>");
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(events[0].attrs.size(), 2u);
  EXPECT_EQ(events[0].attrs[0].name, "x");
  EXPECT_EQ(events[0].attrs[0].value, "1");
  EXPECT_EQ(events[0].attrs[1].value, "two & three");
}

TEST(ParserTest, SelfClosingEmitsOpenClose) {
  auto events = Parse("<a><b/><c/></a>");
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[1].type, EventType::kOpen);
  EXPECT_EQ(events[2].type, EventType::kClose);
  EXPECT_EQ(events[2].name, "b");
}

TEST(ParserTest, CommentsAndPisAreSkipped) {
  auto events =
      Parse("<?xml version=\"1.0\"?><!-- hi --><a><!-- in -->x<?pi data?></a>");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].text, "x");
}

TEST(ParserTest, CdataIsText) {
  auto events = Parse("<a><![CDATA[<not><markup>&amp;]]></a>");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].text, "<not><markup>&amp;");
}

TEST(ParserTest, TextCoalescingAroundComments) {
  auto events = Parse("<a>one<!-- x -->two</a>");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].text, "onetwo");
}

TEST(ParserTest, WhitespaceOnlyTextSkipped) {
  auto events = Parse("<a>\n  <b>x</b>\n</a>");
  ASSERT_EQ(events.size(), 5u);
}

TEST(ParserTest, EntityEscapesInText) {
  auto events = Parse("<a>&lt;tag&gt; &amp; &quot;q&quot;</a>");
  EXPECT_EQ(events[1].text, "<tag> & \"q\"");
}

TEST(ParserTest, ErrorMismatchedTags) {
  EXPECT_FALSE(PullParser::ParseToEvents("<a><b></a></b>").ok());
}

TEST(ParserTest, ErrorUnterminated) {
  EXPECT_FALSE(PullParser::ParseToEvents("<a><b>").ok());
  EXPECT_FALSE(PullParser::ParseToEvents("<a attr=>").ok());
  EXPECT_FALSE(PullParser::ParseToEvents("<a><!-- unterminated").ok());
}

TEST(ParserTest, ErrorMultipleRoots) {
  EXPECT_FALSE(PullParser::ParseToEvents("<a/><b/>").ok());
}

TEST(ParserTest, ErrorTextOutsideRoot) {
  EXPECT_FALSE(PullParser::ParseToEvents("text<a/>").ok());
  EXPECT_FALSE(PullParser::ParseToEvents("<a/>trailing").ok());
}

TEST(ParserTest, ErrorDoctype) {
  auto r = PullParser::ParseToEvents("<!DOCTYPE html><a/>");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST(ParserTest, LineNumbersInErrors) {
  auto r = PullParser::ParseToEvents("<a>\n\n<b=</a>");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

TEST(DomTest, ParseAndSerializeCanonical) {
  auto doc = DomDocument::Parse("<a x=\"1\"><b>t</b><c/></a>").value();
  EXPECT_EQ(doc.Serialize(), "<a x=\"1\"><b>t</b><c></c></a>");
}

TEST(DomTest, PrettySerialization) {
  auto doc = DomDocument::Parse("<a><b>t</b></a>").value();
  std::string pretty = doc.SerializePretty();
  EXPECT_NE(pretty.find('\n'), std::string::npos);
}

TEST(DomTest, CountsAndDepth) {
  auto doc = DomDocument::Parse("<a><b><c/></b><d/></a>").value();
  EXPECT_EQ(doc.CountElements(), 4u);
  EXPECT_EQ(doc.MaxDepth(), 3);
}

TEST(DomTest, StringValueAndDirectText) {
  auto doc = DomDocument::Parse("<a>x<b>y</b>z</a>").value();
  EXPECT_EQ(doc.root()->StringValue(), "xyz");
  EXPECT_EQ(doc.root()->DirectText(), "xz");
}

TEST(DomTest, EventsRoundTripThroughBuilder) {
  auto doc =
      DomDocument::Parse("<r><a k=\"v\">one</a><b><c>two</c></b></r>").value();
  xml::DomBuilder builder;
  ASSERT_TRUE(doc.root()->EmitEvents(&builder).ok());
  ASSERT_TRUE(builder.complete());
  EXPECT_EQ(builder.TakeDocument().Serialize(), doc.Serialize());
}

TEST(WriterTest, CanonicalOutputMatchesDomSerialize) {
  std::string text = "<a x=\"1\"><b>t&amp;u</b><c/></a>";
  auto doc = DomDocument::Parse(text).value();
  xml::CanonicalWriter w;
  ASSERT_TRUE(doc.root()->EmitEvents(&w).ok());
  EXPECT_EQ(w.str(), doc.Serialize());
}

TEST(WriterTest, RejectsUnbalanced) {
  std::vector<Event> events = {Event::Close("a")};
  EXPECT_FALSE(xml::RenderEvents(events).ok());
  std::vector<Event> open_only = {Event::Open("a")};
  EXPECT_FALSE(xml::RenderEvents(open_only).ok());
}

TEST(GeneratorTest, DeterministicForSeed) {
  xml::GeneratorParams p;
  p.profile = xml::DocProfile::kAgenda;
  p.target_elements = 100;
  p.seed = 5;
  auto a = xml::GenerateDocument(p);
  auto b = xml::GenerateDocument(p);
  EXPECT_EQ(a.Serialize(), b.Serialize());
  p.seed = 6;
  auto c = xml::GenerateDocument(p);
  EXPECT_NE(a.Serialize(), c.Serialize());
}

TEST(GeneratorTest, RespectsApproximateSize) {
  for (auto profile : {xml::DocProfile::kAgenda, xml::DocProfile::kHospital,
                       xml::DocProfile::kNewsFeed, xml::DocProfile::kRandom}) {
    xml::GeneratorParams p;
    p.profile = profile;
    p.target_elements = 500;
    p.seed = 3;
    auto doc = xml::GenerateDocument(p);
    size_t n = doc.CountElements();
    EXPECT_GT(n, 150u) << xml::DocProfileName(profile);
    EXPECT_LT(n, 2000u) << xml::DocProfileName(profile);
  }
}

TEST(GeneratorTest, GeneratedDocsReparse) {
  for (auto profile : {xml::DocProfile::kAgenda, xml::DocProfile::kHospital,
                       xml::DocProfile::kNewsFeed, xml::DocProfile::kRandom}) {
    xml::GeneratorParams p;
    p.profile = profile;
    p.target_elements = 120;
    p.seed = 8;
    auto doc = xml::GenerateDocument(p);
    auto reparsed = DomDocument::Parse(doc.Serialize());
    ASSERT_TRUE(reparsed.ok()) << xml::DocProfileName(profile);
    EXPECT_EQ(reparsed.value().Serialize(), doc.Serialize());
  }
}

TEST(GeneratorTest, RandomProfileRespectsDepthBound) {
  xml::GeneratorParams p;
  p.profile = xml::DocProfile::kRandom;
  p.target_elements = 300;
  p.max_depth = 5;
  p.seed = 13;
  auto doc = xml::GenerateDocument(p);
  EXPECT_LE(doc.MaxDepth(), 5);
}

}  // namespace
}  // namespace csxa
