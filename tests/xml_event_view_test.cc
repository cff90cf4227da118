// Borrowed-view regression tests: Materialize() round-trips, borrowed
// parser/decoder streams vs their owning twins, and the recorder that
// materializes borrowed streams.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "skipindex/byte_source.h"
#include "skipindex/codec.h"
#include "xml/dom.h"
#include "xml/event.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace csxa {
namespace {

using xml::AttrView;
using xml::Event;
using xml::EventType;
using xml::EventView;
using xml::PullParser;

TEST(EventViewTest, MaterializeRoundTripEquality) {
  std::string doc =
      "<r a=\"1\" b=\"two &amp; three\"><x>text &lt;esc&gt;</x><y/></r>";
  auto owning = PullParser::ParseToEvents(doc).value();
  std::vector<AttrView> scratch;
  for (const Event& e : owning) {
    EventView v = xml::ViewOf(e, &scratch);
    Event back = v.Materialize();
    EXPECT_EQ(back, e);
    EXPECT_EQ(back.tag_id, e.tag_id);  // advisory id preserved
    EXPECT_TRUE(v == xml::ViewOf(back, &scratch));
  }
}

TEST(EventViewTest, EqualityIgnoresTagId) {
  EventView a = EventView::Open("t", nullptr, 0, TagId{1});
  EventView b = EventView::Open("t", nullptr, 0, TagId{2});
  EXPECT_TRUE(a == b);
  EventView c = EventView::Open("u", nullptr, 0, TagId{1});
  EXPECT_FALSE(a == c);
}

TEST(EventViewTest, RecorderMaterializesBorrowedStream) {
  // The recorder keeps owning copies of a borrowed stream that equal the
  // owning parse.
  xml::EventRecorder sink;
  std::string doc = "<a k=\"v\"><b>hi</b></a>";
  ASSERT_TRUE(PullParser::ParseAll(doc, &sink).ok());
  auto expected = PullParser::ParseToEvents(doc).value();
  EXPECT_EQ(sink.events(), expected);
}

TEST(BorrowedParserTest, NextViewMatchesNext) {
  std::string doc =
      "<root note=\"a&apos;b\">\n"
      "  <item id=\"1\">plain</item>\n"
      "  <item id=\"2\">esc &amp; aped</item>\n"
      "  <mixed>one<!-- c -->two<![CDATA[<raw>]]></mixed>\n"
      "  <empty/>\n"
      "</root>";
  PullParser owning(doc);
  PullParser borrowed(doc);
  for (;;) {
    auto e = owning.Next();
    auto v = borrowed.NextView();
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(v.value().Materialize(), e.value());
    if (e.value().type == EventType::kEnd) break;
  }
}

TEST(BorrowedDecoderTest, NextViewMatchesNext) {
  auto doc = xml::DomDocument::Parse(
                 "<r a=\"v\"><p id=\"1\">alpha</p><p id=\"2\">beta "
                 "gamma</p><q><deep>x</deep></q></r>")
                 .value();
  auto encoded = skipindex::EncodeDocument(doc, {}).value();

  skipindex::MemorySource s1{Span(encoded)};
  skipindex::MemorySource s2{Span(encoded)};
  auto d1 = skipindex::DocumentDecoder::Open(&s1).value();
  auto d2 = skipindex::DocumentDecoder::Open(&s2).value();
  for (;;) {
    auto e = d1->Next();
    auto v = d2->NextView();
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(v.value().Materialize(), e.value());
    EXPECT_EQ(v.value().tag_id, e.value().tag_id);
    if (e.value().type == EventType::kEnd) break;
  }
}

TEST(BorrowedDecoderTest, DecodedViewsRoundTripToCanonicalXml) {
  std::string text = "<r><a k=\"v\">one</a><b><c>two</c></b></r>";
  auto doc = xml::DomDocument::Parse(text).value();
  auto encoded = skipindex::EncodeDocument(doc, {}).value();
  skipindex::MemorySource src{Span(encoded)};
  auto dec = skipindex::DocumentDecoder::Open(&src).value();
  // Each borrowed view goes straight to the writer before the next decode.
  xml::CanonicalWriter w;
  for (;;) {
    auto v = dec->NextView();
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    if (v.value().type == EventType::kEnd) break;
    ASSERT_TRUE(w.OnEventView(v.value()).ok());
  }
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(w.str(), doc.Serialize());
}

TEST(BorrowedWriterTest, ViewAndOwningRenderIdentically) {
  std::string text = "<a x=\"q&quot;e\"><b>t&amp;u</b><c/></a>";
  auto events = PullParser::ParseToEvents(text).value();
  xml::CanonicalWriter by_view;
  ASSERT_TRUE(PullParser::ParseAll(text, &by_view).ok());
  EXPECT_EQ(by_view.str(), xml::RenderEvents(events).value());
}

}  // namespace
}  // namespace csxa
