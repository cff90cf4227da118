// Arena-lifetime and borrowed-view regression tests: EventArena ownership
// rules, Materialize() round-trips, borrowed parser/decoder streams vs
// their owning twins, and the recorder that materializes borrowed streams.

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
using xml::EventArena;
using xml::EventType;
using xml::EventView;
using xml::PullParser;
using xml::RecordedEvents;

TEST(EventArenaTest, CopyOwnsBytesIndependently) {
  EventArena arena;
  std::string src = "hello arena";
  std::string_view v = arena.Copy(src);
  src.assign(src.size(), 'x');  // clobber the original
  EXPECT_EQ(v, "hello arena");
  EXPECT_EQ(arena.bytes_used(), 11u);
}

TEST(EventArenaTest, CopyEmptyCostsNothing) {
  EventArena arena;
  std::string_view v = arena.Copy("");
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(EventArenaTest, LargeStringsSpanBlocks) {
  EventArena arena;
  // Larger than the 4 KB minimum block: must still come back intact.
  std::string big(100000, 'b');
  big[0] = 'a';
  big[big.size() - 1] = 'z';
  std::string_view bv = arena.Copy(big);
  std::string small = "tail";
  std::string_view sv = arena.Copy(small);
  EXPECT_EQ(bv, big);
  EXPECT_EQ(sv, "tail");
  EXPECT_EQ(arena.bytes_used(), big.size() + small.size());
}

TEST(EventArenaTest, EarlierViewsSurviveLaterGrowth) {
  EventArena arena;
  // Force many block rollovers; every earlier view must stay intact
  // (the "never invalidated by later arena use" rule).
  std::vector<std::string_view> views;
  std::vector<std::string> expect;
  for (int i = 0; i < 2000; ++i) {
    expect.push_back("str-" + std::to_string(i) +
                     std::string(static_cast<size_t>(i % 61), 'p'));
    views.push_back(arena.Copy(expect.back()));
  }
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], expect[i]) << i;
  }
}

TEST(EventArenaTest, ResetReclaimsAndReuses) {
  EventArena arena;
  for (int i = 0; i < 100; ++i) {
    arena.Copy(std::string(512, static_cast<char>('a' + i % 26)));
  }
  EXPECT_GT(arena.bytes_used(), 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  std::string_view v = arena.Copy("after reset");
  EXPECT_EQ(v, "after reset");
  EXPECT_EQ(arena.bytes_used(), 11u);
}

TEST(EventArenaTest, RecordDeepCopiesEventWithAttrs) {
  EventArena arena;
  std::string name = "patient";
  std::string aname = "id";
  std::string aval = "42";
  std::vector<AttrView> attrs = {AttrView{aname, aval}};
  EventView v = EventView::Open(name, attrs.data(), attrs.size(), TagId{7});
  EventView rec = arena.Record(v);
  // Clobber every producer-side buffer; the recorded view must not care.
  name.assign(name.size(), '?');
  aname.assign(aname.size(), '?');
  aval.assign(aval.size(), '?');
  attrs[0] = AttrView{"zz", "zz"};
  EXPECT_EQ(rec.name, "patient");
  ASSERT_EQ(rec.num_attrs, 1u);
  EXPECT_EQ(rec.attrs[0].name, "id");
  EXPECT_EQ(rec.attrs[0].value, "42");
  EXPECT_EQ(rec.tag_id, TagId{7});
}

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

TEST(BorrowedParserTest, ParseToRecordedMatchesParseToEvents) {
  std::string doc =
      "<agenda><meeting visibility=\"private\">budget &amp; plan</meeting>"
      "<note>x</note></agenda>";
  auto owning = PullParser::ParseToEvents(doc).value();
  RecordedEvents rec = PullParser::ParseToRecorded(doc).value();
  ASSERT_EQ(rec.events.size(), owning.size());
  for (size_t i = 0; i < owning.size(); ++i) {
    EXPECT_EQ(rec.events[i].Materialize(), owning[i]) << i;
  }
  EXPECT_GT(rec.arena.bytes_used(), 0u);
}

TEST(BorrowedParserTest, RecordedStreamSurvivesParserDeath) {
  RecordedEvents rec;
  std::vector<Event> owning;
  {
    std::string doc = "<a x=\"1\"><b>deep text</b></a>";
    rec = PullParser::ParseToRecorded(doc).value();
    owning = PullParser::ParseToEvents(doc).value();
    // doc and both parsers die here; rec's arena owns every byte.
  }
  ASSERT_EQ(rec.events.size(), owning.size());
  for (size_t i = 0; i < owning.size(); ++i) {
    EXPECT_EQ(rec.events[i].Materialize(), owning[i]) << i;
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

TEST(BorrowedDecoderTest, RecordedDecodeRoundTripsToCanonicalXml) {
  std::string text = "<r><a k=\"v\">one</a><b><c>two</c></b></r>";
  auto doc = xml::DomDocument::Parse(text).value();
  auto encoded = skipindex::EncodeDocument(doc, {}).value();
  skipindex::MemorySource src{Span(encoded)};
  auto dec = skipindex::DocumentDecoder::Open(&src).value();
  RecordedEvents rec;
  for (;;) {
    auto v = dec->NextView();
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    if (v.value().type == EventType::kEnd) break;
    rec.Append(v.value());
  }
  xml::CanonicalWriter w;
  for (const EventView& v : rec.events) {
    ASSERT_TRUE(w.OnEventView(v).ok());
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
