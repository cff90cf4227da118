#ifndef CSXA_XML_PARSER_H_
#define CSXA_XML_PARSER_H_

/// \file parser.h
/// \brief Pull-style XML parser producing open/value/close events.
///
/// This is the terminal/publisher-side parser used to encode documents and
/// to load reference DOMs. The SOE itself never parses textual XML — it
/// consumes the compressed encoded stream (see skipindex/codec.h).
///
/// The core API is borrowed-view (`NextView()`): tag names are always
/// slices of the input buffer, text and attribute values are slices
/// whenever they contain no entity references (the common case), and
/// escaped content lands in per-parser scratch buffers that are reused
/// across events — steady state performs no per-event allocation. `Next()`
/// materializes the same stream into owning events for callers that retain
/// them.
///
/// Supported: elements, attributes, character data with entity references,
/// comments, processing instructions and XML declarations (skipped),
/// CDATA sections, self-closing tags. Adjacent character data (including
/// around CDATA and comments) is coalesced into one value event, and
/// whitespace-only text (pretty-printing) is dropped. Not supported
/// (ParseError or NotSupported): DTDs, namespaces beyond treating ':' as a
/// name char.

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/event.h"

namespace csxa::xml {

/// \brief Cursor-based pull parser over an in-memory document.
class PullParser {
 public:
  explicit PullParser(std::string input);

  // Non-copyable/movable: events and internal state hold views into
  // input_ and the scratch buffers, which relocate under copy/move (SSO).
  PullParser(const PullParser&) = delete;
  PullParser& operator=(const PullParser&) = delete;

  /// Produces the next event as a borrowed view; type == kEnd after the
  /// root closes. The view (name/text/attrs) is valid only until the next
  /// NextView()/Next() call — callers that retain it must Materialize()
  /// it. Returns ParseError on malformed input.
  Result<EventView> NextView();

  /// Owning convenience: NextView() materialized.
  Result<Event> Next();

  /// Current 1-based line number (for error messages).
  int line() const { return line_; }

  /// Convenience: parses the whole document, pushing every event
  /// (including the trailing kEnd) into `sink` as borrowed views.
  static Status ParseAll(const std::string& input, EventSink* sink);

  /// Convenience: parses the whole document into an event vector
  /// (excluding the trailing kEnd).
  static Result<std::vector<Event>> ParseToEvents(const std::string& input);

 private:
  Status SkipMisc();               // whitespace, comments, PIs between markup
  Status SkipComment();            // after "<!--"
  Status SkipProcessingInstruction();  // after "<?"
  Result<EventView> ParseOpenTag();    // after '<'
  Result<EventView> ParseCloseTag();   // after "</"
  // Non-owning slice of input_; valid for the parser's lifetime.
  Result<std::string_view> ParseName();
  // Raw slice when unescaped, scratch-backed otherwise; valid until the
  // next event.
  Result<std::string_view> ParseAttrValue();
  Status Error(const std::string& msg) const;
  // Scratch string reused across events (capacity kept). Deque storage:
  // growth never moves earlier strings, so views into them stay valid
  // within one event.
  std::string* NewScratch();

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Lookahead(const char* s) const;
  void Advance();

  std::string input_;
  size_t pos_ = 0;
  int line_ = 1;
  int depth_ = 0;
  bool root_seen_ = false;
  bool done_ = false;
  // Pending end-tag event for self-closing elements. The name is a slice
  // of input_, which is stable for the parser's lifetime.
  bool pending_close_ = false;
  std::string_view pending_close_name_;
  std::vector<std::string_view> open_tags_;
  // Per-event borrowed storage, invalidated by the next NextView() call.
  std::vector<AttrView> attr_views_;
  std::deque<std::string> scratch_;
  size_t scratch_used_ = 0;
};

}  // namespace csxa::xml

#endif  // CSXA_XML_PARSER_H_
