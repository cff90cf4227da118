#include "xml/parser.h"

#include <cctype>
#include <cstring>

#include "xml/escape.h"

namespace csxa::xml {

namespace {
bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '-' || c == '.';
}
bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}
}  // namespace

PullParser::PullParser(std::string input) : input_(std::move(input)) {}

std::string* PullParser::NewScratch() {
  if (scratch_used_ == scratch_.size()) scratch_.emplace_back();
  std::string* s = &scratch_[scratch_used_++];
  s->clear();
  return s;
}

bool PullParser::Lookahead(const char* s) const {
  size_t n = std::strlen(s);
  if (pos_ + n > input_.size()) return false;
  return std::memcmp(input_.data() + pos_, s, n) == 0;
}

void PullParser::Advance() {
  if (input_[pos_] == '\n') ++line_;
  ++pos_;
}

Status PullParser::Error(const std::string& msg) const {
  return Status::ParseError("line " + std::to_string(line_) + ": " + msg);
}

Status PullParser::SkipComment() {
  // Cursor is just past "<!--".
  while (!AtEnd()) {
    if (Lookahead("-->")) {
      pos_ += 3;
      return Status::OK();
    }
    Advance();
  }
  return Error("unterminated comment");
}

Status PullParser::SkipProcessingInstruction() {
  // Cursor is just past "<?".
  while (!AtEnd()) {
    if (Lookahead("?>")) {
      pos_ += 2;
      return Status::OK();
    }
    Advance();
  }
  return Error("unterminated processing instruction");
}

Status PullParser::SkipMisc() {
  for (;;) {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) Advance();
    if (Lookahead("<!--")) {
      pos_ += 4;
      CSXA_RETURN_IF_ERROR(SkipComment());
      continue;
    }
    if (Lookahead("<?")) {
      pos_ += 2;
      CSXA_RETURN_IF_ERROR(SkipProcessingInstruction());
      continue;
    }
    if (Lookahead("<!DOCTYPE")) {
      return Status::NotSupported("DTDs are not supported");
    }
    return Status::OK();
  }
}

Result<std::string_view> PullParser::ParseName() {
  if (AtEnd() || !IsNameStart(Peek())) {
    return Error("expected name");
  }
  size_t start = pos_;
  while (!AtEnd() && IsNameChar(Peek())) Advance();
  return std::string_view(input_).substr(start, pos_ - start);
}

Result<std::string_view> PullParser::ParseAttrValue() {
  if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
    return Error("expected quoted attribute value");
  }
  char quote = Peek();
  Advance();
  size_t start = pos_;
  while (!AtEnd() && Peek() != quote) {
    if (Peek() == '<') return Error("'<' in attribute value");
    Advance();
  }
  if (AtEnd()) return Error("unterminated attribute value");
  std::string_view raw = std::string_view(input_).substr(start, pos_ - start);
  Advance();  // closing quote
  if (raw.find('&') == std::string_view::npos) {
    return raw;  // zero-copy: slice of input_
  }
  std::string* s = NewScratch();
  CSXA_RETURN_IF_ERROR(AppendUnescaped(raw, s));
  return std::string_view(*s);
}

Result<EventView> PullParser::ParseOpenTag() {
  // Cursor is just past '<'. attr_views_ was cleared by NextView().
  CSXA_ASSIGN_OR_RETURN(std::string_view name, ParseName());
  for (;;) {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) Advance();
    if (AtEnd()) return Error("unterminated start tag");
    if (Peek() == '>') {
      Advance();
      open_tags_.push_back(name);
      ++depth_;
      return EventView::Open(name, attr_views_.data(), attr_views_.size());
    }
    if (Lookahead("/>")) {
      pos_ += 2;
      pending_close_ = true;
      pending_close_name_ = name;
      return EventView::Open(name, attr_views_.data(), attr_views_.size());
    }
    CSXA_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) Advance();
    if (AtEnd() || Peek() != '=') return Error("expected '=' after attribute name");
    Advance();
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) Advance();
    CSXA_ASSIGN_OR_RETURN(std::string_view value, ParseAttrValue());
    attr_views_.push_back(AttrView{attr_name, value});
  }
}

Result<EventView> PullParser::ParseCloseTag() {
  // Cursor is just past "</".
  CSXA_ASSIGN_OR_RETURN(std::string_view name, ParseName());
  while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) Advance();
  if (AtEnd() || Peek() != '>') return Error("expected '>' in end tag");
  Advance();
  if (open_tags_.empty() || open_tags_.back() != name) {
    return Error("mismatched end tag </" + std::string(name) + ">");
  }
  open_tags_.pop_back();
  --depth_;
  if (depth_ == 0) done_ = true;
  return EventView::Close(name);
}

Result<EventView> PullParser::NextView() {
  // Views from the previous event die here.
  attr_views_.clear();
  scratch_used_ = 0;
  if (pending_close_) {
    pending_close_ = false;
    if (depth_ == 0) done_ = true;
    return EventView::Close(pending_close_name_);
  }
  for (;;) {
    if (done_) {
      // Only trailing misc is allowed after the root element.
      CSXA_RETURN_IF_ERROR(SkipMisc());
      if (!AtEnd()) return Error("content after document root");
      return EventView::End();
    }
    if (depth_ == 0) {
      CSXA_RETURN_IF_ERROR(SkipMisc());
      if (AtEnd()) {
        if (!root_seen_) return Error("no root element");
        return EventView::End();
      }
      if (Peek() != '<') return Error("text outside root element");
      Advance();
      if (Peek() == '/') return Error("unexpected end tag");
      if (root_seen_) return Error("multiple root elements");
      root_seen_ = true;
      return ParseOpenTag();
    }
    // Inside the root: gather text until markup. `direct` holds the text
    // as a raw input slice while a single unescaped chunk suffices (the
    // common case — no copy); `acc` takes over once escaping or
    // coalescing across chunks forces materialization into scratch.
    std::string_view direct;
    std::string* acc = nullptr;
    bool have_text = false;
    auto force_acc = [&]() {
      if (acc == nullptr) {
        acc = NewScratch();
        acc->append(direct);
        direct = {};
      }
    };
    for (;;) {
      if (AtEnd()) return Error("unexpected end of input inside element");
      if (Peek() == '<') {
        if (Lookahead("<!--")) {
          pos_ += 4;
          CSXA_RETURN_IF_ERROR(SkipComment());
          continue;
        } else if (Lookahead("<![CDATA[")) {
          pos_ += 9;
          size_t start = pos_;
          while (!AtEnd() && !Lookahead("]]>")) Advance();
          if (AtEnd()) return Error("unterminated CDATA section");
          std::string_view raw =
              std::string_view(input_).substr(start, pos_ - start);
          pos_ += 3;
          if (!have_text && acc == nullptr) {
            direct = raw;  // CDATA needs no unescaping
          } else {
            force_acc();
            acc->append(raw);
          }
          have_text = true;
          continue;
        } else if (Lookahead("<?")) {
          pos_ += 2;
          CSXA_RETURN_IF_ERROR(SkipProcessingInstruction());
          continue;
        } else {
          break;  // element markup
        }
      } else {
        size_t start = pos_;
        while (!AtEnd() && Peek() != '<') Advance();
        std::string_view raw =
            std::string_view(input_).substr(start, pos_ - start);
        bool needs_unescape = raw.find('&') != std::string_view::npos;
        if (!have_text && acc == nullptr && !needs_unescape) {
          direct = raw;
        } else {
          force_acc();
          if (needs_unescape) {
            CSXA_RETURN_IF_ERROR(AppendUnescaped(raw, acc));
          } else {
            acc->append(raw);
          }
        }
        have_text = true;
      }
    }
    std::string_view text = acc != nullptr ? std::string_view(*acc) : direct;
    if (!text.empty() && !IsAllWhitespace(text)) {
      return EventView::Value(text);
    }
    // No deliverable text: handle the markup that stopped the scan.
    if (Peek() == '<') {
      Advance();
      if (!AtEnd() && Peek() == '/') {
        Advance();
        return ParseCloseTag();
      }
      return ParseOpenTag();
    }
  }
}

Result<Event> PullParser::Next() {
  CSXA_ASSIGN_OR_RETURN(EventView v, NextView());
  return v.Materialize();
}

Status PullParser::ParseAll(const std::string& input, EventSink* sink) {
  PullParser parser(input);
  for (;;) {
    CSXA_ASSIGN_OR_RETURN(EventView v, parser.NextView());
    CSXA_RETURN_IF_ERROR(sink->OnEventView(v));
    if (v.type == EventType::kEnd) return Status::OK();
  }
}

Result<std::vector<Event>> PullParser::ParseToEvents(const std::string& input) {
  PullParser parser(input);
  std::vector<Event> events;
  for (;;) {
    CSXA_ASSIGN_OR_RETURN(EventView v, parser.NextView());
    if (v.type == EventType::kEnd) return events;
    events.push_back(v.Materialize());
  }
}

}  // namespace csxa::xml
