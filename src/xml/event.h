#ifndef CSXA_XML_EVENT_H_
#define CSXA_XML_EVENT_H_

/// \file event.h
/// \brief SAX-style event model shared by the parser, the access-control
/// evaluator and the output writers.
///
/// The paper's evaluator "is fed by an event-based parser (e.g., SAX)
/// raising open, value and close events" (§2.3). Attributes ride along with
/// the open event; the XPath fragment XP{[],*,//} does not address them, so
/// they inherit their element's authorization.
///
/// Two representations exist:
///
///  - `Event` **owns** its strings. Recorded owning streams stay valid
///    after their producer is gone; short tags sit in SSO storage.
///  - `EventView` **borrows**: tag/text are `std::string_view` slices of a
///    producer-owned buffer (the parser's input, the decoder's chunk
///    scratch, or a DOM node's strings). Views are only valid until the
///    producer's next event — consumers that must retain one call
///    `Materialize()` (→ owning `Event`). This is the pipeline's
///    zero-copy fast path: a text event flows parser/decoder → evaluator →
///    writer without its bytes ever being copied into a per-event
///    allocation.
///
/// Both carry an optional interned `TagId` (common/interner.h) assigned by
/// their producer: the document decoder emits its dictionary's ids
/// natively, and the DOM emitter fills them in when handed an interner
/// (the parser leaves them unset). Consumers that dispatch per tag (the
/// evaluator above all) translate the producer id once and then work on
/// integers. The id is advisory: equality ignores it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"

namespace csxa::xml {

/// One attribute of a start-element event (owning form).
struct Attribute {
  std::string name;
  std::string value;

  bool operator==(const Attribute&) const = default;
};

/// One attribute of a start-element event (borrowed form).
struct AttrView {
  std::string_view name;
  std::string_view value;

  bool operator==(const AttrView&) const = default;
};

/// Event kinds raised by the parser.
enum class EventType : uint8_t {
  /// Opening tag; `name` and `attrs` are set.
  kOpen = 0,
  /// Text content; `text` is set.
  kValue = 1,
  /// Closing tag; `name` is set.
  kClose = 2,
  /// End of document.
  kEnd = 3,
};

/// \brief A single parsing event (open / value / close / end), owning form.
struct Event {
  EventType type = EventType::kEnd;
  std::string name;               ///< Tag name for kOpen / kClose.
  std::string text;               ///< Character data for kValue.
  std::vector<Attribute> attrs;   ///< Attributes for kOpen.
  /// Producer-assigned interned id of `name` (kNoTagId when the producer
  /// had no interner). Advisory: equality ignores it.
  TagId tag_id = kNoTagId;

  static Event Open(std::string tag, std::vector<Attribute> attrs = {},
                    TagId id = kNoTagId) {
    Event e;
    e.type = EventType::kOpen;
    e.name = std::move(tag);
    e.attrs = std::move(attrs);
    e.tag_id = id;
    return e;
  }
  static Event Value(std::string text) {
    Event e;
    e.type = EventType::kValue;
    e.text = std::move(text);
    return e;
  }
  static Event Close(std::string tag, TagId id = kNoTagId) {
    Event e;
    e.type = EventType::kClose;
    e.name = std::move(tag);
    e.tag_id = id;
    return e;
  }
  static Event End() { return Event{}; }

  /// Structural equality; the advisory tag_id is deliberately excluded so
  /// streams from id-carrying and plain producers compare equal.
  bool operator==(const Event& o) const {
    return type == o.type && name == o.name && text == o.text &&
           attrs == o.attrs;
  }
};

/// \brief A single parsing event, borrowed form.
///
/// All views (including `attrs[i].name/value`) point into storage owned by
/// the producer; unless documented otherwise they are invalidated by the
/// producer's next event or its destruction.
struct EventView {
  EventType type = EventType::kEnd;
  std::string_view name;          ///< Tag name for kOpen / kClose.
  std::string_view text;          ///< Character data for kValue.
  const AttrView* attrs = nullptr;  ///< Attributes for kOpen.
  size_t num_attrs = 0;
  /// Advisory producer-assigned interned id of `name`; equality ignores it.
  TagId tag_id = kNoTagId;

  static EventView Open(std::string_view tag, const AttrView* attrs = nullptr,
                        size_t num_attrs = 0, TagId id = kNoTagId) {
    EventView v;
    v.type = EventType::kOpen;
    v.name = tag;
    v.attrs = attrs;
    v.num_attrs = num_attrs;
    v.tag_id = id;
    return v;
  }
  static EventView Value(std::string_view text) {
    EventView v;
    v.type = EventType::kValue;
    v.text = text;
    return v;
  }
  static EventView Close(std::string_view tag, TagId id = kNoTagId) {
    EventView v;
    v.type = EventType::kClose;
    v.name = tag;
    v.tag_id = id;
    return v;
  }
  static EventView End() { return EventView{}; }

  /// Escape hatch: deep-copies the borrowed bytes into an owning Event
  /// that survives the producer. The advisory tag_id is preserved.
  Event Materialize() const;

  /// Structural equality (tag_id excluded), mirroring Event::operator==.
  bool operator==(const EventView& o) const {
    if (type != o.type || name != o.name || text != o.text ||
        num_attrs != o.num_attrs) {
      return false;
    }
    for (size_t i = 0; i < num_attrs; ++i) {
      if (!(attrs[i] == o.attrs[i])) return false;
    }
    return true;
  }
};

/// Builds a borrowed view over an owning event. `attr_scratch` (cleared
/// first) receives the attribute views and must outlive every use of the
/// returned view; the event itself must outlive it too.
EventView ViewOf(const Event& e, std::vector<AttrView>* attr_scratch);

/// \brief Consumer interface for event streams.
///
/// Implementations include the access-control evaluator, the canonical
/// writer and the DOM builder. Sinks have one entry point and consume
/// borrowed views in place: a view is valid only for the duration of the
/// call. A sink that must keep an event copies it (Materialize()); a
/// caller holding owning Events feeds ViewOf(e, &scratch).
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Receives the next event. Returning a non-OK status aborts the stream.
  virtual Status OnEventView(const EventView& view) = 0;
};

}  // namespace csxa::xml

#endif  // CSXA_XML_EVENT_H_
