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
///    scratch, a DOM node's strings, or an `EventArena`). Views are only
///    valid until the producer's next event — consumers that must retain
///    one call `Materialize()` (→ owning `Event`) or record it into an
///    `EventArena` they control. This is the pipeline's zero-copy fast
///    path: a text event flows parser/decoder → evaluator → writer without
///    its bytes ever being copied into a per-event allocation.
///
/// Both carry an optional interned `TagId` (common/interner.h) assigned by
/// their producer: the document decoder emits its dictionary's ids
/// natively, and the parser / DOM emitter fill them in when handed an
/// interner. Consumers that dispatch per tag (the evaluator above all)
/// translate the producer id once and then work on integers. The id is
/// advisory: equality ignores it.

#include <cstdint>
#include <memory>
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
/// producer's next event, its destruction, or — for arena-backed streams —
/// `EventArena::Reset()`.
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

/// \brief Bump allocator owning the bytes behind a recorded borrowed
/// stream.
///
/// The explicit-ownership companion of `EventView`: producers (or
/// consumers that must retain events past a producer's lifetime) copy the
/// borrowed bytes into an arena once, and every view handed back borrows
/// from the arena instead. One arena serves a whole recorded stream, so
/// the per-event cost is a bump-pointer copy, never a per-string
/// allocation.
///
/// Ownership rules (see src/xml/README.md):
///  - views returned by Copy()/CopyAttrs()/Record() are valid until
///    Reset() or destruction — *not* invalidated by later arena use;
///  - Reset() keeps the largest block for reuse but invalidates every
///    outstanding view;
///  - the arena never shrinks while views are live; Materialize() remains
///    the escape hatch for single events that must outlive the arena.
class EventArena {
 public:
  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;
  // Movable: blocks live on the heap, so outstanding views survive a move
  // (RecordedEvents relies on this to be returnable by value).
  EventArena(EventArena&&) = default;
  EventArena& operator=(EventArena&&) = default;

  /// Copies `s` into the arena; the returned view lives until Reset().
  std::string_view Copy(std::string_view s);
  /// Copies `n` attribute views (array and backing strings) into the
  /// arena; the returned array lives until Reset().
  const AttrView* CopyAttrs(const AttrView* attrs, size_t n);
  /// Deep-copies a borrowed event into the arena and returns a view of
  /// the arena-owned copy (the recorded stream's unit operation).
  EventView Record(const EventView& v);

  /// Invalidates every outstanding view; keeps the largest block.
  void Reset();
  /// Bytes handed out so far (excludes block slack).
  size_t bytes_used() const { return bytes_used_; }

 private:
  char* Allocate(size_t n, size_t align);

  struct Block {
    std::unique_ptr<char[]> data;
    size_t cap = 0;
    size_t used = 0;
  };
  static constexpr size_t kMinBlock = 4096;
  // Growth ceiling: blocks double up to this; larger single allocations
  // get a dedicated exact-size block.
  static constexpr size_t kMaxBlock = 65536;
  std::vector<Block> blocks_;
  size_t bytes_used_ = 0;
};

/// \brief A recorded borrowed event stream: a vector of views plus the
/// arena that owns their bytes. The parse-into-arena and record-and-replay
/// paths both return this.
struct RecordedEvents {
  EventArena arena;
  std::vector<EventView> events;

  /// Deep-copies `v` into the arena and appends the arena-backed view.
  void Append(const EventView& v) { events.push_back(arena.Record(v)); }
};

/// \brief Consumer interface for event streams.
///
/// Implementations include the access-control evaluator, the canonical
/// writer and the DOM builder. Sinks have one entry point and consume
/// borrowed views in place: a view is valid only for the duration of the
/// call. A sink that must keep an event copies it (Materialize(), or an
/// EventArena); a caller holding owning Events feeds ViewOf(e, &scratch).
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Receives the next event. Returning a non-OK status aborts the stream.
  virtual Status OnEventView(const EventView& view) = 0;
};

}  // namespace csxa::xml

#endif  // CSXA_XML_EVENT_H_
