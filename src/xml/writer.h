#ifndef CSXA_XML_WRITER_H_
#define CSXA_XML_WRITER_H_

/// \file writer.h
/// \brief Canonical event-stream writer.
///
/// The SOE's delivered view leaves the card as an event stream; the proxy
/// renders it with this writer. Output is canonical (stable attribute
/// order as received, escaped text, no added whitespace) so that two event
/// streams are equal iff their rendered strings are equal — the property
/// the oracle tests rely on.

#include <string>
#include <vector>

#include "common/status.h"
#include "xml/event.h"

namespace csxa::xml {

/// \brief EventSink rendering canonical XML text.
///
/// Renders from borrowed views natively (`OnEventView`): text and
/// attribute bytes flow from the producer's buffer straight into the
/// output string, so the borrowed pipeline never materializes an event on
/// the way out.
class CanonicalWriter : public EventSink {
 public:
  Status OnEventView(const EventView& view) override;

  /// The rendered document so far.
  const std::string& str() const { return out_; }
  /// True if every opened element has closed.
  bool complete() const { return depth_ == 0; }

 private:
  std::string out_;
  int depth_ = 0;
};

/// \brief EventSink that records events into a vector (test utility).
class EventRecorder : public EventSink {
 public:
  Status OnEventView(const EventView& view) override {
    if (view.type != EventType::kEnd) events_.push_back(view.Materialize());
    return Status::OK();
  }
  const std::vector<Event>& events() const { return events_; }
  std::vector<Event> Take() { return std::move(events_); }

 private:
  std::vector<Event> events_;
};

/// Renders an event vector to canonical XML text.
Result<std::string> RenderEvents(const std::vector<Event>& events);

}  // namespace csxa::xml

#endif  // CSXA_XML_WRITER_H_
