#include "xml/writer.h"

#include "xml/escape.h"

namespace csxa::xml {

Status CanonicalWriter::OnEventView(const EventView& event) {
  switch (event.type) {
    case EventType::kOpen:
      out_.push_back('<');
      out_ += event.name;
      for (size_t i = 0; i < event.num_attrs; ++i) {
        const AttrView& a = event.attrs[i];
        out_.push_back(' ');
        out_ += a.name;
        out_ += "=\"";
        AppendEscaped(a.value, &out_);
        out_.push_back('"');
      }
      out_.push_back('>');
      ++depth_;
      return Status::OK();
    case EventType::kValue:
      AppendEscaped(event.text, &out_);
      return Status::OK();
    case EventType::kClose:
      if (depth_ == 0) {
        return Status::InvalidArgument("close event without open");
      }
      out_ += "</";
      out_ += event.name;
      out_.push_back('>');
      --depth_;
      return Status::OK();
    case EventType::kEnd:
      return Status::OK();
  }
  return Status::Internal("unknown event type");
}

Result<std::string> RenderEvents(const std::vector<Event>& events) {
  CanonicalWriter w;
  std::vector<AttrView> scratch;
  for (const Event& e : events) {
    CSXA_RETURN_IF_ERROR(w.OnEventView(ViewOf(e, &scratch)));
  }
  if (!w.complete()) {
    return Status::InvalidArgument("unbalanced event stream");
  }
  return w.str();
}

}  // namespace csxa::xml
