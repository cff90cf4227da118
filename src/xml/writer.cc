#include "xml/writer.h"

#include "xml/escape.h"

namespace csxa::xml {

Status CanonicalWriter::OnEventView(const EventView& event) {
  std::string& out = *out_;
  switch (event.type) {
    case EventType::kOpen:
      out.push_back('<');
      out += event.name;
      for (size_t i = 0; i < event.num_attrs; ++i) {
        const AttrView& a = event.attrs[i];
        out.push_back(' ');
        out += a.name;
        out += "=\"";
        AppendEscaped(a.value, &out);
        out.push_back('"');
      }
      out.push_back('>');
      ++depth_;
      return Status::OK();
    case EventType::kValue:
      AppendEscaped(event.text, &out);
      return Status::OK();
    case EventType::kClose:
      if (depth_ == 0) {
        return Status::InvalidArgument("close event without open");
      }
      out += "</";
      out += event.name;
      out.push_back('>');
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
