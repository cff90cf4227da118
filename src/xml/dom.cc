#include "xml/dom.h"

#include "xml/escape.h"
#include "xml/parser.h"

namespace csxa::xml {

std::unique_ptr<DomNode> DomNode::Element(std::string tag,
                                          std::vector<Attribute> attrs) {
  auto n = std::unique_ptr<DomNode>(new DomNode());
  n->kind_ = Kind::kElement;
  n->tag_ = std::move(tag);
  n->attrs_ = std::move(attrs);
  return n;
}

std::unique_ptr<DomNode> DomNode::Text(std::string text) {
  auto n = std::unique_ptr<DomNode>(new DomNode());
  n->kind_ = Kind::kText;
  n->text_ = std::move(text);
  return n;
}

DomNode* DomNode::AddChild(std::unique_ptr<DomNode> child) {
  child->parent_ = this;
  child->depth_ = depth_ + 1;
  children_.push_back(std::move(child));
  return children_.back().get();
}

DomNode* DomNode::AddElement(std::string tag, std::vector<Attribute> attrs) {
  return AddChild(Element(std::move(tag), std::move(attrs)));
}

DomNode* DomNode::AddText(std::string text) {
  return AddChild(Text(std::move(text)));
}

std::string DomNode::StringValue() const {
  if (is_text()) return text_;
  std::string out;
  for (const auto& c : children_) out += c->StringValue();
  return out;
}

std::string DomNode::DirectText() const {
  if (is_text()) return text_;
  std::string out;
  for (const auto& c : children_) {
    if (c->is_text()) out += c->text();
  }
  return out;
}

size_t DomNode::CountElements() const {
  if (is_text()) return 0;
  size_t n = 1;
  for (const auto& c : children_) n += c->CountElements();
  return n;
}

int DomNode::MaxDepth() const {
  if (is_text()) return 0;
  int best = depth_;
  for (const auto& c : children_) {
    int d = c->MaxDepth();
    if (d > best) best = d;
  }
  return best;
}

Status DomNode::EmitEvents(EventSink* sink, Interner* tags) const {
  std::vector<AttrView> attr_scratch;
  return EmitEventsImpl(sink, tags, &attr_scratch);
}

Status DomNode::EmitEventsImpl(EventSink* sink, Interner* tags,
                               std::vector<AttrView>* attr_scratch) const {
  if (is_text()) {
    return sink->OnEventView(EventView::Value(text_));
  }
  TagId id = tags != nullptr ? tags->Intern(tag_) : kNoTagId;
  attr_scratch->clear();
  for (const Attribute& a : attrs_) {
    attr_scratch->push_back(AttrView{a.name, a.value});
  }
  CSXA_RETURN_IF_ERROR(sink->OnEventView(EventView::Open(
      tag_, attr_scratch->data(), attr_scratch->size(), id)));
  for (const auto& c : children_) {
    CSXA_RETURN_IF_ERROR(c->EmitEventsImpl(sink, tags, attr_scratch));
  }
  return sink->OnEventView(EventView::Close(tag_, id));
}

void DomNode::CollectElements(std::vector<const DomNode*>* out) const {
  if (is_text()) return;
  out->push_back(this);
  for (const auto& c : children_) c->CollectElements(out);
}

Result<DomDocument> DomDocument::Parse(const std::string& text) {
  DomBuilder builder;
  CSXA_RETURN_IF_ERROR(PullParser::ParseAll(text, &builder));
  if (!builder.complete()) {
    return Status::ParseError("document ended with open elements");
  }
  return builder.TakeDocument();
}

namespace {
void SerializeNode(const DomNode* n, bool pretty, int indent, std::string* out) {
  if (n->is_text()) {
    if (pretty) out->append(static_cast<size_t>(indent) * 2, ' ');
    *out += Escape(n->text());
    if (pretty) out->push_back('\n');
    return;
  }
  if (pretty) out->append(static_cast<size_t>(indent) * 2, ' ');
  out->push_back('<');
  *out += n->tag();
  for (const Attribute& a : n->attrs()) {
    out->push_back(' ');
    *out += a.name;
    *out += "=\"";
    *out += Escape(a.value);
    out->push_back('"');
  }
  if (n->children().empty() && pretty) {
    // Self-closing only in pretty mode; canonical mode always writes the
    // explicit pair so it matches CanonicalWriter output byte-for-byte.
    *out += "/>";
    out->push_back('\n');
    return;
  }
  out->push_back('>');
  if (pretty) out->push_back('\n');
  for (const auto& c : n->children()) {
    SerializeNode(c.get(), pretty, indent + 1, out);
  }
  if (pretty) out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += "</";
  *out += n->tag();
  out->push_back('>');
  if (pretty) out->push_back('\n');
}
}  // namespace

std::string DomDocument::Serialize() const {
  std::string out;
  if (root_) SerializeNode(root_.get(), /*pretty=*/false, 0, &out);
  return out;
}

std::string DomDocument::SerializePretty() const {
  std::string out;
  if (root_) SerializeNode(root_.get(), /*pretty=*/true, 0, &out);
  return out;
}

Status DomBuilder::OnEventView(const EventView& event) {
  switch (event.type) {
    case EventType::kOpen: {
      std::vector<Attribute> attrs;
      attrs.reserve(event.num_attrs);
      for (size_t i = 0; i < event.num_attrs; ++i) {
        attrs.push_back(Attribute{std::string(event.attrs[i].name),
                                  std::string(event.attrs[i].value)});
      }
      auto node = DomNode::Element(std::string(event.name), std::move(attrs));
      if (open_stack_.empty()) {
        if (root_) {
          return Status::ParseError("multiple root elements in event stream");
        }
        root_ = std::move(node);
        open_stack_.push_back(root_.get());
      } else {
        open_stack_.push_back(open_stack_.back()->AddChild(std::move(node)));
      }
      return Status::OK();
    }
    case EventType::kValue: {
      if (open_stack_.empty()) {
        return Status::ParseError("text event outside any element");
      }
      open_stack_.back()->AddText(std::string(event.text));
      return Status::OK();
    }
    case EventType::kClose: {
      if (open_stack_.empty()) {
        return Status::ParseError("close event without matching open");
      }
      if (open_stack_.back()->tag() != event.name) {
        return Status::ParseError("close event tag mismatch: expected " +
                                  open_stack_.back()->tag() + " got " +
                                  std::string(event.name));
      }
      open_stack_.pop_back();
      return Status::OK();
    }
    case EventType::kEnd:
      return Status::OK();
  }
  return Status::Internal("unknown event type");
}

DomDocument DomBuilder::TakeDocument() { return DomDocument(std::move(root_)); }

}  // namespace csxa::xml
