#ifndef CSXA_XML_DOM_H_
#define CSXA_XML_DOM_H_

/// \file dom.h
/// \brief In-memory XML tree.
///
/// The DOM exists for the *trusted terminal and test oracle only* — the
/// whole point of the paper is that the SOE cannot afford one (§2.3
/// "precluding materialization"). It backs the reference access-control
/// evaluator, the trusted-server baseline and document generators.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "xml/event.h"

namespace csxa::xml {

/// \brief A node in the tree: an element or a text node.
class DomNode {
 public:
  enum class Kind : uint8_t { kElement, kText };

  /// Creates an element node.
  static std::unique_ptr<DomNode> Element(std::string tag,
                                          std::vector<Attribute> attrs = {});
  /// Creates a text node.
  static std::unique_ptr<DomNode> Text(std::string text);

  Kind kind() const { return kind_; }
  bool is_element() const { return kind_ == Kind::kElement; }
  bool is_text() const { return kind_ == Kind::kText; }

  /// Element tag (empty for text nodes).
  const std::string& tag() const { return tag_; }
  /// Text content (empty for element nodes).
  const std::string& text() const { return text_; }
  /// Attributes (elements only).
  const std::vector<Attribute>& attrs() const { return attrs_; }

  /// Children in document order (elements only).
  const std::vector<std::unique_ptr<DomNode>>& children() const {
    return children_;
  }
  /// Parent element; nullptr at the root.
  DomNode* parent() const { return parent_; }
  /// Depth: root element is 1 (matches XPath step counting).
  int depth() const { return depth_; }

  /// Appends a child, wiring parent/depth. Returns the raw pointer.
  DomNode* AddChild(std::unique_ptr<DomNode> child);
  /// Convenience: appends a fresh element child.
  DomNode* AddElement(std::string tag, std::vector<Attribute> attrs = {});
  /// Convenience: appends a fresh text child.
  DomNode* AddText(std::string text);

  /// Concatenation of all descendant text (XPath string-value).
  std::string StringValue() const;

  /// Concatenation of the *direct* text children only. Value predicates in
  /// this system compare direct text (a streaming-friendly restriction;
  /// see DESIGN.md §4).
  std::string DirectText() const;

  /// Number of element nodes in this subtree (including self if element).
  size_t CountElements() const;
  /// Maximum element depth within this subtree.
  int MaxDepth() const;

  /// Pre-order walk emitting open/value/close events into `sink`
  /// (no trailing kEnd). Events are delivered as borrowed views over the
  /// DOM's own strings (`OnEventView`): view-aware sinks consume them
  /// zero-copy, plain sinks receive materialized copies via the default
  /// forwarding. With `tags`, every open/close event carries the
  /// interner's id for its tag, so id-dispatching consumers (the streaming
  /// evaluator after BindDocumentTags) skip per-event name lookups.
  Status EmitEvents(EventSink* sink, Interner* tags = nullptr) const;

  /// Collects every element in the subtree in document order.
  void CollectElements(std::vector<const DomNode*>* out) const;

 private:
  DomNode() = default;

  Status EmitEventsImpl(EventSink* sink, Interner* tags,
                        std::vector<AttrView>* attr_scratch) const;

  Kind kind_ = Kind::kElement;
  std::string tag_;
  std::string text_;
  std::vector<Attribute> attrs_;
  std::vector<std::unique_ptr<DomNode>> children_;
  DomNode* parent_ = nullptr;
  int depth_ = 1;
};

/// \brief An owned document: a root element plus parsing/serialization.
class DomDocument {
 public:
  DomDocument() = default;
  explicit DomDocument(std::unique_ptr<DomNode> root) : root_(std::move(root)) {}

  /// Parses a textual XML document.
  static Result<DomDocument> Parse(const std::string& text);

  /// Root element; nullptr for an empty document.
  DomNode* root() const { return root_.get(); }
  /// Transfers root ownership.
  std::unique_ptr<DomNode> TakeRoot() { return std::move(root_); }

  /// Serializes to compact canonical XML (attributes in stored order,
  /// escaped text, no insignificant whitespace). Suitable for equality
  /// comparison between evaluator outputs.
  std::string Serialize() const;
  /// Serializes with 2-space indentation for human consumption.
  std::string SerializePretty() const;

  /// Total element count (0 when empty).
  size_t CountElements() const { return root_ ? root_->CountElements() : 0; }
  /// Maximum depth (0 when empty).
  int MaxDepth() const { return root_ ? root_->MaxDepth() : 0; }

 private:
  std::unique_ptr<DomNode> root_;
};

/// \brief EventSink that builds a DOM from a stream of events.
///
/// Also used to materialize the *delivered view* produced by the streaming
/// evaluator so tests can compare it structurally with the oracle.
class DomBuilder : public EventSink {
 public:
  /// Nodes copy out of the view directly; no owning Event in between.
  Status OnEventView(const EventView& view) override;

  /// True once the root element has closed (or nothing was ever opened).
  bool complete() const { return open_stack_.empty(); }
  /// Takes the built document. Empty document if no events arrived.
  DomDocument TakeDocument();

 private:
  std::unique_ptr<DomNode> root_;
  std::vector<DomNode*> open_stack_;
};

}  // namespace csxa::xml

#endif  // CSXA_XML_DOM_H_
