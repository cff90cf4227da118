#include "xpath/parser.h"

#include <cctype>

namespace csxa::xpath {

namespace {

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }
  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool Consume(const char* s) {
    SkipWs();
    const std::string_view token(s);
    if (text_.substr(pos_).starts_with(token)) {
      pos_ += token.size();
      return true;
    }
    return false;
  }
  Status Error(const std::string& msg) {
    return Status::ParseError("XPath position " + std::to_string(pos_) + ": " +
                              msg);
  }

  Result<std::string> Name() {
    SkipWs();
    size_t start = pos_;
    auto is_start = [](char c) {
      return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
    };
    auto is_char = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == '-' || c == '.' || c == ':';
    };
    if (pos_ >= text_.size() || !is_start(text_[pos_])) {
      return Error("expected element name");
    }
    while (pos_ < text_.size() && is_char(text_[pos_])) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<std::string> Literal() {
    SkipWs();
    if (pos_ >= text_.size()) return Error("expected literal");
    char c = text_[pos_];
    if (c == '"' || c == '\'') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != c) ++pos_;
      if (pos_ >= text_.size()) return Error("unterminated string literal");
      std::string lit(text_.substr(start, pos_ - start));
      ++pos_;
      return lit;
    }
    // Number literal.
    size_t start = pos_;
    if (text_[pos_] == '-' || text_[pos_] == '+') ++pos_;
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(text_[pos_]));
      ++pos_;
    }
    if (!digits) return Error("expected string or number literal");
    return std::string(text_.substr(start, pos_ - start));
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Result<Step> ParseStep(Cursor* cur, Axis axis);

Result<Predicate> ParsePredicateAt(Cursor* cur) {
  Predicate pred;
  // Relative path: optional './/' or './' prefix, or a bare step.
  Axis first_axis = Axis::kChild;
  if (cur->Consume(".//")) {
    first_axis = Axis::kDescendant;
  } else if (cur->Consume("./")) {
    first_axis = Axis::kChild;
  } else if (cur->Peek() == '/') {
    return cur->Error("absolute paths are not allowed inside predicates");
  } else if (cur->Peek() == '@') {
    return cur->Error("attribute tests are outside the supported fragment");
  }
  CSXA_ASSIGN_OR_RETURN(Step first, ParseStep(cur, first_axis));
  pred.path.steps.push_back(std::move(first));
  for (;;) {
    if (cur->Consume("//")) {
      CSXA_ASSIGN_OR_RETURN(Step s, ParseStep(cur, Axis::kDescendant));
      pred.path.steps.push_back(std::move(s));
    } else if (cur->Peek() == '/') {
      cur->Consume("/");
      CSXA_ASSIGN_OR_RETURN(Step s, ParseStep(cur, Axis::kChild));
      pred.path.steps.push_back(std::move(s));
    } else {
      break;
    }
  }
  // Optional comparison. Order matters: match two-char operators first.
  if (cur->Consume("!=")) {
    pred.op = CmpOp::kNe;
  } else if (cur->Consume("<=")) {
    pred.op = CmpOp::kLe;
  } else if (cur->Consume(">=")) {
    pred.op = CmpOp::kGe;
  } else if (cur->Consume("<")) {
    pred.op = CmpOp::kLt;
  } else if (cur->Consume(">")) {
    pred.op = CmpOp::kGt;
  } else if (cur->Consume("=")) {
    pred.op = CmpOp::kEq;
  } else {
    pred.op = CmpOp::kExists;
    return pred;
  }
  CSXA_ASSIGN_OR_RETURN(pred.literal, cur->Literal());
  return pred;
}

Result<Step> ParseStep(Cursor* cur, Axis axis) {
  Step step;
  step.axis = axis;
  if (cur->Consume("*")) {
    step.wildcard = true;
  } else if (cur->Peek() == '@') {
    return cur->Error("attribute steps are outside the supported fragment");
  } else {
    CSXA_ASSIGN_OR_RETURN(step.tag, cur->Name());
    if (cur->Peek() == '(') {
      return cur->Error("function calls are outside the supported fragment");
    }
  }
  while (cur->Consume("[")) {
    // Position predicates ([3]) are outside the fragment.
    if (std::isdigit(static_cast<unsigned char>(cur->Peek()))) {
      return cur->Error("position predicates are outside the supported fragment");
    }
    CSXA_ASSIGN_OR_RETURN(Predicate p, ParsePredicateAt(cur));
    if (!cur->Consume("]")) return cur->Error("expected ']'");
    step.predicates.push_back(std::move(p));
  }
  return step;
}

}  // namespace

Result<PathExpr> ParsePath(std::string_view text) {
  Cursor cur(text);
  PathExpr expr;
  if (cur.AtEnd()) return cur.Error("empty expression");
  for (;;) {
    Axis axis;
    if (cur.Consume("//")) {
      axis = Axis::kDescendant;
    } else if (cur.Consume("/")) {
      axis = Axis::kChild;
    } else if (expr.steps.empty()) {
      return cur.Error("path must start with '/' or '//'");
    } else {
      break;
    }
    CSXA_ASSIGN_OR_RETURN(Step s, ParseStep(&cur, axis));
    expr.steps.push_back(std::move(s));
    if (cur.AtEnd()) break;
  }
  if (!cur.AtEnd()) return cur.Error("trailing characters");
  if (expr.steps.empty()) return cur.Error("no steps");
  return expr;
}

Result<Predicate> ParsePredicateBody(std::string_view text) {
  Cursor cur(text);
  CSXA_ASSIGN_OR_RETURN(Predicate p, ParsePredicateAt(&cur));
  if (!cur.AtEnd()) return cur.Error("trailing characters");
  return p;
}

}  // namespace csxa::xpath
