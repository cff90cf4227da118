#ifndef CSXA_CORE_RULE_H_
#define CSXA_CORE_RULE_H_

/// \file rule.h
/// \brief The access-control rule model of §2.2.
///
/// Rules are `<sign, subject, object>` triples; objects are XPath
/// expressions in XP{[],*,//}. A rule propagates from the objects it
/// matches to all their descendants. Conflicts are resolved by
/// Denial-Takes-Precedence and Most-Specific-Object-Takes-Precedence, with
/// a closed default (a node covered by no rule is forbidden).

#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "xpath/ast.h"
#include "xpath/parser.h"

namespace csxa::core {

/// Rule sign: permission or prohibition for the read operation.
enum class Sign : uint8_t {
  kPermit = 0,
  kDeny = 1,
};

/// \brief One access rule.
struct AccessRule {
  Sign sign = Sign::kPermit;
  /// The subject the rule applies to (user or role identifier).
  std::string subject;
  /// The object: an XPath expression over the document.
  xpath::PathExpr object;

  /// The source text of the object (kept for display/serialization).
  std::string object_text;
};

/// \brief A set of rules, typically all rules of one document.
class RuleSet {
 public:
  RuleSet() = default;

  /// Appends a rule given its parts; parses and validates the object.
  Status Add(Sign sign, std::string_view subject, std::string_view object);

  /// Parses the one-rule-per-line text format:
  ///
  ///     # comment
  ///     + alice //meeting
  ///     - bob   //note[visibility="private"]
  ///
  /// '+' is a permission, '-' a prohibition; subject is a single token.
  /// Lines are read in place, and the rule list is sized once.
  static Result<RuleSet> ParseText(std::string_view text);

  /// Serializes back to the text format (round-trips through ParseText).
  std::string ToText() const;

  /// All rules.
  const std::vector<AccessRule>& rules() const { return rules_; }
  /// Rules whose subject equals `subject`.
  std::vector<AccessRule> ForSubject(const std::string& subject) const;
  /// Distinct subjects in insertion order.
  std::vector<std::string> Subjects() const;

  size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }

 private:
  std::vector<AccessRule> rules_;
};

}  // namespace csxa::core

#endif  // CSXA_CORE_RULE_H_
