#include "core/rule.h"

#include <algorithm>

namespace csxa::core {

Status RuleSet::Add(Sign sign, std::string_view subject,
                    std::string_view object) {
  if (subject.empty()) return Status::InvalidArgument("empty rule subject");
  CSXA_ASSIGN_OR_RETURN(xpath::PathExpr expr, xpath::ParsePath(object));
  AccessRule& r = rules_.emplace_back();
  r.sign = sign;
  r.subject.assign(subject);
  r.object = std::move(expr);
  r.object_text.assign(object);
  return Status::OK();
}

Result<RuleSet> RuleSet::ParseText(std::string_view text) {
  RuleSet set;
  // A rule per line at most: the rule list is sized once.
  set.rules_.reserve(1 + std::count(text.begin(), text.end(), '\n'));
  int lineno = 0;
  while (!text.empty()) {
    const size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view()
                                         : text.substr(eol + 1);
    ++lineno;
    auto error = [lineno](std::string_view what) {
      return Status::ParseError("rule line " + std::to_string(lineno) + ": " +
                                std::string(what));
    };
    // Trim leading whitespace.
    size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string_view::npos) continue;
    if (line[b] == '#') continue;
    char sign_char = line[b];
    if (sign_char != '+' && sign_char != '-') {
      return error("expected '+' or '-'");
    }
    size_t subj_begin = line.find_first_not_of(" \t", b + 1);
    if (subj_begin == std::string_view::npos) return error("missing subject");
    size_t subj_end = line.find_first_of(" \t", subj_begin);
    if (subj_end == std::string_view::npos) return error("missing object");
    size_t obj_begin = line.find_first_not_of(" \t", subj_end);
    if (obj_begin == std::string_view::npos) return error("missing object");
    size_t obj_end = line.find_last_not_of(" \t\r");
    Status st = set.Add(sign_char == '+' ? Sign::kPermit : Sign::kDeny,
                        line.substr(subj_begin, subj_end - subj_begin),
                        line.substr(obj_begin, obj_end - obj_begin + 1));
    if (!st.ok()) return error(st.ToString());
  }
  return set;
}

std::string RuleSet::ToText() const {
  std::string out;
  for (const AccessRule& r : rules_) {
    out += (r.sign == Sign::kPermit) ? "+ " : "- ";
    out += r.subject;
    out += " ";
    out += r.object_text.empty() ? xpath::ToString(r.object) : r.object_text;
    out += "\n";
  }
  return out;
}

std::vector<AccessRule> RuleSet::ForSubject(const std::string& subject) const {
  std::vector<AccessRule> out;
  for (const AccessRule& r : rules_) {
    if (r.subject == subject) out.push_back(r);
  }
  return out;
}

std::vector<std::string> RuleSet::Subjects() const {
  std::vector<std::string> out;
  for (const AccessRule& r : rules_) {
    bool seen = false;
    for (const std::string& s : out) {
      if (s == r.subject) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(r.subject);
  }
  return out;
}

}  // namespace csxa::core
