#include "core/automaton.h"

namespace csxa::core {

size_t CompiledRule::TotalStates() const {
  size_t n = nav.size();
  for (const CompiledPath& p : predicates) n += p.size();
  return n;
}

namespace {

// Builds the state chain for `steps`, appending predicate compilations to
// `preds` when non-null (null for predicate paths, where nested predicates
// are rejected).
Result<CompiledPath> CompileSteps(const std::vector<xpath::Step>& steps,
                                  std::vector<CompiledPath>* preds) {
  if (steps.empty()) return Status::InvalidArgument("empty path");
  CompiledPath path;
  path.states.resize(steps.size() + 1);
  for (size_t i = 0; i < steps.size(); ++i) {
    const xpath::Step& step = steps[i];
    CompiledPath::State& from = path.states[i];
    from.self_loop = (step.axis == xpath::Axis::kDescendant);
    from.wildcard = step.wildcard;
    from.tag = step.tag;
    CompiledPath::State& to = path.states[i + 1];
    for (const xpath::Predicate& p : step.predicates) {
      if (preds == nullptr) {
        return Status::NotSupported(
            "nested predicates are outside the streaming fragment");
      }
      CSXA_ASSIGN_OR_RETURN(CompiledPath pp,
                            CompileRelative(p.path, p.op, p.literal));
      to.pred_ids.push_back(static_cast<int>(preds->size()));
      preds->push_back(std::move(pp));
    }
  }
  path.final_state = static_cast<int>(steps.size());
  return path;
}

}  // namespace

Result<CompiledPath> CompileRelative(const xpath::RelativePath& path,
                                     xpath::CmpOp op,
                                     const std::string& literal) {
  CSXA_ASSIGN_OR_RETURN(CompiledPath cp, CompileSteps(path.steps, nullptr));
  cp.op = op;
  cp.literal = literal;
  return cp;
}

Result<CompiledRule> CompileExpr(const xpath::PathExpr& expr, bool positive) {
  CompiledRule rule;
  rule.positive = positive;
  rule.source = xpath::ToString(expr);
  CSXA_ASSIGN_OR_RETURN(rule.nav, CompileSteps(expr.steps, &rule.predicates));
  return rule;
}

void BindTags(const Interner& doc_tags, CompiledPath* path) {
  for (CompiledPath::State& st : path->states) {
    st.doc_tag_id = st.wildcard ? kNoTagId : doc_tags.Lookup(st.tag);
  }
}

bool CanReachFinal(const CompiledPath& path, std::span<const int> active,
                   TagProbe has_tag, bool subtree_nonempty) {
  if (!subtree_nonempty) return false;
  // An edge from state s to s+1 is traversable if its name test can be
  // satisfied by some tag in the subtree; self-loops do not change
  // reachability. The final state is reachable from s iff every edge from
  // s on is traversable, and the edges from the highest active state are
  // a suffix of those from any lower one: walking from it decides all.
  const int size = static_cast<int>(path.states.size());
  int s = -1;
  for (int a : active) {
    if (a >= 0 && a < size && a > s) s = a;
  }
  if (s < 0) return false;
  for (; s != path.final_state; ++s) {
    if (s + 1 >= size) return false;
    const CompiledPath::State& st = path.states[static_cast<size_t>(s)];
    if (!st.wildcard && !has_tag(st.doc_tag_id)) return false;
  }
  return true;
}

}  // namespace csxa::core
