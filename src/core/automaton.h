#ifndef CSXA_CORE_AUTOMATON_H_
#define CSXA_CORE_AUTOMATON_H_

/// \file automaton.h
/// \brief Non-deterministic automata compiled from XPath expressions.
///
/// Each access rule (and the query) is represented by an NFA as in Fig. 2
/// of the paper: a navigational path — one state per step, a self-loop for
/// the descendant axis — plus predicate paths compiled as separate
/// automata attached to the state where the predicate applies. The
/// evaluator executes these with a token stack (core/evaluator.h).

#include <concepts>
#include <span>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "xpath/ast.h"

namespace csxa::core {

/// \brief A compiled path automaton (navigational or predicate).
///
/// State 0 is the start state; state `i` is reached after matching step
/// `i`. Each state's outgoing edge leads to state+1 on the step's name
/// test; a state whose *outgoing* step uses the descendant axis carries a
/// self-loop matching any element.
struct CompiledPath {
  struct State {
    /// True if the automaton may stay in this state across any element
    /// (descendant-axis self-loop, drawn as '*' in Fig. 2).
    bool self_loop = false;
    /// Name test of the outgoing edge to state index+1 (unused for the
    /// final state).
    bool wildcard = false;
    std::string tag;
    /// Interned form of `tag` in the owning evaluator's rule alphabet
    /// (stamped by StreamingEvaluator::Create; kNoTagId until then).
    /// Matching falls back to the string when either side lacks an id.
    TagId tag_id = kNoTagId;
    /// `tag` in the document's dictionary (stamped by BindTags; kNoTagId
    /// when the document never uses the tag, or before binding). The skip
    /// probe asks about this id.
    TagId doc_tag_id = kNoTagId;
    /// Predicate automata (indices into CompiledRule::predicates)
    /// instantiated when a token *enters* this state. Empty for predicate
    /// paths themselves — the fragment forbids nested predicates.
    std::vector<int> pred_ids;
  };

  std::vector<State> states;
  /// Index of the accepting state (== states.size() - 1).
  int final_state = 0;
  /// For predicate paths: comparison applied to the matched node's direct
  /// text. kExists means pure structural existence.
  xpath::CmpOp op = xpath::CmpOp::kExists;
  std::string literal;

  /// Number of states.
  size_t size() const { return states.size(); }
};

/// \brief A rule (or query) compiled to its navigational automaton plus
/// predicate automata.
struct CompiledRule {
  CompiledPath nav;
  std::vector<CompiledPath> predicates;
  /// True for permissions (and for queries).
  bool positive = true;
  /// Display string for diagnostics.
  std::string source;

  /// Total number of NFA states across nav and predicate paths.
  size_t TotalStates() const;
};

/// Compiles an absolute path expression. Fails with NotSupported on nested
/// predicates (outside the streaming fragment).
Result<CompiledRule> CompileExpr(const xpath::PathExpr& expr, bool positive);

/// Compiles a relative predicate path.
Result<CompiledPath> CompileRelative(const xpath::RelativePath& path,
                                     xpath::CmpOp op, const std::string& literal);

/// \brief Non-owning membership test over a subtree's tag set, keyed by
/// the document's tag id (CompiledPath::State::doc_tag_id).
///
/// A function pointer plus a pointer to the wrapped callable: passing one
/// costs no allocation. The callable must outlive every call through the
/// probe, so pass probes down a call chain, never store them. A probe
/// that answers from the document's tag sets returns false for kNoTagId:
/// a tag the document never uses is in no subtree.
class TagProbe {
 public:
  template <typename F>
    requires(!std::same_as<F, TagProbe> &&
             std::predicate<const F&, TagId>)
  TagProbe(const F& fn)  // NOLINT: implicit, like a function reference
      : ctx_(&fn), call_([](const void* ctx, TagId tag) {
          return static_cast<bool>((*static_cast<const F*>(ctx))(tag));
        }) {}

  bool operator()(TagId tag) const { return call_(ctx_, tag); }

 private:
  const void* ctx_;
  bool (*call_)(const void*, TagId);
};

/// Stamps every state's doc_tag_id: `tag` looked up in `doc_tags` (one
/// hash probe per state, once per document instead of once per probe).
void BindTags(const Interner& doc_tags, CompiledPath* path);

/// \brief Conservative reachability test used by the skip index (§2.3).
///
/// Returns true if, starting from any state in `active`, the automaton
/// could reach `final_state` by consuming only elements whose tags satisfy
/// `has_tag` (wildcard edges require the subtree to be non-empty). When
/// this returns false for every positive automaton and every live
/// predicate run, the subtree cannot change any delivery decision and may
/// be skipped. States outside the automaton are ignored. Edges only lead
/// from a state to the next, so this walks the chain from the highest
/// active state: no visited set, no allocation.
bool CanReachFinal(const CompiledPath& path, std::span<const int> active,
                   TagProbe has_tag, bool subtree_nonempty);

}  // namespace csxa::core

#endif  // CSXA_CORE_AUTOMATON_H_
