#ifndef CSXA_CORE_EVALUATOR_H_
#define CSXA_CORE_EVALUATOR_H_

/// \file evaluator.h
/// \brief The streaming access-control evaluator — the paper's core
/// contribution (§2.3).
///
/// The evaluator consumes open/value/close events and produces the
/// *delivered view*: every permitted element (with attributes and text)
/// that also lies in the optional query scope, plus the bare tags of their
/// denied ancestors (structure scaffolding preserving well-formedness).
///
/// Machinery, mapped to the paper's vocabulary:
///  - each rule is a non-deterministic automaton (core/automaton.h);
///  - a *token stack* tracks the set of active states per depth,
///    materializing all paths the NFA can follow;
///  - a *predicate set* (core/obligation.h) records predicate instances
///    and their resolution;
///  - the per-rule *match stacks* of candidates generalize the paper's
///    sign stack: the conflict-resolution decision (closed policy,
///    Denial-Takes-Precedence, Most-Specific-Object-Takes-Precedence) is
///    computed from the deepest holding candidates;
///  - *pending* rules (final state reached, predicates unresolved) make
///    node decisions tri-state; undecidable output is buffered in an
///    order-preserving pipeline and flushed when obligations resolve.
///
/// Dispatch is interned: Create() interns every tag named by a rule into
/// the evaluator's *rule alphabet* and precomputes, per rule, bitmask
/// transition tables keyed by (rule, state, TagId). A document event
/// resolves its tag to the alphabet once (O(1) via BindDocumentTags, one
/// hash probe otherwise) and then only rules with a live transition on
/// that tag run their token loop; rules whose token set has gone empty
/// are dormant at O(1) per event until their depth closes.
///
/// The evaluator never materializes the document; its modeled memory
/// footprint (ModeledRamBytes, maintained incrementally) is what the
/// smart card would consume.
///
/// Storage is flat and reused: each automaton's token levels, candidates
/// and their obligation-id lists live in per-run arrays truncated level by
/// level, buffered output sits in a ring of reused slots, and Reset()
/// starts a new session on the same buffers. A card that keeps one
/// evaluator across sessions (soe::CardEngine) runs a warm session without
/// a per-element heap allocation.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/interner.h"
#include "core/automaton.h"
#include "core/obligation.h"
#include "core/rule.h"
#include "xml/event.h"

namespace csxa::core {

/// Tri-state outcome used for authorization, query scope and delivery.
enum class Tri : uint8_t { kNo = 0, kYes = 1, kPending = 2 };

/// \brief Counters exposed for benchmarks and the SOE cost model.
struct EvaluatorStats {
  size_t events = 0;
  size_t nfa_transitions = 0;
  size_t obligations_created = 0;
  size_t candidates_created = 0;
  size_t nodes_permitted = 0;
  size_t nodes_denied = 0;
  size_t nodes_initially_pending = 0;
  size_t buffered_events_peak = 0;
  size_t modeled_ram_peak = 0;
  size_t subtrees_skipped = 0;
};

/// \brief Streaming evaluator for one (document, subject[, query]) session.
class StreamingEvaluator : public xml::EventSink {
 public:
  /// Creates an evaluator for `rules` (already filtered to one subject).
  /// `query` may be null (whole authorized view). Delivered-view events are
  /// pushed into `out`, which must stay valid until the session ends (the
  /// last event, or the next Reset()).
  static Result<std::unique_ptr<StreamingEvaluator>> Create(
      const std::vector<AccessRule>& rules, const xpath::PathExpr* query,
      xml::EventSink* out);

  StreamingEvaluator(const StreamingEvaluator&) = delete;
  StreamingEvaluator& operator=(const StreamingEvaluator&) = delete;

  /// Starts a new session as Create() would, on this evaluator's buffers:
  /// every level array, the output ring, the composer stack and the
  /// obligation table keep their capacity. On failure the evaluator
  /// refuses events until a Reset() succeeds.
  Status Reset(const std::vector<AccessRule>& rules,
               const xpath::PathExpr* query, xml::EventSink* out);

  /// Installs an O(1) translation from `doc_tags` ids (the producer's
  /// dictionary — e.g. the document codec's) to the evaluator's rule
  /// alphabet, so events carrying tag ids skip the per-event hash probe,
  /// and stamps every rule state with its document tag id for the skip
  /// probe (CanSkipCurrentSubtree). Call before feeding events; without
  /// it, events fall back to a name lookup and no subtree is skipped. The
  /// interner is copied from, not retained.
  void BindDocumentTags(const Interner& doc_tags);

  /// Feeds the next document event (kEnd finishes the stream). The
  /// evaluator keys on TagId and copies bytes only into its pooled
  /// buffered-output levels, so a view is consumed in place — no
  /// per-event materialization anywhere on the permit path.
  Status OnEventView(const xml::EventView& view) override;

  /// Must be called (or an kEnd event fed) after the last event; verifies
  /// that all pending output was resolved and flushed.
  Status Finish();

  /// \name Skip-index support (§2.3)
  /// @{
  /// Decides whether the subtree of the element just opened can be skipped
  /// without changing any output: its root's delivery must be definitively
  /// negative, no positive automaton may reach a match inside, and no live
  /// predicate instance may resolve inside. `has_tag` answers membership
  /// in the subtree's tag set by document tag id (BindDocumentTags; false
  /// until it ran); `subtree_nonempty` tells whether the subtree contains
  /// at least one element; `has_text` whether it contains character data.
  bool CanSkipCurrentSubtree(TagProbe has_tag, bool subtree_nonempty,
                             bool has_text);
  /// Records that the caller skipped the current subtree (stats only; the
  /// caller must next feed the matching close event).
  void NoteSubtreeSkipped() { ++stats_.subtrees_skipped; }
  /// @}

  /// Current modeled on-card memory footprint in bytes: a sum of running
  /// totals, O(1).
  size_t ModeledRamBytes() const;
  /// ModeledRamBytes() recomputed from scratch by walking every token,
  /// candidate, obligation, buffered event and composer entry: the
  /// differential check for the running totals.
  size_t RecountModeledRamBytes() const;
  /// Statistics accumulated so far.
  const EvaluatorStats& stats() const { return stats_; }
  /// Navigational plus predicate NFA transitions (cost-model input).
  size_t TotalTransitions() const {
    return stats_.nfa_transitions + obligations_.transitions();
  }
  /// Current element depth (root = 1).
  int depth() const { return depth_; }

 private:
  // --- decision machinery -------------------------------------------------

  // A navigational match candidate: the rule matched (or may match) at
  // `depth`; it holds iff all obligations in its dependency list resolve
  // true. The list is [deps_begin, deps_end) of the owning run's arena.
  struct Candidate {
    int depth = 0;
    uint32_t deps_begin = 0;
    uint32_t deps_end = 0;
  };

  // Flattened candidate inside a buffered Snapshot; deps live in the
  // snapshot's shared pool (arena), so dep-less candidates cost nothing.
  struct SnapCand {
    int depth = 0;
    uint32_t rule = 0;  // slot index (auth candidates only)
    bool positive = true;
    uint32_t deps_begin = 0;
    uint32_t deps_end = 0;
  };

  // Snapshot of all candidates relevant to one node's decision, grouped
  // by rule (auth entries are contiguous per rule, in slot order).
  // Only built for nodes whose decision is still pending.
  struct Snapshot {
    std::vector<SnapCand> auth;
    std::vector<SnapCand> query;
    std::vector<int> deps;
    bool has_query = false;
    size_t ModeledBytes() const;
    void Clear() {
      auth.clear();
      query.clear();
      deps.clear();
      has_query = false;
    }
  };

  struct DecisionResult {
    Tri auth = Tri::kNo;
    Tri query = Tri::kYes;
    Tri delivered = Tri::kNo;
  };

  // One NFA token: active state plus the obligations accumulated along its
  // path through predicated steps ([deps_begin, deps_end) of the arena).
  struct Token {
    int state = 0;
    uint32_t deps_begin = 0;
    uint32_t deps_end = 0;
  };

  // One materialized depth of a run's token stack. Its tokens run from
  // token_begin to the next level's token_begin (or the end), and so do
  // its candidates from cand_begin.
  struct Level {
    uint32_t token_begin = 0;
    uint32_t cand_begin = 0;
    // Arena size when the level was pushed: popping the level truncates
    // the arena back to it.
    uint32_t deps_begin = 0;
    // Bitmask of states occupied by the level's tokens (valid for
    // automata of <= 64 states).
    uint64_t live_mask = 0;
    // Modeled bytes contributed by the level, split so repeated levels
    // (which share tokens but never candidates) account correctly.
    uint32_t token_units = 0;
    uint32_t cand_units = 0;
    // Run-length compression: additional depths whose token set is
    // identical to this level's (self-loop steady state, no advances, no
    // candidates). They are popped before the level is.
    uint32_t repeats = 0;
  };

  // Execution state of one rule's (or the query's) navigational automaton.
  // Token stack (the paper's) and match stack are flat arrays cut into
  // levels; levels[0] is the virtual root. Depths that would hold no token
  // are not materialized: `dormant` counts them instead.
  struct NavRun {
    const CompiledRule* rule = nullptr;
    bool positive = true;
    std::vector<Level> levels;
    std::vector<Token> tokens;
    std::vector<Candidate> cands;
    // Dependency arena: the obligation-id lists of tokens and candidates.
    // A level's new lists are appended when it is pushed and dropped when
    // it is popped; a token surviving on its self-loop keeps its list.
    std::vector<int> deps;
    // Number of virtual empty levels above levels.back(): while > 0 the
    // rule is untouched by events except for depth bookkeeping.
    int dormant = 0;
    // Candidates with non-empty dependency lists. When 0, every candidate
    // holds unconditionally and the rule's decision input is just the
    // deepest candidate depth — O(1) via cands.back().
    size_t dep_cand_count = 0;

    // Back to the virtual root: one start token, no candidates.
    void Start(const CompiledRule* compiled);
    std::span<const int> DepsOf(uint32_t begin, uint32_t end) const {
      return std::span<const int>(deps).subspan(begin, end - begin);
    }
  };

  // Static per-rule dispatch data (index keyed by (rule, state, TagId);
  // tag-specific edge masks live in edge_masks_).
  struct RuleStatic {
    uint64_t self_loop_mask = 0;
    uint64_t wildcard_edge_mask = 0;
    // Automaton has > 64 states: masks are unusable, always run the
    // token loop (correct, just slower; unreachable for sane rules).
    bool oversize = false;
  };

  // A buffered output event awaiting decision or order release. A ring
  // slot: its strings and snapshot keep their capacity across uses.
  struct OutEvent {
    xml::Event event;
    int depth = 0;
    // Only for still-undecided kOpen events:
    Snapshot snapshot;
    bool has_snapshot = false;
    bool decided = false;
    bool delivered = false;
    size_t modeled = 0;  // cached ModeledRamBytes contribution
  };

  StreamingEvaluator() = default;

  Status HandleOpen(const xml::EventView& event);
  Status HandleValue(const xml::EventView& event);
  Status HandleClose(const xml::EventView& event);

  // Resolves an event's tag against the rule alphabet (kNoTagId = no
  // literal edge anywhere can match).
  TagId ResolveTag(const xml::EventView& event) const;
  uint64_t EdgeMask(size_t slot, TagId tag) const {
    return tag == kNoTagId ? 0 : edge_masks_[tag * num_slots_ + slot];
  }

  // Advances one automaton on an open event; records candidates and
  // instantiates obligations. `slot` indexes rule_static_/edge_masks_.
  void AdvanceNav(NavRun* run, size_t slot, TagId tag);
  // Pops one level (or one dormant unit) on a close event.
  void RetreatNav(NavRun* run);

  // Decision over the live run state (no materialization).
  DecisionResult DecideLive() const;
  // Fills a pending node's snapshot (reusing its capacity).
  void BuildSnapshot(Snapshot* snap) const;
  // Evaluates a buffered snapshot under current obligation resolutions.
  DecisionResult Decide(const Snapshot& snap) const;
  // Status of a candidate with dependency list `deps` under current
  // resolutions.
  enum class CandStatus : uint8_t { kHolds, kDead, kPending };
  CandStatus StatusOf(std::span<const int> deps) const;

  // Shared conflict-resolution fold (closed policy, DTP, MSOTP) over the
  // two extreme worlds; see Decide()/DecideLive().
  struct WorldAcc {
    int best_depth = -1;
    bool deny_at_best = false;
    void AddRule(int eff, bool positive) {
      if (eff < 0) return;
      if (eff > best_depth) {
        best_depth = eff;
        deny_at_best = !positive;
      } else if (eff == best_depth && !positive) {
        deny_at_best = true;  // Denial-Takes-Precedence at equal depth
      }
    }
    bool Permit() const { return best_depth >= 0 && !deny_at_best; }
  };
  static DecisionResult Combine(const WorldAcc& deny_world,
                                const WorldAcc& permit_world, bool has_query,
                                bool query_min, bool query_max);

  // Order-preserving output: append then flush as far as decisions allow.
  Status FlushPipeline();
  Status DispatchToComposer(OutEvent* ev);
  // Appends a slot for `event` at the ring's tail (growing a full ring).
  OutEvent& PushOut(const xml::EventView& event, int depth);
  OutEvent& PipelineAt(size_t i) {
    return pipeline_[(pipe_head_ + i) & (pipeline_.size() - 1)];
  }
  const OutEvent& PipelineAt(size_t i) const {
    return pipeline_[(pipe_head_ + i) & (pipeline_.size() - 1)];
  }

  // --- composer: lazy ancestors / scaffolding ------------------------------
  // The stack lives in composer_[0 .. composer_size_); retired entries
  // keep their string/vector capacity for reuse (no per-node allocation).
  struct ComposerEntry {
    std::string tag;
    TagId tag_id = kNoTagId;
    std::vector<xml::Attribute> attrs;
    bool delivered = false;
    bool emitted = false;
  };
  Status ComposeOpen(const xml::EventView& event, bool delivered);
  Status ComposeValue(const xml::EventView& event);
  Status ComposeClose(const xml::EventView& event);
  Status EmitScaffolding();
  // Emits an open/close as a view borrowing the composer entry's strings
  // (valid for the duration of the sink call).
  Status EmitOpen(const ComposerEntry& entry, bool bare);
  Status EmitClose(const ComposerEntry& entry);

  void UpdatePeaks();

  // --- members -------------------------------------------------------------
  std::vector<CompiledRule> compiled_rules_;
  std::unique_ptr<CompiledRule> compiled_query_;
  std::vector<NavRun> runs_;  // one per rule
  // The query's run: &query_storage_ when there is a query, else null.
  NavRun* query_run_ = nullptr;
  NavRun query_storage_;
  ObligationSet obligations_;
  xml::EventSink* out_ = nullptr;

  // Dispatch index: rule alphabet, per-slot static masks and a dense
  // (TagId × slot) table of literal-edge masks. Slot i < runs_.size() is
  // rule i; the last slot (when a query exists) is the query.
  Interner rule_tags_;
  std::vector<RuleStatic> rule_static_;
  std::vector<uint64_t> edge_masks_;
  size_t num_slots_ = 0;
  // Producer-id → rule-alphabet translation (BindDocumentTags).
  std::vector<TagId> doc_to_rule_;
  // Rule states carry document tag ids: the skip probe may run.
  bool doc_tags_bound_ = false;

  int depth_ = 0;
  bool finished_ = false;
  // Buffered output, in document order: a ring of pipe_size_ slots from
  // pipe_head_ over pipeline_, whose size is 0 or a power of two.
  std::vector<OutEvent> pipeline_;
  size_t pipe_head_ = 0;
  size_t pipe_size_ = 0;
  std::vector<ComposerEntry> composer_;
  size_t composer_size_ = 0;
  // Attribute-view scratch, one per borrow site so a view built for one
  // site is never clobbered while still live: pipeline dispatch and
  // composer emission.
  std::vector<xml::AttrView> dispatch_attr_scratch_;
  std::vector<xml::AttrView> emit_attr_scratch_;
  // Decision for the innermost open element (used by CanSkipCurrentSubtree).
  DecisionResult last_open_decision_;
  bool last_open_decided_definitively_ = false;

  std::vector<int> pred_scratch_;  // per-rule predicate-instance cache

  // Incremental ModeledRamBytes components.
  size_t run_modeled_units_ = 0;
  size_t pipeline_modeled_ = 0;
  size_t composer_modeled_ = 0;

  EvaluatorStats stats_;
};

}  // namespace csxa::core

#endif  // CSXA_CORE_EVALUATOR_H_
