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

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
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
  /// pushed into `out`, which must outlive the evaluator.
  static Result<std::unique_ptr<StreamingEvaluator>> Create(
      const std::vector<AccessRule>& rules, const xpath::PathExpr* query,
      xml::EventSink* out);

  /// Installs an O(1) translation from `doc_tags` ids (the producer's
  /// dictionary — e.g. the document codec's) to the evaluator's rule
  /// alphabet, so events carrying tag ids skip the per-event hash probe.
  /// Call before feeding events; without it, events fall back to a name
  /// lookup. The interner is copied from, not retained.
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
  /// in the subtree's tag set; `subtree_nonempty` tells whether the
  /// subtree contains at least one element; `has_text` whether it contains
  /// character data.
  bool CanSkipCurrentSubtree(
      const std::function<bool(std::string_view)>& has_tag,
      bool subtree_nonempty, bool has_text);
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
  // `depth`; it holds iff all obligations in `deps` resolve true.
  struct Candidate {
    int depth = 0;
    std::vector<int> deps;
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
  // Only built for nodes whose decision is still pending; pooled.
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
  // path through predicated steps.
  struct Token {
    int state = 0;
    std::vector<int> deps;
  };

  // Execution state of one rule's (or the query's) navigational automaton.
  struct NavRun {
    const CompiledRule* rule = nullptr;
    bool positive = true;
    // Token stack: tokens_[d] = active tokens at depth d (0 = virtual
    // root). Levels above `tokens.size()-1` that would be empty are not
    // materialized; `dormant` counts them instead.
    std::vector<std::vector<Token>> tokens;
    // Match stack: cands[d] = candidates created at depth d.
    std::vector<std::vector<Candidate>> cands;
    // Bitmask of states occupied by tokens[d] (valid for sizes <= 64).
    std::vector<uint64_t> live_masks;
    // Modeled bytes contributed by level d, split so repeated levels
    // (which share tokens but never candidates) account correctly.
    std::vector<uint32_t> level_token_units;
    std::vector<uint32_t> level_cand_units;
    // Run-length compression: level_repeats[d] counts additional depths
    // whose token set is identical to tokens[d] (self-loop steady state,
    // no advances, no candidates). They are popped before tokens[d] is.
    std::vector<uint32_t> level_repeats;
    // Number of virtual empty levels above tokens.back(): while > 0 the
    // rule is untouched by events except for depth bookkeeping.
    int dormant = 0;
    // Total candidates across all levels (0 = skip in decisions).
    size_t cand_count = 0;
    // Candidates with unresolved-dependency lists. When 0, every candidate
    // holds unconditionally and the rule's decision input is just the
    // deepest candidate depth — O(1) via cand_level_depths.back().
    size_t dep_cand_count = 0;
    // Depth of each materialized level that holds >= 1 candidate (stack).
    std::vector<int> cand_level_depths;
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

  // A buffered output event awaiting decision or order release.
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
  // Builds the buffered snapshot for a still-pending node (pooled).
  Snapshot BuildSnapshot();
  void ReleaseSnapshot(Snapshot&& snap);
  // Evaluates a buffered snapshot under current obligation resolutions.
  DecisionResult Decide(const Snapshot& snap) const;
  // Candidate status under current resolutions.
  enum class CandStatus : uint8_t { kHolds, kDead, kPending };
  CandStatus StatusOf(const Candidate& c) const;
  CandStatus StatusOfSpan(const Snapshot& snap, const SnapCand& c) const;

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
  OutEvent AcquireOut(const xml::EventView& event, int depth);
  void RecycleOut(OutEvent&& ev);

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
  std::vector<NavRun> runs_;        // one per rule
  std::unique_ptr<NavRun> query_run_;
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

  int depth_ = 0;
  bool finished_ = false;
  std::deque<OutEvent> pipeline_;
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

  // Pools: retired level vectors, snapshots and pipeline slots are reused
  // so the steady-state event loop performs no heap allocation.
  std::vector<std::vector<Token>> token_level_pool_;
  std::vector<std::vector<Candidate>> cand_level_pool_;
  std::vector<Snapshot> snapshot_pool_;
  std::vector<OutEvent> out_pool_;
  std::vector<int> pred_scratch_;  // per-rule predicate-instance cache

  // Incremental ModeledRamBytes components.
  size_t run_modeled_units_ = 0;
  size_t pipeline_modeled_ = 0;
  size_t composer_modeled_ = 0;

  EvaluatorStats stats_;
};

}  // namespace csxa::core

#endif  // CSXA_CORE_EVALUATOR_H_
