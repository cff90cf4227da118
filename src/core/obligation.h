#ifndef CSXA_CORE_OBLIGATION_H_
#define CSXA_CORE_OBLIGATION_H_

/// \file obligation.h
/// \brief Predicate instances ("pending" machinery of §2.3).
///
/// When a token traverses a predicated step at a concrete document node,
/// the predicate must hold *within that node's subtree* for the match to be
/// valid. An Obligation is one such instance: a mini NFA run over the
/// context node's subtree. It resolves to true the moment its path (and
/// value comparison, if any) is satisfied, and to false when the context
/// node closes unsatisfied. Rules whose navigational final state is
/// reached while obligations are unresolved are the paper's *pending*
/// rules; the evaluator buffers their output until resolution.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/automaton.h"

namespace csxa::core {

/// \brief A live predicate-path NFA run rooted at a context node.
///
/// Depths are absolute document depths (root element = 1); the run only
/// consumes events strictly below its context depth. A run is reusable:
/// Reset() starts it over for another context node and keeps the capacity
/// of its state stack and capture buffers, so ObligationSet recycles
/// retired runs instead of allocating one per obligation.
class PredRun {
 public:
  PredRun() = default;
  /// `path` must outlive the run. `ctx_depth` is the context node's depth.
  PredRun(const CompiledPath* path, int ctx_depth) { Reset(path, ctx_depth); }

  /// Starts the run over at a new context node.
  void Reset(const CompiledPath* path, int ctx_depth);

  /// Feeds an element open at `depth`. Returns true if the predicate
  /// became satisfied (kExists predicates satisfy on open). `tag_id` is
  /// the tag resolved against the owning evaluator's rule alphabet; when
  /// both it and a state's tag_id are set, matching is an integer compare,
  /// otherwise it falls back to the name.
  bool OnOpen(std::string_view tag, int depth, TagId tag_id = kNoTagId);
  /// Feeds character data at element depth `depth` (the enclosing
  /// element's depth). Captures direct text of value-test matches.
  void OnValue(std::string_view text, int depth);
  /// Feeds an element close at `depth`. Returns true if a value-test
  /// capture completed and satisfied the comparison.
  bool OnClose(int depth);

  /// True once the predicate is satisfied.
  bool satisfied() const { return satisfied_; }
  /// Context node depth.
  int ctx_depth() const { return ctx_depth_; }

  /// True if a value capture is open at exactly `depth` — content at that
  /// depth (direct text) may still resolve this run, blocking skips.
  bool HasCaptureAtDepth(int depth) const;
  /// Conservative: true if this run could become satisfied by content of a
  /// subtree whose tag set `has_tag` probes (skip safety test).
  bool CanResolveWithin(TagProbe has_tag, bool subtree_nonempty) const;

  /// Modeled on-card footprint in bytes (stack entries + capture text):
  /// a running total kept by the On* calls, O(1).
  size_t ModeledBytes() const { return modeled_; }
  /// ModeledBytes() recomputed from scratch (differential check).
  size_t RecountModeledBytes() const;
  /// Number of NFA transitions executed so far (cost accounting).
  size_t transitions() const { return transitions_; }

 private:
  // Open value-test capture: absolute depth + accumulated direct text.
  struct Capture {
    int depth = 0;
    std::string text;
  };

  // Active states of the innermost level.
  std::span<const int> Top() const {
    return std::span<const int>(states_).subspan(level_begin_.back());
  }

  const CompiledPath* path_ = nullptr;
  int ctx_depth_ = 0;
  bool satisfied_ = false;
  size_t transitions_ = 0;
  // Flat state stack: level i (relative depth i = depth - ctx_depth) holds
  // states_[level_begin_[i] ..) up to the next level's begin, or the end;
  // level 0 = {0}, the start state waiting at the context node.
  std::vector<int> states_;
  std::vector<uint32_t> level_begin_;
  // Open captures are captures_[0 .. num_captures_), a stack: an element
  // opens at most one (only one state precedes the final one), so they
  // nest, and the innermost is last. Closed slots keep their text
  // capacity for the next capture.
  std::vector<Capture> captures_;
  size_t num_captures_ = 0;
  size_t modeled_ = 0;
};

/// \brief Registry of obligations for one evaluation session.
///
/// Obligation ids are stable for the lifetime of the session (buffered
/// decisions refer to them after resolution). Clear() starts a new
/// session and keeps every buffer's capacity: the entry table, and the
/// pool of runs that retired obligations hand back for reuse.
class ObligationSet {
 public:
  enum class State : uint8_t { kPending, kTrue, kFalse };

  /// Creates a pending obligation; returns its id.
  int Create(const CompiledPath* path, int ctx_depth);

  /// Forgets every obligation (a new session); capacity is kept.
  void Clear();

  /// Feeds events to all live obligations. Each returns true if at least
  /// one obligation changed state (a signal to retry the output pipeline).
  bool OnOpen(std::string_view tag, int depth, TagId tag_id = kNoTagId);
  bool OnValue(std::string_view text, int depth);
  /// Close also resolves to false every pending obligation whose context
  /// node is the element closing at `depth`.
  bool OnClose(int depth);

  /// Resolution state of obligation `id`.
  State state(int id) const { return entries_[static_cast<size_t>(id)].state; }
  /// Number of obligations ever created.
  size_t size() const { return entries_.size(); }
  /// Number currently pending.
  size_t live_count() const { return live_.size(); }

  /// Skip support: true if any live obligation could be resolved by
  /// content of the current node's subtree — either its path NFA can reach
  /// its final state over the subtree's tag set, or it has an open value
  /// capture at `subtree_root_depth` (direct text of the node whose
  /// content would be skipped).
  bool BlocksSkip(TagProbe has_tag, bool subtree_nonempty,
                  int subtree_root_depth) const;

  /// Total modeled footprint of live obligations (4 bytes each plus their
  /// run): a running total, O(1).
  size_t ModeledBytes() const { return modeled_; }
  /// ModeledBytes() recomputed from scratch by walking every live run
  /// (differential check).
  size_t RecountModeledBytes() const;
  /// Total predicate-NFA transitions executed.
  size_t transitions() const;

 private:
  struct Entry {
    State state = State::kPending;
    int ctx_depth = 0;
    int run = -1;  // index into runs_ while pending, -1 once resolved
  };
  PredRun& RunOf(const Entry& e) { return runs_[static_cast<size_t>(e.run)]; }
  const PredRun& RunOf(const Entry& e) const {
    return runs_[static_cast<size_t>(e.run)];
  }

  std::vector<Entry> entries_;
  std::vector<int> live_;
  // Run slots: a retired obligation's slot goes to free_runs_ and is
  // Reset() by the next Create.
  std::vector<PredRun> runs_;
  std::vector<int> free_runs_;
  size_t retired_transitions_ = 0;
  size_t modeled_ = 0;

  // Resolves a live entry: retires its run and its share of modeled_.
  void Retire(Entry* e, State state);
  bool Sweep();  // drops resolved runs from live_, returns true if any
};

}  // namespace csxa::core

#endif  // CSXA_CORE_OBLIGATION_H_
