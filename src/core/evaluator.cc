#include "core/evaluator.h"

#include <algorithm>

#include "common/logging.h"

namespace csxa::core {

using xml::AttrView;
using xml::Event;
using xml::EventType;
using xml::EventView;

namespace {

// Slots of the first output ring; it doubles when full.
constexpr size_t kFirstRingSlots = 8;

// Copies borrowed attribute views into an owning vector, reusing the
// existing elements' string capacity (steady state: no allocation).
void AssignAttrs(std::vector<xml::Attribute>* dst, const AttrView* attrs,
                 size_t n) {
  if (dst->size() > n) dst->resize(n);
  for (size_t i = 0; i < dst->size(); ++i) {
    (*dst)[i].name.assign(attrs[i].name);
    (*dst)[i].value.assign(attrs[i].value);
  }
  for (size_t i = dst->size(); i < n; ++i) {
    dst->push_back(xml::Attribute{std::string(attrs[i].name),
                                  std::string(attrs[i].value)});
  }
}

}  // namespace

size_t StreamingEvaluator::Snapshot::ModeledBytes() const {
  size_t n = 0;
  for (const SnapCand& c : auth) n += 3 + (c.deps_end - c.deps_begin);
  for (const SnapCand& c : query) n += 3 + (c.deps_end - c.deps_begin);
  return n;
}

void StreamingEvaluator::NavRun::Start(const CompiledRule* compiled) {
  rule = compiled;
  positive = compiled->positive;
  Level root;
  root.live_mask = 1;
  root.token_units = 2;  // one token, no deps
  levels.assign(1, root);
  tokens.assign(1, Token{});
  cands.clear();
  deps.clear();
  dormant = 0;
  dep_cand_count = 0;
}

Result<std::unique_ptr<StreamingEvaluator>> StreamingEvaluator::Create(
    const std::vector<AccessRule>& rules, const xpath::PathExpr* query,
    xml::EventSink* out) {
  auto ev = std::unique_ptr<StreamingEvaluator>(new StreamingEvaluator());
  CSXA_RETURN_IF_ERROR(ev->Reset(rules, query, out));
  return ev;
}

Status StreamingEvaluator::Reset(const std::vector<AccessRule>& rules,
                                 const xpath::PathExpr* query,
                                 xml::EventSink* out) {
  // Refuse events and skip probes until the new session is fully wired.
  finished_ = true;
  doc_tags_bound_ = false;
  out_ = out;
  compiled_rules_.clear();
  compiled_query_.reset();
  query_run_ = nullptr;
  for (const AccessRule& r : rules) {
    CSXA_ASSIGN_OR_RETURN(
        CompiledRule cr, CompileExpr(r.object, r.sign == Sign::kPermit));
    compiled_rules_.push_back(std::move(cr));
  }
  if (query != nullptr) {
    CSXA_ASSIGN_OR_RETURN(CompiledRule cq, CompileExpr(*query, true));
    compiled_query_ = std::make_unique<CompiledRule>(std::move(cq));
  }

  // Intern the rule alphabet: every tag named by a navigational or
  // predicate state, across rules and query.
  rule_tags_ = Interner();
  auto intern_path = [this](CompiledPath* path) {
    for (CompiledPath::State& st : path->states) {
      if (!st.wildcard && !st.tag.empty()) {
        st.tag_id = rule_tags_.Intern(st.tag);
      }
    }
  };
  for (CompiledRule& cr : compiled_rules_) {
    intern_path(&cr.nav);
    for (CompiledPath& p : cr.predicates) intern_path(&p);
  }
  if (compiled_query_) {
    intern_path(&compiled_query_->nav);
    for (CompiledPath& p : compiled_query_->predicates) intern_path(&p);
  }

  // Build the combined transition index: per slot the static self-loop /
  // wildcard masks, plus a dense (TagId × slot) table of literal-edge
  // state masks. Slot = rule index; the query takes the last slot.
  num_slots_ = compiled_rules_.size() + (compiled_query_ ? 1 : 0);
  rule_static_.assign(num_slots_, RuleStatic{});
  edge_masks_.assign(rule_tags_.size() * num_slots_, 0);
  auto index_slot = [this](size_t slot, const CompiledPath& nav) {
    RuleStatic& rs = rule_static_[slot];
    if (nav.states.size() > 64) {
      rs.oversize = true;
      return;
    }
    for (size_t s = 0; s + 1 < nav.states.size(); ++s) {
      const CompiledPath::State& st = nav.states[s];
      uint64_t bit = uint64_t{1} << s;
      if (st.self_loop) rs.self_loop_mask |= bit;
      if (st.wildcard) {
        rs.wildcard_edge_mask |= bit;
      } else if (st.tag_id != kNoTagId) {
        edge_masks_[st.tag_id * num_slots_ + slot] |= bit;
      }
    }
    // A self-loop on the final state would keep tokens alive; final states
    // never carry one (chain compilation), but account for safety.
    if (nav.states.back().self_loop && nav.states.size() <= 64) {
      rs.self_loop_mask |= uint64_t{1} << (nav.states.size() - 1);
    }
  };

  // Wire the runs after all compilations (stable pointers).
  run_modeled_units_ = 0;
  runs_.resize(compiled_rules_.size());
  for (size_t i = 0; i < compiled_rules_.size(); ++i) {
    runs_[i].Start(&compiled_rules_[i]);
    index_slot(i, compiled_rules_[i].nav);
    run_modeled_units_ += 2;
  }
  if (compiled_query_) {
    query_storage_.Start(compiled_query_.get());
    query_run_ = &query_storage_;
    index_slot(num_slots_ - 1, compiled_query_->nav);
    run_modeled_units_ += 2;
  }

  doc_to_rule_.clear();
  obligations_.Clear();
  depth_ = 0;
  pipe_head_ = 0;
  pipe_size_ = 0;
  composer_size_ = 0;
  last_open_decision_ = DecisionResult{};
  last_open_decided_definitively_ = false;
  pipeline_modeled_ = 0;
  composer_modeled_ = 0;
  stats_ = EvaluatorStats{};
  finished_ = false;
  return Status::OK();
}

void StreamingEvaluator::BindDocumentTags(const Interner& doc_tags) {
  doc_to_rule_.resize(doc_tags.size());
  for (TagId i = 0; i < doc_tags.size(); ++i) {
    doc_to_rule_[i] = rule_tags_.Lookup(doc_tags.Name(i));
  }
  auto bind_rule = [&doc_tags](CompiledRule* rule) {
    BindTags(doc_tags, &rule->nav);
    for (CompiledPath& p : rule->predicates) BindTags(doc_tags, &p);
  };
  for (CompiledRule& cr : compiled_rules_) bind_rule(&cr);
  if (compiled_query_) bind_rule(compiled_query_.get());
  doc_tags_bound_ = true;
}

TagId StreamingEvaluator::ResolveTag(const xml::EventView& event) const {
  if (event.tag_id != kNoTagId && event.tag_id < doc_to_rule_.size()) {
    return doc_to_rule_[event.tag_id];
  }
  return rule_tags_.Lookup(event.name);
}

void StreamingEvaluator::AdvanceNav(NavRun* run, size_t slot, TagId tag) {
  if (run->dormant > 0) {
    // Empty stays empty deeper down; O(1) until the depth closes.
    ++run->dormant;
    return;
  }
  const CompiledPath& nav = run->rule->nav;
  Level& top = run->levels.back();
  const auto top_begin = top.token_begin;
  const auto top_end = static_cast<uint32_t>(run->tokens.size());
  const RuleStatic& rs = rule_static_[slot];
  if (!rs.oversize) {
    uint64_t live = top.live_mask;
    uint64_t advancing =
        live & (rs.wildcard_edge_mask | EdgeMask(slot, tag));
    if (advancing == 0) {
      uint64_t kept = live & rs.self_loop_mask;
      if (kept == 0) {
        // No live transition on this tag: the next level is provably empty.
        stats_.nfa_transitions += top_end - top_begin;
        ++run->dormant;
        return;
      }
      if (kept == live) {
        // Every token survives via its self-loop and nothing advances:
        // the next level is identical to the top one — just note a repeat.
        stats_.nfa_transitions += top_end - top_begin;
        run_modeled_units_ += top.token_units;
        ++top.repeats;
        return;
      }
      // Partial survival: fall through to the token loop.
    }
  }

  // The next level is built at the tails of the run's flat arrays. The top
  // level is read by index, by value: appending may move the arrays.
  Level next;
  next.token_begin = top_end;
  next.cand_begin = static_cast<uint32_t>(run->cands.size());
  next.deps_begin = static_cast<uint32_t>(run->deps.size());
  // One obligation per (predicate, node) even if several tokens enter the
  // predicated state at this node.
  const bool has_preds = !run->rule->predicates.empty();
  if (has_preds) pred_scratch_.assign(run->rule->predicates.size(), -1);

  for (uint32_t i = top_begin; i < top_end; ++i) {
    const Token t = run->tokens[i];
    const CompiledPath::State& st = nav.states[static_cast<size_t>(t.state)];
    ++stats_.nfa_transitions;
    if (st.self_loop) {
      // The survivor keeps its dependency list, which lives below.
      run->tokens.push_back(t);
      if (t.state < 64) next.live_mask |= uint64_t{1} << t.state;
      next.token_units += 2 + (t.deps_end - t.deps_begin);
    }
    if (t.state + 1 <= nav.final_state &&
        (st.wildcard || (tag != kNoTagId && st.tag_id == tag))) {
      Token nt;
      nt.state = t.state + 1;
      nt.deps_begin = static_cast<uint32_t>(run->deps.size());
      for (uint32_t k = t.deps_begin; k < t.deps_end; ++k) {
        const int dep = run->deps[k];
        run->deps.push_back(dep);
      }
      for (int pid : nav.states[static_cast<size_t>(nt.state)].pred_ids) {
        int& cached = pred_scratch_[static_cast<size_t>(pid)];
        if (cached < 0) {
          cached = obligations_.Create(
              &run->rule->predicates[static_cast<size_t>(pid)], depth_);
          ++stats_.obligations_created;
        }
        run->deps.push_back(cached);
      }
      nt.deps_end = static_cast<uint32_t>(run->deps.size());
      const uint32_t n_deps = nt.deps_end - nt.deps_begin;
      // Dedupe identical tokens; a duplicate's list is dropped again and
      // its candidate shares the equal list already in the arena.
      bool dup = false;
      for (size_t j = top_end; j < run->tokens.size(); ++j) {
        const Token& e = run->tokens[j];
        if (e.state == nt.state &&
            std::ranges::equal(run->DepsOf(e.deps_begin, e.deps_end),
                               run->DepsOf(nt.deps_begin, nt.deps_end))) {
          run->deps.resize(nt.deps_begin);
          nt.deps_begin = e.deps_begin;
          nt.deps_end = e.deps_end;
          dup = true;
          break;
        }
      }
      if (nt.state == nav.final_state) {
        if (n_deps > 0) ++run->dep_cand_count;
        run->cands.push_back(Candidate{depth_, nt.deps_begin, nt.deps_end});
        next.cand_units += 3 + n_deps;
        ++stats_.candidates_created;
      }
      if (!dup) {
        if (nt.state < 64) next.live_mask |= uint64_t{1} << nt.state;
        next.token_units += 2 + n_deps;
        run->tokens.push_back(nt);
      }
    }
  }
  if (run->tokens.size() == top_end) {
    // Oversize fallback only: the mask test already proved this otherwise.
    // No token means no candidate and no new dependency list either.
    ++run->dormant;
    return;
  }
  run->levels.push_back(next);
  run_modeled_units_ += next.token_units + next.cand_units;
}

void StreamingEvaluator::RetreatNav(NavRun* run) {
  if (run->dormant > 0) {
    --run->dormant;
    return;
  }
  Level& top = run->levels.back();
  if (top.repeats > 0) {
    --top.repeats;
    run_modeled_units_ -= top.token_units;
    return;
  }
  for (size_t i = top.cand_begin; i < run->cands.size(); ++i) {
    const Candidate& c = run->cands[i];
    if (c.deps_end != c.deps_begin) --run->dep_cand_count;
  }
  run_modeled_units_ -= top.token_units + top.cand_units;
  run->tokens.resize(top.token_begin);
  run->cands.resize(top.cand_begin);
  run->deps.resize(top.deps_begin);
  run->levels.pop_back();
}

StreamingEvaluator::CandStatus StreamingEvaluator::StatusOf(
    std::span<const int> deps) const {
  bool pending = false;
  for (int dep : deps) {
    switch (obligations_.state(dep)) {
      case ObligationSet::State::kFalse:
        return CandStatus::kDead;
      case ObligationSet::State::kPending:
        pending = true;
        break;
      case ObligationSet::State::kTrue:
        break;
    }
  }
  return pending ? CandStatus::kPending : CandStatus::kHolds;
}

StreamingEvaluator::DecisionResult StreamingEvaluator::Combine(
    const WorldAcc& deny_world, const WorldAcc& permit_world, bool has_query,
    bool query_min, bool query_max) {
  // Authorization, bracketed by two extreme worlds. Pending candidates of
  // negative rules hold in the deny-world; of positive rules in the
  // permit-world. Per-rule monotonicity makes the bracket exact (see
  // "Access-control semantics" in src/core/README.md).
  DecisionResult r;
  bool permit_in_deny_world = deny_world.Permit();
  bool permit_in_permit_world = permit_world.Permit();
  if (permit_in_deny_world == permit_in_permit_world) {
    r.auth = permit_in_deny_world ? Tri::kYes : Tri::kNo;
  } else {
    r.auth = Tri::kPending;
  }

  if (!has_query) {
    r.query = Tri::kYes;
  } else {
    r.query = (query_min == query_max) ? (query_min ? Tri::kYes : Tri::kNo)
                                       : Tri::kPending;
  }

  if (r.auth == Tri::kNo || r.query == Tri::kNo) {
    r.delivered = Tri::kNo;
  } else if (r.auth == Tri::kYes && r.query == Tri::kYes) {
    r.delivered = Tri::kYes;
  } else {
    r.delivered = Tri::kPending;
  }
  return r;
}

StreamingEvaluator::DecisionResult StreamingEvaluator::DecideLive() const {
  WorldAcc deny_world, permit_world;
  for (const NavRun& run : runs_) {
    if (run.cands.empty()) continue;
    if (run.dep_cand_count == 0) {
      // Every candidate holds unconditionally in both worlds; the last one
      // sits on the deepest level that has any.
      int eff = run.cands.back().depth;
      deny_world.AddRule(eff, run.positive);
      permit_world.AddRule(eff, run.positive);
      continue;
    }
    int eff_deny = -1, eff_permit = -1;
    for (const Candidate& c : run.cands) {
      CandStatus s = StatusOf(run.DepsOf(c.deps_begin, c.deps_end));
      if (s == CandStatus::kDead) continue;
      bool holds_deny =
          s == CandStatus::kHolds ||
          (s == CandStatus::kPending && !run.positive);
      bool holds_permit =
          s == CandStatus::kHolds ||
          (s == CandStatus::kPending && run.positive);
      if (holds_deny && c.depth > eff_deny) eff_deny = c.depth;
      if (holds_permit && c.depth > eff_permit) eff_permit = c.depth;
    }
    deny_world.AddRule(eff_deny, run.positive);
    permit_world.AddRule(eff_permit, run.positive);
  }
  bool query_min = false, query_max = false;
  if (query_run_ && !query_run_->cands.empty()) {
    if (query_run_->dep_cand_count == 0) {
      query_min = true;
      query_max = true;
    } else {
      for (const Candidate& c : query_run_->cands) {
        CandStatus s =
            StatusOf(query_run_->DepsOf(c.deps_begin, c.deps_end));
        if (s == CandStatus::kHolds) {
          query_min = true;
          query_max = true;
        } else if (s == CandStatus::kPending) {
          query_max = true;
        }
      }
    }
  }
  return Combine(deny_world, permit_world, query_run_ != nullptr, query_min,
                 query_max);
}

StreamingEvaluator::DecisionResult StreamingEvaluator::Decide(
    const Snapshot& snap) const {
  auto deps_of = [&snap](const SnapCand& c) {
    return std::span<const int>(snap.deps).subspan(
        c.deps_begin, c.deps_end - c.deps_begin);
  };
  WorldAcc deny_world, permit_world;
  size_t i = 0;
  while (i < snap.auth.size()) {
    uint32_t rule = snap.auth[i].rule;
    bool positive = snap.auth[i].positive;
    int eff_deny = -1, eff_permit = -1;
    for (; i < snap.auth.size() && snap.auth[i].rule == rule; ++i) {
      const SnapCand& c = snap.auth[i];
      CandStatus s = StatusOf(deps_of(c));
      if (s == CandStatus::kDead) continue;
      bool holds_deny =
          s == CandStatus::kHolds || (s == CandStatus::kPending && !positive);
      bool holds_permit =
          s == CandStatus::kHolds || (s == CandStatus::kPending && positive);
      if (holds_deny && c.depth > eff_deny) eff_deny = c.depth;
      if (holds_permit && c.depth > eff_permit) eff_permit = c.depth;
    }
    deny_world.AddRule(eff_deny, positive);
    permit_world.AddRule(eff_permit, positive);
  }
  bool query_min = false, query_max = false;
  for (const SnapCand& c : snap.query) {
    CandStatus s = StatusOf(deps_of(c));
    if (s == CandStatus::kHolds) {
      query_min = true;
      query_max = true;
    } else if (s == CandStatus::kPending) {
      query_max = true;
    }
  }
  return Combine(deny_world, permit_world, snap.has_query, query_min,
                 query_max);
}

void StreamingEvaluator::BuildSnapshot(Snapshot* snap) const {
  snap->Clear();
  auto append = [snap](const NavRun& run, uint32_t slot,
                       std::vector<SnapCand>* dst) {
    for (const Candidate& c : run.cands) {
      SnapCand sc;
      sc.depth = c.depth;
      sc.rule = slot;
      sc.positive = run.positive;
      sc.deps_begin = static_cast<uint32_t>(snap->deps.size());
      std::span<const int> deps = run.DepsOf(c.deps_begin, c.deps_end);
      snap->deps.insert(snap->deps.end(), deps.begin(), deps.end());
      sc.deps_end = static_cast<uint32_t>(snap->deps.size());
      dst->push_back(sc);
    }
  };
  for (size_t i = 0; i < runs_.size(); ++i) {
    append(runs_[i], static_cast<uint32_t>(i), &snap->auth);
  }
  if (query_run_) {
    snap->has_query = true;
    append(*query_run_, 0, &snap->query);
  }
}

Status StreamingEvaluator::OnEventView(const EventView& event) {
  if (finished_) {
    return Status::InvalidArgument("event after end of stream");
  }
  ++stats_.events;
  switch (event.type) {
    case EventType::kOpen:
      return HandleOpen(event);
    case EventType::kValue:
      return HandleValue(event);
    case EventType::kClose:
      return HandleClose(event);
    case EventType::kEnd:
      return Finish();
  }
  return Status::Internal("unknown event type");
}

StreamingEvaluator::OutEvent& StreamingEvaluator::PushOut(
    const xml::EventView& event, int depth) {
  if (pipe_size_ == pipeline_.size()) {
    // Full: double the ring, unrolled so the oldest event lands in slot 0.
    std::vector<OutEvent> grown(
        std::max(kFirstRingSlots, 2 * pipeline_.size()));
    for (size_t i = 0; i < pipe_size_; ++i) {
      grown[i] = std::move(PipelineAt(i));
    }
    pipeline_ = std::move(grown);
    pipe_head_ = 0;
  }
  OutEvent& oe = PipelineAt(pipe_size_++);
  oe.event.type = event.type;
  oe.event.name.assign(event.name);
  oe.event.text.assign(event.text);
  AssignAttrs(&oe.event.attrs, event.attrs, event.num_attrs);
  oe.event.tag_id = event.tag_id;
  oe.depth = depth;
  oe.has_snapshot = false;
  oe.decided = false;
  oe.delivered = false;
  oe.modeled = 2 + event.name.size() + event.text.size();
  for (size_t i = 0; i < event.num_attrs; ++i) {
    oe.modeled += event.attrs[i].name.size() + event.attrs[i].value.size();
  }
  return oe;
}

Status StreamingEvaluator::HandleOpen(const EventView& event) {
  ++depth_;
  TagId tag = ResolveTag(event);
  // 1. Existing predicate instances observe the open (they belong to
  //    ancestors); resolutions may unblock the pipeline later.
  obligations_.OnOpen(event.name, depth_, tag);
  // 2. Rule and query automata advance; new obligations/candidates appear.
  for (size_t i = 0; i < runs_.size(); ++i) AdvanceNav(&runs_[i], i, tag);
  if (query_run_) AdvanceNav(query_run_, num_slots_ - 1, tag);
  // 3. Immediate decision attempt over live state (also powers skips).
  DecisionResult d = DecideLive();
  last_open_decision_ = d;
  last_open_decided_definitively_ = (d.delivered != Tri::kPending);
  if (d.delivered == Tri::kPending) {
    ++stats_.nodes_initially_pending;
    OutEvent& ev = PushOut(event, depth_);
    BuildSnapshot(&ev.snapshot);
    ev.has_snapshot = true;
    ev.modeled += ev.snapshot.ModeledBytes();
    pipeline_modeled_ += ev.modeled;
    CSXA_RETURN_IF_ERROR(FlushPipeline());
  } else {
    bool delivered = (d.delivered == Tri::kYes);
    if (delivered) {
      ++stats_.nodes_permitted;
    } else {
      ++stats_.nodes_denied;
    }
    if (pipe_size_ == 0) {
      // Nothing buffered ahead of us: bypass the pipeline entirely.
      CSXA_RETURN_IF_ERROR(ComposeOpen(event, delivered));
    } else {
      OutEvent& ev = PushOut(event, depth_);
      ev.decided = true;
      ev.delivered = delivered;
      pipeline_modeled_ += ev.modeled;
      CSXA_RETURN_IF_ERROR(FlushPipeline());
    }
  }
  UpdatePeaks();
  return Status::OK();
}

Status StreamingEvaluator::HandleValue(const EventView& event) {
  if (depth_ == 0) {
    return Status::InvalidArgument("text event outside any element");
  }
  obligations_.OnValue(event.text, depth_);
  if (pipe_size_ == 0) {
    CSXA_RETURN_IF_ERROR(ComposeValue(event));
  } else {
    pipeline_modeled_ += PushOut(event, depth_).modeled;
    CSXA_RETURN_IF_ERROR(FlushPipeline());
  }
  UpdatePeaks();
  return Status::OK();
}

Status StreamingEvaluator::HandleClose(const EventView& event) {
  if (depth_ == 0) {
    return Status::InvalidArgument("close event without open");
  }
  // Predicate instances whose context closes here resolve to false; value
  // captures at this depth complete.
  obligations_.OnClose(depth_);
  for (NavRun& run : runs_) RetreatNav(&run);
  if (query_run_) RetreatNav(query_run_);
  if (pipe_size_ == 0) {
    CSXA_RETURN_IF_ERROR(ComposeClose(event));
    --depth_;
    last_open_decided_definitively_ = false;  // stale after close
  } else {
    pipeline_modeled_ += PushOut(event, depth_).modeled;
    --depth_;
    last_open_decided_definitively_ = false;  // stale after close
    CSXA_RETURN_IF_ERROR(FlushPipeline());
  }
  UpdatePeaks();
  return Status::OK();
}

Status StreamingEvaluator::FlushPipeline() {
  while (pipe_size_ > 0) {
    OutEvent& ev = PipelineAt(0);
    if (ev.event.type == EventType::kOpen && !ev.decided) {
      DecisionResult d = Decide(ev.snapshot);
      if (d.delivered == Tri::kPending) break;  // head still blocked
      ev.decided = true;
      ev.delivered = (d.delivered == Tri::kYes);
      if (ev.delivered) {
        ++stats_.nodes_permitted;
      } else {
        ++stats_.nodes_denied;
      }
    }
    CSXA_RETURN_IF_ERROR(DispatchToComposer(&ev));
    pipeline_modeled_ -= ev.modeled;
    // The slot keeps its capacity for a later event.
    pipe_head_ = (pipe_head_ + 1) & (pipeline_.size() - 1);
    --pipe_size_;
  }
  return Status::OK();
}

Status StreamingEvaluator::DispatchToComposer(OutEvent* ev) {
  // Buffered events are owning copies; the composer consumes views, so
  // bridge through the dispatch scratch, which no other borrow site
  // uses: no view still live up the call stack is clobbered.
  EventView view = ViewOf(ev->event, &dispatch_attr_scratch_);
  switch (view.type) {
    case EventType::kOpen:
      return ComposeOpen(view, ev->delivered);
    case EventType::kValue:
      return ComposeValue(view);
    case EventType::kClose:
      return ComposeClose(view);
    case EventType::kEnd:
      return Status::OK();
  }
  return Status::Internal("unknown out event");
}

Status StreamingEvaluator::EmitOpen(const ComposerEntry& entry, bool bare) {
  emit_attr_scratch_.clear();
  if (!bare) {
    for (const auto& a : entry.attrs) {
      emit_attr_scratch_.push_back(AttrView{a.name, a.value});
    }
  }
  return out_->OnEventView(
      EventView::Open(entry.tag, emit_attr_scratch_.data(),
                      emit_attr_scratch_.size(), entry.tag_id));
}

Status StreamingEvaluator::EmitClose(const ComposerEntry& entry) {
  return out_->OnEventView(EventView::Close(entry.tag, entry.tag_id));
}

Status StreamingEvaluator::ComposeOpen(const EventView& event,
                                       bool delivered) {
  if (composer_size_ == composer_.size()) composer_.emplace_back();
  ComposerEntry& entry = composer_[composer_size_++];
  entry.tag.assign(event.name);
  entry.tag_id = event.tag_id;
  AssignAttrs(&entry.attrs, event.attrs, event.num_attrs);
  entry.delivered = delivered;
  entry.emitted = false;
  composer_modeled_ += 2 + entry.tag.size();
  if (delivered) {
    CSXA_RETURN_IF_ERROR(EmitScaffolding());
    ComposerEntry& self = composer_[composer_size_ - 1];
    CSXA_RETURN_IF_ERROR(EmitOpen(self, /*bare=*/false));
    self.emitted = true;
  }
  return Status::OK();
}

Status StreamingEvaluator::EmitScaffolding() {
  // Emit bare open tags (no attributes) for every unemitted ancestor of the
  // entry at the top of the composer stack.
  for (size_t i = 0; i + 1 < composer_size_; ++i) {
    if (!composer_[i].emitted) {
      CSXA_RETURN_IF_ERROR(EmitOpen(composer_[i], /*bare=*/true));
      composer_[i].emitted = true;
    }
  }
  return Status::OK();
}

Status StreamingEvaluator::ComposeValue(const EventView& event) {
  if (composer_size_ > 0 && composer_[composer_size_ - 1].delivered) {
    // The zero-copy payoff: delivered text flows producer → sink as a
    // view, its bytes never copied into a per-event allocation.
    return out_->OnEventView(event);
  }
  return Status::OK();
}

Status StreamingEvaluator::ComposeClose(const EventView& /*event*/) {
  if (composer_size_ == 0) {
    return Status::Internal("composer close without open");
  }
  ComposerEntry& top = composer_[composer_size_ - 1];
  Status st = Status::OK();
  if (top.emitted) {
    st = EmitClose(top);
  }
  composer_modeled_ -= 2 + top.tag.size();
  --composer_size_;
  return st;
}

Status StreamingEvaluator::Finish() {
  if (finished_) return Status::OK();
  CSXA_RETURN_IF_ERROR(FlushPipeline());
  if (pipe_size_ != 0) {
    return Status::Internal("pending output not resolved at end of stream");
  }
  if (depth_ != 0) {
    return Status::InvalidArgument("unbalanced document: depth " +
                                   std::to_string(depth_) + " at end");
  }
  finished_ = true;
  return out_->OnEventView(EventView::End());
}

bool StreamingEvaluator::CanSkipCurrentSubtree(TagProbe has_tag,
                                               bool subtree_nonempty,
                                               bool /*has_text*/) {
  // The probe asks about document tag ids: without them, never skip.
  if (!doc_tags_bound_) return false;
  // Only a definitively-undelivered node may be skipped.
  if (!last_open_decided_definitively_ ||
      last_open_decision_.delivered != Tri::kNo) {
    return false;
  }
  // Live predicate instances must not be resolvable inside the subtree.
  if (obligations_.BlocksSkip(has_tag, subtree_nonempty, depth_)) {
    return false;
  }
  auto nav_reachable = [&](const NavRun& run) {
    if (run.dormant > 0) return false;  // no live tokens at this depth
    // The highest non-final active state decides (CanReachFinal); -1,
    // when every token is final, is no state at all.
    int from = -1;
    for (size_t i = run.levels.back().token_begin; i < run.tokens.size();
         ++i) {
      const int s = run.tokens[i].state;
      if (s != run.rule->nav.final_state && s > from) from = s;
    }
    return CanReachFinal(run.rule->nav, std::span<const int>(&from, 1),
                         has_tag, subtree_nonempty);
  };
  // Case A: authorization is definitively deny and no positive rule can
  // produce a deeper (overriding) match inside the subtree.
  if (last_open_decision_.auth == Tri::kNo) {
    bool positive_reachable = false;
    for (const NavRun& run : runs_) {
      if (run.positive && nav_reachable(run)) {
        positive_reachable = true;
        break;
      }
    }
    if (!positive_reachable) return true;
  }
  // Case B: the query definitively excludes this region and cannot match
  // inside it; nothing inside can be delivered regardless of rules.
  if (query_run_ && last_open_decision_.query == Tri::kNo &&
      !nav_reachable(*query_run_)) {
    return true;
  }
  return false;
}

size_t StreamingEvaluator::ModeledRamBytes() const {
  return run_modeled_units_ + obligations_.ModeledBytes() +
         pipeline_modeled_ + composer_modeled_;
}

size_t StreamingEvaluator::RecountModeledRamBytes() const {
  size_t n = obligations_.RecountModeledBytes();
  auto count_run = [&n](const NavRun& run) {
    for (size_t d = 0; d < run.levels.size(); ++d) {
      const Level& level = run.levels[d];
      const bool last = d + 1 == run.levels.size();
      const size_t token_end =
          last ? run.tokens.size() : run.levels[d + 1].token_begin;
      const size_t cand_end =
          last ? run.cands.size() : run.levels[d + 1].cand_begin;
      size_t tokens = 0;
      for (size_t i = level.token_begin; i < token_end; ++i) {
        tokens += 2 + (run.tokens[i].deps_end - run.tokens[i].deps_begin);
      }
      n += tokens * (1 + level.repeats);
      for (size_t i = level.cand_begin; i < cand_end; ++i) {
        n += 3 + (run.cands[i].deps_end - run.cands[i].deps_begin);
      }
    }
  };
  for (const NavRun& run : runs_) count_run(run);
  if (query_run_) count_run(*query_run_);
  for (size_t i = 0; i < pipe_size_; ++i) {
    const OutEvent& ev = PipelineAt(i);
    n += 2 + ev.event.name.size() + ev.event.text.size();
    for (const xml::Attribute& a : ev.event.attrs) {
      n += a.name.size() + a.value.size();
    }
    if (ev.has_snapshot) n += ev.snapshot.ModeledBytes();
  }
  for (size_t i = 0; i < composer_size_; ++i) {
    n += 2 + composer_[i].tag.size();
  }
  return n;
}

void StreamingEvaluator::UpdatePeaks() {
  size_t ram = ModeledRamBytes();
  if (ram > stats_.modeled_ram_peak) stats_.modeled_ram_peak = ram;
  if (pipe_size_ > stats_.buffered_events_peak) {
    stats_.buffered_events_peak = pipe_size_;
  }
}

}  // namespace csxa::core
