#include "core/evaluator.h"

#include <algorithm>

#include "common/logging.h"

namespace csxa::core {

using xml::AttrView;
using xml::Event;
using xml::EventType;
using xml::EventView;

namespace {

// Cap on recycled level vectors / snapshots / pipeline slots; beyond this
// the pools stop growing and retired storage is simply freed.
constexpr size_t kMaxPooled = 64;

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

Result<std::unique_ptr<StreamingEvaluator>> StreamingEvaluator::Create(
    const std::vector<AccessRule>& rules, const xpath::PathExpr* query,
    xml::EventSink* out) {
  auto ev = std::unique_ptr<StreamingEvaluator>(new StreamingEvaluator());
  ev->out_ = out;
  for (const AccessRule& r : rules) {
    CSXA_ASSIGN_OR_RETURN(
        CompiledRule cr, CompileExpr(r.object, r.sign == Sign::kPermit));
    ev->compiled_rules_.push_back(std::move(cr));
  }
  if (query != nullptr) {
    CSXA_ASSIGN_OR_RETURN(CompiledRule cq, CompileExpr(*query, true));
    ev->compiled_query_ = std::make_unique<CompiledRule>(std::move(cq));
  }

  // Intern the rule alphabet: every tag named by a navigational or
  // predicate state, across rules and query.
  auto intern_path = [&ev](CompiledPath* path) {
    for (CompiledPath::State& st : path->states) {
      if (!st.wildcard && !st.tag.empty()) {
        st.tag_id = ev->rule_tags_.Intern(st.tag);
      }
    }
  };
  for (CompiledRule& cr : ev->compiled_rules_) {
    intern_path(&cr.nav);
    for (CompiledPath& p : cr.predicates) intern_path(&p);
  }
  if (ev->compiled_query_) {
    intern_path(&ev->compiled_query_->nav);
    for (CompiledPath& p : ev->compiled_query_->predicates) intern_path(&p);
  }

  // Build the combined transition index: per slot the static self-loop /
  // wildcard masks, plus a dense (TagId × slot) table of literal-edge
  // state masks. Slot = rule index; the query takes the last slot.
  ev->num_slots_ =
      ev->compiled_rules_.size() + (ev->compiled_query_ ? 1 : 0);
  ev->rule_static_.resize(ev->num_slots_);
  ev->edge_masks_.assign(ev->rule_tags_.size() * ev->num_slots_, 0);
  auto index_slot = [&ev](size_t slot, const CompiledPath& nav) {
    RuleStatic& rs = ev->rule_static_[slot];
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
        ev->edge_masks_[st.tag_id * ev->num_slots_ + slot] |= bit;
      }
    }
    // A self-loop on the final state would keep tokens alive; final states
    // never carry one (chain compilation), but account for safety.
    if (nav.states.back().self_loop && nav.states.size() <= 64) {
      rs.self_loop_mask |= uint64_t{1} << (nav.states.size() - 1);
    }
  };

  // Wire the runs after all compilations (stable pointers).
  auto init_run = [](NavRun* run, const CompiledRule* rule) {
    run->rule = rule;
    run->positive = rule->positive;
    run->tokens.push_back({Token{0, {}}});
    run->cands.push_back({});
    run->live_masks.push_back(1);
    run->level_token_units.push_back(2);  // one token, no deps
    run->level_cand_units.push_back(0);
    run->level_repeats.push_back(0);
  };
  for (size_t i = 0; i < ev->compiled_rules_.size(); ++i) {
    CompiledRule& cr = ev->compiled_rules_[i];
    NavRun run;
    init_run(&run, &cr);
    ev->runs_.push_back(std::move(run));
    index_slot(i, cr.nav);
    ev->run_modeled_units_ += 2;
  }
  if (ev->compiled_query_) {
    auto qr = std::make_unique<NavRun>();
    init_run(qr.get(), ev->compiled_query_.get());
    ev->query_run_ = std::move(qr);
    index_slot(ev->num_slots_ - 1, ev->compiled_query_->nav);
    ev->run_modeled_units_ += 2;
  }
  return ev;
}

void StreamingEvaluator::BindDocumentTags(const Interner& doc_tags) {
  doc_to_rule_.resize(doc_tags.size());
  for (TagId i = 0; i < doc_tags.size(); ++i) {
    doc_to_rule_[i] = rule_tags_.Lookup(doc_tags.Name(i));
  }
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
  const std::vector<Token>& top = run->tokens.back();
  const RuleStatic& rs = rule_static_[slot];
  if (!rs.oversize) {
    uint64_t live = run->live_masks.back();
    uint64_t advancing =
        live & (rs.wildcard_edge_mask | EdgeMask(slot, tag));
    if (advancing == 0) {
      uint64_t kept = live & rs.self_loop_mask;
      if (kept == 0) {
        // No live transition on this tag: the next level is provably empty.
        stats_.nfa_transitions += top.size();
        ++run->dormant;
        return;
      }
      if (kept == live) {
        // Every token survives via its self-loop and nothing advances:
        // the next level is identical to the top one — just note a repeat.
        stats_.nfa_transitions += top.size();
        run_modeled_units_ += run->level_token_units.back();
        ++run->level_repeats.back();
        return;
      }
      // Partial survival: fall through to the token loop.
    }
  }

  std::vector<Token> next;
  if (!token_level_pool_.empty()) {
    next = std::move(token_level_pool_.back());
    token_level_pool_.pop_back();
  }
  std::vector<Candidate> new_cands;
  if (!cand_level_pool_.empty()) {
    new_cands = std::move(cand_level_pool_.back());
    cand_level_pool_.pop_back();
  }
  uint64_t next_mask = 0;
  uint32_t next_token_units = 0;
  uint32_t next_cand_units = 0;
  // One obligation per (predicate, node) even if several tokens enter the
  // predicated state at this node.
  const bool has_preds = !run->rule->predicates.empty();
  if (has_preds) pred_scratch_.assign(run->rule->predicates.size(), -1);

  for (const Token& t : top) {
    const CompiledPath::State& st = nav.states[static_cast<size_t>(t.state)];
    ++stats_.nfa_transitions;
    if (st.self_loop) {
      next.push_back(t);
      if (t.state < 64) next_mask |= uint64_t{1} << t.state;
      next_token_units += static_cast<uint32_t>(2 + t.deps.size());
    }
    if (t.state + 1 <= nav.final_state &&
        (st.wildcard || (tag != kNoTagId && st.tag_id == tag))) {
      Token nt;
      nt.state = t.state + 1;
      nt.deps = t.deps;
      for (int pid : nav.states[static_cast<size_t>(nt.state)].pred_ids) {
        int& cached = pred_scratch_[static_cast<size_t>(pid)];
        if (cached < 0) {
          cached = obligations_.Create(
              &run->rule->predicates[static_cast<size_t>(pid)], depth_);
          ++stats_.obligations_created;
        }
        nt.deps.push_back(cached);
      }
      if (nt.state == nav.final_state) {
        Candidate c;
        c.depth = depth_;
        c.deps = nt.deps;
        if (!c.deps.empty()) ++run->dep_cand_count;
        new_cands.push_back(std::move(c));
        next_cand_units += static_cast<uint32_t>(3 + nt.deps.size());
        ++run->cand_count;
        ++stats_.candidates_created;
      }
      // Dedupe identical tokens.
      bool dup = false;
      for (const Token& e : next) {
        if (e.state == nt.state && e.deps == nt.deps) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        if (nt.state < 64) next_mask |= uint64_t{1} << nt.state;
        next_token_units += static_cast<uint32_t>(2 + nt.deps.size());
        next.push_back(std::move(nt));
      }
    }
  }
  if (next.empty()) {
    // Oversize fallback only: the mask test already proved this otherwise.
    if (token_level_pool_.size() < kMaxPooled) {
      token_level_pool_.push_back(std::move(next));
    }
    if (cand_level_pool_.size() < kMaxPooled) {
      cand_level_pool_.push_back(std::move(new_cands));
    }
    ++run->dormant;
    return;
  }
  if (!new_cands.empty()) run->cand_level_depths.push_back(depth_);
  run->tokens.push_back(std::move(next));
  run->cands.push_back(std::move(new_cands));
  run->live_masks.push_back(next_mask);
  run->level_token_units.push_back(next_token_units);
  run->level_cand_units.push_back(next_cand_units);
  run->level_repeats.push_back(0);
  run_modeled_units_ += next_token_units + next_cand_units;
}

void StreamingEvaluator::RetreatNav(NavRun* run) {
  if (run->dormant > 0) {
    --run->dormant;
    return;
  }
  if (run->level_repeats.back() > 0) {
    --run->level_repeats.back();
    run_modeled_units_ -= run->level_token_units.back();
    return;
  }
  if (!run->cands.back().empty()) {
    run->cand_level_depths.pop_back();
    for (const Candidate& c : run->cands.back()) {
      if (!c.deps.empty()) --run->dep_cand_count;
    }
  }
  run->cand_count -= run->cands.back().size();
  run_modeled_units_ -=
      run->level_token_units.back() + run->level_cand_units.back();
  run->level_token_units.pop_back();
  run->level_cand_units.pop_back();
  run->live_masks.pop_back();
  run->level_repeats.pop_back();
  std::vector<Token> toks = std::move(run->tokens.back());
  run->tokens.pop_back();
  std::vector<Candidate> cands = std::move(run->cands.back());
  run->cands.pop_back();
  toks.clear();
  cands.clear();
  if (token_level_pool_.size() < kMaxPooled) {
    token_level_pool_.push_back(std::move(toks));
  }
  if (cand_level_pool_.size() < kMaxPooled) {
    cand_level_pool_.push_back(std::move(cands));
  }
}

StreamingEvaluator::CandStatus StreamingEvaluator::StatusOf(
    const Candidate& c) const {
  bool pending = false;
  for (int dep : c.deps) {
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

StreamingEvaluator::CandStatus StreamingEvaluator::StatusOfSpan(
    const Snapshot& snap, const SnapCand& c) const {
  bool pending = false;
  for (uint32_t i = c.deps_begin; i < c.deps_end; ++i) {
    switch (obligations_.state(snap.deps[i])) {
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
    if (run.cand_count == 0) continue;
    if (run.dep_cand_count == 0) {
      // Every candidate holds unconditionally in both worlds.
      int eff = run.cand_level_depths.back();
      deny_world.AddRule(eff, run.positive);
      permit_world.AddRule(eff, run.positive);
      continue;
    }
    int eff_deny = -1, eff_permit = -1;
    for (const auto& level : run.cands) {
      for (const Candidate& c : level) {
        CandStatus s = StatusOf(c);
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
    }
    deny_world.AddRule(eff_deny, run.positive);
    permit_world.AddRule(eff_permit, run.positive);
  }
  bool query_min = false, query_max = false;
  if (query_run_ && query_run_->cand_count > 0) {
    if (query_run_->dep_cand_count == 0) {
      query_min = true;
      query_max = true;
    } else {
      for (const auto& level : query_run_->cands) {
        for (const Candidate& c : level) {
          CandStatus s = StatusOf(c);
          if (s == CandStatus::kHolds) {
            query_min = true;
            query_max = true;
          } else if (s == CandStatus::kPending) {
            query_max = true;
          }
        }
      }
    }
  }
  return Combine(deny_world, permit_world, query_run_ != nullptr, query_min,
                 query_max);
}

StreamingEvaluator::DecisionResult StreamingEvaluator::Decide(
    const Snapshot& snap) const {
  WorldAcc deny_world, permit_world;
  size_t i = 0;
  while (i < snap.auth.size()) {
    uint32_t rule = snap.auth[i].rule;
    bool positive = snap.auth[i].positive;
    int eff_deny = -1, eff_permit = -1;
    for (; i < snap.auth.size() && snap.auth[i].rule == rule; ++i) {
      const SnapCand& c = snap.auth[i];
      CandStatus s = StatusOfSpan(snap, c);
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
    CandStatus s = StatusOfSpan(snap, c);
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

StreamingEvaluator::Snapshot StreamingEvaluator::BuildSnapshot() {
  Snapshot snap;
  if (!snapshot_pool_.empty()) {
    snap = std::move(snapshot_pool_.back());
    snapshot_pool_.pop_back();
    snap.Clear();
  }
  auto append = [&snap](const NavRun& run, uint32_t slot,
                        std::vector<SnapCand>* dst) {
    for (const auto& level : run.cands) {
      for (const Candidate& c : level) {
        SnapCand sc;
        sc.depth = c.depth;
        sc.rule = slot;
        sc.positive = run.positive;
        sc.deps_begin = static_cast<uint32_t>(snap.deps.size());
        snap.deps.insert(snap.deps.end(), c.deps.begin(), c.deps.end());
        sc.deps_end = static_cast<uint32_t>(snap.deps.size());
        dst->push_back(sc);
      }
    }
  };
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i].cand_count == 0) continue;
    append(runs_[i], static_cast<uint32_t>(i), &snap.auth);
  }
  if (query_run_) {
    snap.has_query = true;
    if (query_run_->cand_count > 0) {
      append(*query_run_, 0, &snap.query);
    }
  }
  return snap;
}

void StreamingEvaluator::ReleaseSnapshot(Snapshot&& snap) {
  if (snapshot_pool_.size() < kMaxPooled) {
    snap.Clear();
    snapshot_pool_.push_back(std::move(snap));
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

StreamingEvaluator::OutEvent StreamingEvaluator::AcquireOut(
    const xml::EventView& event, int depth) {
  OutEvent oe;
  if (!out_pool_.empty()) {
    oe = std::move(out_pool_.back());
    out_pool_.pop_back();
  }
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

void StreamingEvaluator::RecycleOut(OutEvent&& ev) {
  if (ev.has_snapshot) {
    ReleaseSnapshot(std::move(ev.snapshot));
    ev.has_snapshot = false;
  }
  if (out_pool_.size() < kMaxPooled) {
    ev.event.name.clear();
    ev.event.text.clear();
    ev.event.attrs.clear();
    out_pool_.push_back(std::move(ev));
  }
}

Status StreamingEvaluator::HandleOpen(const EventView& event) {
  ++depth_;
  TagId tag = ResolveTag(event);
  // 1. Existing predicate instances observe the open (they belong to
  //    ancestors); resolutions may unblock the pipeline later.
  obligations_.OnOpen(event.name, depth_, tag);
  // 2. Rule and query automata advance; new obligations/candidates appear.
  for (size_t i = 0; i < runs_.size(); ++i) AdvanceNav(&runs_[i], i, tag);
  if (query_run_) AdvanceNav(query_run_.get(), num_slots_ - 1, tag);
  // 3. Immediate decision attempt over live state (also powers skips).
  DecisionResult d = DecideLive();
  last_open_decision_ = d;
  last_open_decided_definitively_ = (d.delivered != Tri::kPending);
  if (d.delivered == Tri::kPending) {
    ++stats_.nodes_initially_pending;
    OutEvent ev = AcquireOut(event, depth_);
    ev.snapshot = BuildSnapshot();
    ev.has_snapshot = true;
    ev.modeled += ev.snapshot.ModeledBytes();
    pipeline_modeled_ += ev.modeled;
    pipeline_.push_back(std::move(ev));
    CSXA_RETURN_IF_ERROR(FlushPipeline());
  } else {
    bool delivered = (d.delivered == Tri::kYes);
    if (delivered) {
      ++stats_.nodes_permitted;
    } else {
      ++stats_.nodes_denied;
    }
    if (pipeline_.empty()) {
      // Nothing buffered ahead of us: bypass the pipeline entirely.
      CSXA_RETURN_IF_ERROR(ComposeOpen(event, delivered));
    } else {
      OutEvent ev = AcquireOut(event, depth_);
      ev.decided = true;
      ev.delivered = delivered;
      pipeline_modeled_ += ev.modeled;
      pipeline_.push_back(std::move(ev));
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
  if (pipeline_.empty()) {
    CSXA_RETURN_IF_ERROR(ComposeValue(event));
  } else {
    OutEvent ev = AcquireOut(event, depth_);
    pipeline_modeled_ += ev.modeled;
    pipeline_.push_back(std::move(ev));
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
  if (query_run_) RetreatNav(query_run_.get());
  if (pipeline_.empty()) {
    CSXA_RETURN_IF_ERROR(ComposeClose(event));
    --depth_;
    last_open_decided_definitively_ = false;  // stale after close
  } else {
    OutEvent ev = AcquireOut(event, depth_);
    pipeline_modeled_ += ev.modeled;
    pipeline_.push_back(std::move(ev));
    --depth_;
    last_open_decided_definitively_ = false;  // stale after close
    CSXA_RETURN_IF_ERROR(FlushPipeline());
  }
  UpdatePeaks();
  return Status::OK();
}

Status StreamingEvaluator::FlushPipeline() {
  while (!pipeline_.empty()) {
    OutEvent& ev = pipeline_.front();
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
    OutEvent done = std::move(pipeline_.front());
    pipeline_.pop_front();
    RecycleOut(std::move(done));
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
  if (!pipeline_.empty()) {
    return Status::Internal("pending output not resolved at end of stream");
  }
  if (depth_ != 0) {
    return Status::InvalidArgument("unbalanced document: depth " +
                                   std::to_string(depth_) + " at end");
  }
  finished_ = true;
  return out_->OnEventView(EventView::End());
}

bool StreamingEvaluator::CanSkipCurrentSubtree(
    const std::function<bool(std::string_view)>& has_tag,
    bool subtree_nonempty, bool /*has_text*/) {
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
    std::vector<int> active;
    for (const Token& t : run.tokens.back()) {
      if (t.state != run.rule->nav.final_state) active.push_back(t.state);
    }
    return CanReachFinal(run.rule->nav, active, has_tag, subtree_nonempty);
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
    for (size_t d = 0; d < run.tokens.size(); ++d) {
      size_t tokens = 0;
      for (const Token& t : run.tokens[d]) tokens += 2 + t.deps.size();
      n += tokens * (1 + run.level_repeats[d]);
      for (const Candidate& c : run.cands[d]) n += 3 + c.deps.size();
    }
  };
  for (const NavRun& run : runs_) count_run(run);
  if (query_run_) count_run(*query_run_);
  for (const OutEvent& ev : pipeline_) {
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
  if (pipeline_.size() > stats_.buffered_events_peak) {
    stats_.buffered_events_peak = pipeline_.size();
  }
}

}  // namespace csxa::core
