#include "core/obligation.h"

#include <algorithm>

namespace csxa::core {

void PredRun::Reset(const CompiledPath* path, int ctx_depth) {
  path_ = path;
  ctx_depth_ = ctx_depth;
  satisfied_ = false;
  transitions_ = 0;
  states_.assign(1, 0);
  level_begin_.assign(1, 0);
  num_captures_ = 0;
  modeled_ = 1;
}

bool PredRun::OnOpen(std::string_view tag, int depth, TagId tag_id) {
  if (satisfied_) return false;
  // The run only sees the subtree: depth must be ctx_depth_+stack size.
  // The next level is built at the tail of states_, read by index because
  // appending may move the array.
  const size_t begin = level_begin_.back();
  const size_t end = states_.size();
  for (size_t i = begin; i < end; ++i) {
    const int s = states_[i];
    const CompiledPath::State& st = path_->states[static_cast<size_t>(s)];
    ++transitions_;
    bool name_match =
        st.wildcard || (st.tag_id != kNoTagId && tag_id != kNoTagId
                            ? st.tag_id == tag_id
                            : st.tag == tag);
    if (st.self_loop) states_.push_back(s);
    if (s + 1 <= path_->final_state && name_match) {
      int t = s + 1;
      if (t == path_->final_state) {
        if (path_->op == xpath::CmpOp::kExists) {
          satisfied_ = true;
          states_.resize(end);
          return true;
        }
        // Value test: capture this node's direct text until it closes.
        if (num_captures_ == captures_.size()) captures_.emplace_back();
        Capture& c = captures_[num_captures_++];
        c.depth = depth;
        c.text.clear();
        modeled_ += 2;
      }
      states_.push_back(t);
    }
  }
  std::sort(states_.begin() + static_cast<long>(end), states_.end());
  states_.erase(std::unique(states_.begin() + static_cast<long>(end),
                            states_.end()),
                states_.end());
  modeled_ += states_.size() - end;
  level_begin_.push_back(static_cast<uint32_t>(end));
  return false;
}

void PredRun::OnValue(std::string_view text, int depth) {
  if (satisfied_ || num_captures_ == 0) return;
  // Only the innermost capture can belong to the element holding `text`.
  Capture& c = captures_[num_captures_ - 1];
  if (c.depth == depth) {
    c.text += text;
    modeled_ += text.size();
  }
}

bool PredRun::OnClose(int depth) {
  if (satisfied_) return false;
  bool newly = false;
  if (num_captures_ > 0 && captures_[num_captures_ - 1].depth == depth) {
    Capture& c = captures_[num_captures_ - 1];
    if (xpath::CompareValue(c.text, path_->op, path_->literal)) {
      satisfied_ = true;
      newly = true;
    }
    modeled_ -= 2 + c.text.size();
    --num_captures_;  // the slot keeps its text capacity
  }
  if (level_begin_.size() > 1) {
    modeled_ -= states_.size() - level_begin_.back();
    states_.resize(level_begin_.back());
    level_begin_.pop_back();
  }
  return newly;
}

bool PredRun::HasCaptureAtDepth(int depth) const {
  for (size_t i = 0; i < num_captures_; ++i) {
    if (captures_[i].depth == depth) return true;
  }
  return false;
}

bool PredRun::CanResolveWithin(TagProbe has_tag, bool subtree_nonempty) const {
  if (satisfied_) return false;
  return CanReachFinal(*path_, Top(), has_tag, subtree_nonempty);
}

size_t PredRun::RecountModeledBytes() const {
  size_t n = states_.size();  // 1 byte per state id, every level
  for (size_t i = 0; i < num_captures_; ++i) {
    n += 2 + captures_[i].text.size();
  }
  return n;
}

int ObligationSet::Create(const CompiledPath* path, int ctx_depth) {
  int id = static_cast<int>(entries_.size());
  Entry e;
  e.ctx_depth = ctx_depth;
  if (free_runs_.empty()) {
    e.run = static_cast<int>(runs_.size());
    runs_.emplace_back(path, ctx_depth);
  } else {
    e.run = free_runs_.back();
    free_runs_.pop_back();
    RunOf(e).Reset(path, ctx_depth);
  }
  modeled_ += 4 + RunOf(e).ModeledBytes();
  entries_.push_back(e);
  live_.push_back(id);
  return id;
}

void ObligationSet::Clear() {
  entries_.clear();
  live_.clear();
  free_runs_.clear();
  for (size_t i = runs_.size(); i > 0; --i) {
    free_runs_.push_back(static_cast<int>(i - 1));
  }
  retired_transitions_ = 0;
  modeled_ = 0;
}

void ObligationSet::Retire(Entry* e, State state) {
  e->state = state;
  const PredRun& run = RunOf(*e);
  retired_transitions_ += run.transitions();
  modeled_ -= run.ModeledBytes();
  free_runs_.push_back(e->run);
  e->run = -1;
}

bool ObligationSet::Sweep() {
  bool changed = false;
  for (size_t i = 0; i < live_.size();) {
    Entry& e = entries_[static_cast<size_t>(live_[i])];
    if (e.run >= 0 && RunOf(e).satisfied()) {
      Retire(&e, State::kTrue);
      changed = true;
    }
    if (e.state != State::kPending) {
      modeled_ -= 4;
      live_.erase(live_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
  return changed;
}

bool ObligationSet::OnOpen(std::string_view tag, int depth, TagId tag_id) {
  bool any = false;
  for (int id : live_) {
    PredRun& run = RunOf(entries_[static_cast<size_t>(id)]);
    size_t before = run.ModeledBytes();
    if (run.OnOpen(tag, depth, tag_id)) any = true;
    modeled_ += run.ModeledBytes() - before;
  }
  if (any) Sweep();
  return any;
}

bool ObligationSet::OnValue(std::string_view text, int depth) {
  for (int id : live_) {
    PredRun& run = RunOf(entries_[static_cast<size_t>(id)]);
    size_t before = run.ModeledBytes();
    run.OnValue(text, depth);
    modeled_ += run.ModeledBytes() - before;
  }
  return false;
}

bool ObligationSet::OnClose(int depth) {
  bool any = false;
  for (int id : live_) {
    Entry& e = entries_[static_cast<size_t>(id)];
    PredRun& run = RunOf(e);
    size_t before = run.ModeledBytes();
    if (run.OnClose(depth)) any = true;
    modeled_ += run.ModeledBytes() - before;  // modular: may shrink
    // Context node closing unsatisfied resolves the obligation to false.
    if (!run.satisfied() && e.ctx_depth == depth) {
      Retire(&e, State::kFalse);
      any = true;
    }
  }
  if (any) Sweep();
  return any;
}

bool ObligationSet::BlocksSkip(TagProbe has_tag, bool subtree_nonempty,
                               int subtree_root_depth) const {
  for (int id : live_) {
    const Entry& e = entries_[static_cast<size_t>(id)];
    if (e.run < 0) continue;
    const PredRun& run = RunOf(e);
    if (run.HasCaptureAtDepth(subtree_root_depth)) return true;
    if (run.CanResolveWithin(has_tag, subtree_nonempty)) return true;
  }
  return false;
}

size_t ObligationSet::RecountModeledBytes() const {
  size_t n = 0;
  for (int id : live_) {
    const Entry& e = entries_[static_cast<size_t>(id)];
    n += 4 + (e.run >= 0 ? RunOf(e).RecountModeledBytes() : 0);
  }
  return n;
}

size_t ObligationSet::transitions() const {
  // Only pending entries hold a run, and every pending entry is live.
  size_t n = retired_transitions_;
  for (int id : live_) {
    const Entry& e = entries_[static_cast<size_t>(id)];
    if (e.run >= 0) n += RunOf(e).transitions();
  }
  return n;
}

}  // namespace csxa::core
