#include "core/obligation.h"

#include <algorithm>

namespace csxa::core {

PredRun::PredRun(const CompiledPath* path, int ctx_depth)
    : path_(path), ctx_depth_(ctx_depth) {
  stack_.push_back({0});
  modeled_ = 1;
}

bool PredRun::OnOpen(std::string_view tag, int depth, TagId tag_id) {
  if (satisfied_) return false;
  // The run only sees the subtree: depth must be ctx_depth_+stack size.
  std::vector<int> next;
  const std::vector<int>& top = stack_.back();
  for (int s : top) {
    const CompiledPath::State& st = path_->states[static_cast<size_t>(s)];
    ++transitions_;
    bool name_match =
        st.wildcard || (st.tag_id != kNoTagId && tag_id != kNoTagId
                            ? st.tag_id == tag_id
                            : st.tag == tag);
    if (st.self_loop) next.push_back(s);
    if (s + 1 <= path_->final_state && name_match) {
      int t = s + 1;
      if (t == path_->final_state) {
        if (path_->op == xpath::CmpOp::kExists) {
          satisfied_ = true;
          return true;
        }
        // Value test: capture this node's direct text until it closes.
        captures_.push_back(Capture{depth, std::string()});
        modeled_ += 2;
      }
      next.push_back(t);
    }
  }
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
  modeled_ += next.size();
  stack_.push_back(std::move(next));
  return false;
}

void PredRun::OnValue(std::string_view text, int depth) {
  if (satisfied_) return;
  for (Capture& c : captures_) {
    if (c.depth == depth) {
      c.text += text;
      modeled_ += text.size();
    }
  }
}

bool PredRun::OnClose(int depth) {
  if (satisfied_) return false;
  bool newly = false;
  for (size_t i = 0; i < captures_.size();) {
    if (captures_[i].depth == depth) {
      if (xpath::CompareValue(captures_[i].text, path_->op, path_->literal)) {
        satisfied_ = true;
        newly = true;
      }
      modeled_ -= 2 + captures_[i].text.size();
      captures_.erase(captures_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
  if (stack_.size() > 1) {
    modeled_ -= stack_.back().size();
    stack_.pop_back();
  }
  return newly;
}

bool PredRun::HasCaptureAtDepth(int depth) const {
  for (const Capture& c : captures_) {
    if (c.depth == depth) return true;
  }
  return false;
}

bool PredRun::CanResolveWithin(
    const std::function<bool(std::string_view)>& has_tag,
    bool subtree_nonempty) const {
  if (satisfied_) return false;
  return CanReachFinal(*path_, stack_.back(), has_tag, subtree_nonempty);
}

size_t PredRun::RecountModeledBytes() const {
  size_t n = 0;
  for (const auto& level : stack_) n += level.size();  // 1 byte per state id
  for (const Capture& c : captures_) n += 2 + c.text.size();
  return n;
}

int ObligationSet::Create(const CompiledPath* path, int ctx_depth) {
  int id = static_cast<int>(entries_.size());
  Entry e;
  e.ctx_depth = ctx_depth;
  e.run = std::make_unique<PredRun>(path, ctx_depth);
  modeled_ += 4 + e.run->ModeledBytes();
  entries_.push_back(std::move(e));
  live_.push_back(id);
  return id;
}

void ObligationSet::Retire(Entry* e, State state) {
  e->state = state;
  retired_transitions_ += e->run->transitions();
  modeled_ -= e->run->ModeledBytes();
  e->run.reset();
}

bool ObligationSet::Sweep() {
  bool changed = false;
  for (size_t i = 0; i < live_.size();) {
    Entry& e = entries_[static_cast<size_t>(live_[i])];
    if (e.run && e.run->satisfied()) {
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
    PredRun& run = *entries_[static_cast<size_t>(id)].run;
    size_t before = run.ModeledBytes();
    if (run.OnOpen(tag, depth, tag_id)) any = true;
    modeled_ += run.ModeledBytes() - before;
  }
  if (any) Sweep();
  return any;
}

bool ObligationSet::OnValue(std::string_view text, int depth) {
  for (int id : live_) {
    PredRun& run = *entries_[static_cast<size_t>(id)].run;
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
    size_t before = e.run->ModeledBytes();
    if (e.run->OnClose(depth)) any = true;
    modeled_ += e.run->ModeledBytes() - before;  // modular: may shrink
    // Context node closing unsatisfied resolves the obligation to false.
    if (!e.run->satisfied() && e.ctx_depth == depth) {
      Retire(&e, State::kFalse);
      any = true;
    }
  }
  if (any) Sweep();
  return any;
}

bool ObligationSet::BlocksSkip(
    const std::function<bool(std::string_view)>& has_tag,
    bool subtree_nonempty, int subtree_root_depth) const {
  for (int id : live_) {
    const Entry& e = entries_[static_cast<size_t>(id)];
    if (!e.run) continue;
    if (e.run->HasCaptureAtDepth(subtree_root_depth)) return true;
    // Reconstruct the path pointer via the run (it stores it); we expose
    // reachability through the run's active states.
    if (e.run->CanResolveWithin(has_tag, subtree_nonempty)) return true;
  }
  return false;
}

size_t ObligationSet::RecountModeledBytes() const {
  size_t n = 0;
  for (int id : live_) {
    const Entry& e = entries_[static_cast<size_t>(id)];
    n += 4 + (e.run ? e.run->RecountModeledBytes() : 0);
  }
  return n;
}

size_t ObligationSet::transitions() const {
  size_t n = retired_transitions_;
  for (const Entry& e : entries_) {
    if (e.run) n += e.run->transitions();
  }
  return n;
}

}  // namespace csxa::core
