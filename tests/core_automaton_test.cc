// Unit tests for NFA compilation (Fig. 2) and the conservative
// reachability test that drives skip decisions.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "core/automaton.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

using core::CanReachFinal;
using core::CompiledRule;
using core::CompileExpr;

CompiledRule Compile(const std::string& path) {
  auto expr = xpath::ParsePath(path);
  EXPECT_TRUE(expr.ok()) << path;
  auto rule = CompileExpr(expr.value(), true);
  EXPECT_TRUE(rule.ok()) << path;
  return std::move(rule).value();
}

TEST(AutomatonTest, ChildChainShape) {
  CompiledRule r = Compile("/a/b/c");
  ASSERT_EQ(r.nav.states.size(), 4u);
  EXPECT_EQ(r.nav.final_state, 3);
  EXPECT_FALSE(r.nav.states[0].self_loop);
  EXPECT_EQ(r.nav.states[0].tag, "a");
  EXPECT_EQ(r.nav.states[2].tag, "c");
  EXPECT_TRUE(r.predicates.empty());
}

TEST(AutomatonTest, DescendantSelfLoops) {
  CompiledRule r = Compile("//a/b//c");
  EXPECT_TRUE(r.nav.states[0].self_loop);   // //a
  EXPECT_FALSE(r.nav.states[1].self_loop);  // /b
  EXPECT_TRUE(r.nav.states[2].self_loop);   // //c
}

TEST(AutomatonTest, WildcardStep) {
  CompiledRule r = Compile("/a/*/c");
  EXPECT_FALSE(r.nav.states[0].wildcard);
  EXPECT_TRUE(r.nav.states[1].wildcard);
}

TEST(AutomatonTest, PredicatesAttachToEnteredState) {
  // Fig. 2: R = //b[c]/d — predicate path attached at the state entered
  // when matching b.
  CompiledRule r = Compile("//b[c]/d");
  ASSERT_EQ(r.predicates.size(), 1u);
  EXPECT_TRUE(r.nav.states[0].pred_ids.empty());
  ASSERT_EQ(r.nav.states[1].pred_ids.size(), 1u);  // entered after b
  EXPECT_EQ(r.nav.states[1].pred_ids[0], 0);
  const auto& pred = r.predicates[0];
  EXPECT_EQ(pred.states.size(), 2u);
  EXPECT_EQ(pred.states[0].tag, "c");
  EXPECT_EQ(pred.op, xpath::CmpOp::kExists);
}

TEST(AutomatonTest, ValuePredicateCarriesComparison) {
  CompiledRule r = Compile("//a[b>=\"10\"]");
  ASSERT_EQ(r.predicates.size(), 1u);
  EXPECT_EQ(r.predicates[0].op, xpath::CmpOp::kGe);
  EXPECT_EQ(r.predicates[0].literal, "10");
}

TEST(AutomatonTest, MultiplePredicatesPerStep) {
  CompiledRule r = Compile("//a[b][c=\"1\"]/d");
  EXPECT_EQ(r.predicates.size(), 2u);
  EXPECT_EQ(r.nav.states[1].pred_ids.size(), 2u);
}

TEST(AutomatonTest, TotalStatesCountsPredicates) {
  CompiledRule r = Compile("//a[b/c]/d");
  // nav: 3 states (start, a, d) ... start + 2 steps = 3; pred: start + 2 = 3.
  EXPECT_EQ(r.TotalStates(), 3u + 3u);
}

// A document dictionary and subtree tag sets over it, probed by tag id as
// the decoder's tag sets are. A rule bound to it carries document ids.
struct Doc {
  Interner dict;
  Doc() {
    for (const char* t : {"a", "b", "x", "secret"}) dict.Intern(t);
  }
  // A probe for the subtree holding exactly `tags`.
  auto Subtree(std::initializer_list<std::string_view> tags) const {
    std::vector<TagId> ids;
    for (std::string_view t : tags) ids.push_back(dict.Lookup(t));
    return [ids](TagId t) {
      return t != kNoTagId && std::ranges::find(ids, t) != ids.end();
    };
  }
};

const std::vector<int> kFrom0 = {0};
const std::vector<int> kFrom1 = {1};

TEST(ReachabilityTest, BindTagsStampsDocumentIds) {
  Doc doc;
  CompiledRule r = Compile("//a/zzz");
  core::BindTags(doc.dict, &r.nav);
  EXPECT_EQ(r.nav.states[0].doc_tag_id, doc.dict.Lookup("a"));
  // A tag the document never uses maps to kNoTagId...
  EXPECT_EQ(r.nav.states[1].doc_tag_id, kNoTagId);
  // ...which a tag-set probe answers "absent", so nothing is reachable,
  // while a probe that claims every tag (the no-tag-set ablation) still
  // sees the path.
  EXPECT_FALSE(CanReachFinal(r.nav, kFrom0, doc.Subtree({"a", "b", "x"}),
                             true));
  EXPECT_TRUE(
      CanReachFinal(r.nav, kFrom0, [](TagId) { return true; }, true));
}

TEST(ReachabilityTest, TagGateControlsTraversal) {
  Doc doc;
  CompiledRule r = Compile("//a/b");
  core::BindTags(doc.dict, &r.nav);
  // From the start state, both a and b must be present.
  EXPECT_TRUE(CanReachFinal(r.nav, kFrom0, doc.Subtree({"a", "b"}), true));
  EXPECT_FALSE(CanReachFinal(r.nav, kFrom0, doc.Subtree({"a"}), true));
  EXPECT_FALSE(CanReachFinal(r.nav, kFrom0, doc.Subtree({"b", "x"}), false));
  // From state 1 (a already matched) only b is needed.
  EXPECT_TRUE(CanReachFinal(r.nav, kFrom1, doc.Subtree({"b"}), true));
  EXPECT_FALSE(CanReachFinal(r.nav, kFrom1, doc.Subtree({"a"}), true));
  // Several active states: the highest one decides.
  const std::vector<int> both = {0, 1};
  EXPECT_TRUE(CanReachFinal(r.nav, both, doc.Subtree({"b"}), true));
}

TEST(ReachabilityTest, WildcardNeedsNonEmptySubtree) {
  Doc doc;
  CompiledRule r = Compile("//*/secret");
  core::BindTags(doc.dict, &r.nav);
  EXPECT_TRUE(CanReachFinal(r.nav, kFrom0, doc.Subtree({"secret"}), true));
  EXPECT_FALSE(CanReachFinal(r.nav, kFrom0, doc.Subtree({"secret"}), false));
}

TEST(ReachabilityTest, FinalStateInActiveSetIsReachable) {
  CompiledRule r = Compile("//a");
  const std::vector<int> at_final = {r.nav.final_state};
  EXPECT_TRUE(
      CanReachFinal(r.nav, at_final, [](TagId) { return false; }, true));
}

TEST(ReachabilityTest, EmptyActiveSetUnreachable) {
  CompiledRule r = Compile("//a");
  const std::vector<int> none;
  EXPECT_FALSE(CanReachFinal(r.nav, none, [](TagId) { return true; }, true));
  // States outside the automaton are ignored.
  const std::vector<int> outside = {-1, 7};
  EXPECT_FALSE(
      CanReachFinal(r.nav, outside, [](TagId) { return true; }, true));
}

TEST(AutomatonTest, NestedPredicatesRejected) {
  auto expr = xpath::ParsePath("//a[b[c]]");
  ASSERT_TRUE(expr.ok());  // grammar accepts it...
  auto rule = CompileExpr(expr.value(), true);
  EXPECT_FALSE(rule.ok());  // ...but the streaming fragment refuses it
  EXPECT_EQ(rule.status().code(), StatusCode::kNotSupported);
}

}  // namespace
}  // namespace csxa
