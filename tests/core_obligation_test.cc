// Unit tests for predicate instances (PredRun) and the obligation
// registry — the "pending" machinery of §2.3.

#include <gtest/gtest.h>

#include <vector>

#include "core/automaton.h"
#include "core/obligation.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

using core::CompiledPath;
using core::CompileRelative;
using core::ObligationSet;
using core::PredRun;

CompiledPath CompilePred(const std::string& body) {
  auto pred = xpath::ParsePredicateBody(body);
  EXPECT_TRUE(pred.ok()) << body;
  auto compiled = CompileRelative(pred.value().path, pred.value().op,
                                  pred.value().literal);
  EXPECT_TRUE(compiled.ok()) << body;
  return std::move(compiled).value();
}

TEST(PredRunTest, ExistenceSatisfiedOnOpen) {
  CompiledPath p = CompilePred("c");
  PredRun run(&p, /*ctx_depth=*/2);
  EXPECT_FALSE(run.satisfied());
  EXPECT_FALSE(run.OnOpen("x", 3));  // wrong tag
  EXPECT_TRUE(run.OnClose(3) == false);
  EXPECT_TRUE(run.OnOpen("c", 3));  // child c: satisfied
  EXPECT_TRUE(run.satisfied());
}

TEST(PredRunTest, ChildAxisDoesNotMatchGrandchild) {
  CompiledPath p = CompilePred("c");
  PredRun run(&p, 2);
  EXPECT_FALSE(run.OnOpen("x", 3));
  EXPECT_FALSE(run.OnOpen("c", 4));  // c is a grandchild: no match
  EXPECT_FALSE(run.satisfied());
}

TEST(PredRunTest, DescendantAxisMatchesDeep) {
  CompiledPath p = CompilePred(".//c");
  PredRun run(&p, 2);
  EXPECT_FALSE(run.OnOpen("x", 3));
  EXPECT_TRUE(run.OnOpen("c", 4));
  EXPECT_TRUE(run.satisfied());
}

TEST(PredRunTest, MultiStepPath) {
  CompiledPath p = CompilePred("b/c");
  PredRun run(&p, 1);
  EXPECT_FALSE(run.OnOpen("b", 2));
  EXPECT_TRUE(run.OnOpen("c", 3));
}

TEST(PredRunTest, ValueTestResolvesAtClose) {
  CompiledPath p = CompilePred("v=\"yes\"");
  PredRun run(&p, 1);
  EXPECT_FALSE(run.OnOpen("v", 2));  // capture opens, not yet satisfied
  run.OnValue("yes", 2);
  EXPECT_FALSE(run.satisfied());     // only at close is the text complete
  EXPECT_TRUE(run.OnClose(2));
  EXPECT_TRUE(run.satisfied());
}

TEST(PredRunTest, ValueTestFailsOnMismatch) {
  CompiledPath p = CompilePred("v=\"yes\"");
  PredRun run(&p, 1);
  run.OnOpen("v", 2);
  run.OnValue("no", 2);
  EXPECT_FALSE(run.OnClose(2));
  EXPECT_FALSE(run.satisfied());
}

TEST(PredRunTest, ValueTestSecondCandidateSucceeds) {
  CompiledPath p = CompilePred("v=\"yes\"");
  PredRun run(&p, 1);
  run.OnOpen("v", 2);
  run.OnValue("no", 2);
  EXPECT_FALSE(run.OnClose(2));
  run.OnOpen("v", 2);
  run.OnValue("yes", 2);
  EXPECT_TRUE(run.OnClose(2));
}

TEST(PredRunTest, DirectTextOnlyIsCompared) {
  // <v>a<w>XX</w>b</v>: direct text is "ab".
  CompiledPath p = CompilePred("v=\"ab\"");
  PredRun run(&p, 1);
  run.OnOpen("v", 2);
  run.OnValue("a", 2);
  run.OnOpen("w", 3);
  run.OnValue("XX", 3);
  run.OnClose(3);
  run.OnValue("b", 2);
  EXPECT_TRUE(run.OnClose(2));
}

TEST(PredRunTest, NumericComparison) {
  CompiledPath p = CompilePred("age>=\"18\"");
  PredRun run(&p, 1);
  run.OnOpen("age", 2);
  run.OnValue("30", 2);
  EXPECT_TRUE(run.OnClose(2));
}

TEST(PredRunTest, CaptureTracking) {
  CompiledPath p = CompilePred("v=\"x\"");
  PredRun run(&p, 1);
  run.OnOpen("v", 2);
  EXPECT_TRUE(run.HasCaptureAtDepth(2));
  EXPECT_FALSE(run.HasCaptureAtDepth(3));
  run.OnClose(2);
  EXPECT_FALSE(run.HasCaptureAtDepth(2));
}

TEST(PredRunTest, ModeledBytesGrowWithDepth) {
  CompiledPath p = CompilePred(".//c");
  PredRun run(&p, 1);
  size_t before = run.ModeledBytes();
  run.OnOpen("x", 2);
  run.OnOpen("y", 3);
  EXPECT_GT(run.ModeledBytes(), before);
}

// A run Reset() for a new context behaves exactly like a fresh one,
// whatever state its buffers were left in.
TEST(PredRunTest, ResetRunMatchesFreshRun) {
  CompiledPath value = CompilePred(".//v=\"x\"");
  CompiledPath exists = CompilePred("c");
  PredRun reused(&value, 1);
  reused.OnOpen("v", 2);
  reused.OnValue("partial", 2);
  reused.OnOpen("w", 3);  // left open: stack and capture both in use
  auto drive = [](PredRun* run) {
    std::vector<bool> out;
    out.push_back(run->OnOpen("a", 4));
    out.push_back(run->OnOpen("v", 5));
    run->OnValue("x", 5);
    out.push_back(run->OnClose(5));
    out.push_back(run->OnClose(4));
    return out;
  };
  for (const CompiledPath* path : {&exists, &value}) {
    PredRun fresh(path, 3);
    reused.Reset(path, 3);
    EXPECT_EQ(reused.ModeledBytes(), fresh.ModeledBytes());
    EXPECT_EQ(drive(&reused), drive(&fresh));
    EXPECT_EQ(reused.satisfied(), fresh.satisfied());
    EXPECT_EQ(reused.transitions(), fresh.transitions());
    EXPECT_EQ(reused.ModeledBytes(), fresh.ModeledBytes());
    EXPECT_EQ(reused.RecountModeledBytes(), reused.ModeledBytes());
  }
}

// Resolved obligations hand their runs back; a Clear()ed set starts over
// with ids from 0 and no modeled bytes, reusing the runs.
TEST(ObligationSetTest, ReusesRetiredRunsAndClears) {
  CompiledPath p = CompilePred("c");
  ObligationSet set;
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(set.Create(&p, 1), 0);
    set.OnOpen("c", 2);  // resolves true: its run is retired
    set.OnClose(2);
    EXPECT_EQ(set.state(0), ObligationSet::State::kTrue);
    EXPECT_EQ(set.Create(&p, 1), 1);  // reuses the retired run
    EXPECT_EQ(set.live_count(), 1u);
    EXPECT_EQ(set.ModeledBytes(), set.RecountModeledBytes());
    set.OnOpen("x", 2);
    set.OnClose(2);
    set.OnClose(1);
    EXPECT_EQ(set.state(1), ObligationSet::State::kFalse);
    EXPECT_EQ(set.ModeledBytes(), 0u);
    EXPECT_EQ(set.transitions(), 2u);
    set.Clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_EQ(set.transitions(), 0u);
  }
}

TEST(ObligationSetTest, ResolvesFalseAtContextClose) {
  CompiledPath p = CompilePred("c");
  ObligationSet set;
  int id = set.Create(&p, /*ctx_depth=*/2);
  EXPECT_EQ(set.state(id), ObligationSet::State::kPending);
  set.OnOpen("x", 3);
  set.OnClose(3);
  EXPECT_TRUE(set.OnClose(2));  // context closes: resolve false
  EXPECT_EQ(set.state(id), ObligationSet::State::kFalse);
  EXPECT_EQ(set.live_count(), 0u);
}

TEST(ObligationSetTest, ResolvesTrueOnMatch) {
  CompiledPath p = CompilePred("c");
  ObligationSet set;
  int id = set.Create(&p, 2);
  EXPECT_TRUE(set.OnOpen("c", 3));
  EXPECT_EQ(set.state(id), ObligationSet::State::kTrue);
}

TEST(ObligationSetTest, IndependentInstances) {
  // Document shape: <ctx1><x><c/></x></ctx1> with the outer obligation at
  // ctx1 (depth 1) and the inner one at x (depth 2). Every open/close of
  // the stream is fed, as the evaluator does.
  CompiledPath p = CompilePred("c");
  ObligationSet set;
  int outer = set.Create(&p, 1);
  set.OnOpen("x", 2);  // child of ctx1, not a c
  int inner = set.Create(&p, 2);
  set.OnOpen("c", 3);  // child of x: inner satisfied, outer unaffected
  EXPECT_EQ(set.state(inner), ObligationSet::State::kTrue);
  EXPECT_EQ(set.state(outer), ObligationSet::State::kPending);
  set.OnClose(3);
  set.OnClose(2);
  set.OnClose(1);
  EXPECT_EQ(set.state(outer), ObligationSet::State::kFalse);
}

TEST(ObligationSetTest, BlocksSkipWhenResolvableInside) {
  CompiledPath p = CompilePred(".//c");
  // The skip probe asks by document tag id.
  Interner dict;
  dict.Intern("z");
  dict.Intern("c");
  core::BindTags(dict, &p);
  ObligationSet set;
  set.Create(&p, 1);
  auto has_c = [&dict](TagId t) { return t == dict.Lookup("c"); };
  auto no_c = [&dict](TagId t) { return t == dict.Lookup("z"); };
  EXPECT_TRUE(set.BlocksSkip(has_c, true, 2));
  EXPECT_FALSE(set.BlocksSkip(no_c, true, 2));
  EXPECT_FALSE(set.BlocksSkip(has_c, false, 2));
}

TEST(ObligationSetTest, BlocksSkipForOpenCaptureAtDepth) {
  CompiledPath p = CompilePred("v=\"x\"");
  ObligationSet set;
  set.Create(&p, 1);
  set.OnOpen("v", 2);  // capture opens at depth 2
  auto none = [](TagId) { return false; };
  EXPECT_TRUE(set.BlocksSkip(none, false, 2));   // direct text pending here
  EXPECT_FALSE(set.BlocksSkip(none, false, 3));  // deeper content: no
}

TEST(ObligationSetTest, TransitionAccountingSurvivesResolution) {
  CompiledPath p = CompilePred("c");
  ObligationSet set;
  set.Create(&p, 1);
  set.OnOpen("c", 2);
  size_t after_true = set.transitions();
  EXPECT_GT(after_true, 0u);
  set.Create(&p, 1);
  set.OnOpen("x", 2);
  set.OnClose(2);
  set.OnClose(1);
  EXPECT_GE(set.transitions(), after_true);
}

}  // namespace
}  // namespace csxa
