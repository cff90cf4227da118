// Edge cases and failure injection for the streaming evaluator and the
// card engine: degenerate documents, adversarial rule sets, resource
// exhaustion mid-stream, deep nesting, Zipfian tag skew.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/evaluator.h"
#include "core/ref_evaluator.h"
#include "skipindex/codec.h"
#include "skipindex/filter.h"
#include "scengen/rulegen.h"
#include "xml/generator.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

std::string RunView(const std::string& doc_text, const std::string& rules_text,
                const std::string& query = "") {
  auto doc = xml::DomDocument::Parse(doc_text).value();
  auto rules = core::RuleSet::ParseText(rules_text).value();
  xpath::PathExpr q;
  const xpath::PathExpr* qp = nullptr;
  if (!query.empty()) {
    q = xpath::ParsePath(query).value();
    qp = &q;
  }
  xml::CanonicalWriter w;
  auto ev = core::StreamingEvaluator::Create(rules.ForSubject("u"), qp, &w)
                .value();
  EXPECT_TRUE(doc.root()->EmitEvents(ev.get()).ok());
  EXPECT_TRUE(ev->Finish().ok());
  // Cross-check against the oracle on every edge case.
  auto ref = core::BuildAuthorizedView(doc, rules.ForSubject("u"), qp).value();
  EXPECT_EQ(w.str(), ref.Serialize()) << doc_text << " | " << rules_text;
  return w.str();
}

TEST(EvaluatorEdgeTest, SingleElementDocument) {
  EXPECT_EQ(RunView("<a/>", "+ u /a"), "<a></a>");
  EXPECT_EQ(RunView("<a/>", "- u /a"), "");
  EXPECT_EQ(RunView("<a/>", ""), "");
}

TEST(EvaluatorEdgeTest, RootOnlyTextDocument) {
  EXPECT_EQ(RunView("<a>only text</a>", "+ u //a"), "<a>only text</a>");
}

TEST(EvaluatorEdgeTest, OnlyNegativeRules) {
  // Closed policy: negatives alone can never deliver anything.
  EXPECT_EQ(RunView("<a><b>x</b></a>", "- u //b"), "");
}

TEST(EvaluatorEdgeTest, DuplicateRules) {
  EXPECT_EQ(RunView("<a><b>x</b></a>", "+ u //b\n+ u //b\n+ u //b"),
            "<a><b>x</b></a>");
}

TEST(EvaluatorEdgeTest, ContradictoryRulesSameObject) {
  EXPECT_EQ(RunView("<a><b>x</b></a>", "+ u //b\n- u //b"), "");
}

TEST(EvaluatorEdgeTest, VeryDeepDocument) {
  std::string open, close;
  for (int i = 0; i < 200; ++i) {
    open += "<d>";
    close.insert(0, "</d>");
  }
  std::string doc = open + "<leaf>x</leaf>" + close;
  std::string out = RunView(doc, "+ u //leaf");
  EXPECT_NE(out.find("<leaf>x</leaf>"), std::string::npos);
  // 200 scaffolding ancestors must all be present and bare.
  EXPECT_NE(out.find("<d><d>"), std::string::npos);
}

TEST(EvaluatorEdgeTest, ManySiblingsSameTag) {
  std::string doc = "<a>";
  for (int i = 0; i < 300; ++i) doc += "<b><c>1</c></b>";
  doc += "</a>";
  std::string out = RunView(doc, "+ u //b[c=\"1\"]");
  EXPECT_GT(out.size(), 300u * 10);
}

TEST(EvaluatorEdgeTest, RecursiveTagsWithPredicates) {
  // Same tag at several depths, predicate resolving at different times.
  RunView("<a><a><k/><a><x>1</x></a></a><a><x>2</x></a></a>", "+ u //a[k]//x");
  RunView("<a><a><a><k/></a></a></a>", "+ u //a[a/k]");
  RunView("<a><k/><a><a><k/></a></a></a>", "+ u //a[k]\n- u //a[a]");
}

TEST(EvaluatorEdgeTest, PendingInsidePendingResolvesCorrectly) {
  // Outer pending on [k], inner pending on [m]; both resolve late.
  RunView("<r><a><b><m/><x>keep</x></b><k/></a></r>", "+ u //a[k]/b[m]/x");
  RunView("<r><a><b><x>drop</x></b><k/></a></r>", "+ u //a[k]/b[m]/x");
  RunView("<r><a><b><m/><x>drop</x></b></a></r>", "+ u //a[k]/b[m]/x");
}

TEST(EvaluatorEdgeTest, NegativePendingOverPositivePending) {
  RunView("<r><a><p/><q/><x>v</x></a><a><p/><x>w</x></a></r>",
      "+ u //a[p]\n- u //a[q]");
}

TEST(EvaluatorEdgeTest, WildcardOnlyRules) {
  RunView("<a><b><c>1</c></b></a>", "+ u //*");
  RunView("<a><b><c>1</c></b></a>", "+ u /*/*");
  RunView("<a><b><c>1</c></b></a>", "+ u //*[c]");
}

TEST(EvaluatorEdgeTest, QueryDeeperThanRules) {
  RunView("<a><b><c><d>x</d></c></b></a>", "+ u //b", "//c/d");
}

TEST(EvaluatorEdgeTest, ZipfSkewedRandomDocs) {
  // Tag distribution heavily skewed: many collisions in the token stack.
  Rng rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    xml::GeneratorParams gp;
    gp.profile = xml::DocProfile::kRandom;
    gp.target_elements = 120;
    gp.vocabulary = 3;  // extreme reuse of tags
    gp.max_depth = 10;
    gp.seed = 5000 + static_cast<uint64_t>(iter);
    auto doc = xml::GenerateDocument(gp);
    scengen::RuleGenParams rp;
    rp.num_rules = 5;
    rp.path.predicate_prob = 0.4;
    auto rules = scengen::GenerateRules(doc, "u", rp, &rng);
    xml::CanonicalWriter w;
    auto ev = core::StreamingEvaluator::Create(rules.ForSubject("u"),
                                               nullptr, &w)
                  .value();
    ASSERT_TRUE(doc.root()->EmitEvents(ev.get()).ok());
    ASSERT_TRUE(ev->Finish().ok());
    auto ref =
        core::BuildAuthorizedView(doc, rules.ForSubject("u"), nullptr).value();
    ASSERT_EQ(w.str(), ref.Serialize()) << "iter " << iter;
  }
}

TEST(EvaluatorEdgeTest, StatsDistinguishPermitDenyPending) {
  auto doc = xml::DomDocument::Parse(
                 "<r><a><k/><x>1</x></a><b>2</b></r>")
                 .value();
  auto rules = core::RuleSet::ParseText("+ u //a[k]").value();
  xml::CanonicalWriter w;
  auto ev =
      core::StreamingEvaluator::Create(rules.ForSubject("u"), nullptr, &w)
          .value();
  ASSERT_TRUE(doc.root()->EmitEvents(ev.get()).ok());
  ASSERT_TRUE(ev->Finish().ok());
  const auto& st = ev->stats();
  EXPECT_GT(st.nodes_initially_pending, 0u);  // <a> awaited [k]
  EXPECT_GT(st.nodes_permitted, 0u);
  EXPECT_GT(st.nodes_denied, 0u);  // <b> and <r>
  EXPECT_EQ(st.nodes_permitted + st.nodes_denied, 5u);
}

TEST(EvaluatorEdgeTest, SkipDecisionRefusedWhilePending) {
  // While an ancestor's predicate is unresolved, nothing may be skipped
  // even if the current view looks deniable.
  auto doc = xml::DomDocument::Parse(
                 "<r><a><big><x>1</x></big><k/></a></r>")
                 .value();
  auto rules = core::RuleSet::ParseText("+ u //a[k]").value();
  xml::CanonicalWriter w;
  auto ev =
      core::StreamingEvaluator::Create(rules.ForSubject("u"), nullptr, &w)
          .value();
  ASSERT_TRUE(ev->OnEventView(xml::EventView::Open("r")).ok());
  ASSERT_TRUE(ev->OnEventView(xml::EventView::Open("a")).ok());
  ASSERT_TRUE(ev->OnEventView(xml::EventView::Open("big")).ok());
  auto no_tag = [](std::string_view) { return false; };
  // `big` is inside the pending <a>: its delivery is undecided, skip must
  // be refused.
  EXPECT_FALSE(ev->CanSkipCurrentSubtree(no_tag, false, true));
}

TEST(CardEngineEdgeTest, StrictRamFailsMidStreamNotUpfront) {
  // Failure injection: the budget blows only once the pending buffer
  // grows, exercising the abort path deep inside the filter loop.
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kNewsFeed;
  gp.target_elements = 400;
  gp.seed = 77;
  auto doc = xml::GenerateDocument(gp);
  auto rules = core::RuleSet::ParseText("+ u //item[rating=\"G\"]\n").value();
  auto encoded = skipindex::EncodeDocument(doc, {}).value();
  skipindex::MemorySource src(encoded);
  auto dec = skipindex::DocumentDecoder::Open(&src).value();
  xml::CanonicalWriter w;
  auto ev =
      core::StreamingEvaluator::Create(rules.ForSubject("u"), nullptr, &w)
          .value();
  size_t events_before_failure = 0;
  skipindex::FilterOptions fo;
  fo.on_event = [&]() -> Status {
    ++events_before_failure;
    if (ev->ModeledRamBytes() + dec->ModeledBytes() > 500) {
      return Status::ResourceExhausted("modeled RAM exceeded");
    }
    return Status::OK();
  };
  Status st = skipindex::RunFiltered(dec.get(), ev.get(), fo, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(events_before_failure, 10u);  // failed mid-stream, not at start
}

}  // namespace
}  // namespace csxa
