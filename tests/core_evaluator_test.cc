// Unit tests for the streaming access-control evaluator: conflict
// resolution, propagation, scaffolding, queries, pending predicates.

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/ref_evaluator.h"
#include "core/rule.h"
#include "xml/dom.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

using core::AccessRule;
using core::RuleSet;
using core::StreamingEvaluator;
using xml::CanonicalWriter;
using xml::DomDocument;

// Runs the streaming evaluator over `doc_text` with rules in text form for
// `subject` and optional query; returns the canonical delivered view.
std::string Stream(const std::string& doc_text, const std::string& rules_text,
                   const std::string& subject, const std::string& query = "") {
  auto doc = DomDocument::Parse(doc_text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  auto rules = RuleSet::ParseText(rules_text);
  EXPECT_TRUE(rules.ok()) << rules.status().ToString();
  xpath::PathExpr qexpr;
  const xpath::PathExpr* qptr = nullptr;
  if (!query.empty()) {
    auto q = xpath::ParsePath(query);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    qexpr = q.value();
    qptr = &qexpr;
  }
  CanonicalWriter out;
  auto ev = StreamingEvaluator::Create(rules.value().ForSubject(subject), qptr,
                                       &out);
  EXPECT_TRUE(ev.ok()) << ev.status().ToString();
  Status st = doc.value().root()->EmitEvents(ev.value().get());
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = ev.value()->Finish();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out.str();
}

// Reference view for the same inputs.
std::string Ref(const std::string& doc_text, const std::string& rules_text,
                const std::string& subject, const std::string& query = "") {
  auto doc = DomDocument::Parse(doc_text);
  EXPECT_TRUE(doc.ok());
  auto rules = RuleSet::ParseText(rules_text);
  EXPECT_TRUE(rules.ok());
  xpath::PathExpr qexpr;
  const xpath::PathExpr* qptr = nullptr;
  if (!query.empty()) {
    qexpr = xpath::ParsePath(query).value();
    qptr = &qexpr;
  }
  auto view = core::BuildAuthorizedView(doc.value(),
                                        rules.value().ForSubject(subject), qptr);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return view.value().Serialize();
}

TEST(EvaluatorTest, ClosedPolicyDeniesEverything) {
  EXPECT_EQ(Stream("<a><b>x</b></a>", "", "u"), "");
}

TEST(EvaluatorTest, RootPermissionDeliversAll) {
  EXPECT_EQ(Stream("<a><b>x</b></a>", "+ u /a", "u"), "<a><b>x</b></a>");
}

TEST(EvaluatorTest, PermissionPropagatesToDescendants) {
  EXPECT_EQ(Stream("<a><b><c>1</c></b><d>2</d></a>", "+ u /a/b", "u"),
            "<a><b><c>1</c></b></a>");
}

TEST(EvaluatorTest, DenialOverridesAtSameDepth) {
  // Both rules match <b>: denial takes precedence.
  EXPECT_EQ(Stream("<a><b>x</b></a>", "+ u //b\n- u /a/b", "u"), "");
}

TEST(EvaluatorTest, MostSpecificOverridesShallowerDenial) {
  // deny at <a>, permit deeper at <c>: c is delivered, a is scaffolding.
  EXPECT_EQ(Stream("<a><b><c>x</c></b><d>y</d></a>", "- u /a\n+ u //c", "u"),
            "<a><b><c>x</c></b></a>");
}

TEST(EvaluatorTest, MostSpecificDenialWins) {
  EXPECT_EQ(Stream("<a><b><c>x</c></b></a>", "+ u /a\n- u //c", "u"),
            "<a><b></b></a>");
}

TEST(EvaluatorTest, ScaffoldingHasNoAttributesOrText) {
  // <a> is denied but has a permitted descendant: its tag appears bare.
  EXPECT_EQ(
      Stream("<a id=\"1\">secret<b k=\"v\">x</b></a>", "+ u //b", "u"),
      "<a><b k=\"v\">x</b></a>");
}

TEST(EvaluatorTest, WildcardStep) {
  EXPECT_EQ(Stream("<a><b><c>1</c></b><x><c>2</c></x></a>", "+ u /a/*/c", "u"),
            "<a><b><c>1</c></b><x><c>2</c></x></a>");
}

TEST(EvaluatorTest, DescendantAxisDeep) {
  EXPECT_EQ(Stream("<a><b><a><c>x</c></a></b></a>", "+ u //a//c", "u"),
            "<a><b><a><c>x</c></a></b></a>");
}

TEST(EvaluatorTest, ChildAxisIsNotDescendant) {
  EXPECT_EQ(Stream("<a><x><b>1</b></x><b>2</b></a>", "+ u /a/b", "u"),
            "<a><b>2</b></a>");
}

TEST(EvaluatorTest, ExistencePredicateHolds) {
  EXPECT_EQ(Stream("<a><b><c/><d>x</d></b><b><d>y</d></b></a>",
                   "+ u //b[c]", "u"),
            "<a><b><c></c><d>x</d></b></a>");
}

TEST(EvaluatorTest, ExistencePredicateFails) {
  EXPECT_EQ(Stream("<a><b><d>y</d></b></a>", "+ u //b[c]", "u"), "");
}

TEST(EvaluatorTest, PredicateResolvesAfterTarget) {
  // The rule is pending at <d> (c arrives later): classic pending case.
  EXPECT_EQ(Stream("<a><b><d>keep</d><c/></b></a>", "+ u //b[c]/d", "u"),
            "<a><b><d>keep</d></b></a>");
}

TEST(EvaluatorTest, PendingResolvesFalseAtContextClose) {
  EXPECT_EQ(Stream("<a><b><d>drop</d></b><c/></a>", "+ u //b[c]/d", "u"), "");
}

TEST(EvaluatorTest, ValuePredicateEquality) {
  EXPECT_EQ(Stream("<a><b><t>private</t><x>1</x></b><b><t>public</t><x>2</x></b></a>",
                   "+ u //b[t=\"public\"]", "u"),
            "<a><b><t>public</t><x>2</x></b></a>");
}

TEST(EvaluatorTest, ValuePredicateNumericComparison) {
  EXPECT_EQ(Stream("<a><p><age>9</age><n>kid</n></p><p><age>30</age><n>adult</n></p></a>",
                   "+ u //p[age>=\"18\"]", "u"),
            "<a><p><age>30</age><n>adult</n></p></a>");
}

TEST(EvaluatorTest, NegativePendingPredicate) {
  // Denial depends on a predicate resolved later in the subtree.
  EXPECT_EQ(Stream("<a><b><x>1</x><flag/></b><b><x>2</x></b></a>",
                   "+ u /a\n- u //b[flag]", "u"),
            "<a><b><x>2</x></b></a>");
}

TEST(EvaluatorTest, QueryRestrictsAuthorizedView) {
  EXPECT_EQ(Stream("<a><b>1</b><c>2</c></a>", "+ u /a", "u", "//b"),
            "<a><b>1</b></a>");
}

TEST(EvaluatorTest, QueryDoesNotWidenAccess) {
  EXPECT_EQ(Stream("<a><b>1</b><c>2</c></a>", "+ u //c", "u", "//b"), "");
}

TEST(EvaluatorTest, QueryWithPredicate) {
  EXPECT_EQ(Stream("<a><b><k/><v>x</v></b><b><v>y</v></b></a>", "+ u /a", "u",
                   "//b[k]"),
            "<a><b><k></k><v>x</v></b></a>");
}

TEST(EvaluatorTest, MultipleSubjectsAreIsolated) {
  std::string doc = "<a><b>x</b></a>";
  std::string rules = "+ u /a\n- v //b";
  EXPECT_EQ(Stream(doc, rules, "u"), "<a><b>x</b></a>");
  EXPECT_EQ(Stream(doc, rules, "v"), "");
}

TEST(EvaluatorTest, TextInheritsElementAuthorization) {
  EXPECT_EQ(Stream("<a>top<b>inner</b>tail</a>", "+ u //b", "u"),
            "<a><b>inner</b></a>");
}

TEST(EvaluatorTest, DeepRecursiveTags) {
  EXPECT_EQ(Stream("<a><a><a><b>x</b></a></a></a>", "+ u /a/a/a/b", "u"),
            "<a><a><a><b>x</b></a></a></a>");
}

TEST(EvaluatorTest, AgreesWithOracleOnHandwrittenCases) {
  struct Case {
    const char* doc;
    const char* rules;
    const char* query;
  };
  const Case cases[] = {
      {"<a><b><c>1</c></b><b><d>2</d></b></a>", "+ u //b[c]\n- u //d", ""},
      {"<a><b><c>1</c><c>2</c></b></a>", "+ u //c", "//b"},
      {"<r><x><y><z>d</z></y></x></r>", "- r /r\n+ r //z", ""},
      {"<r><a><b/></a><a><b><c/></b></a></r>", "+ u //a[b/c]", ""},
      {"<r><a>5</a><a>15</a></r>", "+ u //a[.//a<\"10\"]", ""},
      {"<r><a><v>1</v></a><b><v>1</v></b></r>", "+ u //*[v=\"1\"]", "//a"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Stream(c.doc, c.rules, "u", c.query),
              Ref(c.doc, c.rules, "u", c.query))
        << "doc=" << c.doc << " rules=" << c.rules << " query=" << c.query;
  }
}

TEST(EvaluatorTest, StatsArepopulated) {
  auto doc = DomDocument::Parse("<a><b><c>x</c></b></a>").value();
  auto rules = RuleSet::ParseText("+ u //b[c]").value();
  CanonicalWriter out;
  auto ev = StreamingEvaluator::Create(rules.ForSubject("u"), nullptr, &out)
                .value();
  ASSERT_TRUE(doc.root()->EmitEvents(ev.get()).ok());
  ASSERT_TRUE(ev->Finish().ok());
  const core::EvaluatorStats& st = ev->stats();
  EXPECT_GT(st.events, 0u);
  EXPECT_GT(st.nfa_transitions, 0u);
  EXPECT_EQ(st.obligations_created, 1u);
  EXPECT_GT(st.modeled_ram_peak, 0u);
}

TEST(EvaluatorTest, RejectsUnbalancedStream) {
  auto rules = RuleSet::ParseText("+ u /a").value();
  CanonicalWriter out;
  auto ev = StreamingEvaluator::Create(rules.ForSubject("u"), nullptr, &out)
                .value();
  ASSERT_TRUE(ev->OnEventView(xml::EventView::Open("a")).ok());
  Status st = ev->Finish();
  EXPECT_FALSE(st.ok());
}

TEST(EvaluatorTest, RejectsCloseWithoutOpen) {
  auto rules = RuleSet::ParseText("+ u /a").value();
  CanonicalWriter out;
  auto ev = StreamingEvaluator::Create(rules.ForSubject("u"), nullptr, &out)
                .value();
  EXPECT_FALSE(ev->OnEventView(xml::EventView::Close("a")).ok());
}

}  // namespace
}  // namespace csxa
