// XPath fragment tests: parser acceptance/rejection, printer round-trips,
// value comparison semantics, DOM evaluation, the parser's space.

#include <gtest/gtest.h>

#include <string>

#include "alloc_counter.h"
#include "xml/dom.h"
#include "xpath/ast.h"
#include "xpath/eval.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

using xpath::Axis;
using xpath::CmpOp;
using xpath::ParsePath;
using xpath::PathExpr;

TEST(XPathParseTest, SimpleChildPath) {
  auto r = ParsePath("/a/b/c");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().steps.size(), 3u);
  EXPECT_EQ(r.value().steps[0].axis, Axis::kChild);
  EXPECT_EQ(r.value().steps[2].tag, "c");
}

TEST(XPathParseTest, DescendantAndWildcard) {
  auto r = ParsePath("//a/*//b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().steps[0].axis, Axis::kDescendant);
  EXPECT_TRUE(r.value().steps[1].wildcard);
  EXPECT_EQ(r.value().steps[2].axis, Axis::kDescendant);
}

TEST(XPathParseTest, PredicateForms) {
  auto r = ParsePath("//a[b]/c[.//d/e]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().steps[0].predicates.size(), 1u);
  const auto& p2 = r.value().steps[1].predicates[0];
  EXPECT_EQ(p2.path.steps.size(), 2u);
  EXPECT_EQ(p2.path.steps[0].axis, Axis::kDescendant);
}

TEST(XPathParseTest, ValuePredicates) {
  struct Case {
    const char* text;
    CmpOp op;
    const char* literal;
  };
  const Case cases[] = {
      {"//a[b=\"x\"]", CmpOp::kEq, "x"},   {"//a[b!='y']", CmpOp::kNe, "y"},
      {"//a[b<\"10\"]", CmpOp::kLt, "10"}, {"//a[b<=\"10\"]", CmpOp::kLe, "10"},
      {"//a[b>\"10\"]", CmpOp::kGt, "10"}, {"//a[b>=\"10\"]", CmpOp::kGe, "10"},
      {"//a[b=42]", CmpOp::kEq, "42"},     {"//a[b=-1.5]", CmpOp::kEq, "-1.5"},
  };
  for (const Case& c : cases) {
    auto r = ParsePath(c.text);
    ASSERT_TRUE(r.ok()) << c.text << ": " << r.status().ToString();
    const auto& pred = r.value().steps[0].predicates[0];
    EXPECT_EQ(pred.op, c.op) << c.text;
    EXPECT_EQ(pred.literal, c.literal) << c.text;
  }
}

TEST(XPathParseTest, MultiplePredicatesOnOneStep) {
  auto r = ParsePath("//a[b][c=\"1\"]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().steps[0].predicates.size(), 2u);
}

TEST(XPathParseTest, WhitespaceTolerated) {
  auto r = ParsePath("  // a [ b = \"x y\" ] / c ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().steps.size(), 2u);
  EXPECT_EQ(r.value().steps[0].predicates[0].literal, "x y");
}

TEST(XPathParseTest, RejectsOutsideFragment) {
  const char* bad[] = {
      "",                 "a/b",           "/a[@id]",     "/a[3]",
      "/a/../b",          "/a[b=]",        "/a[",         "/a]b",
      "/a[/abs]",         "/a[b][",        "/a bc",       "//",
      "/a[text()=\"x\"]", "/a[b=\"unterminated]",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParsePath(text).ok()) << text;
  }
}

TEST(XPathPrintTest, RoundTripsThroughParser) {
  const char* exprs[] = {
      "/a/b/c", "//a//b", "/a/*", "//a[b]/c", "//a[.//b/c]",
      "//a[b=\"x\"]", "//a[b>=\"10\"]/d", "//*[k]",
  };
  for (const char* text : exprs) {
    auto first = ParsePath(text);
    ASSERT_TRUE(first.ok()) << text;
    std::string printed = xpath::ToString(first.value());
    auto second = ParsePath(printed);
    ASSERT_TRUE(second.ok()) << printed;
    EXPECT_EQ(printed, xpath::ToString(second.value()));
  }
}

TEST(CompareValueTest, StringAndNumericEquality) {
  EXPECT_TRUE(xpath::CompareValue("abc", CmpOp::kEq, "abc"));
  EXPECT_TRUE(xpath::CompareValue(" abc ", CmpOp::kEq, "abc"));  // trimmed
  EXPECT_FALSE(xpath::CompareValue("abc", CmpOp::kEq, "abd"));
  EXPECT_TRUE(xpath::CompareValue("10", CmpOp::kEq, "10.0"));  // numeric
  EXPECT_TRUE(xpath::CompareValue("10", CmpOp::kNe, "11"));
}

TEST(CompareValueTest, OrderedRequiresNumeric) {
  EXPECT_TRUE(xpath::CompareValue("9", CmpOp::kLt, "10"));
  EXPECT_FALSE(xpath::CompareValue("abc", CmpOp::kLt, "abd"));
  EXPECT_TRUE(xpath::CompareValue("2.5", CmpOp::kGe, "2.5"));
  EXPECT_FALSE(xpath::CompareValue("", CmpOp::kLe, "1"));
}

xml::DomDocument Doc(const std::string& text) {
  return xml::DomDocument::Parse(text).value();
}

std::vector<std::string> Tags(const std::vector<const xml::DomNode*>& nodes) {
  std::vector<std::string> out;
  for (auto* n : nodes) out.push_back(n->tag());
  return out;
}

TEST(XPathEvalTest, AbsolutePaths) {
  auto doc = Doc("<a><b><c/></b><b><d/></b></a>");
  auto sel = xpath::SelectNodes(doc.root(), ParsePath("/a/b").value());
  EXPECT_EQ(sel.size(), 2u);
  sel = xpath::SelectNodes(doc.root(), ParsePath("/b").value());
  EXPECT_TRUE(sel.empty());
  sel = xpath::SelectNodes(doc.root(), ParsePath("//c").value());
  EXPECT_EQ(Tags(sel), std::vector<std::string>{"c"});
}

TEST(XPathEvalTest, DescendantIncludesRoot) {
  auto doc = Doc("<a><a><b/></a></a>");
  auto sel = xpath::SelectNodes(doc.root(), ParsePath("//a").value());
  EXPECT_EQ(sel.size(), 2u);
}

TEST(XPathEvalTest, DocumentOrderNoDuplicates) {
  auto doc = Doc("<a><x><b id=\"1\"/></x><x><b id=\"2\"/></x></a>");
  // Both /a/x//b and //b reach each <b>; the result must still be the two
  // nodes once each, in document order.
  auto sel = xpath::SelectNodes(doc.root(), ParsePath("//b").value());
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0]->attrs()[0].value, "1");
  EXPECT_EQ(sel[1]->attrs()[0].value, "2");
}

TEST(XPathEvalTest, PredicatesExistenceAndValue) {
  auto doc = Doc(
      "<r><p><k/><v>5</v></p><p><v>15</v></p><p><k/><v>20</v></p></r>");
  auto with_k = xpath::SelectNodes(doc.root(), ParsePath("//p[k]").value());
  EXPECT_EQ(with_k.size(), 2u);
  auto big = xpath::SelectNodes(doc.root(), ParsePath("//p[v>\"10\"]").value());
  EXPECT_EQ(big.size(), 2u);
  auto both = xpath::SelectNodes(
      doc.root(), ParsePath("//p[k][v>\"10\"]").value());
  EXPECT_EQ(both.size(), 1u);
}

TEST(XPathEvalTest, PredicateUsesDirectText) {
  // <v> has text nested inside <w>; direct text of v is "ab" only.
  auto doc = Doc("<r><p><v>a<w>XX</w>b</v></p></r>");
  EXPECT_EQ(
      xpath::SelectNodes(doc.root(), ParsePath("//p[v=\"ab\"]").value()).size(),
      1u);
  EXPECT_TRUE(
      xpath::SelectNodes(doc.root(), ParsePath("//p[v=\"aXXb\"]").value())
          .empty());
}

TEST(XPathEvalTest, MatchesNode) {
  auto doc = Doc("<a><b><c/></b></a>");
  const xml::DomNode* c =
      doc.root()->children()[0]->children()[0].get();
  EXPECT_TRUE(xpath::MatchesNode(doc.root(), ParsePath("//c").value(), c));
  EXPECT_FALSE(xpath::MatchesNode(doc.root(), ParsePath("/a/c").value(), c));
}

TEST(XPathComplexityTest, CountsStepsAndPredicates) {
  auto expr = ParsePath("//a[b/c]/d[e=\"1\"][f]").value();
  EXPECT_EQ(expr.PredicateCount(), 3u);
  EXPECT_EQ(expr.TotalSteps(), 2u + 2u + 1u + 1u);
}

// A query comes from the card holder's terminal, so its parse must take
// space in proportion to its length, whether its steps follow one another
// or nest: 4x the text may take at most ~4x the bytes.
std::string ChainedSteps(size_t n) {
  std::string text;
  for (size_t i = 0; i < n; ++i) text += "/a[b]";
  return text;
}
std::string NestedPredicates(size_t n) {
  std::string text = "/a";
  for (size_t i = 0; i < n; ++i) text += "[b";
  text.append(n, ']');
  return text;
}

TEST(XPathParseTest, ParseSpaceGrowsLinearlyWithTheQuery) {
  for (auto make : {ChainedSteps, NestedPredicates}) {
    auto bytes = [make](size_t n) {
      const std::string text = make(n);
      Result<PathExpr> parsed = Status::Internal("not run");
      const size_t allocated =
          CountAllocatedBytes([&] { parsed = ParsePath(text); });
      EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      return allocated;
    };
    const size_t small = bytes(100);
    const size_t large = bytes(400);
    EXPECT_LT(large, 5 * small) << make(2) << ": " << small << " B for 100, "
                                << large << " B for 400";
  }
}

}  // namespace
}  // namespace csxa
