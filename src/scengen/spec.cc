#include "scengen/spec.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "core/rule.h"
#include "scengen/rulegen.h"

namespace csxa::scengen {

namespace {

// `prefix` followed by the decimal `k` ("s0", "m12"). Appending, rather
// than `"s" + std::to_string(k)`, keeps GCC 12's -Wrestrict quiet: its
// inlined insert-at-front of the temporary draws a false positive.
std::string SubjectName(char prefix, size_t k) {
  std::string name(1, prefix);
  name += std::to_string(k);
  return name;
}

// Domain-separation salts: document bodies, rule revisions and queries
// draw from independent streams so tweaking one knob never perturbs the
// others' bytes.
constexpr uint64_t kDocSalt = 0x5363656e446f63ull;    // "ScenDoc"
constexpr uint64_t kRuleSalt = 0x5363656e52756cull;   // "ScenRul"
constexpr uint64_t kQuerySalt = 0x5363656e517279ull;  // "ScenQry"

// splitmix64-style mixer: collapses (seed, salt, index, revision) into one
// well-distributed 64-bit stream seed.
uint64_t Mix(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  uint64_t x = a;
  x += 0x9E3779B97F4A7C15ull + b * 0xBF58476D1CE4E5B9ull;
  x += c * 0x94D049BB133111EBull + d * 0x2545F4914F6CDD1Dull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

RuleGenParams MapRuleShape(const RuleShape& shape) {
  RuleGenParams rp;
  rp.num_rules = shape.rules_per_subject;
  rp.negative_ratio = shape.negative_ratio;
  rp.path.max_steps = shape.max_steps;
  rp.path.descendant_prob = shape.descendant_prob;
  rp.path.wildcard_prob = shape.wildcard_prob;
  rp.path.predicate_prob = shape.predicate_prob;
  rp.path.value_pred_prob = shape.value_pred_prob;
  rp.path.junk_tag_prob = shape.junk_tag_prob;
  return rp;
}

// Stable generated subjects: "s0".."s{K-1}". At least one exists when the
// spec has no hand-written base rules, so every document grants somebody
// and the load harness always has a query-safe subject to impersonate.
size_t StableSubjectCount(const ScenarioSpec& spec) {
  if (spec.rules.subjects == 0 && spec.rules.base_rules_text.empty()) return 1;
  return spec.rules.subjects;
}

size_t MobileSubjectCount(const ScenarioSpec& spec) {
  size_t k = StableSubjectCount(spec);
  double churn = std::clamp(spec.churn.subject_churn, 0.0, 1.0);
  return static_cast<size_t>(std::llround(static_cast<double>(k) * churn));
}

}  // namespace

ScenarioDoc GeneratedScenario::MakeDoc(size_t index,
                                       uint64_t content_revision) const {
  ScenarioDoc d;
  d.index = index;
  d.doc_id = spec.name + "-" + std::to_string(index);
  d.doc_params.profile = spec.doc.profile;
  d.doc_params.target_elements = spec.doc.elements;
  d.doc_params.seed = Mix(spec.seed, kDocSalt, index, content_revision);
  d.doc_params.text_avg_len = spec.doc.text_avg_len;
  d.doc_params.max_depth = spec.doc.max_depth;
  d.doc_params.text_prob = spec.doc.text_prob;
  d.doc_params.folder_depth = spec.doc.folder_depth;
  d.doc_params.fan_out = spec.doc.fan_out;
  if (spec.doc.fan_out > 0) d.doc_params.vocabulary = spec.doc.fan_out;
  d.rules_text = RulesRevision(index, 0);
  // Query-safe subjects: the hand-written base policy's subjects plus the
  // stable generated core — all present in every RulesRevision.
  if (!spec.rules.base_rules_text.empty()) {
    auto base = core::RuleSet::ParseText(spec.rules.base_rules_text);
    CSXA_CHECK(base.ok());  // specs carry well-formed base policies
    d.subjects = base.value().Subjects();
  }
  for (size_t k = 0; k < StableSubjectCount(spec); ++k) {
    d.subjects.push_back(SubjectName('s', k));
  }
  return d;
}

xml::DomDocument GeneratedScenario::Materialize(const ScenarioDoc& doc) const {
  return xml::GenerateDocument(doc.doc_params);
}

std::string GeneratedScenario::RulesRevision(size_t index,
                                             uint64_t revision) const {
  // Rules sample the vocabulary of the document's revision-0 body so that
  // successive policy revisions stay comparable (same tag universe).
  xml::GeneratorParams gp;
  gp.profile = spec.doc.profile;
  gp.target_elements = spec.doc.elements;
  gp.seed = Mix(spec.seed, kDocSalt, index, 0);
  gp.text_avg_len = spec.doc.text_avg_len;
  gp.max_depth = spec.doc.max_depth;
  gp.text_prob = spec.doc.text_prob;
  gp.folder_depth = spec.doc.folder_depth;
  gp.fan_out = spec.doc.fan_out;
  if (spec.doc.fan_out > 0) gp.vocabulary = spec.doc.fan_out;
  xml::DomDocument doc = xml::GenerateDocument(gp);

  RuleGenParams rp = MapRuleShape(spec.rules);
  Rng rng(Mix(spec.seed, kRuleSalt, index, revision));

  std::string text = spec.rules.base_rules_text;
  if (!text.empty() && text.back() != '\n') text.push_back('\n');

  // Stable core: same subjects every revision, fresh rule bodies — a
  // policy *update*, not a revocation.
  for (size_t k = 0; k < StableSubjectCount(spec); ++k) {
    text += GenerateRules(doc, SubjectName('s', k), rp, &rng).ToText();
  }

  // Mobile subscribers: a window of M subjects out of a universe of 3M,
  // sliding by one each revision — each revision churns one subscriber
  // out and one in, the dissemination-list mobility of the e-health
  // scenario. Mobile subjects are never query-safe.
  size_t mobile = MobileSubjectCount(spec);
  if (mobile > 0) {
    size_t universe = 3 * mobile;
    for (size_t j = 0; j < mobile; ++j) {
      size_t id = (revision + j) % universe;
      text += GenerateRules(doc, SubjectName('m', id), rp, &rng).ToText();
    }
  }
  return text;
}

std::string GeneratedScenario::Fingerprint() const {
  std::string out = "scenario " + spec.name + "\n";
  for (const auto& [label, query] : queries) {
    out += "query " + label + " " + query + "\n";
  }
  for (const ScenarioDoc& d : docs) {
    out += "doc " + d.doc_id + "\n";
    out += Materialize(d).Serialize();
    out += "\nrules.r0\n" + d.rules_text;
    out += "rules.r1\n" + RulesRevision(d.index, 1);
    out += "subjects";
    for (const std::string& s : d.subjects) out += " " + s;
    out.push_back('\n');
  }
  return out;
}

GeneratedScenario BuildScenario(const ScenarioSpec& spec) {
  GeneratedScenario g;
  g.spec = spec;
  g.description = "generated scenario '" + spec.name + "': " +
                  std::to_string(spec.documents) + " " +
                  xml::DocProfileName(spec.doc.profile) + " documents of ~" +
                  std::to_string(spec.doc.elements) + " elements";

  g.queries = spec.queries.base_queries;
  if (spec.queries.generated > 0) {
    // Generated queries sample document 0's vocabulary; the fleet shares
    // one profile, so they are representative fleet-wide.
    ScenarioDoc probe;
    probe.doc_params.profile = spec.doc.profile;
    probe.doc_params.target_elements = spec.doc.elements;
    probe.doc_params.seed = Mix(spec.seed, kDocSalt, 0, 0);
    probe.doc_params.text_avg_len = spec.doc.text_avg_len;
    probe.doc_params.max_depth = spec.doc.max_depth;
    probe.doc_params.text_prob = spec.doc.text_prob;
    probe.doc_params.folder_depth = spec.doc.folder_depth;
    probe.doc_params.fan_out = spec.doc.fan_out;
    if (spec.doc.fan_out > 0) probe.doc_params.vocabulary = spec.doc.fan_out;
    xml::DomDocument doc0 = xml::GenerateDocument(probe.doc_params);
    std::vector<std::string> tags = CollectTags(doc0);
    std::vector<std::string> values = CollectValues(doc0);
    PathGenParams qp;
    qp.predicate_prob = spec.queries.predicate_prob;
    qp.descendant_prob = spec.queries.descendant_prob;
    qp.junk_tag_prob = 0.0;  // queries should usually hit the documents
    Rng rng(Mix(spec.seed, kQuerySalt, 0, 0));
    for (size_t q = 0; q < spec.queries.generated; ++q) {
      g.queries.emplace_back("gen" + std::to_string(q),
                             GeneratePathText(tags, values, qp, &rng));
    }
  }

  g.docs.reserve(spec.documents);
  for (size_t i = 0; i < spec.documents; ++i) {
    g.docs.push_back(g.MakeDoc(i));
  }
  return g;
}

ScenarioSpec IoTFleetSpec() {
  ScenarioSpec s;
  s.name = "iot-fleet";
  s.documents = 1024;
  s.doc.profile = xml::DocProfile::kIoT;
  s.doc.elements = 24;
  s.doc.text_avg_len = 12;
  s.rules.subjects = 2;
  s.rules.rules_per_subject = 2;
  s.rules.max_steps = 3;
  s.rules.predicate_prob = 0.15;
  s.rules.base_rules_text =
      "# owner: the whole device announcement\n"
      "+ owner /device\n"
      "# operator: presence, capabilities and telemetry, never location\n"
      "+ operator //status\n"
      "+ operator //capabilities\n"
      "+ operator //telemetry\n"
      "- operator //location\n"
      "# auditor: firmware lineage only, no personal owner data\n"
      "+ auditor //firmware\n"
      "- auditor //owner\n";
  s.queries.base_queries = {
      {"presence", "//status"},
      {"caps", "//capability"},
      {"firmware", "//firmware/build"},
  };
  s.queries.generated = 2;
  s.churn.update_fraction = 0.10;
  s.churn.publish_fraction = 0.15;
  s.churn.subject_churn = 0.5;
  s.seed = 20250;
  return s;
}

ScenarioSpec EHealthMobilitySpec() {
  ScenarioSpec s;
  s.name = "ehealth-mobility";
  s.documents = 12;
  s.doc.profile = xml::DocProfile::kHospital;
  s.doc.elements = 320;
  s.doc.folder_depth = 4;
  s.rules.subjects = 5;
  s.rules.rules_per_subject = 4;
  s.rules.predicate_prob = 0.35;
  s.rules.base_rules_text =
      "# doctor: whole patient folder except billing\n"
      "+ doctor //patient\n"
      "- doctor //admin/billing\n"
      "# nurse: current treatments and visit history\n"
      "+ nurse //treatments\n"
      "+ nurse //visits\n"
      "- nurse //admin\n"
      "# emergency: acute cases wherever the patient shows up\n"
      "+ emergency //patient[medical/diagnosis/severity=\"acute\"]\n"
      "- emergency //admin\n";
  s.queries.base_queries = {
      {"treatments", "//treatment"},
      {"acute", "//patient[medical/diagnosis/severity=\"acute\"]"},
      {"episodes", "//episode/note"},
  };
  s.queries.generated = 3;
  s.churn.update_fraction = 0.30;
  s.churn.publish_fraction = 0.10;
  s.churn.subject_churn = 0.6;
  s.seed = 777;
  return s;
}

}  // namespace csxa::scengen
