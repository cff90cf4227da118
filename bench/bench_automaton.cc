// EXP-F2 — the access-rule automaton engine (Fig. 2, §2.3).
//
// Microbenchmarks of the streaming NFA evaluator on the host: throughput
// in parse events/second as the rule count, rule complexity and predicate
// density grow. The paper's engine must keep up with the card link
// (2 KB/s ≈ a few hundred events/s after decoding), so host throughput in
// the millions leaves orders of magnitude of headroom — the point is the
// scaling *shape*: linear in rules, mild in depth.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/random.h"
#include "core/evaluator.h"
#include "scengen/rulegen.h"
#include "xml/generator.h"
#include "xml/writer.h"

namespace {

using namespace csxa;

struct Workload {
  std::vector<xml::Event> events;
  core::RuleSet rules;
  // Document tag dictionary; events carry its ids and each evaluator
  // binds it, exercising the interned dispatch path the SOE uses.
  Interner tags;
};

Workload MakeWorkload(size_t doc_elements, size_t num_rules,
                      double predicate_prob, size_t max_steps,
                      uint64_t seed) {
  Workload w;
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kRandom;
  gp.target_elements = doc_elements;
  gp.seed = seed;
  gp.vocabulary = 10;
  auto doc = xml::GenerateDocument(gp);
  xml::EventRecorder recorder;
  CSXA_CHECK(doc.root()->EmitEvents(&recorder, &w.tags).ok());
  w.events = recorder.Take();
  Rng rng(seed * 3 + 1);
  scengen::RuleGenParams rp;
  rp.num_rules = num_rules;
  rp.path.predicate_prob = predicate_prob;
  rp.path.max_steps = max_steps;
  w.rules = scengen::GenerateRules(doc, "u", rp, &rng);
  return w;
}

// Discards evaluator output (we measure the engine, not the serializer).
class NullSink : public xml::EventSink {
 public:
  Status OnEventView(const xml::EventView&) override { return Status::OK(); }
};

void RunEvaluator(benchmark::State& state, const Workload& w) {
  size_t events = 0;
  size_t transitions = 0;
  for (auto _ : state) {
    NullSink sink;
    auto ev = core::StreamingEvaluator::Create(w.rules.ForSubject("u"),
                                               nullptr, &sink);
    CSXA_CHECK(ev.ok());
    ev.value()->BindDocumentTags(w.tags);
    std::vector<xml::AttrView> scratch;
    for (const xml::Event& e : w.events) {
      Status st = ev.value()->OnEventView(xml::ViewOf(e, &scratch));
      CSXA_CHECK(st.ok());
    }
    CSXA_CHECK(ev.value()->Finish().ok());
    events += ev.value()->stats().events;
    transitions += ev.value()->TotalTransitions();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["transitions/s"] = benchmark::Counter(
      static_cast<double>(transitions), benchmark::Counter::kIsRate);
}

void BM_RuleCount(benchmark::State& state) {
  Workload w = MakeWorkload(500, static_cast<size_t>(state.range(0)), 0.0, 4,
                            42);
  RunEvaluator(state, w);
}
BENCHMARK(BM_RuleCount)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_RuleComplexity(benchmark::State& state) {
  Workload w = MakeWorkload(500, 8, 0.0, static_cast<size_t>(state.range(0)),
                            43);
  RunEvaluator(state, w);
}
BENCHMARK(BM_RuleComplexity)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_PredicateDensity(benchmark::State& state) {
  double density = static_cast<double>(state.range(0)) / 100.0;
  Workload w = MakeWorkload(500, 8, density, 4, 44);
  RunEvaluator(state, w);
}
BENCHMARK(BM_PredicateDensity)->Arg(0)->Arg(25)->Arg(50)->Arg(75)->Arg(100);

void BM_DocumentDepth(benchmark::State& state) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kRandom;
  gp.target_elements = 500;
  gp.max_depth = static_cast<int>(state.range(0));
  gp.seed = 45;
  auto doc = xml::GenerateDocument(gp);
  Workload w;
  xml::EventRecorder recorder;
  CSXA_CHECK(doc.root()->EmitEvents(&recorder, &w.tags).ok());
  w.events = recorder.Take();
  Rng rng(46);
  scengen::RuleGenParams rp;
  rp.num_rules = 8;
  w.rules = scengen::GenerateRules(doc, "u", rp, &rng);
  RunEvaluator(state, w);
}
BENCHMARK(BM_DocumentDepth)->Arg(3)->Arg(6)->Arg(12)->Arg(24);

void BM_RealisticScenario(benchmark::State& state) {
  // The hospital scenario: 8 rules with predicates over a 2k-element doc.
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = 2000;
  gp.seed = 47;
  auto doc = xml::GenerateDocument(gp);
  Workload w;
  xml::EventRecorder recorder;
  CSXA_CHECK(doc.root()->EmitEvents(&recorder, &w.tags).ok());
  w.events = recorder.Take();
  w.rules = core::RuleSet::ParseText(
                "+ emergency //patient[medical/diagnosis/severity=\"acute\"]\n"
                "- emergency //admin\n")
                .value();
  RunEvaluator(state, w);
}
BENCHMARK(BM_RealisticScenario);

}  // namespace

BENCHMARK_MAIN();
