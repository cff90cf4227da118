// EXP-PIPE — the zero-copy event pipeline (parser / decoder / end-to-end).
//
// Wall-clock microbenchmarks of the borrowed-view (`EventView`) fast path
// against the owning-event path it replaced, at each stage of the
// producer→evaluator→writer pipeline:
//
//   BM_Parse/owning|view      textual XML pull parse (full document)
//   BM_Decode/owning|view     skip-index binary decode (full document)
//   BM_EndToEnd/owning|view   decode → StreamingEvaluator → CanonicalWriter
//
// Modeled on-card costs are byte-identical across the two modes (pinned by
// the oracle differential suite); what this bench demonstrates is the real
// CPU cost of the one-copy-per-text-event the owning path performs and the
// borrowed path eliminates.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "core/evaluator.h"
#include "skipindex/byte_source.h"
#include "skipindex/codec.h"
#include "xml/generator.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace {

using namespace csxa;

constexpr size_t kDocElements = 2000;
constexpr size_t kTextAvg = 96;

std::string MakeDocText() {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = kDocElements;
  gp.seed = 71;
  gp.text_avg_len = kTextAvg;
  return xml::GenerateDocument(gp).Serialize();
}

Bytes MakeEncodedDoc(xml::DomDocument* doc_out = nullptr) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = kDocElements;
  gp.seed = 71;
  gp.text_avg_len = kTextAvg;
  auto doc = xml::GenerateDocument(gp);
  Bytes encoded = skipindex::EncodeDocument(doc, {}).value();
  if (doc_out != nullptr) *doc_out = std::move(doc);
  return encoded;
}

void SetRates(benchmark::State& state, size_t events, size_t bytes) {
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
}

void BM_Parse(benchmark::State& state, bool view_mode) {
  std::string text = MakeDocText();
  size_t events = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    xml::PullParser parser(text);
    for (;;) {
      if (view_mode) {
        auto v = parser.NextView();
        CSXA_CHECK(v.ok());
        if (v.value().type == xml::EventType::kEnd) break;
        benchmark::DoNotOptimize(v.value().name.data());
        benchmark::DoNotOptimize(v.value().text.data());
      } else {
        auto e = parser.Next();
        CSXA_CHECK(e.ok());
        if (e.value().type == xml::EventType::kEnd) break;
        benchmark::DoNotOptimize(e.value().name.data());
        benchmark::DoNotOptimize(e.value().text.data());
      }
      ++events;
    }
    bytes += text.size();
  }
  SetRates(state, events, bytes);
}
BENCHMARK_CAPTURE(BM_Parse, owning, false);
BENCHMARK_CAPTURE(BM_Parse, view, true);

void BM_Decode(benchmark::State& state, bool view_mode) {
  Bytes encoded = MakeEncodedDoc();
  size_t events = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    skipindex::MemorySource source{Span(encoded)};
    auto dec = skipindex::DocumentDecoder::Open(&source);
    CSXA_CHECK(dec.ok());
    for (;;) {
      if (view_mode) {
        auto v = dec.value()->NextView();
        CSXA_CHECK(v.ok());
        if (v.value().type == xml::EventType::kEnd) break;
        benchmark::DoNotOptimize(v.value().name.data());
        benchmark::DoNotOptimize(v.value().text.data());
      } else {
        auto e = dec.value()->Next();
        CSXA_CHECK(e.ok());
        if (e.value().type == xml::EventType::kEnd) break;
        benchmark::DoNotOptimize(e.value().name.data());
        benchmark::DoNotOptimize(e.value().text.data());
      }
      ++events;
    }
    bytes += encoded.size();
  }
  SetRates(state, events, bytes);
}
BENCHMARK_CAPTURE(BM_Decode, owning, false);
BENCHMARK_CAPTURE(BM_Decode, view, true);

void BM_EndToEnd(benchmark::State& state, bool view_mode) {
  Bytes encoded = MakeEncodedDoc();
  // Immediately-decidable rules (no value predicates): the pipeline stays
  // empty and delivered text streams through ComposeValue — the regime
  // where the borrowed path's copy elimination is visible end to end.
  // Predicate-heavy sessions buffer (and copy) pending output in both
  // modes; their cost is the evaluator's, not the event representation's.
  auto rules = core::RuleSet::ParseText(
                   "+ u //patient\n- u //patient/name\n- u //admin/billing\n")
                   .value();
  size_t events = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    skipindex::MemorySource source{Span(encoded)};
    auto dec = skipindex::DocumentDecoder::Open(&source);
    CSXA_CHECK(dec.ok());
    xml::CanonicalWriter writer;
    auto ev = core::StreamingEvaluator::Create(rules.ForSubject("u"), nullptr,
                                               &writer);
    CSXA_CHECK(ev.ok());
    ev.value()->BindDocumentTags(dec.value()->tags());
    std::vector<xml::AttrView> scratch;
    // Identical control flow in both modes (no skips): only the event
    // representation differs.
    for (;;) {
      if (view_mode) {
        auto v = dec.value()->NextView();
        CSXA_CHECK(v.ok());
        CSXA_CHECK(ev.value()->OnEventView(v.value()).ok());
        if (v.value().type == xml::EventType::kEnd) break;
      } else {
        auto e = dec.value()->Next();
        CSXA_CHECK(e.ok());
        CSXA_CHECK(
            ev.value()->OnEventView(xml::ViewOf(e.value(), &scratch)).ok());
        if (e.value().type == xml::EventType::kEnd) break;
      }
    }
    benchmark::DoNotOptimize(writer.str().data());
    events += ev.value()->stats().events;
    bytes += encoded.size();
  }
  SetRates(state, events, bytes);
}
BENCHMARK_CAPTURE(BM_EndToEnd, owning, false);
BENCHMARK_CAPTURE(BM_EndToEnd, view, true);

}  // namespace

BENCHMARK_MAIN();
