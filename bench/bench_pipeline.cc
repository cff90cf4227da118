// EXP-PIPE — the zero-copy event pipeline (parser / decoder / end-to-end)
// and the card session around it.
//
// Wall-clock (host) microbenchmarks of the borrowed-view (`EventView`)
// path at each stage of the producer→evaluator→writer pipeline, and of one
// whole card session:
//
//   BM_Parse/view      textual XML pull parse (full document)
//   BM_Decode/view     skip-index binary decode (full document)
//   BM_EndToEnd/view   decode → StreamingEvaluator → CanonicalWriter
//   BM_CardSession     CardEngine::RunSession over the sealed document
//                      (chunk 256), the doctor's rules: verify+decrypt,
//                      decode, skip, evaluate, write and the per-event RAM
//                      meter; host ns per session and events/s
//   BM_CardSession/emergency
//                      the same for emergency staff asking //treatment:
//                      predicates live, output buffered while pending
//   BM_Encode          skipindex::EncodeDocument of a deep hospital folder
//                      (2000-element target, folder_depth 4: ~3,100
//                      elements, ~57 KB encoded); the publisher's encode
//   BM_Seal            SecureContainer::Seal of that encoded folder
//                      (chunk 256, chunk MACs); the publisher's seal
//
// The owning-event legs these replaced are retired (their last numbers are
// in CHANGES.md); the modeled costs of both were byte-identical, pinned by
// the oracle differential suite.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/random.h"
#include "core/evaluator.h"
#include "core/rule_envelope.h"
#include "crypto/container.h"
#include "scengen/scenario.h"
#include "skipindex/byte_source.h"
#include "skipindex/codec.h"
#include "soe/card_engine.h"
#include "soe/chunk_source.h"
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

void BM_Parse(benchmark::State& state) {
  std::string text = MakeDocText();
  size_t events = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    xml::PullParser parser(text);
    for (;;) {
      auto v = parser.NextView();
      CSXA_CHECK(v.ok());
      if (v.value().type == xml::EventType::kEnd) break;
      benchmark::DoNotOptimize(v.value().name.data());
      benchmark::DoNotOptimize(v.value().text.data());
      ++events;
    }
    bytes += text.size();
  }
  SetRates(state, events, bytes);
}
BENCHMARK(BM_Parse)->Name("BM_Parse/view");

void BM_Decode(benchmark::State& state) {
  Bytes encoded = MakeEncodedDoc();
  size_t events = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    skipindex::MemorySource source{Span(encoded)};
    auto dec = skipindex::DocumentDecoder::Open(&source);
    CSXA_CHECK(dec.ok());
    for (;;) {
      auto v = dec.value()->NextView();
      CSXA_CHECK(v.ok());
      if (v.value().type == xml::EventType::kEnd) break;
      benchmark::DoNotOptimize(v.value().name.data());
      benchmark::DoNotOptimize(v.value().text.data());
      ++events;
    }
    bytes += encoded.size();
  }
  SetRates(state, events, bytes);
}
BENCHMARK(BM_Decode)->Name("BM_Decode/view");

void BM_EndToEnd(benchmark::State& state) {
  Bytes encoded = MakeEncodedDoc();
  // Immediately-decidable rules (no value predicates): the pipeline stays
  // empty and delivered text streams through ComposeValue as views.
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
    // No skips: every event is decoded and evaluated.
    for (;;) {
      auto v = dec.value()->NextView();
      CSXA_CHECK(v.ok());
      CSXA_CHECK(ev.value()->OnEventView(v.value()).ok());
      if (v.value().type == xml::EventType::kEnd) break;
    }
    benchmark::DoNotOptimize(writer.str().data());
    events += ev.value()->stats().events;
    bytes += encoded.size();
  }
  SetRates(state, events, bytes);
}
BENCHMARK(BM_EndToEnd)->Name("BM_EndToEnd/view");

// One card's sessions over one sealed folder (chunk 256) for `subject`
// and `query`: the whole card loop, RAM meter and skip probe included,
// with chunk fetches served from the parsed container (no transport
// stack). The card is reused, as a terminal's is, so every session after
// the first runs on the evaluator's warm buffers.
void RunCardSessions(benchmark::State& state, const char* subject,
                     const char* query) {
  Rng rng(73);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes container_bytes =
      crypto::SecureContainer::Seal(key, MakeEncodedDoc(), 256, &rng);
  auto container = crypto::SecureContainer::Parse(container_bytes).value();
  ByteWriter header;
  container.header().EncodeTo(&header);
  scengen::Scenario scenario = scengen::HospitalScenario();
  auto rules = core::RuleSet::ParseText(scenario.rules_text).value();
  const crypto::DocCipher cipher = crypto::DocCipher::For(key);
  const Bytes envelope =
      core::SealRuleEnvelope(cipher, rules, /*version=*/1, &rng);
  Bytes message;
  CSXA_CHECK(core::CutRuleMessage(envelope, core::SubjectLabel(cipher, subject),
                                  &message)
                 .ok());
  soe::CardEngine card(soe::CardProfile::EGate());
  card.InstallKey("folder", key);
  soe::SessionOptions options;
  options.subject = subject;
  options.query_text = query;
  size_t events = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    soe::ContainerChunkProvider provider(&container);
    auto out = card.RunSession("folder", header.bytes(), message,
                               &provider, options);
    CSXA_CHECK(out.ok());
    benchmark::DoNotOptimize(out.value().view_xml.data());
    events += out.value().stats.evaluator.events;
    bytes += container.header().payload_size;
  }
  SetRates(state, events, bytes);
}

// The doctor: immediately decidable rules, no query.
void BM_CardSession(benchmark::State& state) {
  RunCardSessions(state, "doctor", "");
}
BENCHMARK(BM_CardSession);

// Emergency staff asking for treatments: the acute-diagnosis predicate is
// live on every patient, so obligations, pending candidates and buffered
// output all run.
void BM_CardSessionEmergency(benchmark::State& state) {
  RunCardSessions(state, "emergency", "//treatment");
}
BENCHMARK(BM_CardSessionEmergency)->Name("BM_CardSession/emergency");

xml::DomDocument MakeDeepFolder() {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = kDocElements;
  gp.folder_depth = 4;
  gp.seed = 71;
  return xml::GenerateDocument(gp);
}

void BM_Encode(benchmark::State& state) {
  xml::DomDocument doc = MakeDeepFolder();
  size_t elements = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    skipindex::EncodeStats stats;
    auto encoded = skipindex::EncodeDocument(doc, {}, &stats);
    CSXA_CHECK(encoded.ok());
    benchmark::DoNotOptimize(encoded.value().data());
    elements += stats.element_count;
    bytes += stats.total_bytes;
  }
  SetRates(state, elements, bytes);
}
BENCHMARK(BM_Encode);

void BM_Seal(benchmark::State& state) {
  Bytes payload = skipindex::EncodeDocument(MakeDeepFolder(), {}).value();
  Rng rng(74);
  auto key = crypto::SymmetricKey::Generate(&rng);
  size_t bytes = 0;
  for (auto _ : state) {
    Bytes sealed = crypto::SecureContainer::Seal(key, payload, 256, &rng);
    benchmark::DoNotOptimize(sealed.data());
    bytes += payload.size();
  }
  SetRates(state, 0, bytes);
}
BENCHMARK(BM_Seal);

}  // namespace

BENCHMARK_MAIN();
