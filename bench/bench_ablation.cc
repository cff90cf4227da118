// EXP-ABL — ablations of three design choices of the card path.
//
//   A. Pending machinery: predicate density vs buffered output and the
//      cost of the order-preserving pipeline.
//   B. Skip-decision ingredients: disable the tag-set test (size-only
//      index) and measure lost skips.
//   C. Recursive bitmap compression: end-to-end effect on a session, not
//      just on stored bytes (decrypting a fatter index costs time).

#include "bench/bench_util.h"
#include "scengen/rulegen.h"
#include "xml/writer.h"

using namespace csxa;
using namespace csxa::bench;

namespace {

// A: run the evaluator directly and report pending/buffering counters.
void AblationPending() {
  std::printf("--- A. pending machinery vs predicate density "
              "(random docs, 6 rules) ---\n");
  Table table({"pred prob", "pending nodes", "buffered peak", "obligations",
               "ram peak B"});
  for (int p : {0, 25, 50, 75, 100}) {
    size_t pending = 0, buffered = 0, obligations = 0, ram = 0;
    for (uint64_t seed = 0; seed < 8; ++seed) {
      xml::GeneratorParams gp;
      gp.profile = xml::DocProfile::kRandom;
      gp.target_elements = Smoke(500);
      gp.seed = 900 + seed;
      auto doc = xml::GenerateDocument(gp);
      Rng rng(1000 + seed);
      scengen::RuleGenParams rp;
      rp.num_rules = 6;
      rp.path.predicate_prob = p / 100.0;
      auto rules = scengen::GenerateRules(doc, "u", rp, &rng);
      xml::CanonicalWriter out;
      auto ev = core::StreamingEvaluator::Create(rules.ForSubject("u"),
                                                 nullptr, &out);
      CSXA_CHECK(ev.ok());
      CSXA_CHECK(doc.root()->EmitEvents(ev.value().get()).ok());
      CSXA_CHECK(ev.value()->Finish().ok());
      const auto& st = ev.value()->stats();
      pending += st.nodes_initially_pending;
      buffered = std::max(buffered, st.buffered_events_peak);
      obligations += st.obligations_created;
      ram = std::max(ram, st.modeled_ram_peak);
    }
    table.AddRow({Fmt("%d%%", p), Fmt("%zu", pending), Fmt("%zu", buffered),
                  Fmt("%zu", obligations), Fmt("%zu", ram)});
    const std::string tag = Fmt("ablation/pending/pred_%d", p);
    JsonReport::Get().AddValue(tag + "/pending_nodes",
                               static_cast<double>(pending));
    JsonReport::Get().AddValue(tag + "/ram_peak_bytes",
                               static_cast<double>(ram));
  }
  table.Print();
  std::printf("expected shape: with no predicates nothing is ever pending; "
              "buffering and RAM grow with predicate density — the cost of "
              "exact (non-conservative) pending resolution.\n\n");
}

// B: size-only index — emulate by a has_tag that always answers yes,
// which removes the tag-set pruning and leaves only decisions that are
// deniable without looking inside. Both variants run through the same
// byte-granular driver so skipped bytes are directly comparable.
void AblationTagSets() {
  std::printf("--- B. skip ingredients: full index vs size-only index ---\n");
  Table table({"rules", "full: skipped B", "size-only: skipped B",
               "tag sets contribute"});
  struct Case {
    const char* label;
    const char* rules;
  };
  const Case cases[] = {
      {"//billing/amount", "+ u //billing/amount\n"},
      {"//patient/admin", "+ u //patient/admin\n"},
      {"//patient - medical", "+ u //patient\n- u //medical\n"},
  };
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = Smoke(3000);
  gp.seed = 31;
  gp.text_avg_len = 48;
  auto doc = xml::GenerateDocument(gp);
  auto encoded = skipindex::EncodeDocument(doc, {}).value();

  auto run = [&](const core::RuleSet& rules, bool use_tag_sets) {
    skipindex::MemorySource src(encoded);
    auto dec = skipindex::DocumentDecoder::Open(&src).value();
    xml::CanonicalWriter out;
    auto ev = core::StreamingEvaluator::Create(rules.ForSubject("u"), nullptr,
                                               &out)
                  .value();
    // The skip probe asks by document tag id.
    ev->BindDocumentTags(dec->tags());
    uint64_t skipped = 0;
    for (;;) {
      auto event = dec->NextView().value();
      CSXA_CHECK(ev->OnEventView(event).ok());
      if (event.type == xml::EventType::kEnd) break;
      if (event.type == xml::EventType::kOpen &&
          dec->last_content_size() > 0) {
        auto real_tags = [&](TagId t) { return dec->SubtreeHasTag(t); };
        auto any_tag = [](TagId) { return true; };
        bool can =
            use_tag_sets
                ? ev->CanSkipCurrentSubtree(real_tags, dec->last_has_elements(),
                                            dec->last_has_text())
                : ev->CanSkipCurrentSubtree(any_tag, dec->last_has_elements(),
                                            dec->last_has_text());
        if (can) {
          skipped += dec->last_content_size();
          CSXA_CHECK(dec->SkipContent().ok());
          ev->NoteSubtreeSkipped();
        }
      }
    }
    return skipped;
  };

  for (const Case& c : cases) {
    auto rules = core::RuleSet::ParseText(c.rules).value();
    uint64_t full = run(rules, true);
    uint64_t size_only = run(rules, false);
    table.AddRow(
        {c.label, Fmt("%llu", (unsigned long long)full),
         Fmt("%llu", (unsigned long long)size_only),
         Fmt("%.0f%%", full == 0 ? 0.0
                                 : 100.0 * (1.0 - static_cast<double>(size_only) /
                                                      static_cast<double>(full)))});
    JsonReport::Get().AddValue(
        std::string("ablation/tagsets/") + c.label + "/full_skipped_bytes",
        static_cast<double>(full));
    JsonReport::Get().AddValue(
        std::string("ablation/tagsets/") + c.label + "/size_only_skipped_bytes",
        static_cast<double>(size_only));
  }
  table.Print();
  std::printf("expected shape: without tag sets the engine only skips "
              "text-only regions (nothing structural can be ruled out), "
              "losing the deep subtree skips — which is why the paper "
              "stores tag bitmaps despite their cost.\n\n");
}

// C: end-to-end effect of recursive compression.
void AblationRecursive() {
  std::printf("--- C. recursive bitmap compression, end-to-end ---\n");
  Table table({"bitmaps", "container B", "transfer B", "decrypt B",
               "total s"});
  for (bool recursive : {true, false}) {
    Fixture fx = MakeFixture(xml::DocProfile::kHospital, 3000,
                             "+ u //patient/admin\n", 33, 128,
                             /*with_index=*/true, recursive, /*text_avg=*/48);
    auto out = RunSession(fx, "u", "", true);
    table.AddRow({recursive ? "recursive" : "flat",
                  Fmt("%zu", fx.container_bytes.size()),
                  Fmt("%llu", (unsigned long long)out.stats.bytes_transferred),
                  Fmt("%llu", (unsigned long long)out.stats.bytes_decrypted),
                  Fmt("%.2f", out.stats.total_seconds)});
    const std::string tag =
        std::string("ablation/bitmaps/") + (recursive ? "recursive" : "flat");
    JsonReport::Get().Add(tag, out.stats.total_seconds * 1e9, 0.0, 0.0,
                          static_cast<double>(fx.container_bytes.size()));
  }
  table.Print();
  std::printf("expected shape: flat bitmaps inflate every open token, so "
              "the card transfers and decrypts more for the same skips.\n");
}

}  // namespace

int main() {
  std::printf("=== EXP-ABL: design-choice ablations ===\n\n");
  AblationPending();
  AblationTagSets();
  AblationRecursive();
  return 0;
}
