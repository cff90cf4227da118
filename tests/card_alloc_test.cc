// Pins the card's warm-session allocation claim (src/core/README.md,
// src/soe/README.md): once one CardEngine has run a session, running the
// same session again allocates a fixed number of times, whatever the size
// of the document. Nothing in the loop from chunk fetch to rendered view
// allocates per element or per chunk.
//
// Each session runs twice on one CardEngine, at 256-byte chunks: first as
// a learning run on the miss window, then on the plan it learned, as a
// terminal would. The second run's allocations are counted (alloc_counter.h)
// and must be equal over a 1k- and a 4k-element hospital folder.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/random.h"
#include "core/rule.h"
#include "core/rule_envelope.h"
#include "crypto/container.h"
#include "scengen/scenario.h"
#include "skipindex/codec.h"
#include "soe/card_engine.h"
#include "soe/chunk_source.h"
#include "soe/prefetch.h"
#include "xml/generator.h"

namespace csxa {
namespace {

constexpr size_t kChunk = 256;

// One hospital folder sealed for the card, with the scenario's rules.
struct Folder {
  crypto::SymmetricKey key;
  Bytes container_bytes;
  crypto::SecureContainer container;
  Bytes header;
  Bytes sealed_rules;
};

Folder SealFolder(size_t elements) {
  Rng rng(elements);
  Folder f;
  f.key = crypto::SymmetricKey::Generate(&rng);
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = elements;
  gp.seed = 23;
  Bytes encoded =
      skipindex::EncodeDocument(xml::GenerateDocument(gp), {}).value();
  f.container_bytes = crypto::SecureContainer::Seal(f.key, encoded, kChunk,
                                                    &rng);
  f.container = crypto::SecureContainer::Parse(f.container_bytes).value();
  ByteWriter w;
  f.container.header().EncodeTo(&w);
  f.header = w.Take();
  auto rules =
      core::RuleSet::ParseText(scengen::HospitalScenario().rules_text).value();
  f.sealed_rules = core::SealRuleSet(f.key, rules, /*version=*/1, &rng);
  return f;
}

struct Counted {
  size_t allocations = 0;
  size_t elements = 0;  // elements the evaluator decided
};

// Runs the session twice on one card and counts the second, planned run.
Counted WarmSession(const Folder& f, const soe::SessionOptions& options) {
  soe::CardEngine card(soe::CardProfile::EGate());
  card.InstallKey("folder", f.key);
  std::string view;
  soe::ContainerChunkProvider backend(&f.container);

  soe::PlannedProvider learning(&backend, f.container.header().chunk_count);
  auto first = card.RunSession("folder", f.header, f.sealed_rules, &learning,
                               options, &view);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  const std::string first_view = view;

  soe::PlannedProvider planned(
      &backend, f.container.header().chunk_count,
      soe::FetchPlan::FromChunkSequence(learning.requested()));
  Counted out;
  Result<soe::SessionStats> second = Status::Internal("not run");
  out.allocations = CountAllocations([&] {
    second = card.RunSession("folder", f.header, f.sealed_rules, &planned,
                             options, &view);
  });
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  if (!second.ok()) return out;
  EXPECT_EQ(view, first_view);
  EXPECT_EQ(planned.window_trips(), 0u);
  out.elements = second.value().evaluator.nodes_permitted +
                 second.value().evaluator.nodes_denied;
  return out;
}

struct Case {
  const char* name;
  const char* subject;
  const char* query;
};

TEST(CardAllocTest, WarmSessionAllocationsDoNotGrowWithTheDocument) {
  const Folder small = SealFolder(1000);
  const Folder large = SealFolder(4000);
  for (const Case& c : {
           Case{"doctor", "doctor", ""},
           Case{"emergency-treatments", "emergency", "//treatment"},
           Case{"emergency-acute", "emergency",
                "//patient[medical/diagnosis/severity=\"acute\"]"},
       }) {
    SCOPED_TRACE(c.name);
    soe::SessionOptions options;
    options.subject = c.subject;
    options.query_text = c.query;
    Counted s = WarmSession(small, options);
    Counted l = WarmSession(large, options);
    // The large folder really is a bigger session.
    EXPECT_GT(l.elements, 2 * s.elements);
    EXPECT_EQ(l.allocations, s.allocations)
        << "1k: " << s.allocations << " allocations over " << s.elements
        << " elements; 4k: " << l.allocations << " over " << l.elements;
  }
}

}  // namespace
}  // namespace csxa
