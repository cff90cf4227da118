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
//
// The same holds one level up, for a warm proxy::Terminal query over a
// DspServer: the open, the planned chunk fetch, the command exchanges and
// the view paged out in 240-byte slices into one reused reply allocate a
// fixed number of times, whatever the size of the view.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/random.h"
#include "core/rule.h"
#include "core/rule_envelope.h"
#include "crypto/container.h"
#include "dsp/store.h"
#include "pki/registry.h"
#include "proxy/publisher.h"
#include "proxy/terminal.h"
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

struct CountedQuery {
  size_t allocations = 0;
  size_t view_bytes = 0;
  uint64_t apdu_exchanges = 0;
};

// Publishes a hospital folder to a DspServer and runs one query three
// times on one terminal: a learning run, then two on the learned plan. The
// third is counted.
CountedQuery WarmTerminalQuery(size_t elements, const Case& c) {
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  proxy::Publisher publisher(&dsp, &registry, elements);
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = elements;
  gp.seed = 23;
  proxy::PublishOptions publish;
  publish.chunk_size = kChunk;
  auto receipt =
      publisher.Publish("folder", xml::GenerateDocument(gp),
                        scengen::HospitalScenario().rules_text, publish);
  EXPECT_TRUE(receipt.ok()) << receipt.status().ToString();

  proxy::Terminal terminal(c.subject, soe::CardProfile::EGate(), &dsp,
                           &registry);
  EXPECT_TRUE(terminal.Provision("folder").ok());
  proxy::QueryOptions options;
  options.query = c.query;
  for (int run = 0; run < 2; ++run) {
    auto cold = terminal.Query("folder", options);
    EXPECT_TRUE(cold.ok()) << cold.status().ToString();
  }
  CountedQuery out;
  Result<proxy::QueryResult> warm = Status::Internal("not run");
  out.allocations =
      CountAllocations([&] { warm = terminal.Query("folder", options); });
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  if (!warm.ok()) return out;
  EXPECT_FALSE(warm.value().plan_learned);
  out.view_bytes = warm.value().xml.size();
  out.apdu_exchanges = warm.value().apdu_round_trips;
  // Select, put rules, run, one fetch per 240-byte slice (at least one),
  // end session.
  EXPECT_EQ(out.apdu_exchanges,
            4 + std::max<size_t>(1, (out.view_bytes + 239) / 240));
  return out;
}

TEST(CardAllocTest, WarmTerminalQueryAllocationsDoNotGrowWithTheView) {
  for (const Case& c : {
           Case{"doctor", "doctor", ""},
           Case{"emergency-treatments", "emergency", "//treatment"},
           Case{"doctor-billing-empty", "doctor", "//billing/amount"},
       }) {
    SCOPED_TRACE(c.name);
    CountedQuery s = WarmTerminalQuery(1000, c);
    CountedQuery l = WarmTerminalQuery(4000, c);
    if (s.view_bytes > 0) {
      // The large folder's view takes more slices to page out.
      EXPECT_GT(l.view_bytes, 2 * s.view_bytes);
      EXPECT_GT(l.apdu_exchanges, s.apdu_exchanges);
    } else {
      EXPECT_EQ(l.view_bytes, 0u);
    }
    EXPECT_EQ(l.allocations, s.allocations)
        << "1k: " << s.allocations << " allocations, " << s.view_bytes
        << "-byte view, " << s.apdu_exchanges << " exchanges; 4k: "
        << l.allocations << ", " << l.view_bytes << " bytes, "
        << l.apdu_exchanges << " exchanges";
  }
}

}  // namespace
}  // namespace csxa
