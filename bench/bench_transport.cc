// EXP-RPC — transport batching over the dsp::Service protocol (§2.3).
//
// "The cost of communication between the SOE, the client and the server"
// is one of the two limiting factors; this bench measures the round-trip
// half of it across the full proxy -> card -> DSP stack: a first run on
// miss windows of 1 (per-chunk) to 16 chunks vs an owner-computed and a
// learned fetch plan, on the skip-heavy selective workload and on the
// full-scan worst case. Then the scale-out pieces: per-shard load of a
// ShardedService fleet and the CachingClient's revalidation economics
// across repeated sessions.

#include "bench/bench_util.h"
#include "core/rule.h"
#include "dsp/caching.h"
#include "dsp/sharded.h"
#include "dsp/store.h"
#include "pki/registry.h"
#include "proxy/publisher.h"
#include "proxy/terminal.h"
#include "skipindex/codec.h"
#include "soe/prefetch.h"

using namespace csxa;
using namespace csxa::bench;

namespace {

xml::DomDocument Hospital(size_t elements, uint64_t seed) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = Smoke(elements);
  gp.seed = seed;
  gp.text_avg_len = 48;
  return xml::GenerateDocument(gp);
}

struct Workload {
  const char* label;
  const char* rules;
  bool use_skip;
};

}  // namespace

int main() {
  std::printf("=== EXP-RPC: batch transport — round trips and modeled "
              "latency ===\n");
  std::printf("hospital profile, 3000 elements, chunk 128 B, e-gate card, "
              "%.0f ms DSP round trip\n\n",
              soe::CardProfile::EGate().round_trip_latency_sec * 1e3);

  const Workload workloads[] = {
      {"skip_heavy", "+ u //patient/admin\n", true},   // ~10% authorized
      {"full_scan", "+ u /hospital\n", false},         // every chunk fetched
  };

  for (const Workload& w : workloads) {
    std::printf("--- %s (%s) ---\n", w.label,
                w.use_skip ? "skip on" : "skip off");
    Table table({"schedule", "DSP round trips", "rtt s", "transfer s",
                 "crypto s", "total s", "speedup"});
    double per_chunk_total = 0;
    uint64_t per_chunk_trips = 0;
    std::string reference_view;
    double reference_transfer = 0, reference_crypto = 0;
    xml::DomDocument doc = Hospital(3000, 9);

    auto add_row = [&](const char* row_label, const char* json_name,
                       const proxy::QueryResult& result) {
      const auto& card = result.card;
      if (reference_view.empty()) {
        per_chunk_total = card.total_seconds;
        per_chunk_trips = card.dsp_round_trips;
        reference_view = result.xml;
        reference_transfer = card.transfer_seconds;
        reference_crypto = card.crypto_seconds;
      } else {
        // Every schedule must deliver the identical view at identical
        // card transfer/crypto cost — only round trips may differ.
        CSXA_CHECK(result.xml == reference_view);
        CSXA_CHECK(card.transfer_seconds == reference_transfer);
        CSXA_CHECK(card.crypto_seconds == reference_crypto);
      }
      table.AddRow({row_label,
                    Fmt("%llu", (unsigned long long)card.dsp_round_trips),
                    Fmt("%.2f", card.round_trip_seconds),
                    Fmt("%.2f", card.transfer_seconds),
                    Fmt("%.3f", card.crypto_seconds),
                    Fmt("%.2f", card.total_seconds),
                    Fmt("%.2fx", per_chunk_total / card.total_seconds)});
      JsonReport::Get().AddValue(
          Fmt("transport/%s/round_trips/%s", w.label, json_name),
          static_cast<double>(card.dsp_round_trips));
      JsonReport::Get().Add(Fmt("transport/%s/modeled_s/%s", w.label,
                                json_name),
                            card.total_seconds * 1e9);
    };

    for (uint32_t window : {1u, 2u, 4u, 8u, 16u}) {
      dsp::DspServer dsp;
      pki::KeyRegistry registry;
      proxy::Publisher publisher(&dsp, &registry, 4242);
      proxy::PublishOptions popt;
      popt.chunk_size = 128;
      CSXA_CHECK(publisher.Publish("h", doc, w.rules, popt).ok());
      proxy::Terminal term("u", soe::CardProfile::EGate(), &dsp, &registry);
      CSXA_CHECK(term.Provision("h").ok());
      proxy::QueryOptions q;
      q.use_skip = w.use_skip;
      q.max_prefetch = window;
      auto result = term.Query("h", q);
      CSXA_CHECK(result.ok());
      add_row(window == 1 ? "w1 (per-chunk)" : Fmt("w%u", window).c_str(),
              window == 1 ? "perchunk" : Fmt("w%u", window).c_str(),
              result.value());
    }

    // The fetch planner: an owner-computed plan (the skip filter's
    // reachability pass over the plaintext encoding), then the terminal's
    // learned plan (second identical query on the same terminal).
    {
      Bytes encoded =
          skipindex::EncodeDocument(doc, skipindex::EncodeOptions{}).value();
      core::RuleSet rules = core::RuleSet::ParseText(w.rules).value();
      soe::FetchPlan plan =
          soe::ComputeFetchPlan(Span(encoded), 128, rules.ForSubject("u"),
                                nullptr, w.use_skip)
              .value();

      dsp::DspServer dsp;
      pki::KeyRegistry registry;
      proxy::Publisher publisher(&dsp, &registry, 4242);
      proxy::PublishOptions popt;
      popt.chunk_size = 128;
      CSXA_CHECK(publisher.Publish("h", doc, w.rules, popt).ok());

      proxy::Terminal owner_term("u", soe::CardProfile::EGate(), &dsp,
                                 &registry);
      CSXA_CHECK(owner_term.Provision("h").ok());
      proxy::QueryOptions q;
      q.use_skip = w.use_skip;
      q.plan = &plan;
      auto owner = owner_term.Query("h", q);
      CSXA_CHECK(owner.ok());
      CSXA_CHECK(owner.value().window_trips == 0);
      add_row("planned (owner)", "planned", owner.value());

      proxy::Terminal learn_term("u", soe::CardProfile::EGate(), &dsp,
                                 &registry);
      CSXA_CHECK(learn_term.Provision("h").ok());
      proxy::QueryOptions lq;
      lq.use_skip = w.use_skip;
      auto probe = learn_term.Query("h", lq);
      CSXA_CHECK(probe.ok() && probe.value().plan_learned);
      auto learned = learn_term.Query("h", lq);
      CSXA_CHECK(learned.ok());
      add_row("planned (learned)", "planned_learned", learned.value());

      table.Print();
      std::printf("per-chunk baseline: %llu round trips; plan: %zu ranges, "
                  "%llu chunks\n\n",
                  (unsigned long long)per_chunk_trips, plan.runs.size(),
                  (unsigned long long)plan.total_chunks());
      JsonReport::Get().AddValue(Fmt("transport/%s/plan_ranges", w.label),
                                 static_cast<double>(plan.runs.size()));
    }
  }
  std::printf("expected shape: on a first run each miss fetches a fixed "
              "window, so round trips fall as the window grows — on a full "
              "scan to chunks / window, while on the skip-heavy scan every "
              "skip jump past the buffered window pays a fresh trip; a plan "
              "removes the guessing entirely — the whole needed chunk set "
              "arrives as one multi-span request, so round trips collapse to "
              "open + 1 regardless of how scattered the authorized ranges "
              "are. Transfer and crypto columns are identical by construction "
              "(window or planned chunks the card never reads never cross "
              "the APDU link).\n");

  std::printf("\n--- sharded fleet: per-shard load, 12 documents ---\n");
  {
    dsp::DspServer s0, s1, s2, s3;
    dsp::ShardedService sharded({&s0, &s1, &s2, &s3});
    pki::KeyRegistry registry;
    proxy::Publisher publisher(&sharded, &registry, 7);
    size_t docs = Smoke(12, 6);
    for (size_t i = 0; i < docs; ++i) {
      CSXA_CHECK(publisher
                     .Publish(Fmt("doc-%zu", i), Hospital(300, 100 + i),
                              "+ u //patient/admin\n")
                     .ok());
    }
    for (size_t i = 0; i < docs; ++i) {
      proxy::Terminal term("u", soe::CardProfile::EGate(), &sharded,
                           &registry);
      CSXA_CHECK(term.Provision(Fmt("doc-%zu", i)).ok());
      CSXA_CHECK(term.Query(Fmt("doc-%zu", i), proxy::QueryOptions{}).ok());
    }
    Table table({"shard", "documents", "requests", "chunks", "bytes served"});
    const dsp::DspServer* shards[] = {&s0, &s1, &s2, &s3};
    for (size_t i = 0; i < 4; ++i) {
      auto st = shards[i]->stats();
      table.AddRow({Fmt("%zu", i), Fmt("%llu", (unsigned long long)st.documents),
                    Fmt("%llu", (unsigned long long)st.requests),
                    Fmt("%llu", (unsigned long long)st.chunks_served),
                    Fmt("%llu", (unsigned long long)st.bytes_served)});
      JsonReport::Get().AddValue(Fmt("transport/sharded/requests/shard%zu", i),
                                 static_cast<double>(st.requests));
    }
    table.Print();
  }

  std::printf("\n--- caching client: repeated sessions, one policy update ---\n");
  {
    dsp::DspServer dsp;
    dsp::CachingClient cached(&dsp);
    pki::KeyRegistry registry;
    proxy::Publisher publisher(&dsp, &registry, 8);
    auto receipt =
        publisher.Publish("h", Hospital(1000, 11), "+ u //patient/admin\n");
    CSXA_CHECK(receipt.ok());
    proxy::Terminal term("u", soe::CardProfile::EGate(), &cached, &registry);
    CSXA_CHECK(term.Provision("h").ok());

    Table table({"session", "dsp wire B", "cache", "view B"});
    size_t sessions = Smoke(6, 4);
    for (size_t i = 0; i < sessions; ++i) {
      if (i == sessions / 2) {
        // Owner tightens the policy mid-series: one cheap sealed-rules
        // update; the next revalidation notices the version bump.
        CSXA_CHECK(publisher
                       .UpdateRules("h", receipt.value().key,
                                    "+ u //patient/admin\n- u //admin/billing\n")
                       .ok());
      }
      uint64_t hits_before = cached.hits();
      uint64_t inval_before = cached.invalidations();
      auto result = term.Query("h", proxy::QueryOptions{});
      CSXA_CHECK(result.ok());
      const char* outcome = cached.hits() > hits_before          ? "hit"
                            : cached.invalidations() > inval_before ? "inval"
                                                                    : "miss";
      table.AddRow({Fmt("%zu", i),
                    Fmt("%llu",
                        (unsigned long long)result.value().dsp_bytes_fetched),
                    outcome, Fmt("%zu", result.value().xml.size())});
    }
    table.Print();
    std::printf("hits %llu, misses %llu, invalidations %llu; total DSP bytes "
                "served %llu\n",
                (unsigned long long)cached.hits(),
                (unsigned long long)cached.misses(),
                (unsigned long long)cached.invalidations(),
                (unsigned long long)dsp.stats().bytes_served);
    JsonReport::Get().AddValue("transport/caching/hits",
                               static_cast<double>(cached.hits()));
    JsonReport::Get().AddValue("transport/caching/invalidations",
                               static_cast<double>(cached.invalidations()));
  }
  return 0;
}
