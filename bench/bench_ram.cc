// EXP-RAM — the SOE memory constraint (§2.1, §3: 1 KB of RAM).
//
// Modeled peak working memory of a card session as document depth, rule
// count, predicate density (pending buffering!) and chunk size vary, with
// pending predicates being the main pressure. The e-gate's 1 KB is not
// always enough: on the perfbench workloads' documents (seed 2026, chunk
// 256, skip on, the hand-written subjects x queries), 24 of the 72
// hospital_scan sessions and 24 of the 72 ehealth_durable ones run over
// it, up to 1,857 B, while all 576 iot_fleet sessions fit (at most
// 694 B). The rows below mark each configuration "fits" or "OVER".

#include "bench/bench_util.h"
#include "scengen/rulegen.h"

using namespace csxa;
using namespace csxa::bench;

namespace {

size_t PeakForRandomDoc(int depth, size_t num_rules, double pred_prob,
                        size_t chunk, uint64_t seed) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kRandom;
  gp.target_elements = Smoke(600);
  gp.max_depth = depth;
  gp.seed = seed;
  auto doc = xml::GenerateDocument(gp);
  Rng rng(seed + 1);
  scengen::RuleGenParams rp;
  rp.num_rules = num_rules;
  rp.path.predicate_prob = pred_prob;
  auto rules = scengen::GenerateRules(doc, "u", rp, &rng);

  Rng seal_rng(seed + 2);
  auto key = crypto::SymmetricKey::Generate(&seal_rng);
  auto encoded = skipindex::EncodeDocument(doc, {}).value();
  Bytes container_bytes =
      crypto::SecureContainer::Seal(key, encoded, chunk, &seal_rng);
  auto container = crypto::SecureContainer::Parse(container_bytes).value();
  ByteWriter hw;
  container.header().EncodeTo(&hw);
  const crypto::DocCipher cipher = crypto::DocCipher::For(key);
  const Bytes message = RuleMessageFor(
      cipher, core::SealRuleEnvelope(cipher, rules, /*version=*/1, &seal_rng),
      "u");

  soe::CardEngine card(soe::CardProfile::EGate());
  card.InstallKey("doc", key);
  FixtureProvider provider(&container);
  soe::SessionOptions opts;
  opts.subject = "u";
  auto out = card.RunSession("doc", hw.bytes(), message, &provider, opts);
  CSXA_CHECK(out.ok());
  return out.value().stats.ram_peak;
}

std::string Verdict(size_t peak) { return peak <= 1024 ? "fits" : "OVER"; }

}  // namespace

int main() {
  std::printf("=== EXP-RAM: modeled card RAM vs workload shape "
              "(e-gate budget: 1024 B) ===\n\n");

  std::printf("--- document depth (6 rules, no predicates, chunk 256) ---\n");
  Table t1({"max depth", "ram peak B", "verdict"});
  for (int depth : {4, 8, 16, 32}) {
    size_t peak = PeakForRandomDoc(depth, 6, 0.0, 256, 50 + depth);
    t1.AddRow({Fmt("%d", depth), Fmt("%zu", peak), Verdict(peak)});
    JsonReport::Get().AddValue(Fmt("ram_peak/depth/%d", depth),
                               static_cast<double>(peak));
  }
  t1.Print();

  std::printf("\n--- rule count (depth 8, no predicates, chunk 256) ---\n");
  Table t2({"rules", "ram peak B", "verdict"});
  for (size_t rules : {2u, 4u, 8u, 16u, 32u}) {
    size_t peak = PeakForRandomDoc(8, rules, 0.0, 256, 80 + rules);
    t2.AddRow({Fmt("%zu", rules), Fmt("%zu", peak), Verdict(peak)});
    JsonReport::Get().AddValue(Fmt("ram_peak/rules/%zu", rules),
                               static_cast<double>(peak));
  }
  t2.Print();

  std::printf("\n--- predicate density (depth 8, 6 rules, chunk 256): the "
              "pending buffer at work ---\n");
  Table t3({"pred prob", "ram peak B", "verdict"});
  for (int p : {0, 25, 50, 75, 100}) {
    size_t peak = PeakForRandomDoc(8, 6, p / 100.0, 256, 120 + p);
    t3.AddRow({Fmt("%d%%", p), Fmt("%zu", peak), Verdict(peak)});
    JsonReport::Get().AddValue(Fmt("ram_peak/pred/%d", p),
                               static_cast<double>(peak));
  }
  t3.Print();

  std::printf("\n--- chunk size (depth 8, 6 rules, 25%% predicates): the I/O "
              "buffer share ---\n");
  Table t4({"chunk B", "ram peak B", "verdict"});
  for (size_t chunk : {64u, 128u, 256u, 512u, 1024u}) {
    size_t peak = PeakForRandomDoc(8, 6, 0.25, chunk, 200 + chunk);
    t4.AddRow({Fmt("%zu", chunk), Fmt("%zu", peak), Verdict(peak)});
    JsonReport::Get().AddValue(Fmt("ram_peak/chunk/%zu", chunk),
                               static_cast<double>(peak));
  }
  t4.Print();

  std::printf("\n--- the three demo scenarios (chunk 256) ---\n");
  Table t5({"scenario", "subject", "ram peak B", "verdict"});
  struct Case {
    xml::DocProfile profile;
    const char* rules;
    const char* subject;
    const char* label;
  };
  const Case cases[] = {
      {xml::DocProfile::kAgenda,
       "+ secretary /agenda\n- secretary //note[visibility=\"private\"]\n",
       "secretary", "agenda"},
      {xml::DocProfile::kHospital,
       "+ researcher //patient/medical\n- researcher //patient/name\n"
       "- researcher //patient/ssn\n",
       "researcher", "hospital"},
      {xml::DocProfile::kNewsFeed, "+ child //item[rating=\"G\"]\n", "child",
       "newsfeed"},
  };
  for (const Case& c : cases) {
    Fixture fx = MakeFixture(c.profile, 800, c.rules, 333, 256);
    auto out = RunSession(fx, c.subject, "", true);
    t5.AddRow({c.label, c.subject, Fmt("%zu", out.stats.ram_peak),
               Verdict(out.stats.ram_peak)});
    JsonReport::Get().AddValue(Fmt("ram_peak/scenario/%s", c.label),
                               static_cast<double>(out.stats.ram_peak));
  }
  t5.Print();
  std::printf("\nexpected shape: RAM grows with depth (stacks) and predicate "
              "density (pending buffer), stays flat in document size; the "
              "chunk buffer dominates at large chunk sizes.\n");
  return 0;
}
