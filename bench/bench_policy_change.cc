// EXP-DYN — the motivating claim of §1: dynamic rules vs static
// subset-encryption ([1, 6]).
//
// "Once the dataset is encrypted, changes in the access control rules
// definition may impact the subset boundaries, hence incurring a partial
// re-encryption of the dataset and a potential redistribution of keys."
//
// The bench applies the same sequence of policy changes to (a) C-SXA —
// re-seal a few hundred bytes of rules — and (b) the subset-encryption
// store — re-partition, re-encrypt, redistribute — across document sizes.

#include "baseline/subset_encryption.h"
#include "bench/bench_util.h"

using namespace csxa;
using namespace csxa::bench;

namespace {

struct PolicyStep {
  const char* label;
  const char* rules;
};

// An evolving community policy over the hospital document (new staff, an
// emergency exception, its revocation, a researcher restriction).
const PolicyStep kSteps[] = {
    {"initial",
     "+ doctor //patient\n- doctor //admin/billing\n"
     "+ accountant //patient/admin\n"},
    {"add researcher",
     "+ doctor //patient\n- doctor //admin/billing\n"
     "+ accountant //patient/admin\n"
     "+ researcher //patient/medical\n- researcher //patient/name\n"},
    {"emergency exception",
     "+ doctor //patient\n"
     "+ accountant //patient/admin\n"
     "+ researcher //patient/medical\n- researcher //patient/name\n"
     "+ oncall //patient[medical/diagnosis/severity=\"acute\"]\n"},
    {"revoke exception",
     "+ doctor //patient\n- doctor //admin/billing\n"
     "+ accountant //patient/admin\n"
     "+ researcher //patient/medical\n- researcher //patient/name\n"},
    {"tighten researcher",
     "+ doctor //patient\n- doctor //admin/billing\n"
     "+ accountant //patient/admin\n"
     "+ researcher //patient/medical/treatment\n"},
};

}  // namespace

int main() {
  std::printf("=== EXP-DYN: policy-change cost, C-SXA vs subset encryption ===\n\n");

  for (size_t elems : {500u, 2000u, 8000u}) {
    xml::GeneratorParams gp;
    gp.profile = xml::DocProfile::kHospital;
    gp.target_elements = Smoke(elems);
    gp.seed = 4242;
    auto doc = xml::GenerateDocument(gp);
    std::printf("--- hospital document, %zu elements ---\n",
                doc.CountElements());

    Rng rng(1);
    auto rules0 = core::RuleSet::ParseText(kSteps[0].rules).value();
    auto store = baseline::SubsetEncryptionStore::Build(&doc, rules0, &rng);
    CSXA_CHECK(store.ok());
    std::printf("subset build: %zu classes, %llu encrypted bytes, "
                "%.1f keys/subject\n",
                store.value().build_stats().class_count,
                (unsigned long long)store.value().build_stats().encrypted_bytes,
                store.value().build_stats().avg_keys_per_subject);

    Table table({"change", "csxa update B", "subset re-enc B",
                 "subset keys redist", "ratio"});
    Rng seal_rng(2);
    auto key = crypto::SymmetricKey::Generate(&seal_rng);
    for (size_t i = 1; i < sizeof(kSteps) / sizeof(kSteps[0]); ++i) {
      // C-SXA: the update is the sealed rule blob, nothing else.
      auto rules = core::RuleSet::ParseText(kSteps[i].rules).value();
      Bytes sealed =
          core::SealRuleEnvelope(crypto::DocCipher::For(key), rules,
                                 /*version=*/i + 1, &seal_rng);

      auto change = store.value().ApplyPolicyChange(rules, &rng);
      CSXA_CHECK(change.ok());
      double ratio =
          sealed.size() == 0
              ? 0
              : static_cast<double>(change.value().bytes_reencrypted) /
                    static_cast<double>(sealed.size());
      table.AddRow({kSteps[i].label, Fmt("%zu", sealed.size()),
                    Fmt("%llu", (unsigned long long)change.value().bytes_reencrypted),
                    Fmt("%zu", change.value().keys_redistributed),
                    Fmt("%.0fx", ratio)});
      JsonReport::Get().AddValue(Fmt("csxa_update_bytes/%zu/step%zu",
                                     elems, i),
                                 static_cast<double>(sealed.size()));
      JsonReport::Get().AddValue(
          Fmt("subset_reenc_bytes/%zu/step%zu", elems, i),
          static_cast<double>(change.value().bytes_reencrypted));
    }
    table.Print();
    std::printf("\n");
  }

  std::printf("--- read cost under the static scheme (whole classes) vs "
              "C-SXA (skip to the authorized parts) ---\n");
  Table t2({"elems", "subject", "subset decrypt B", "csxa decrypt B"});
  for (size_t elems : {2000u}) {
    xml::GeneratorParams gp;
    gp.profile = xml::DocProfile::kHospital;
    gp.target_elements = Smoke(elems);
    gp.seed = 4242;
    auto doc = xml::GenerateDocument(gp);
    Rng rng(3);
    auto rules = core::RuleSet::ParseText(kSteps[1].rules).value();
    auto store = baseline::SubsetEncryptionStore::Build(&doc, rules, &rng);
    CSXA_CHECK(store.ok());
    Fixture fx = MakeFixture(xml::DocProfile::kHospital, elems,
                             kSteps[1].rules, 4242, 256);
    for (const char* subject : {"doctor", "accountant", "researcher"}) {
      auto subset_cost = store.value().QueryCost(subject);
      auto csxa = RunSession(fx, subject, "", true);
      t2.AddRow({Fmt("%zu", elems), subject,
                 Fmt("%llu", (unsigned long long)subset_cost.bytes_decrypted),
                 Fmt("%llu", (unsigned long long)csxa.stats.bytes_decrypted)});
    }
  }
  t2.Print();
  std::printf("\nexpected shape: C-SXA's update cost is flat (a few hundred "
              "bytes, independent of document size); the static scheme "
              "re-encrypts in proportion to the affected subsets and "
              "redistributes keys whenever subset boundaries split.\n");
  return 0;
}
