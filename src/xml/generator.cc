#include "xml/generator.h"

#include <algorithm>
#include <cstdio>

namespace csxa::xml {

namespace {

const char* kWords[] = {
    "review",  "budget",  "signal", "matrix",  "tulip",  "quarter", "launch",
    "sprint",  "metric",  "harbor", "stone",   "velvet", "beacon",  "cedar",
    "ember",   "fathom",  "grove",  "helix",   "indigo", "jasper",  "karma",
    "lumen",   "meadow",  "nectar", "onyx",    "prairie", "quartz", "ripple",
    "saffron", "timber",  "umber",  "vertex",  "willow", "xenon",   "yarrow",
    "zephyr"};
constexpr size_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);

std::string RandomText(Rng* rng, size_t avg_len) {
  std::string out;
  size_t target = avg_len / 2 + rng->Uniform(avg_len + 1);
  while (out.size() < target) {
    if (!out.empty()) out.push_back(' ');
    out += kWords[rng->Uniform(kWordCount)];
  }
  return out;
}

// `prefix` followed by the decimal `n`. Appending to the prefix, rather
// than `prefix + std::to_string(n)`, keeps GCC 12's -Wrestrict quiet: its
// inlined insert-at-front of the temporary draws a false positive.
std::string Numbered(const char* prefix, uint64_t n) {
  std::string s = prefix;
  s += std::to_string(n);
  return s;
}

std::string RandomDate(Rng* rng) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "200%d-%02d-%02d", static_cast<int>(rng->Uniform(6)),
                static_cast<int>(rng->Range(1, 12)), static_cast<int>(rng->Range(1, 28)));
  return buf;
}

std::string RandomName(Rng* rng) {
  static const char* kFirst[] = {"alice", "bruno", "carla", "denis",  "elena",
                                 "felix", "gilda", "henri", "ingrid", "jules"};
  static const char* kLast[] = {"moreau", "durand", "lefevre", "marchand",
                                "girard", "bonnet", "francois", "mercier"};
  std::string s = kFirst[rng->Uniform(10)];
  s += " ";
  s += kLast[rng->Uniform(8)];
  return s;
}

// ---------------------------------------------------------------------------
// Agenda profile: the collaborative-work application of §3.
// ---------------------------------------------------------------------------
DomDocument GenerateAgenda(const GeneratorParams& p, Rng* rng) {
  auto root = DomNode::Element("agenda");
  size_t budget = p.target_elements;
  // A member subtree costs ~10 elements, a meeting ~8.
  size_t members = budget / 24 + 1;
  size_t meetings_per_member = 1 + budget / (members * 16 + 1);
  for (size_t m = 0; m < members; ++m) {
    DomNode* member = root->AddElement(
        "member", {{"id", Numbered("m", m)}});
    DomNode* profile = member->AddElement("profile");
    profile->AddElement("name")->AddText(RandomName(rng));
    profile->AddElement("email")->AddText(rng->Ident(6) + "@inria.fr");
    profile->AddElement("phone")->AddText(Numbered("+33", rng->Range(100000000, 999999999)));
    DomNode* meetings = member->AddElement("meetings");
    for (size_t k = 0; k < meetings_per_member; ++k) {
      DomNode* meeting = meetings->AddElement(
          "meeting", {{"status", rng->Chance(0.3) ? "tentative" : "confirmed"}});
      meeting->AddElement("title")->AddText(RandomText(rng, p.text_avg_len));
      meeting->AddElement("date")->AddText(RandomDate(rng));
      meeting->AddElement("room")->AddText(Numbered("B", rng->Range(100, 399)));
      DomNode* parts = meeting->AddElement("participants");
      size_t np = rng->Range(1, 3);
      for (size_t q = 0; q < np; ++q) {
        parts->AddElement("participant")->AddText(RandomName(rng));
      }
      if (rng->Chance(0.6)) {
        DomNode* notes = meeting->AddElement("notes");
        DomNode* note = notes->AddElement("note");
        note->AddElement("visibility")
            ->AddText(rng->Chance(0.5) ? "private" : "public");
        note->AddElement("body")->AddText(RandomText(rng, p.text_avg_len * 2));
      }
    }
    if (rng->Chance(0.4)) {
      DomNode* contacts = member->AddElement("contacts");
      size_t nc = rng->Range(1, 3);
      for (size_t q = 0; q < nc; ++q) {
        DomNode* c = contacts->AddElement("contact");
        c->AddElement("name")->AddText(RandomName(rng));
        c->AddElement("note")->AddText(RandomText(rng, p.text_avg_len));
      }
    }
  }
  return DomDocument(std::move(root));
}

// ---------------------------------------------------------------------------
// Hospital profile: the medical-exchange scenario of §1.
// ---------------------------------------------------------------------------
DomDocument GenerateHospital(const GeneratorParams& p, Rng* rng) {
  auto root = DomNode::Element("hospital");
  size_t budget = p.target_elements;
  size_t wards = budget / 120 + 1;
  size_t patients_per_ward = 1 + budget / (wards * 22 + 1);
  static const char* kWards[] = {"cardiology", "oncology", "pediatrics",
                                 "emergency", "neurology"};
  static const char* kDiagnoses[] = {"hypertension", "arrhythmia", "fracture",
                                     "asthma", "diabetes", "migraine"};
  static const char* kDrugs[] = {"atenolol", "lisinopril", "ibuprofen",
                                 "insulin", "salbutamol", "aspirin"};
  for (size_t w = 0; w < wards; ++w) {
    DomNode* ward = root->AddElement("ward", {{"name", kWards[w % 5]}});
    for (size_t i = 0; i < patients_per_ward; ++i) {
      DomNode* patient = ward->AddElement(
          "patient", {{"id", Numbered("p", w * 1000 + i)}});
      patient->AddElement("name")->AddText(RandomName(rng));
      patient->AddElement("age")->AddText(std::to_string(rng->Range(1, 95)));
      patient->AddElement("ssn")->AddText(std::to_string(rng->Range(100000000, 999999999)));
      DomNode* medical = patient->AddElement("medical");
      DomNode* diag = medical->AddElement("diagnosis");
      diag->AddElement("severity")
          ->AddText(rng->Chance(0.25) ? "acute" : "routine");
      diag->AddElement("label")->AddText(kDiagnoses[rng->Uniform(6)]);
      DomNode* treatment = medical->AddElement("treatment");
      DomNode* drug = treatment->AddElement(
          "drug", {{"dose", std::to_string(rng->Range(5, 500)) + "mg"}});
      drug->AddText(kDrugs[rng->Uniform(6)]);
      if (rng->Chance(0.5)) {
        treatment->AddElement("protocol")->AddText(RandomText(rng, p.text_avg_len));
      }
      DomNode* visit = medical->AddElement("visit", {{"date", RandomDate(rng)}});
      visit->AddElement("doctor")->AddText(RandomName(rng));
      visit->AddElement("report")->AddText(RandomText(rng, p.text_avg_len * 2));
      if (p.folder_depth > 0) {
        // Deep folders: a nested care-episode chain per visit. Guarded so
        // the legacy flat folder (folder_depth == 0) consumes no extra
        // rng draws and stays byte-identical.
        DomNode* episode = visit->AddElement("history");
        for (size_t d = 0; d < p.folder_depth; ++d) {
          episode = episode->AddElement("episode");
          episode->AddElement("date")->AddText(RandomDate(rng));
          episode->AddElement("note")->AddText(RandomText(rng, p.text_avg_len));
        }
      }
      DomNode* admin = patient->AddElement("admin");
      admin->AddElement("insurance")->AddText(rng->Ident(8));
      DomNode* billing = admin->AddElement("billing");
      billing->AddElement("amount")->AddText(std::to_string(rng->Range(50, 5000)));
    }
  }
  return DomDocument(std::move(root));
}

// ---------------------------------------------------------------------------
// News feed profile: the selective-dissemination application of §3 and the
// parental-control scenario of §1.
// ---------------------------------------------------------------------------
DomDocument GenerateNewsFeed(const GeneratorParams& p, Rng* rng) {
  auto root = DomNode::Element("feed");
  size_t budget = p.target_elements;
  size_t channels = budget / 90 + 1;
  size_t items_per_channel = 1 + budget / (channels * 9 + 1);
  static const char* kGenres[] = {"news", "sport", "cinema", "music", "games"};
  static const char* kRatings[] = {"G", "PG", "PG13", "R"};
  for (size_t c = 0; c < channels; ++c) {
    DomNode* channel = root->AddElement("channel");
    channel->AddElement("genre")->AddText(kGenres[c % 5]);
    channel->AddElement("title")->AddText(RandomText(rng, p.text_avg_len / 2 + 4));
    for (size_t i = 0; i < items_per_channel; ++i) {
      DomNode* item = channel->AddElement("item");
      item->AddElement("rating")->AddText(kRatings[rng->Uniform(4)]);
      item->AddElement("title")->AddText(RandomText(rng, p.text_avg_len));
      item->AddElement("summary")->AddText(RandomText(rng, p.text_avg_len * 2));
      DomNode* content = item->AddElement("content");
      content->AddText(RandomText(rng, p.text_avg_len * 4));
      DomNode* media = item->AddElement(
          "media", {{"seconds", std::to_string(rng->Range(10, 600))}});
      media->AddElement("codec")->AddText(rng->Chance(0.5) ? "h264" : "mpeg2");
      if (rng->Chance(0.4)) {
        DomNode* kws = item->AddElement("keywords");
        size_t nk = rng->Range(1, 4);
        for (size_t k = 0; k < nk; ++k) {
          kws->AddElement("kw")->AddText(kWords[rng->Uniform(kWordCount)]);
        }
      }
    }
  }
  return DomDocument(std::move(root));
}

// ---------------------------------------------------------------------------
// IoT profile: one device's capability/presence announcement. Fleets
// publish thousands of these small documents; per-user access rules hide
// location or telemetry from some subjects.
// ---------------------------------------------------------------------------
DomDocument GenerateIoT(const GeneratorParams& p, Rng* rng) {
  static const char* kCapabilities[] = {"temperature", "humidity", "motion",
                                        "camera",      "lock",     "relay",
                                        "display",     "speaker"};
  static const char* kZones[] = {"lobby", "lab", "warehouse", "roof", "dock"};
  static const char* kVendors[] = {"acme", "borealis", "cirrus", "dynamo"};
  auto root = DomNode::Element(
      "device", {{"id", Numbered("dev-", rng->Uniform(1u << 20))}});
  DomNode* status = root->AddElement("status");
  status->AddElement("online")->AddText(rng->Chance(0.85) ? "yes" : "no");
  status->AddElement("battery")->AddText(std::to_string(rng->Range(1, 100)));
  status->AddElement("signal")->AddText(std::to_string(rng->Range(-90, -30)));
  status->AddElement("seen")->AddText(RandomDate(rng));

  // The announcement body scales with target_elements: fixed sections cost
  // ~13 elements, each capability 2 and each telemetry reading 1.
  const size_t budget = p.target_elements > 13 ? p.target_elements - 13 : 3;
  const size_t caps = p.fan_out > 0 ? p.fan_out : 1 + (budget / 3) % 8;
  DomNode* capabilities = root->AddElement("capabilities");
  for (size_t c = 0; c < caps; ++c) {
    DomNode* cap = capabilities->AddElement(
        "capability", {{"name", kCapabilities[rng->Uniform(8)]}});
    cap->AddElement("version")
        ->AddText(std::to_string(rng->Range(1, 4)) + "." +
                  std::to_string(rng->Uniform(10)));
  }
  DomNode* location = root->AddElement("location");
  location->AddElement("zone")->AddText(kZones[rng->Uniform(5)]);
  location->AddElement("room")->AddText(Numbered("r", rng->Range(1, 40)));
  DomNode* firmware = root->AddElement("firmware");
  firmware->AddElement("vendor")->AddText(kVendors[rng->Uniform(4)]);
  firmware->AddElement("build")->AddText(rng->Ident(8));
  const size_t readings =
      p.fan_out > 0 ? p.fan_out : 1 + budget - std::min(budget, caps * 2);
  DomNode* telemetry = root->AddElement("telemetry");
  for (size_t t = 0; t < readings; ++t) {
    telemetry
        ->AddElement("reading", {{"kind", kCapabilities[rng->Uniform(8)]}})
        ->AddText(std::to_string(rng->Uniform(1000)));
  }
  DomNode* owner = root->AddElement("owner");
  owner->AddElement("name")->AddText(RandomName(rng));
  owner->AddElement("contact")->AddText(rng->Ident(6) + "@fleet.example");
  return DomDocument(std::move(root));
}

// ---------------------------------------------------------------------------
// Random profile: adversarial structure for property tests.
// ---------------------------------------------------------------------------
void GrowRandom(DomNode* node, const GeneratorParams& p, Rng* rng,
                size_t* remaining, int depth) {
  while (*remaining > 0) {
    // Bias toward closing as depth grows to bound the tree height.
    double close_prob = 0.25 + 0.6 * depth / (p.max_depth + 1.0);
    if (depth >= p.max_depth || rng->Chance(close_prob)) return;
    std::string tag = Numbered("t", rng->Uniform(p.vocabulary));
    DomNode* child = node->AddElement(tag);
    --*remaining;
    if (rng->Chance(p.text_prob)) {
      // Short numeric-ish payloads make value predicates selective.
      if (rng->Chance(0.5)) {
        child->AddText(std::to_string(rng->Uniform(20)));
      } else {
        child->AddText(kWords[rng->Uniform(kWordCount)]);
      }
    }
    GrowRandom(child, p, rng, remaining, depth + 1);
  }
}

DomDocument GenerateRandom(const GeneratorParams& p, Rng* rng) {
  auto root = DomNode::Element("t0");
  size_t remaining = p.target_elements > 0 ? p.target_elements - 1 : 0;
  // Keep growing top-level branches until the budget is exhausted so the
  // requested size is actually reached.
  while (remaining > 0) {
    GrowRandom(root.get(), p, rng, &remaining, 1);
  }
  return DomDocument(std::move(root));
}

}  // namespace

DomDocument GenerateDocument(const GeneratorParams& params) {
  Rng rng(params.seed ^ 0x5D5Aull << 16 ^ static_cast<uint64_t>(params.profile));
  switch (params.profile) {
    case DocProfile::kAgenda:
      return GenerateAgenda(params, &rng);
    case DocProfile::kHospital:
      return GenerateHospital(params, &rng);
    case DocProfile::kNewsFeed:
      return GenerateNewsFeed(params, &rng);
    case DocProfile::kRandom:
      return GenerateRandom(params, &rng);
    case DocProfile::kIoT:
      return GenerateIoT(params, &rng);
  }
  return DomDocument();
}

const char* DocProfileName(DocProfile profile) {
  switch (profile) {
    case DocProfile::kAgenda:
      return "agenda";
    case DocProfile::kHospital:
      return "hospital";
    case DocProfile::kNewsFeed:
      return "newsfeed";
    case DocProfile::kRandom:
      return "random";
    case DocProfile::kIoT:
      return "iot";
  }
  return "?";
}

}  // namespace csxa::xml
