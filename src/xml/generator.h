#ifndef CSXA_XML_GENERATOR_H_
#define CSXA_XML_GENERATOR_H_

/// \file generator.h
/// \brief Synthetic XML dataset generators.
///
/// The demonstration exercises two applications — collaborative work among
/// a community (pull, textual) and selective dissemination of rated
/// content (push) — plus the medical-exchange and parental-control
/// scenarios motivating §1. The authors' demo used live data we do not
/// have; these seeded generators stand in for it with documents of the
/// same structure, reproducible from a seed.

#include <string>

#include "common/random.h"
#include "xml/dom.h"

namespace csxa::xml {

/// Dataset profiles.
enum class DocProfile {
  /// Community agenda: members, meetings, participants, private notes.
  kAgenda,
  /// Hospital folder: wards, patients, diagnoses, treatments, billing.
  kHospital,
  /// Rated content feed: channels, items with ratings, media (push app).
  kNewsFeed,
  /// Random tags/structure for property tests (uses `vocabulary` tags,
  /// recursive nesting).
  kRandom,
  /// One IoT device's capability/presence announcement: status, declared
  /// capabilities, location, firmware and a telemetry tail. Small by
  /// design — fleets publish thousands of these.
  kIoT,
};

/// Generation parameters. Sizes are approximate targets.
struct GeneratorParams {
  DocProfile profile = DocProfile::kAgenda;
  /// Approximate number of element nodes to produce.
  size_t target_elements = 200;
  /// RNG seed: equal params produce identical documents.
  uint64_t seed = 1;
  /// Average length of generated text payloads in characters.
  size_t text_avg_len = 24;
  /// kRandom only: number of distinct tags.
  size_t vocabulary = 8;
  /// kRandom only: maximum element depth.
  int max_depth = 8;
  /// kRandom only: probability that a generated element carries text.
  double text_prob = 0.5;
  /// kHospital only: nested care-episode depth under each visit. 0 (the
  /// default) keeps the flat legacy folder byte-identical; deeper values
  /// grow an `<episode>` chain per visit — the deep-patient-folder shape
  /// the e-health mobility scenario sweeps.
  size_t folder_depth = 0;
  /// kIoT only: capability / telemetry fan-out per section; 0 picks a
  /// default proportional to `target_elements`.
  size_t fan_out = 0;
};

/// Generates a document for the given parameters.
DomDocument GenerateDocument(const GeneratorParams& params);

/// Human-readable profile name ("agenda", "hospital", ...).
const char* DocProfileName(DocProfile profile);

}  // namespace csxa::xml

#endif  // CSXA_XML_GENERATOR_H_
