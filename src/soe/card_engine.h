#ifndef CSXA_SOE_CARD_ENGINE_H_
#define CSXA_SOE_CARD_ENGINE_H_

/// \file card_engine.h
/// \brief The card-resident engine: decryption, integrity control and
/// access-rights evaluation (the three boxes inside the smart card in
/// Fig. 3 of the paper).
///
/// A session evaluates one (document, subject[, query]) against sealed
/// rules, streaming chunks through ChunkSource and events through the
/// StreamingEvaluator, metering modeled RAM and time throughout.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "core/rule_envelope.h"
#include "crypto/container.h"
#include "crypto/keys.h"
#include "skipindex/codec.h"
#include "skipindex/filter.h"
#include "soe/chunk_source.h"
#include "soe/cost_model.h"
#include "soe/ram_meter.h"

namespace csxa::soe {

/// \brief Session parameters.
struct SessionOptions {
  /// Subject whose rules apply.
  std::string subject;
  /// Optional XPath query ("" = deliver the whole authorized view).
  std::string query_text;
  /// Exploit the skip index when the document carries one.
  bool use_skip = true;
  /// Abort (ResourceExhausted) if the modeled RAM budget is exceeded.
  bool strict_ram = false;
  /// Push (dissemination) mode: the whole broadcast stream crosses the
  /// link regardless of skips — skips then save decryption and CPU only.
  bool push_mode = false;
};

/// \brief Everything a session reports back.
struct SessionStats {
  // Cost model outputs.
  double transfer_seconds = 0;
  double crypto_seconds = 0;
  double evaluator_seconds = 0;
  double round_trip_seconds = 0;
  double total_seconds = 0;
  uint64_t bytes_transferred = 0;
  uint64_t bytes_decrypted = 0;
  uint64_t apdu_exchanges = 0;
  // Terminal<->DSP requests the chunk supply performed during the session
  // (0 in push mode: the broadcast already arrived).
  uint64_t dsp_round_trips = 0;
  // Chunk accounting.
  uint64_t chunks_fetched = 0;
  uint64_t chunks_avoided = 0;
  // Filtering.
  uint64_t bytes_skipped = 0;
  size_t skips = 0;
  // Evaluator.
  core::EvaluatorStats evaluator;
  // RAM.
  size_t ram_peak = 0;
  size_t ram_budget = 0;
  // Output.
  size_t output_bytes = 0;
};

/// \brief Result of a session: the delivered view plus statistics.
struct SessionOutput {
  std::string view_xml;
  SessionStats stats;
};

/// \brief The modeled smart card.
///
/// Keys live in the card's secure stable storage (SOE assumption 2); they
/// are installed through a secure channel simulated by pki/.
class CardEngine {
 public:
  explicit CardEngine(CardProfile profile) : profile_(profile) {}

  /// Installs a document key into secure storage.
  void InstallKey(const std::string& doc_id, const crypto::SymmetricKey& key) {
    keys_[doc_id] = key;
  }
  /// The label of `subject`'s record in `doc_id`'s rule envelope
  /// (core::SubjectLabel under the installed key); NotFound without a key.
  /// The applet names it at select, so the terminal forwards that record
  /// only.
  Result<core::RuleLabel> LabelFor(const std::string& doc_id,
                                   std::string_view subject) const;

  /// Runs a full query session and renders the delivered view into
  /// `*view`, which is cleared first: a caller that keeps one view buffer
  /// (the applet's output buffer) renders into its capacity.
  /// `header_bytes` is the serialized container header; `rule_message`
  /// the envelope's header and the subject's record as
  /// core::CutRuleMessage cuts them, all the card receives of the rules;
  /// `provider` supplies ciphertext chunks on demand. A session derives
  /// the document key's cipher context and its subject's label once and
  /// parses only its subject's rules. The card keeps its evaluator, its
  /// decoder (and an unchanged dictionary) and its rule buffers from one
  /// session to the next, so a repeated session allocates a fixed number
  /// of times, whatever the size of the document.
  Result<SessionStats> RunSession(const std::string& doc_id,
                                  Span header_bytes, Span rule_message,
                                  ChunkProvider* provider,
                                  const SessionOptions& options,
                                  std::string* view);
  /// The same session, with the view in a new string.
  Result<SessionOutput> RunSession(const std::string& doc_id,
                                   Span header_bytes, Span rule_message,
                                   ChunkProvider* provider,
                                   const SessionOptions& options);

  const CardProfile& profile() const { return profile_; }

  /// Highest rule-set version seen for `doc_id` (0 if none) — the card's
  /// anti-rollback state in secure stable storage.
  uint64_t LastRulesVersion(const std::string& doc_id) const {
    auto it = rules_versions_.find(doc_id);
    return it == rules_versions_.end() ? 0 : it->second;
  }

 private:
  CardProfile profile_;
  std::map<std::string, crypto::SymmetricKey> keys_;
  // Anti-rollback: highest rule-envelope version accepted per document.
  std::map<std::string, uint64_t> rules_versions_;
  // The evaluator and the decoder every session runs on, Reset() and
  // Reopen()ed per session (null until the first).
  std::unique_ptr<core::StreamingEvaluator> evaluator_;
  std::unique_ptr<skipindex::DocumentDecoder> decoder_;
  // The decrypted rule record and the session subject's rules, reused.
  Bytes rules_plain_;
  std::vector<core::AccessRule> subject_rules_;
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_CARD_ENGINE_H_
