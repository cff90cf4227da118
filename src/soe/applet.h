#ifndef CSXA_SOE_APPLET_H_
#define CSXA_SOE_APPLET_H_

/// \file applet.h
/// \brief Command-level card applet: the APDU face of the CardEngine.
///
/// Implements the terminal-visible state machine of Fig. 3: select a
/// document, receive the sealed rules, run a query, page the delivered
/// view out in APDU-sized slices. Chunk supply is modeled through the
/// ChunkProvider wired at session start: the card calls it synchronously
/// during kRunQuery, where a real card would return to the terminal and
/// ask for each chunk by APDU. The session's cost model charges that
/// traffic (chunk bytes and, in pull mode, round trips) as if it had
/// crossed the link.

#include <memory>
#include <string>

#include "soe/apdu.h"
#include "soe/card_engine.h"

namespace csxa::soe {

/// \brief ApduHandler exposing the C-SXA engine.
class CsxaApplet : public ApduHandler {
 public:
  /// The applet owns its engine (the card).
  explicit CsxaApplet(CardProfile profile) : engine_(profile) {}

  /// Direct key installation (models the issuer's secure channel).
  void InstallKey(const std::string& doc_id, const crypto::SymmetricKey& key) {
    engine_.InstallKey(doc_id, key);
  }
  /// Wires the provider used for the *next* kRunQuery.
  void SetChunkProvider(ChunkProvider* provider) { provider_ = provider; }

  ApduResponse Process(const ApduCommand& command) override;

  /// Statistics of the last completed session (valid after kRunQuery).
  const SessionStats& last_stats() const { return last_stats_; }

  /// Engine access for non-APDU callers (benchmarks).
  CardEngine& engine() { return engine_; }

 private:
  ApduResponse HandleSelect(const ApduCommand& cmd);
  ApduResponse HandleInstallKey(const ApduCommand& cmd);
  ApduResponse HandlePutRules(const ApduCommand& cmd);
  ApduResponse HandleRunQuery(const ApduCommand& cmd);
  ApduResponse HandleFetchOutput(const ApduCommand& cmd);
  ApduResponse HandleGetStats(const ApduCommand& cmd);

  CardEngine engine_{CardProfile::EGate()};
  ChunkProvider* provider_ = nullptr;

  // Session state.
  std::string selected_doc_;
  Bytes header_bytes_;
  Bytes sealed_rules_;
  // The delivered view: the engine renders into it, and it keeps its
  // capacity from one session to the next.
  std::string output_;
  size_t output_cursor_ = 0;
  SessionStats last_stats_;
  bool session_ready_ = false;
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_APPLET_H_
