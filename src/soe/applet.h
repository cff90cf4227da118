#ifndef CSXA_SOE_APPLET_H_
#define CSXA_SOE_APPLET_H_

/// \file applet.h
/// \brief Command-level card applet: the APDU face of the CardEngine.
///
/// Implements the terminal-visible state machine of Fig. 3: select a
/// document (the reply names the holder's rule label), receive the
/// envelope's header and the holder's record, run a query, page the
/// delivered view out in APDU-sized slices. The applet is issued to one
/// holder: every session runs as that subject, and no command names
/// another. Chunk supply is modeled through the
/// ChunkProvider wired at session start: the card calls it synchronously
/// during kRunQuery, where a real card would return to the terminal and
/// ask for each chunk by APDU. The session's cost model charges that
/// traffic (chunk bytes and, in pull mode, round trips) as if it had
/// crossed the link.

#include <string>

#include "soe/apdu.h"
#include "soe/card_engine.h"

namespace csxa::soe {

/// \brief The C-SXA engine behind the applet's command set.
class CsxaApplet {
 public:
  /// The applet owns its engine (the card), issued to `holder`.
  CsxaApplet(CardProfile profile, std::string holder)
      : engine_(profile), holder_(std::move(holder)) {}

  /// Key installation (models the issuer's secure channel).
  void InstallKey(const std::string& doc_id, const crypto::SymmetricKey& key) {
    engine_.InstallKey(doc_id, key);
  }
  /// Wires the provider used for the *next* kRunQuery.
  void SetChunkProvider(ChunkProvider* provider) { provider_ = provider; }

  /// Runs one command and fills `reply` in place: its payload is replaced
  /// without releasing the buffer, so a sender that reuses one reply pages
  /// a view out with no allocation per slice.
  void Process(const ApduCommand& command, ApduResponse* reply);

  /// Statistics of the last completed session (valid after kRunQuery).
  const SessionStats& last_stats() const { return last_stats_; }

  /// Engine access for callers that bypass the command set (benchmarks).
  CardEngine& engine() { return engine_; }

 private:
  // Each handler returns the status word and writes any payload to `reply`.
  uint16_t HandleSelect(Span data, Bytes* reply);
  uint16_t HandlePutRules(Span data);
  uint16_t HandleRunQuery(Span data, Bytes* reply);
  uint16_t HandleFetchOutput(Bytes* reply);
  void ResetSession();

  CardEngine engine_{CardProfile::EGate()};
  std::string holder_;
  ChunkProvider* provider_ = nullptr;

  // Session state. Each buffer keeps its capacity from one session to the
  // next; the engine renders the delivered view into output_.
  std::string selected_doc_;
  Bytes header_bytes_;
  Bytes rule_message_;
  std::string output_;
  size_t output_cursor_ = 0;
  SessionStats last_stats_;
  bool session_ready_ = false;
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_APPLET_H_
