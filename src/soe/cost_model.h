#ifndef CSXA_SOE_COST_MODEL_H_
#define CSXA_SOE_COST_MODEL_H_

/// \file cost_model.h
/// \brief Accumulates modeled card work and converts it to time.
///
/// The two limiting factors of the target architecture are "the cost of
/// decryption in the SOE and the cost of communication between the SOE,
/// the client and the server" (§2.3) — this model makes both visible, plus
/// the evaluator CPU, so benchmarks can decompose end-to-end latency.

#include <cstdint>

#include "soe/card_profile.h"

namespace csxa::soe {

/// \brief Modeled cost accumulator for one card session.
class CostModel {
 public:
  explicit CostModel(CardProfile profile) : profile_(profile) {}

  /// Accounts one APDU exchange carrying `bytes` of payload (either
  /// direction); payloads larger than the APDU limit are chained.
  void AddTransfer(uint64_t bytes) {
    bytes_transferred_ += bytes;
    uint64_t frames = bytes == 0 ? 1 : (bytes + profile_.apdu_payload - 1) /
                                           profile_.apdu_payload;
    apdu_exchanges_ += frames;
  }
  /// Accounts decryption of `bytes`.
  void AddDecrypt(uint64_t bytes) { bytes_decrypted_ += bytes; }
  /// Accounts hashing of `bytes` (chunk MACs).
  void AddHash(uint64_t bytes) { bytes_hashed_ += bytes; }
  /// Accounts evaluator work.
  void AddEvaluator(uint64_t events, uint64_t transitions) {
    events_ += events;
    nfa_transitions_ += transitions;
  }
  /// Accounts `n` terminal<->server round trips (the dsp::Service request
  /// latency — distinct from the terminal<->card APDU link). Batched chunk
  /// fetches exist to shrink this counter.
  void AddRoundTrip(uint64_t n = 1) { round_trips_ += n; }

  /// \name Modeled time decomposition (seconds)
  /// @{
  double TransferSeconds() const {
    return static_cast<double>(bytes_transferred_) / profile_.link_bytes_per_sec +
           static_cast<double>(apdu_exchanges_) * profile_.apdu_latency_sec;
  }
  double CryptoSeconds() const {
    double cycles =
        static_cast<double>(bytes_decrypted_) * profile_.cycles_per_byte_decrypt +
        static_cast<double>(bytes_hashed_) * profile_.cycles_per_byte_hash;
    return cycles / (profile_.cpu_mhz * 1e6);
  }
  double EvaluatorSeconds() const {
    double cycles =
        static_cast<double>(events_) * profile_.cycles_per_event +
        static_cast<double>(nfa_transitions_) * profile_.cycles_per_nfa_transition;
    return cycles / (profile_.cpu_mhz * 1e6);
  }
  double RoundTripSeconds() const {
    return static_cast<double>(round_trips_) * profile_.round_trip_latency_sec;
  }
  double TotalSeconds() const {
    return TransferSeconds() + CryptoSeconds() + EvaluatorSeconds() +
           RoundTripSeconds();
  }
  /// @}

  /// \name Raw counters
  /// @{
  uint64_t bytes_transferred() const { return bytes_transferred_; }
  uint64_t bytes_decrypted() const { return bytes_decrypted_; }
  uint64_t bytes_hashed() const { return bytes_hashed_; }
  uint64_t apdu_exchanges() const { return apdu_exchanges_; }
  uint64_t events() const { return events_; }
  uint64_t nfa_transitions() const { return nfa_transitions_; }
  uint64_t round_trips() const { return round_trips_; }
  /// @}

  const CardProfile& profile() const { return profile_; }

 private:
  CardProfile profile_;
  uint64_t bytes_transferred_ = 0;
  uint64_t bytes_decrypted_ = 0;
  uint64_t bytes_hashed_ = 0;
  uint64_t apdu_exchanges_ = 0;
  uint64_t events_ = 0;
  uint64_t nfa_transitions_ = 0;
  uint64_t round_trips_ = 0;
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_COST_MODEL_H_
