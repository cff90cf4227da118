#ifndef CSXA_SOE_CARD_PROFILE_H_
#define CSXA_SOE_CARD_PROFILE_H_

/// \file card_profile.h
/// \brief Modeled smart-card hardware parameters.
///
/// The demonstration used Axalto e-gate cards: "a powerful CPU and strong
/// security features but ... a limited memory (only 1 KB of RAM available
/// for on-board applications) and a low bandwidth (2 KB/s)" (§3). The
/// original work validated on a cycle-accurate simulator; this profile
/// reproduces the same two bottlenecks — the link and the crypto — as a
/// first-order cost model (cost_model.h) in place of that simulator.

#include <cstddef>
#include <string>

namespace csxa::soe {

/// \brief Hardware cost parameters of a modeled card.
struct CardProfile {
  std::string name = "egate";

  /// CPU clock in MHz.
  double cpu_mhz = 33.0;
  /// Crypto-coprocessor decryption cost, cycles per byte.
  double cycles_per_byte_decrypt = 48.0;
  /// Hash cost, cycles per byte (integrity checking).
  double cycles_per_byte_hash = 64.0;
  /// Evaluator cost: cycles per NFA transition.
  double cycles_per_nfa_transition = 180.0;
  /// Evaluator cost: fixed cycles per parsing event.
  double cycles_per_event = 350.0;

  /// Terminal<->card link throughput in bytes/second (e-gate: 2 KB/s).
  double link_bytes_per_sec = 2048.0;
  /// Fixed latency per APDU exchange, seconds.
  double apdu_latency_sec = 0.002;
  /// Maximum APDU payload (ISO 7816-4 short form).
  size_t apdu_payload = 255;
  /// Terminal<->DSP request latency, seconds per round trip (2005-era
  /// broadband; batched dsp::Service requests amortize it).
  double round_trip_latency_sec = 0.04;

  /// Modeled working RAM available to the application, bytes.
  size_t ram_budget = 1024;

  /// The demo's Axalto e-gate card.
  static CardProfile EGate() { return CardProfile{}; }

  /// A contemporary secure element (for what-if comparisons): USB-speed
  /// link, larger RAM, faster crypto.
  static CardProfile ModernElement() {
    CardProfile p;
    p.name = "modern";
    p.cpu_mhz = 240.0;
    p.cycles_per_byte_decrypt = 12.0;
    p.cycles_per_byte_hash = 16.0;
    p.cycles_per_nfa_transition = 60.0;
    p.cycles_per_event = 120.0;
    p.link_bytes_per_sec = 1.5e6;
    p.apdu_latency_sec = 0.0002;
    p.round_trip_latency_sec = 0.005;
    p.ram_budget = 16 * 1024;
    return p;
  }
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_CARD_PROFILE_H_
