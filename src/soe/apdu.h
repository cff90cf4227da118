#ifndef CSXA_SOE_APDU_H_
#define CSXA_SOE_APDU_H_

/// \file apdu.h
/// \brief The terminal-card command set, ISO 7816-4 style.
///
/// "Application Protocol Data Unit: communication protocol between the
/// terminal and the smart card" (§3, footnote 1). A command is an
/// instruction and a payload; a response is a payload and a status word.
/// The terminal hands commands to the applet in memory: nothing is framed
/// or serialized, and the one model of the link is the card session's
/// CostModel (cost_model.h), which charges the header, the rules, every
/// chunk and the view as if they had crossed it.

#include <cstdint>

#include "common/bytes.h"

namespace csxa::soe {

/// Instruction codes of the C-SXA applet.
enum class Ins : uint8_t {
  kSelectDocument = 0xA0,  ///< data: doc id + container header
  kPutRules = 0xA4,        ///< data: sealed rule-set record
  kRunQuery = 0xA6,        ///< data: subject + query text + skip flag
  kFetchOutput = 0xA8,     ///< response: next slice of the delivered view
  kEndSession = 0xAC,
};

/// Standard status words used by the applet.
inline constexpr uint16_t kSwOk = 0x9000;
inline constexpr uint16_t kSwMoreData = 0x6100;
inline constexpr uint16_t kSwSecurityStatus = 0x6982;
inline constexpr uint16_t kSwConditionsNotSatisfied = 0x6985;
inline constexpr uint16_t kSwWrongData = 0x6A80;
inline constexpr uint16_t kSwNotFound = 0x6A82;
inline constexpr uint16_t kSwInternal = 0x6F00;

/// \brief Command APDU. The payload views the sender's bytes, which must
/// outlive the exchange.
struct ApduCommand {
  Ins ins = Ins::kEndSession;
  Span data;
};

/// \brief Response APDU. The sender reuses one across exchanges, so its
/// buffer keeps its capacity from one reply to the next.
struct ApduResponse {
  Bytes data;
  uint16_t sw = kSwOk;

  bool ok() const { return sw == kSwOk || (sw & 0xFF00) == kSwMoreData; }
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_APDU_H_
