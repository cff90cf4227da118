#ifndef CSXA_SOE_APDU_H_
#define CSXA_SOE_APDU_H_

/// \file apdu.h
/// \brief ISO 7816-4 style APDU framing between terminal and card.
///
/// "Application Protocol Data Unit: communication protocol between the
/// terminal and the smart card" (§3, footnote 1). Commands carry a header
/// (CLA INS P1 P2) and a payload; responses carry a payload and a status
/// word. The transport charges every exchange to the session's CostModel
/// (bandwidth plus per-exchange latency), chaining oversized payloads.

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "soe/cost_model.h"

namespace csxa::soe {

/// Instruction codes of the C-SXA applet.
enum class Ins : uint8_t {
  kSelectDocument = 0xA0,  ///< data: doc id + container header
  kInstallKey = 0xA2,      ///< data: doc id + key (via secure channel)
  kPutRules = 0xA4,        ///< data: sealed rule-set record
  kRunQuery = 0xA6,        ///< data: subject + query text + skip flag
  kFetchOutput = 0xA8,     ///< response: next slice of the delivered view
  kGetStats = 0xAA,        ///< response: serialized session statistics
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

/// \brief Command APDU.
struct ApduCommand {
  uint8_t cla = 0x80;  // proprietary class
  Ins ins = Ins::kGetStats;
  uint8_t p1 = 0;
  uint8_t p2 = 0;
  Bytes data;

  void EncodeTo(ByteWriter* out) const;
  static Result<ApduCommand> DecodeFrom(ByteReader* in);
};

/// \brief Response APDU.
struct ApduResponse {
  Bytes data;
  uint16_t sw = kSwOk;

  bool ok() const { return sw == kSwOk || (sw & 0xFF00) == kSwMoreData; }
  void EncodeTo(ByteWriter* out) const;
  static Result<ApduResponse> DecodeFrom(ByteReader* in);
};

/// \brief Card-side command handler.
class ApduHandler {
 public:
  virtual ~ApduHandler() = default;
  virtual ApduResponse Process(const ApduCommand& command) = 0;
};

/// \brief Terminal-side transport over the modeled link.
///
/// Serializes the command, charges its bytes, delivers to the handler,
/// charges the response bytes. The wire format is what the cost model
/// meters; the handler receives the parsed command.
class ApduTransport {
 public:
  explicit ApduTransport(CostModel* cost) : cost_(cost) {}

  ApduResponse Exchange(ApduHandler* card, const ApduCommand& command);

  /// Number of exchanges performed.
  uint64_t exchanges() const { return exchanges_; }

 private:
  CostModel* cost_;
  uint64_t exchanges_ = 0;
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_APDU_H_
