#ifndef CSXA_CRYPTO_KEYS_H_
#define CSXA_CRYPTO_KEYS_H_

/// \file keys.h
/// \brief Symmetric key material and derivation.
///
/// Each shared document has a document key; the SOE stores user keys in its
/// secure stable storage (§2.1 assumption 2). Sub-keys (encryption vs MAC)
/// are derived by HMAC so a single exchanged secret suffices.

#include <array>
#include <string>

#include "common/bytes.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/sha256.h"

namespace csxa::crypto {

/// \brief A 16-byte symmetric secret with labeled sub-key derivation.
class SymmetricKey {
 public:
  SymmetricKey() { bytes_.fill(0); }
  /// Wraps existing raw key bytes (must be 16 bytes; excess ignored,
  /// shortfall zero-padded).
  explicit SymmetricKey(Span raw) {
    bytes_.fill(0);
    size_t n = raw.size() < bytes_.size() ? raw.size() : bytes_.size();
    std::memcpy(bytes_.data(), raw.data(), n);
  }

  /// Generates a fresh key from the given deterministic RNG.
  static SymmetricKey Generate(Rng* rng);

  /// Raw key bytes.
  Span bytes() const { return Span(bytes_.data(), bytes_.size()); }

  /// Derives a labeled sub-key: HMAC(key, label) truncated to 16 bytes.
  SymmetricKey Derive(const std::string& label) const;

  /// Derives the AES cipher for the "enc" sub-key.
  Aes128 EncryptionCipher() const;
  /// The "mac" sub-key used for HMAC authentication.
  SymmetricKey MacKey() const { return Derive("mac"); }

  bool operator==(const SymmetricKey& o) const { return bytes_ == o.bytes_; }

 private:
  std::array<uint8_t, kAesKeySize> bytes_;
};

/// \brief The cipher state of one document key, derived once.
///
/// Deriving the "enc" and "mac" sub-keys costs three HMACs plus an AES key
/// expansion; a reader that verifies and decrypts many chunks or blocks
/// under one key builds this once (per card session, per container, per
/// block store) and passes it to the per-chunk calls instead of the key.
struct DocCipher {
  /// AES under the "enc" sub-key.
  Aes128 enc;
  /// HMAC under the "mac" sub-key.
  HmacKey mac;

  /// The context of `key` as containers and sealed records use it.
  static DocCipher For(const SymmetricKey& key) {
    return DocCipher{key.EncryptionCipher(), HmacKey(key.MacKey().bytes())};
  }
};

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_KEYS_H_
