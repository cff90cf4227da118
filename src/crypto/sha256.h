#ifndef CSXA_CRYPTO_SHA256_H_
#define CSXA_CRYPTO_SHA256_H_

/// \file sha256.h
/// \brief SHA-256 (FIPS 180-4), incremental and one-shot, and HMAC-SHA256.
///
/// Used for integrity digests, chunk/block MACs and key derivation.
///
/// The compression function has two implementations with identical
/// output: SHA-NI (x86-64 CPUs reporting the `sha` and `sse4.1` features,
/// probed once per process via CPUID; constant-time, as every step runs in
/// the SHA unit) and portable C++ (the fallback elsewhere, and the
/// differential oracle, reachable as internal::PortableCompress). Both are
/// free of secret-dependent branches and table lookups.
///
/// HMAC keys that are used more than once should be held as an HmacKey,
/// which absorbs the inner and outer pads at construction: a MAC then
/// costs the message blocks plus one outer compression.

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace csxa::crypto {

/// SHA-256 digest size in bytes.
inline constexpr size_t kSha256Size = 32;

/// A 32-byte SHA-256 digest.
using Digest = std::array<uint8_t, kSha256Size>;

namespace internal {
/// True when this CPU runs the SHA-NI path (probed once per process).
bool HasShaNi();
/// The portable reference compression: absorbs `count` 64-byte blocks into
/// `state` (big-endian message words, FIPS 180-4 6.2.2).
void PortableCompress(uint32_t state[8], const uint8_t* blocks, size_t count);
}  // namespace internal

/// \brief Incremental SHA-256 hasher. Copyable: a copy continues from the
/// same absorbed prefix (HmacKey relies on this).
class Sha256 {
 public:
  Sha256() { Reset(); }

  /// Resets to the initial state.
  void Reset();
  /// Absorbs more input.
  void Update(Span data);
  /// Finalizes and returns the digest. The hasher must be Reset() to reuse.
  Digest Finish();

  /// One-shot convenience.
  static Digest Hash(Span data);

 private:
  void ProcessBlocks(const uint8_t* blocks, size_t count);

  uint32_t h_[8] = {};
  uint8_t buf_[64] = {};
  size_t buf_len_ = 0;
  uint64_t total_len_ = 0;
};

/// \brief An HMAC-SHA256 (RFC 2104) key with both pads pre-absorbed.
///
/// Thread-compatible: const methods may be called concurrently.
class HmacKey {
 public:
  /// Keys longer than the 64-byte block are hashed first, per RFC 2104.
  explicit HmacKey(Span key);

  /// HMAC of `data`.
  Digest Mac(Span data) const;

  /// Streaming form: a hasher that has absorbed the inner pad. Feed the
  /// message with Update(), then pass it to Finish().
  Sha256 Begin() const { return inner_; }
  /// Completes the MAC of everything fed to a hasher from Begin().
  Digest Finish(Sha256 inner) const;

 private:
  Sha256 inner_;  // after absorbing key ^ ipad
  Sha256 outer_;  // after absorbing key ^ opad
};

/// One-shot HMAC-SHA256 over `data` with `key` of any length. Prefer an
/// HmacKey where the key is reused.
Digest HmacSha256(Span key, Span data);

/// Constant-time byte equality for MAC/tag verification: examines every
/// byte regardless of where the first mismatch is, so verification latency
/// cannot leak how long a forged tag's matching prefix was. Length
/// mismatch returns false immediately (lengths are public).
bool ConstantTimeEqual(Span a, Span b);

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_SHA256_H_
