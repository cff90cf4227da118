#ifndef CSXA_CRYPTO_AES_H_
#define CSXA_CRYPTO_AES_H_

/// \file aes.h
/// \brief AES-128 block cipher (FIPS-197), implemented from scratch.
///
/// The SOE in the paper relies on a card-resident block cipher to decrypt
/// documents and rules; the host runs the same cipher for sealing, serving
/// and the durable block store, where it is a wall-clock cost (the card
/// side is priced by soe::CostModel, not by this code).
///
/// Two implementations produce identical bytes:
///
///  - **AES-NI** (x86-64 hosts whose CPU reports the `aes` and `sse4.1`
///    features). Selected once per key at Aes128::New via CPUID — no build
///    flag, no environment variable. The key schedule uses `aeskeygenassist`,
///    the decryption schedule (`aesimc`) is precomputed with it, and
///    CtrXor pipelines four blocks at a time. Every round runs in the AES
///    unit, so it is constant-time.
///  - **Portable** byte-oriented code, the fallback on every other host and
///    the differential oracle the tests compare AES-NI against (reach it
///    through internal::PortableEncryptBlock / PortableDecryptBlock).
///    MixColumns uses branch-free `xtime` arithmetic, so no branch depends
///    on secret state, and there are no T-tables. The S-box is still a
///    256-byte table indexed by secret bytes, so this path is NOT
///    cache-timing-safe; a host that must keep the durable volume key from
///    a co-resident attacker needs the AES-NI path.

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace csxa::crypto {

/// AES block size in bytes.
inline constexpr size_t kAesBlockSize = 16;
/// AES-128 key size in bytes.
inline constexpr size_t kAesKeySize = 16;

class Aes128;

namespace internal {
/// True when this CPU runs the AES-NI path (probed once per process).
bool HasAesNi();
/// The portable reference cipher, whatever path `aes` was built for.
void PortableEncryptBlock(const Aes128& aes, const uint8_t in[16],
                          uint8_t out[16]);
void PortableDecryptBlock(const Aes128& aes, const uint8_t in[16],
                          uint8_t out[16]);
}  // namespace internal

/// \brief AES-128 with precomputed key schedule.
///
/// Thread-compatible: const methods may be called concurrently.
class Aes128 {
 public:
  /// Expands a 16-byte key. Returns InvalidArgument on wrong key size.
  static Result<Aes128> New(Span key);

  /// Encrypts one 16-byte block in place (`out` may alias `in`).
  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;
  /// Decrypts one 16-byte block in place (`out` may alias `in`).
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  /// XORs `n` bytes of `in` with the CTR keystream whose i-th counter block
  /// is `iv[0..12) || BE32(i)`, writing to `out` (may alias `in`). The
  /// block counter overwrites the last four IV bytes. The engine of
  /// CtrTransform (modes.h).
  void CtrXor(const uint8_t iv[16], const uint8_t* in, uint8_t* out,
              size_t n) const;

 private:
  friend void internal::PortableEncryptBlock(const Aes128&, const uint8_t*,
                                             uint8_t*);
  friend void internal::PortableDecryptBlock(const Aes128&, const uint8_t*,
                                             uint8_t*);

  Aes128() = default;
  // 11 round keys of 16 bytes each (FIPS-197 byte order).
  alignas(16) std::array<uint8_t, 176> round_keys_{};
  // AES-NI only: the equivalent-inverse-cipher schedule (round keys in
  // reverse order, rounds 1-9 passed through InvMixColumns).
  alignas(16) std::array<uint8_t, 176> dec_round_keys_{};
  bool aesni_ = false;
};

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_AES_H_
