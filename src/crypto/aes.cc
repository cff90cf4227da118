#include "crypto/aes.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace csxa::crypto {

namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

void SubBytes(uint8_t s[16]) {
  for (int i = 0; i < 16; ++i) s[i] = kSbox[s[i]];
}
void InvSubBytes(uint8_t s[16]) {
  for (int i = 0; i < 16; ++i) s[i] = kInvSbox[s[i]];
}

// State layout: s[r + 4*c] is the byte at row r, column c (FIPS-197).
void ShiftRows(uint8_t s[16]) {
  uint8_t t;
  // row 1: rotate left by 1
  t = s[1];
  s[1] = s[5];
  s[5] = s[9];
  s[9] = s[13];
  s[13] = t;
  // row 2: rotate left by 2
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  // row 3: rotate left by 3
  t = s[15];
  s[15] = s[11];
  s[11] = s[7];
  s[7] = s[3];
  s[3] = t;
}

void InvShiftRows(uint8_t s[16]) {
  uint8_t t;
  // row 1: rotate right by 1
  t = s[13];
  s[13] = s[9];
  s[9] = s[5];
  s[5] = s[1];
  s[1] = t;
  // row 2: rotate right by 2
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  // row 3: rotate right by 3
  t = s[3];
  s[3] = s[7];
  s[7] = s[11];
  s[11] = s[15];
  s[15] = t;
}

// MixColumns works on a whole column at once, its four bytes packed into
// one 32-bit word (byte r = row r). Multiplication by x ({02}) in GF(2^8)
// of all four bytes is branch-free: each byte's reduction is selected by
// its own top bit, so no branch or index depends on the (secret) state.
inline uint32_t Xtime4(uint32_t w) {
  return ((w & 0x7f7f7f7fu) << 1) ^ (((w >> 7) & 0x01010101u) * 0x1bu);
}
// Byte r of the result is byte r + n (mod 4) of `w`.
inline uint32_t RotBytes(uint32_t w, int n) {
  return (w >> (8 * n)) | (w << (32 - 8 * n));
}
inline uint32_t LoadColumn(const uint8_t* col) {
  return static_cast<uint32_t>(col[0]) | static_cast<uint32_t>(col[1]) << 8 |
         static_cast<uint32_t>(col[2]) << 16 |
         static_cast<uint32_t>(col[3]) << 24;
}
inline void StoreColumn(uint8_t* col, uint32_t w) {
  for (int r = 0; r < 4; ++r) col[r] = static_cast<uint8_t>(w >> (8 * r));
}

// Row r of the output is 2*a_r ^ 3*a_{r+1} ^ a_{r+2} ^ a_{r+3}
//                      = xtime(a_r ^ a_{r+1}) ^ a_{r+1} ^ a_{r+2} ^ a_{r+3}.
inline uint32_t MixColumn(uint32_t w) {
  uint32_t r1 = RotBytes(w, 1);
  return Xtime4(w ^ r1) ^ r1 ^ RotBytes(w, 2) ^ RotBytes(w, 3);
}

void MixColumns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    StoreColumn(s + 4 * c, MixColumn(LoadColumn(s + 4 * c)));
  }
}

// InvMixColumns factors as MixColumns after adding 4*(a_r ^ a_{r+2}) to
// each row (Daemen & Rijmen, "The Design of Rijndael", 4.1.3).
void InvMixColumns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint32_t w = LoadColumn(s + 4 * c);
    w ^= Xtime4(Xtime4(w ^ RotBytes(w, 2)));
    StoreColumn(s + 4 * c, MixColumn(w));
  }
}

void AddRoundKey(uint8_t s[16], const uint8_t* rk) {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}


void PortableExpandKey(const uint8_t key[16], uint8_t rk[176]) {
  std::memcpy(rk, key, 16);
  for (int i = 4; i < 44; ++i) {
    uint8_t t[4];
    std::memcpy(t, rk + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon
      uint8_t tmp = t[0];
      t[0] = static_cast<uint8_t>(kSbox[t[1]] ^ kRcon[i / 4 - 1]);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
    }
    for (int b = 0; b < 4; ++b) {
      rk[4 * i + b] = rk[4 * (i - 4) + b] ^ t[b];
    }
  }
}

#if defined(__x86_64__)

// AES-NI kernels. The target attribute enables the instructions for these
// functions only; they run only after HasAesNi() confirmed the CPU has them.
#define CSXA_AESNI __attribute__((target("aes,sse4.1")))

inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

template <int kRcon>
CSXA_AESNI inline __m128i NextRoundKey(__m128i key) {
  __m128i assist = _mm_shuffle_epi32(_mm_aeskeygenassist_si128(key, kRcon),
                                     0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

CSXA_AESNI void AesNiExpandKey(const uint8_t key[16], uint8_t rk[176],
                               uint8_t drk[176]) {
  __m128i k[11];
  k[0] = Load(key);
  k[1] = NextRoundKey<0x01>(k[0]);
  k[2] = NextRoundKey<0x02>(k[1]);
  k[3] = NextRoundKey<0x04>(k[2]);
  k[4] = NextRoundKey<0x08>(k[3]);
  k[5] = NextRoundKey<0x10>(k[4]);
  k[6] = NextRoundKey<0x20>(k[5]);
  k[7] = NextRoundKey<0x40>(k[6]);
  k[8] = NextRoundKey<0x80>(k[7]);
  k[9] = NextRoundKey<0x1b>(k[8]);
  k[10] = NextRoundKey<0x36>(k[9]);
  for (int i = 0; i < 11; ++i) Store(rk + 16 * i, k[i]);
  Store(drk, k[10]);
  for (int i = 1; i < 10; ++i) Store(drk + 16 * i, _mm_aesimc_si128(k[10 - i]));
  Store(drk + 160, k[0]);
}

CSXA_AESNI void AesNiEncryptBlock(const uint8_t* rk, const uint8_t in[16],
                                  uint8_t out[16]) {
  __m128i b = _mm_xor_si128(Load(in), Load(rk));
  for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, Load(rk + 16 * r));
  Store(out, _mm_aesenclast_si128(b, Load(rk + 160)));
}

CSXA_AESNI void AesNiDecryptBlock(const uint8_t* drk, const uint8_t in[16],
                                  uint8_t out[16]) {
  __m128i b = _mm_xor_si128(Load(in), Load(drk));
  for (int r = 1; r < 10; ++r) b = _mm_aesdec_si128(b, Load(drk + 16 * r));
  Store(out, _mm_aesdeclast_si128(b, Load(drk + 160)));
}

// Counter block i: the IV with its last four bytes replaced by BE32(i).
CSXA_AESNI inline __m128i CounterBlock(__m128i iv, uint32_t i) {
  return _mm_insert_epi32(iv, static_cast<int>(__builtin_bswap32(i)), 3);
}

// Four independent blocks per iteration keep the AES unit's pipeline full
// (aesenc has a multi-cycle latency but issues every cycle).
CSXA_AESNI void AesNiCtrXor(const uint8_t* rk_bytes, const uint8_t iv_bytes[16],
                            const uint8_t* in, uint8_t* out, size_t n) {
  __m128i rk[11];
  for (int r = 0; r < 11; ++r) rk[r] = Load(rk_bytes + 16 * r);
  const __m128i iv = Load(iv_bytes);
  uint32_t block = 0;
  size_t off = 0;
  for (; n - off >= 64; off += 64, block += 4) {
    __m128i b0 = _mm_xor_si128(CounterBlock(iv, block), rk[0]);
    __m128i b1 = _mm_xor_si128(CounterBlock(iv, block + 1), rk[0]);
    __m128i b2 = _mm_xor_si128(CounterBlock(iv, block + 2), rk[0]);
    __m128i b3 = _mm_xor_si128(CounterBlock(iv, block + 3), rk[0]);
    for (int r = 1; r < 10; ++r) {
      b0 = _mm_aesenc_si128(b0, rk[r]);
      b1 = _mm_aesenc_si128(b1, rk[r]);
      b2 = _mm_aesenc_si128(b2, rk[r]);
      b3 = _mm_aesenc_si128(b3, rk[r]);
    }
    b0 = _mm_aesenclast_si128(b0, rk[10]);
    b1 = _mm_aesenclast_si128(b1, rk[10]);
    b2 = _mm_aesenclast_si128(b2, rk[10]);
    b3 = _mm_aesenclast_si128(b3, rk[10]);
    Store(out + off, _mm_xor_si128(Load(in + off), b0));
    Store(out + off + 16, _mm_xor_si128(Load(in + off + 16), b1));
    Store(out + off + 32, _mm_xor_si128(Load(in + off + 32), b2));
    Store(out + off + 48, _mm_xor_si128(Load(in + off + 48), b3));
  }
  for (; off < n; off += 16, ++block) {
    __m128i b = _mm_xor_si128(CounterBlock(iv, block), rk[0]);
    for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, rk[r]);
    b = _mm_aesenclast_si128(b, rk[10]);
    if (n - off >= 16) {
      Store(out + off, _mm_xor_si128(Load(in + off), b));
    } else {
      uint8_t keystream[16];
      Store(keystream, b);
      for (size_t i = 0; off + i < n; ++i) out[off + i] = in[off + i] ^ keystream[i];
    }
  }
}

#undef CSXA_AESNI
#endif  // defined(__x86_64__)

}  // namespace

namespace internal {

bool HasAesNi() {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
#else
  return false;
#endif
}

void PortableEncryptBlock(const Aes128& aes, const uint8_t in[16],
                          uint8_t out[16]) {
  uint8_t s[16];
  std::memcpy(s, in, 16);
  const uint8_t* rk = aes.round_keys_.data();
  AddRoundKey(s, rk);
  for (int round = 1; round <= 9; ++round) {
    SubBytes(s);
    ShiftRows(s);
    MixColumns(s);
    AddRoundKey(s, rk + 16 * round);
  }
  SubBytes(s);
  ShiftRows(s);
  AddRoundKey(s, rk + 160);
  std::memcpy(out, s, 16);
}

void PortableDecryptBlock(const Aes128& aes, const uint8_t in[16],
                          uint8_t out[16]) {
  uint8_t s[16];
  std::memcpy(s, in, 16);
  const uint8_t* rk = aes.round_keys_.data();
  AddRoundKey(s, rk + 160);
  for (int round = 9; round >= 1; --round) {
    InvShiftRows(s);
    InvSubBytes(s);
    AddRoundKey(s, rk + 16 * round);
    InvMixColumns(s);
  }
  InvShiftRows(s);
  InvSubBytes(s);
  AddRoundKey(s, rk);
  std::memcpy(out, s, 16);
}

}  // namespace internal

Result<Aes128> Aes128::New(Span key) {
  if (key.size() != kAesKeySize) {
    return Status::InvalidArgument("AES-128 key must be 16 bytes");
  }
  Aes128 aes;
#if defined(__x86_64__)
  aes.aesni_ = internal::HasAesNi();
  if (aes.aesni_) {
    AesNiExpandKey(key.data(), aes.round_keys_.data(),
                   aes.dec_round_keys_.data());
    return aes;
  }
#endif
  PortableExpandKey(key.data(), aes.round_keys_.data());
  return aes;
}

void Aes128::EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
#if defined(__x86_64__)
  if (aesni_) return AesNiEncryptBlock(round_keys_.data(), in, out);
#endif
  internal::PortableEncryptBlock(*this, in, out);
}

void Aes128::DecryptBlock(const uint8_t in[16], uint8_t out[16]) const {
#if defined(__x86_64__)
  if (aesni_) return AesNiDecryptBlock(dec_round_keys_.data(), in, out);
#endif
  internal::PortableDecryptBlock(*this, in, out);
}

void Aes128::CtrXor(const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                    size_t n) const {
#if defined(__x86_64__)
  if (aesni_) return AesNiCtrXor(round_keys_.data(), iv, in, out, n);
#endif
  uint8_t counter[16];
  std::memcpy(counter, iv, 16);
  uint8_t keystream[16];
  uint32_t block = 0;
  for (size_t off = 0; off < n; off += 16, ++block) {
    counter[12] = static_cast<uint8_t>(block >> 24);
    counter[13] = static_cast<uint8_t>(block >> 16);
    counter[14] = static_cast<uint8_t>(block >> 8);
    counter[15] = static_cast<uint8_t>(block);
    internal::PortableEncryptBlock(*this, counter, keystream);
    size_t take = n - off < 16 ? n - off : 16;
    for (size_t i = 0; i < take; ++i) out[off + i] = in[off + i] ^ keystream[i];
  }
}

}  // namespace csxa::crypto
