#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace csxa::crypto {

namespace {
constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// SHA-NI compression. The state lives in two registers in the order the
// sha256rnds2 instruction wants (ABEF, CDGH); each loop iteration runs four
// rounds, and from the fifth group on derives the next four message words
// with sha256msg1/msg2 from the previous sixteen.
__attribute__((target("sha,sse4.1"))) void ShaNiCompress(
    uint32_t state[8], const uint8_t* blocks, size_t count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);      // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i w[4];  // message words 4g..4g+3 of the last four groups
    for (int g = 0; g < 16; ++g) {
      __m128i words;
      if (g < 4) {
        words = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kByteSwap);
      } else {
        words = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        words = _mm_add_epi32(words,
                              _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        words = _mm_sha256msg2_epu32(words, w[(g + 3) & 3]);
      }
      w[g & 3] = words;
      __m128i wk = _mm_add_epi32(
          words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      state0 =
          _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0E));
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);             // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);          // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);       // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);          // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#endif  // defined(__x86_64__)

}  // namespace

namespace internal {

bool HasShaNi() {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
#else
  return false;
#endif
}

void PortableCompress(uint32_t state[8], const uint8_t* blocks,
                      size_t count) {
  for (; count > 0; --count, blocks += 64) {
    const uint8_t* block = blocks;
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
             static_cast<uint32_t>(block[4 * i + 1]) << 16 |
             static_cast<uint32_t>(block[4 * i + 2]) << 8 |
             static_cast<uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

}  // namespace internal

void Sha256::Reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::ProcessBlocks(const uint8_t* blocks, size_t count) {
#if defined(__x86_64__)
  if (internal::HasShaNi()) return ShaNiCompress(h_, blocks, count);
#endif
  internal::PortableCompress(h_, blocks, count);
}

void Sha256::Update(Span data) {
  total_len_ += data.size();
  size_t off = 0;
  if (buf_len_ > 0) {
    size_t take = 64 - buf_len_;
    if (take > data.size()) take = data.size();
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      ProcessBlocks(buf_, 1);
      buf_len_ = 0;
    }
  }
  const size_t whole = (data.size() - off) / 64;
  if (whole > 0) {
    ProcessBlocks(data.data() + off, whole);
    off += whole * 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72];
  size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(Span(pad, pad_len + 8));
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Digest Sha256::Hash(Span data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

HmacKey::HmacKey(Span key) {
  uint8_t k[64];
  std::memset(k, 0, sizeof(k));
  if (key.size() > 64) {
    Digest d = Sha256::Hash(key);
    std::memcpy(k, d.data(), d.size());
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }
  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.Update(Span(ipad, 64));
  outer_.Update(Span(opad, 64));
}

Digest HmacKey::Mac(Span data) const {
  Sha256 inner = inner_;
  inner.Update(data);
  return Finish(inner);
}

Digest HmacKey::Finish(Sha256 inner) const {
  Digest id = inner.Finish();
  Sha256 outer = outer_;
  outer.Update(Span(id.data(), id.size()));
  return outer.Finish();
}

Digest HmacSha256(Span key, Span data) { return HmacKey(key).Mac(data); }

bool ConstantTimeEqual(Span a, Span b) {
  if (a.size() != b.size()) return false;
  // volatile keeps the compiler from short-circuiting the accumulation.
  volatile uint8_t acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<uint8_t>(acc | (a.data()[i] ^ b.data()[i]));
  }
  return acc == 0;
}

}  // namespace csxa::crypto
