// Crypto substrate tests: FIPS-197 AES vectors, FIPS 180-4 SHA-256
// vectors, RFC 4231 HMAC vectors, mode round-trips and the container's
// tamper-detection property (every flipped bit is caught).
// The dispatch tests compare the hardware paths (AES-NI, SHA-NI) with the
// portable reference byte for byte; the golden digests pin the sealed
// formats, so no implementation change can move a ciphertext.

#include <gtest/gtest.h>

#include <cstring>

#include "alloc_counter.h"
#include "common/hex.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/blockseal.h"
#include "crypto/container.h"
#include "crypto/keys.h"
#include "crypto/modes.h"
#include "crypto/sha256.h"

namespace csxa {
namespace {

using crypto::Aes128;
using crypto::Digest;
using crypto::DocCipher;
using crypto::HmacKey;
using crypto::SecureContainer;
using crypto::Sha256;
using crypto::SymmetricKey;

Bytes FromHex(const std::string& h) { return HexDecode(h).value(); }

Bytes RandomBytes(Rng* rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng->Next());
  return out;
}

std::string DigestHex(const Digest& d) { return HexEncode(Span(d.data(), d.size())); }

TEST(AesTest, Fips197AppendixCVector) {
  // FIPS-197 C.1: AES-128 with key 000102...0f on plaintext 00112233...
  Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  Bytes plain = FromHex("00112233445566778899aabbccddeeff");
  auto aes = Aes128::New(key);
  ASSERT_TRUE(aes.ok());
  uint8_t out[16];
  aes.value().EncryptBlock(plain.data(), out);
  EXPECT_EQ(HexEncode(Span(out, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.value().DecryptBlock(out, back);
  EXPECT_EQ(HexEncode(Span(back, 16)), HexEncode(plain));
}

TEST(AesTest, Fips197KeyExpansionVector) {
  // Appendix B known ciphertext for key 2b7e1516... / plaintext 3243f6a8...
  Bytes key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes plain = FromHex("3243f6a8885a308d313198a2e0370734");
  auto aes = Aes128::New(key).value();
  uint8_t out[16];
  aes.EncryptBlock(plain.data(), out);
  EXPECT_EQ(HexEncode(Span(out, 16)), "3925841d02dc09fbdc118597196a0b32");
}

TEST(AesTest, RejectsBadKeySize) {
  Bytes key(15, 0);
  EXPECT_FALSE(Aes128::New(key).ok());
}

TEST(Sha256Test, Fips180Vectors) {
  EXPECT_EQ(HexEncode(Span(Sha256::Hash(Span(std::string("abc"))).data(), 32)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexEncode(Span(Sha256::Hash(Span(std::string(""))).data(), 32)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      HexEncode(Span(
          Sha256::Hash(Span(std::string(
                           "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))
              .data(),
          32)),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(Span(chunk));
  EXPECT_EQ(HexEncode(Span(h.Finish().data(), 32)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(5);
  Bytes data;
  for (int i = 0; i < 3000; ++i) data.push_back(static_cast<uint8_t>(rng.Next()));
  Digest oneshot = Sha256::Hash(data);
  Sha256 h;
  size_t pos = 0;
  while (pos < data.size()) {
    size_t n = 1 + rng.Uniform(97);
    if (n > data.size() - pos) n = data.size() - pos;
    h.Update(Span(data.data() + pos, n));
    pos += n;
  }
  EXPECT_EQ(HexEncode(Span(h.Finish().data(), 32)),
            HexEncode(Span(oneshot.data(), 32)));
}

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Digest mac = crypto::HmacSha256(key, Span(std::string("Hi There")));
  EXPECT_EQ(HexEncode(Span(mac.data(), 32)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Digest mac = crypto::HmacSha256(Span(std::string("Jefe")),
                                  Span(std::string("what do ya want for nothing?")));
  EXPECT_EQ(HexEncode(Span(mac.data(), 32)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Digest mac = crypto::HmacSha256(Bytes(20, 0xaa), Bytes(50, 0xdd));
  EXPECT_EQ(DigestHex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  Bytes key;
  for (uint8_t b = 1; b <= 25; ++b) key.push_back(b);
  Digest mac = crypto::HmacSha256(key, Bytes(50, 0xcd));
  EXPECT_EQ(DigestHex(mac),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// Cases 6 and 7 use a 131-byte key: HmacKey must hash it down first.
TEST(HmacTest, Rfc4231Case6) {
  HmacKey key(Bytes(131, 0xaa));
  Digest mac = key.Mac(
      Span(std::string("Test Using Larger Than Block-Size Key - Hash Key First")));
  EXPECT_EQ(DigestHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7) {
  HmacKey key(Bytes(131, 0xaa));
  Digest mac = key.Mac(Span(std::string(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.")));
  EXPECT_EQ(DigestHex(mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// HmacKey against HMAC written out from its definition, for keys on both
// sides of the 64-byte block, and the streaming form against one-shot.
TEST(HmacTest, HmacKeyMatchesDefinition) {
  Rng rng(4231);
  for (size_t key_len : {0u, 1u, 16u, 32u, 63u, 64u, 65u, 100u, 150u}) {
    Bytes raw_key = RandomBytes(&rng, key_len);
    HmacKey key(raw_key);
    Bytes block_key(64, 0);
    if (key_len > 64) {
      Digest d = Sha256::Hash(raw_key);
      std::copy(d.begin(), d.end(), block_key.begin());
    } else {
      std::copy(raw_key.begin(), raw_key.end(), block_key.begin());
    }
    for (size_t len : {0u, 1u, 55u, 56u, 64u, 285u, 1000u}) {
      Bytes data = RandomBytes(&rng, len);
      Bytes inner_msg, outer_msg;
      for (uint8_t b : block_key) inner_msg.push_back(b ^ 0x36);
      inner_msg.insert(inner_msg.end(), data.begin(), data.end());
      Digest inner = Sha256::Hash(inner_msg);
      for (uint8_t b : block_key) outer_msg.push_back(b ^ 0x5c);
      outer_msg.insert(outer_msg.end(), inner.begin(), inner.end());
      const std::string expected = DigestHex(Sha256::Hash(outer_msg));

      EXPECT_EQ(DigestHex(key.Mac(data)), expected) << key_len << "/" << len;
      EXPECT_EQ(DigestHex(crypto::HmacSha256(raw_key, data)), expected);
      Sha256 streamed = key.Begin();
      streamed.Update(Span(data.data(), len / 3));
      streamed.Update(Span(data.data() + len / 3, len - len / 3));
      EXPECT_EQ(DigestHex(key.Finish(streamed)), expected);
    }
  }
}

// --- Hardware paths vs the portable reference ------------------------------

// CTR as the portable cipher defines it: counter block i is
// iv[0..12) || BE32(i).
Bytes ReferenceCtr(const Aes128& aes, const crypto::Iv& iv, const Bytes& in) {
  Bytes out(in.size());
  uint8_t counter[16], keystream[16];
  std::memcpy(counter, iv.data(), 16);
  for (size_t off = 0; off < in.size(); off += 16) {
    uint32_t block = static_cast<uint32_t>(off / 16);
    counter[12] = static_cast<uint8_t>(block >> 24);
    counter[13] = static_cast<uint8_t>(block >> 16);
    counter[14] = static_cast<uint8_t>(block >> 8);
    counter[15] = static_cast<uint8_t>(block);
    crypto::internal::PortableEncryptBlock(aes, counter, keystream);
    for (size_t i = 0; i < 16 && off + i < in.size(); ++i) {
      out[off + i] = in[off + i] ^ keystream[i];
    }
  }
  return out;
}

// SHA-256 over the portable compression function, padding written out.
Digest ReferenceSha256(const Bytes& data) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded = data;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  crypto::internal::PortableCompress(state, padded.data(), padded.size() / 64);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

// The published vectors hold on the portable reference too, whichever path
// the dispatcher picked on this host.
TEST(PortableVectorTest, Fips197Fips180AndRfc4231) {
  auto aes = Aes128::New(FromHex("000102030405060708090a0b0c0d0e0f")).value();
  Bytes plain = FromHex("00112233445566778899aabbccddeeff");
  uint8_t out[16], back[16];
  crypto::internal::PortableEncryptBlock(aes, plain.data(), out);
  EXPECT_EQ(HexEncode(Span(out, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  crypto::internal::PortableDecryptBlock(aes, out, back);
  EXPECT_EQ(HexEncode(Span(back, 16)), HexEncode(plain));

  auto text = [](const std::string& s) { return Bytes(s.begin(), s.end()); };
  EXPECT_EQ(DigestHex(ReferenceSha256(text("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestHex(ReferenceSha256(text(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");

  // RFC 4231 case 2 through the portable compression function.
  Bytes key = text("Jefe");
  key.resize(64, 0);
  Bytes inner, outer;
  for (uint8_t b : key) inner.push_back(b ^ 0x36);
  Bytes msg = text("what do ya want for nothing?");
  inner.insert(inner.end(), msg.begin(), msg.end());
  Digest inner_digest = ReferenceSha256(inner);
  for (uint8_t b : key) outer.push_back(b ^ 0x5c);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  EXPECT_EQ(DigestHex(ReferenceSha256(outer)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(AesDispatchTest, BlocksMatchPortable) {
  if (!crypto::internal::HasAesNi()) {
    GTEST_SKIP() << "CPU lacks AES-NI: the dispatched path is the portable one";
  }
  Rng rng(197);
  for (int k = 0; k < 64; ++k) {
    auto aes = Aes128::New(RandomBytes(&rng, 16)).value();
    for (int b = 0; b < 16; ++b) {
      Bytes in = RandomBytes(&rng, 16);
      uint8_t fast[16], slow[16];
      aes.EncryptBlock(in.data(), fast);
      crypto::internal::PortableEncryptBlock(aes, in.data(), slow);
      ASSERT_EQ(0, std::memcmp(fast, slow, 16)) << "encrypt key " << k;
      aes.DecryptBlock(in.data(), fast);
      crypto::internal::PortableDecryptBlock(aes, in.data(), slow);
      ASSERT_EQ(0, std::memcmp(fast, slow, 16)) << "decrypt key " << k;
    }
  }
}

// Every length 0..300 crosses the four-block (64 B) pipeline, the single
// block loop and the partial tail; the IV's low bytes are random to check
// that the counter overwrites them on both paths.
TEST(AesDispatchTest, CtrMatchesPortableAtEveryLength) {
  if (!crypto::internal::HasAesNi()) {
    GTEST_SKIP() << "CPU lacks AES-NI: the dispatched path is the portable one";
  }
  Rng rng(300);
  for (size_t len = 0; len <= 300; ++len) {
    auto aes = Aes128::New(RandomBytes(&rng, 16)).value();
    crypto::Iv iv;
    Bytes iv_bytes = RandomBytes(&rng, 16);
    std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());
    Bytes plain = RandomBytes(&rng, len);
    Bytes cipher;
    crypto::CtrTransform(aes, iv, plain, &cipher);
    ASSERT_EQ(cipher, ReferenceCtr(aes, iv, plain)) << "len " << len;
    Bytes in_place = plain;
    crypto::CtrTransform(aes, iv, in_place, &in_place);
    ASSERT_EQ(in_place, cipher) << "in-place len " << len;
  }
}

TEST(ShaDispatchTest, HashMatchesPortable) {
  if (!crypto::internal::HasShaNi()) {
    GTEST_SKIP() << "CPU lacks SHA-NI: the dispatched path is the portable one";
  }
  Rng rng(180);
  for (size_t len = 0; len <= 200; ++len) {  // includes 55/56/63/64/119/120
    Bytes data = RandomBytes(&rng, len);
    ASSERT_EQ(DigestHex(Sha256::Hash(data)), DigestHex(ReferenceSha256(data)))
        << "len " << len;
  }
  Bytes big = RandomBytes(&rng, 1 << 20);
  EXPECT_EQ(DigestHex(Sha256::Hash(big)), DigestHex(ReferenceSha256(big)));
}

// Sealed bytes are pinned: these digests were produced by the portable
// implementation before the hardware paths existed. A fixed key, RNG seed
// and nonce sequence must keep producing exactly these containers and
// blocks on every path.
TEST(GoldenFormatTest, SealedBytesArePinned) {
  {
    Rng rng(20261017);
    SymmetricKey key = SymmetricKey::Generate(&rng);
    Bytes payload = RandomBytes(&rng, 5000);
    Bytes sealed = SecureContainer::Seal(key, payload, 256, &rng);
    EXPECT_EQ(DigestHex(Sha256::Hash(sealed)),
              "0850bc5e31b333f1c4477fde2b81ea4d3172f0cbb0a17496229f9a2134598ea6");
  }
  Rng rng(77);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  crypto::NonceSequence nonces(0x0123456789abcdefULL);
  Bytes block = crypto::SealBlock(key, "golden-store", 9, Bytes(3000, 0x5c),
                                  &nonces);
  EXPECT_EQ(DigestHex(Sha256::Hash(block)),
            "fea56c9c1140d623864e385f3fc2f0b584312927ee307a58a102ad4ce8daaba3");
  Bytes record = crypto::SealBlock(key, "golden-store#manifest", 3,
                                   Bytes(100, 0x11), &nonces, 512);
  EXPECT_EQ(DigestHex(Sha256::Hash(record)),
            "68d925dd15800bd5661920130af6fd5992728f04a3d7d3ad2cabd3cd3ba9cbe2");
}

TEST(ModesTest, CtrRoundTripAllLengths) {
  auto aes = Aes128::New(FromHex("000102030405060708090a0b0c0d0e0f")).value();
  crypto::Iv iv{};
  Rng rng(9);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
    Bytes plain;
    for (size_t i = 0; i < len; ++i) plain.push_back(static_cast<uint8_t>(rng.Next()));
    Bytes cipher, back;
    crypto::CtrTransform(aes, iv, plain, &cipher);
    crypto::CtrTransform(aes, iv, cipher, &back);
    EXPECT_EQ(plain, back) << len;
    if (len >= 16) {
      EXPECT_NE(plain, cipher);
    }
  }
}

TEST(ModesTest, DerivedIvsDiffer) {
  Bytes nonce(16, 7);
  auto iv0 = crypto::DeriveCtrIv(nonce, 0);
  auto iv1 = crypto::DeriveCtrIv(nonce, 1);
  EXPECT_NE(HexEncode(Span(iv0.data(), 16)), HexEncode(Span(iv1.data(), 16)));
}

TEST(KeysTest, DerivationIsLabelSeparated) {
  Rng rng(1);
  SymmetricKey k = SymmetricKey::Generate(&rng);
  EXPECT_FALSE(k.Derive("enc") == k.Derive("mac"));
  EXPECT_TRUE(k.Derive("enc") == k.Derive("enc"));
}

TEST(ContainerModeTest, SealOpenRoundTrip) {
  Rng rng(2);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  Bytes payload;
  for (int i = 0; i < 5000; ++i) payload.push_back(static_cast<uint8_t>(i * 7));
  Bytes sealed = SecureContainer::Seal(key, payload, 512, &rng);
  auto opened = SecureContainer::OpenAll(key, sealed);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value(), payload);
}

TEST(ContainerModeTest, EmptyPayload) {
  Rng rng(3);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  Bytes sealed = SecureContainer::Seal(key, Bytes{}, 256, &rng);
  auto opened = SecureContainer::OpenAll(key, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().empty());
}

TEST(ContainerModeTest, WrongKeyFailsRootMac) {
  Rng rng(4);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  SymmetricKey other = SymmetricKey::Generate(&rng);
  Bytes sealed = SecureContainer::Seal(key, Bytes(1000, 1), 256, &rng);
  auto opened = SecureContainer::OpenAll(other, sealed);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIntegrityError);
}

// Property: every single-bit flip anywhere in the container is detected.
TEST(ContainerModeTest, AnyBitFlipIsDetected) {
  Rng rng(5);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  Bytes payload;
  for (int i = 0; i < 700; ++i) payload.push_back(static_cast<uint8_t>(rng.Next()));
  Bytes sealed = SecureContainer::Seal(key, payload, 128, &rng);
  // Sample bit positions across the whole container (every byte would be
  // slow; step through with a prime stride).
  for (size_t pos = 0; pos < sealed.size(); pos += 13) {
    Bytes tampered = sealed;
    tampered[pos] ^= 0x01;
    auto opened = SecureContainer::OpenAll(key, tampered);
    EXPECT_FALSE(opened.ok()) << "undetected flip at byte " << pos;
  }
}

TEST(ContainerModeTest, ChunkSubstitutionDetected) {
  Rng rng(6);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  Bytes payload(1024, 0xAA);
  Bytes sealed = SecureContainer::Seal(key, payload, 256, &rng);
  auto container = SecureContainer::Parse(sealed).value();
  ASSERT_TRUE(SecureContainer::VerifyRoot(key, container.header()).ok());
  // Serve chunk 2's ciphertext with chunk 1's auth material and index.
  auto cipher2 = container.ChunkCiphertext(2).value();
  auto auth1 = container.GetChunkAuth(1).value();
  auto res = SecureContainer::VerifyAndDecryptChunk(key, container.header(), 1,
                                                    cipher2, auth1);
  EXPECT_FALSE(res.ok());
}

// The per-document context gives the same answers as the key it came
// from, and rejects exactly what the key-based path rejects.
TEST(ContainerModeTest, ContextVerifyMatchesKeyVerify) {
  Rng rng(8);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  Bytes payload = RandomBytes(&rng, 1500);
  Bytes sealed = SecureContainer::Seal(key, payload, 256, &rng);
  auto container = SecureContainer::Parse(sealed).value();
  const DocCipher cipher = DocCipher::For(key);
  ASSERT_TRUE(SecureContainer::VerifyRoot(cipher, container.header()).ok());
  for (uint32_t i = 0; i < container.header().chunk_count; ++i) {
    Span chunk = container.ChunkCiphertext(i).value();
    auto auth = container.GetChunkAuth(i).value();
    auto by_key = SecureContainer::VerifyAndDecryptChunk(
        key, container.header(), i, chunk, auth);
    auto by_context = SecureContainer::VerifyAndDecryptChunk(
        cipher, container.header(), i, chunk, auth);
    ASSERT_TRUE(by_key.ok());
    ASSERT_TRUE(by_context.ok());
    EXPECT_EQ(by_key.value(), by_context.value()) << i;

    Bytes flipped = chunk.ToBytes();
    flipped[flipped.size() / 2] ^= 0x04;
    EXPECT_FALSE(SecureContainer::VerifyAndDecryptChunk(
                     cipher, container.header(), i, flipped, auth)
                     .ok())
        << i;
  }
  // Chunk 1 shipped with chunk 2's authentication material.
  auto swapped = SecureContainer::VerifyAndDecryptChunk(
      cipher, container.header(), 1, container.ChunkCiphertext(1).value(),
      container.GetChunkAuth(2).value());
  EXPECT_FALSE(swapped.ok());
  EXPECT_FALSE(
      SecureContainer::VerifyRoot(DocCipher::For(SymmetricKey::Generate(&rng)),
                                  container.header())
          .ok());
}

// The card's per-chunk step: once the output buffer holds a full chunk,
// verify+decrypt allocates nothing. The MAC prefix is built on the stack
// and the ciphertext streamed into the hasher; the plaintext lands in the
// reused buffer.
TEST(ContainerTest, ChunkMacVerifyAndDecryptIsAllocationFreeAfterWarmUp) {
  Rng rng(62);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  Bytes payload = RandomBytes(&rng, 2000);
  Bytes sealed = SecureContainer::Seal(key, payload, 256, &rng);
  auto container = SecureContainer::Parse(sealed).value();
  const crypto::ContainerHeader& header = container.header();
  const DocCipher cipher = DocCipher::For(key);
  std::vector<Span> chunks;
  std::vector<crypto::ChunkAuth> auths;
  for (uint32_t i = 0; i < header.chunk_count; ++i) {
    chunks.push_back(container.ChunkCiphertext(i).value());
    auths.push_back(container.GetChunkAuth(i).value());
  }
  Bytes plain;
  ASSERT_TRUE(SecureContainer::VerifyAndDecryptChunk(cipher, header, 0,
                                                     chunks[0], auths[0],
                                                     &plain)
                  .ok());  // warm-up: grows `plain` to a full chunk

  bool all_match = true;
  size_t allocations = CountAllocations([&] {
    for (uint32_t i = 0; i < header.chunk_count; ++i) {
      all_match &= SecureContainer::VerifyAndDecryptChunk(
                       cipher, header, i, chunks[i], auths[i], &plain)
                       .ok() &&
                   std::memcmp(plain.data(), payload.data() + i * 256,
                               plain.size()) == 0;
    }
  });
  EXPECT_TRUE(all_match);
  EXPECT_EQ(allocations, 0u) << "over " << header.chunk_count << " chunks";
  // The counter is live: the owning overload allocates its result.
  EXPECT_GT(CountAllocations([&] {
              auto owned = SecureContainer::VerifyAndDecryptChunk(
                  cipher, header, 1, chunks[1], auths[1]);
              all_match &= owned.ok();
            }),
            0u);

  // A rejected chunk leaves the buffer as it was.
  Bytes before = plain;
  Bytes flipped = chunks[2].ToBytes();
  flipped[0] ^= 0x01;
  EXPECT_FALSE(SecureContainer::VerifyAndDecryptChunk(cipher, header, 2,
                                                      flipped, auths[2],
                                                      &plain)
                   .ok());
  EXPECT_EQ(plain, before);
}

// A chunk's authentication is its 32 B keyed chunk MAC, stored in the
// table right after the header, whatever the container's size.
TEST(ContainerTest, ChunkAuthIsTheStoredChunkMac) {
  Rng rng(61);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  const HmacKey mac = DocCipher::For(key).mac;
  for (uint32_t chunks : {1u, 5u, 300u}) {
    Bytes sealed = SecureContainer::Seal(key, Bytes(chunks * 128 - 7, 0x33),
                                         128, &rng);
    auto container = SecureContainer::Parse(sealed).value();
    ASSERT_EQ(container.header().chunk_count, chunks);
    ASSERT_EQ(sealed.size(), crypto::ContainerHeader::kWireSize +
                                 chunks * 32 + container.header().payload_size);
    for (uint32_t i : {0u, chunks / 2, chunks - 1}) {
      crypto::ChunkAuth auth = container.GetChunkAuth(i).value();
      static_assert(sizeof(auth) == 32);
      EXPECT_TRUE(Span(auth.data(), auth.size()) ==
                  Span(sealed).subspan(
                      crypto::ContainerHeader::kWireSize + i * 32, 32));
      EXPECT_EQ(auth, SecureContainer::ComputeChunkMac(
                          mac, container.header(), i,
                          container.ChunkCiphertext(i).value()));
    }
  }
}

// The header's mode byte and the 32-byte field before its root MAC are
// reserved and zero: chunk MACs are the one integrity scheme. A header
// with either byte set does not parse, before any key is involved.
TEST(ContainerTest, HeaderRejectsNonZeroReservedBytes) {
  Rng rng(63);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  Bytes sealed = SecureContainer::Seal(key, Bytes(600, 0x21), 256, &rng);
  ASSERT_TRUE(SecureContainer::OpenAll(key, sealed).ok());
  constexpr size_t kModeByte = 4 + 1;  // after magic and version
  constexpr size_t kReserved = 4 + 1 + 1 + 16 + 4 + 8 + 4;  // 32 B field
  EXPECT_EQ(sealed[kModeByte], 0);
  for (size_t i = 0; i < 32; ++i) EXPECT_EQ(sealed[kReserved + i], 0) << i;
  for (size_t pos : {kModeByte, kReserved, kReserved + 17, kReserved + 31}) {
    for (uint8_t value : {uint8_t{1}, uint8_t{0x80}}) {
      Bytes bad = sealed;
      bad[pos] = value;
      ByteReader r(bad);
      EXPECT_EQ(crypto::ContainerHeader::DecodeFrom(&r).status().code(),
                StatusCode::kParseError)
          << pos;
      EXPECT_EQ(SecureContainer::Parse(bad).status().code(),
                StatusCode::kParseError)
          << pos;
    }
  }
}

}  // namespace
}  // namespace csxa
