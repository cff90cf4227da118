// EXP-CRYPTO — the crypto substrate (§2.1: "the cost of decryption in the
// SOE" is one of the two limiting factors).
//
// Host throughput of each primitive plus, as counters, the modeled e-gate
// card time per kilobyte — the number the end-to-end decomposition in
// bench_end_to_end builds on. The *Portable rows run the portable
// reference on every host; the plain rows run whichever path the CPU
// dispatch picked (AES-NI / SHA-NI where available), so the pair shows the
// hardware speed-up on the machine at hand. The hot-unit rows time what
// the serving stack does per chunk and per block.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/blockseal.h"
#include "crypto/container.h"
#include "crypto/keys.h"
#include "crypto/modes.h"
#include "crypto/sha256.h"
#include "soe/card_profile.h"

namespace {

using namespace csxa;
using crypto::Aes128;
using crypto::SymmetricKey;

Bytes RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

void BM_AesBlockEncrypt(benchmark::State& state) {
  auto aes = Aes128::New(RandomBytes(16, 1)).value();
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesBlockEncrypt);

void BM_CtrTransform(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto aes = Aes128::New(RandomBytes(16, 2)).value();
  Bytes data = RandomBytes(n, 3);
  crypto::Iv iv{};
  Bytes out;
  for (auto _ : state) {
    crypto::CtrTransform(aes, iv, data, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  // Modeled card time for this buffer (crypto coprocessor).
  soe::CardProfile card = soe::CardProfile::EGate();
  state.counters["card_ms"] =
      1e3 * static_cast<double>(n) * card.cycles_per_byte_decrypt /
      (card.cpu_mhz * 1e6);
}
BENCHMARK(BM_CtrTransform)->Arg(512)->Arg(4096)->Arg(65536);

// The portable CTR loop, as the fallback path runs it.
void BM_CtrTransformPortable(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto aes = Aes128::New(RandomBytes(16, 2)).value();
  Bytes data = RandomBytes(n, 3);
  Bytes out(n);
  uint8_t counter[16] = {0};
  uint8_t keystream[16];
  for (auto _ : state) {
    for (size_t off = 0; off < n; off += 16) {
      counter[15] = static_cast<uint8_t>(off / 16);
      crypto::internal::PortableEncryptBlock(aes, counter, keystream);
      for (size_t i = 0; i < 16 && off + i < n; ++i) {
        out[off + i] = data[off + i] ^ keystream[i];
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CtrTransformPortable)->Arg(512)->Arg(4096)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Bytes data = RandomBytes(n, 4);
  for (auto _ : state) {
    auto digest = crypto::Sha256::Hash(data);
    benchmark::DoNotOptimize(digest.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Sha256)->Arg(512)->Arg(4096)->Arg(65536);

// The portable compression function over the same bytes (whole blocks, no
// padding block: a lower bound on a portable Sha256::Hash).
void BM_Sha256Portable(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Bytes data = RandomBytes(n, 4);
  for (auto _ : state) {
    uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    crypto::internal::PortableCompress(h, data.data(), n / 64);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Sha256Portable)->Arg(512)->Arg(4096)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = RandomBytes(16, 5);
  Bytes data = RandomBytes(512, 6);
  for (auto _ : state) {
    auto mac = crypto::HmacSha256(key, data);
    benchmark::DoNotOptimize(mac.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_HmacSha256);

// One chunk MAC's worth of input (5 + 4 label, 16 nonce, 4 + 4 geometry,
// 256 ciphertext) under a key whose pads were absorbed once.
void BM_HmacKeyMac(benchmark::State& state) {
  crypto::HmacKey key(RandomBytes(16, 5));
  Bytes data = RandomBytes(285, 6);
  for (auto _ : state) {
    auto mac = key.Mac(data);
    benchmark::DoNotOptimize(mac.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 285);
}
BENCHMARK(BM_HmacKeyMac);

// The card session's per-chunk unit: verify the chunk MAC, then decrypt
// one 256-byte chunk. The Key row re-derives the sub-keys from the
// document key on every call; the Context row uses the per-document
// DocCipher a ChunkSource holds for its whole session.
// A sealed one-chunk (256 B) container and the key it was sealed under.
std::pair<SymmetricKey, Bytes> OneChunkContainer() {
  Rng rng(14);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  Bytes sealed =
      crypto::SecureContainer::Seal(key, RandomBytes(256, 15), 256, &rng);
  return {key, std::move(sealed)};
}

void BM_VerifyAndDecryptChunkKey(benchmark::State& state) {
  auto [key, sealed] = OneChunkContainer();
  auto container = crypto::SecureContainer::Parse(sealed).value();
  Span cipher = container.ChunkCiphertext(0).value();
  auto auth = container.GetChunkAuth(0).value();
  for (auto _ : state) {
    auto plain = crypto::SecureContainer::VerifyAndDecryptChunk(
        key, container.header(), 0, cipher, auth);
    CSXA_CHECK(plain.ok());
    benchmark::DoNotOptimize(plain.value().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_VerifyAndDecryptChunkKey);

void BM_VerifyAndDecryptChunkContext(benchmark::State& state) {
  auto [key, sealed] = OneChunkContainer();
  auto container = crypto::SecureContainer::Parse(sealed).value();
  Span cipher = container.ChunkCiphertext(0).value();
  auto auth = container.GetChunkAuth(0).value();
  const crypto::DocCipher context = crypto::DocCipher::For(key);
  for (auto _ : state) {
    auto plain = crypto::SecureContainer::VerifyAndDecryptChunk(
        context, container.header(), 0, cipher, auth);
    CSXA_CHECK(plain.ok());
    benchmark::DoNotOptimize(plain.value().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_VerifyAndDecryptChunkContext);

// The durable store's per-block units on a full 4 KB block, with the
// store's once-derived context.
void BM_SealBlock(benchmark::State& state) {
  Rng rng(16);
  const crypto::DocCipher context =
      crypto::BlockCipher(SymmetricKey::Generate(&rng));
  Bytes payload = RandomBytes(crypto::kBlockPayloadCapacity, 17);
  crypto::NonceSequence nonces(18);
  uint64_t index = 0;
  for (auto _ : state) {
    Bytes block =
        crypto::SealBlock(context, "bench-store", index++, payload, &nonces);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(crypto::kSealedBlockSize));
}
BENCHMARK(BM_SealBlock);

void BM_OpenBlock(benchmark::State& state) {
  Rng rng(19);
  const crypto::DocCipher context =
      crypto::BlockCipher(SymmetricKey::Generate(&rng));
  crypto::NonceSequence nonces(20);
  Bytes block =
      crypto::SealBlock(context, "bench-store", 7,
                        RandomBytes(crypto::kBlockPayloadCapacity, 21), &nonces);
  for (auto _ : state) {
    auto payload = crypto::OpenBlock(context, "bench-store", 7, block);
    CSXA_CHECK(payload.ok());
    benchmark::DoNotOptimize(payload.value().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(crypto::kSealedBlockSize));
}
BENCHMARK(BM_OpenBlock);

void BM_ContainerSeal(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(10);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  Bytes payload = RandomBytes(n, 11);
  for (auto _ : state) {
    Bytes sealed = crypto::SecureContainer::Seal(key, payload, 512, &rng);
    benchmark::DoNotOptimize(sealed.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ContainerSeal)->Arg(4096)->Arg(65536);

void BM_ContainerOpenAll(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(12);
  SymmetricKey key = SymmetricKey::Generate(&rng);
  Bytes payload = RandomBytes(n, 13);
  Bytes sealed = crypto::SecureContainer::Seal(key, payload, 512, &rng);
  for (auto _ : state) {
    auto opened = crypto::SecureContainer::OpenAll(key, sealed);
    CSXA_CHECK(opened.ok());
    benchmark::DoNotOptimize(opened.value().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ContainerOpenAll)->Arg(4096)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
