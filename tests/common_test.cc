// Unit tests for the common runtime: Status/Result, byte codecs, varints,
// bit vectors, RNG determinism, hex.

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/hex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/varint.h"

namespace csxa {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 9; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MacroPropagatesError) {
  auto inner = []() -> Result<int> { return Status::IoError("x"); };
  auto outer = [&]() -> Status {
    CSXA_ASSIGN_OR_RETURN(int v, inner());
    (void)v;
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kIoError);
}

TEST(BytesTest, WriterReaderRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0102030405060708ull);
  w.PutString("hello");
  ByteReader r(w.bytes());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU16(&u16));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0102030405060708ull);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, ReaderUnderflowLeavesCursor) {
  ByteWriter w;
  w.PutU8(1);
  ByteReader r(w.bytes());
  uint32_t v;
  EXPECT_FALSE(r.GetU32(&v));
  uint8_t b;
  EXPECT_TRUE(r.GetU8(&b));
  EXPECT_EQ(b, 1);
}

TEST(BytesTest, SpanSubspanClamps) {
  Bytes data = {1, 2, 3, 4};
  Span s(data);
  EXPECT_EQ(s.subspan(2).size(), 2u);
  EXPECT_EQ(s.subspan(10).size(), 0u);
  EXPECT_EQ(s.subspan(1, 2).size(), 2u);
  EXPECT_EQ(s.subspan(3, 10).size(), 1u);
}

TEST(VarintTest, RoundTripsBoundaries) {
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  16383, 16384,     UINT32_MAX,
                             UINT64_MAX, 0x8000000000000000ull};
  for (uint64_t v : values) {
    ByteWriter w;
    PutVarint(&w, v);
    EXPECT_EQ(w.size(), VarintLength(v));
    ByteReader r(w.bytes());
    uint64_t back;
    ASSERT_TRUE(GetVarint(&r, &back));
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(VarintTest, RejectsTruncated) {
  Bytes b = {0x80, 0x80};
  ByteReader r(b);
  uint64_t v;
  EXPECT_FALSE(GetVarint(&r, &v));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformIsInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    uint64_t r = rng.Range(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  size_t low = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rng.Zipf(100, 0.99) < 10) ++low;
  }
  EXPECT_GT(low, 800u);  // heavy head
}

TEST(HexTest, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abff");
  auto back = HexDecode(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(HexTest, RejectsOddAndInvalid) {
  EXPECT_FALSE(HexDecode("abc").ok());
  EXPECT_FALSE(HexDecode("zz").ok());
  EXPECT_TRUE(HexDecode("AbCd").ok());
}

}  // namespace
}  // namespace csxa
