// Unit tests for the crypto/compression substrate used by template packaging.
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "src/crypto/hmac.h"
#include "src/crypto/lzss.h"
#include "src/crypto/sha256.h"
#include "src/record/package_writer.h"

namespace dlt {
namespace {

TEST(Sha256Test, EmptyStringVector) {
  Sha256::Digest d = Sha256::Hash("", 0);
  EXPECT_EQ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            Sha256::HexDigest(d));
}

TEST(Sha256Test, AbcVector) {
  Sha256::Digest d = Sha256::Hash("abc", 3);
  EXPECT_EQ("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            Sha256::HexDigest(d));
}

TEST(Sha256Test, TwoBlockVector) {
  const char* msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  Sha256::Digest d = Sha256::Hash(msg, strlen(msg));
  EXPECT_EQ("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            Sha256::HexDigest(d));
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data(1000, 'x');
  Sha256 h;
  for (size_t i = 0; i < data.size(); i += 37) {
    h.Update(data.data() + i, std::min<size_t>(37, data.size() - i));
  }
  EXPECT_EQ(Sha256::HexDigest(Sha256::Hash(data.data(), data.size())),
            Sha256::HexDigest(h.Finalize()));
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths straddling the 55/56/64-byte padding boundaries.
  for (size_t n : {55u, 56u, 57u, 63u, 64u, 65u}) {
    std::string data(n, 'a');
    Sha256::Digest d1 = Sha256::Hash(data.data(), n);
    Sha256 h;
    h.Update(data.data(), n / 2);
    h.Update(data.data() + n / 2, n - n / 2);
    EXPECT_EQ(Sha256::HexDigest(d1), Sha256::HexDigest(h.Finalize())) << n;
  }
}

TEST(HmacTest, Rfc4231Case2) {
  // Key = "Jefe", data = "what do ya want for nothing?".
  Sha256::Digest d = HmacSha256("Jefe", "what do ya want for nothing?", 28);
  EXPECT_EQ("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            Sha256::HexDigest(d));
}

TEST(HmacTest, VerifyDetectsTamper) {
  std::string data = "interaction template payload";
  Sha256::Digest mac = HmacSha256("key", data.data(), data.size());
  EXPECT_TRUE(HmacVerify("key", data.data(), data.size(), mac));
  data[3] ^= 1;
  EXPECT_FALSE(HmacVerify("key", data.data(), data.size(), mac));
  data[3] ^= 1;
  EXPECT_FALSE(HmacVerify("other-key", data.data(), data.size(), mac));
}

TEST(HmacTest, LongKeysAreHashed) {
  std::string key(200, 'k');
  std::string data = "x";
  Sha256::Digest mac = HmacSha256(key, data.data(), data.size());
  EXPECT_TRUE(HmacVerify(key, data.data(), data.size(), mac));
}

TEST(LzssTest, EmptyInput) {
  std::vector<uint8_t> c = LzssCompress(nullptr, 0);
  Result<std::vector<uint8_t>> d = LzssDecompress(c.data(), c.size());
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->empty());
}

TEST(LzssTest, RepetitiveTextCompressesWell) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "ev kind=reg_write; dev=1; off=0x34; value=0x148; loc=driver.cc:42\n";
  }
  std::vector<uint8_t> c = LzssCompress(text.data(), text.size());
  EXPECT_LT(c.size(), text.size() / 4);
  Result<std::vector<uint8_t>> d = LzssDecompress(c.data(), c.size());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(0, std::memcmp(d->data(), text.data(), text.size()));
}

TEST(LzssTest, TruncatedStreamRejected) {
  std::string text = "aaaaaaaaaaaaaaaabbbbbbbbbbbbbbbb";
  std::vector<uint8_t> c = LzssCompress(text.data(), text.size());
  Result<std::vector<uint8_t>> d = LzssDecompress(c.data(), c.size() / 2);
  EXPECT_FALSE(d.ok());
}

// Writes |size| as a stream's little-endian u32 header.
void SetLzssHeader(std::vector<uint8_t>* stream, uint32_t size) {
  std::memcpy(stream->data(), &size, 4);
}

// Each 17 bytes after the header expand to at most 144 (a flag byte and eight
// 18-byte matches). A header past that bound is forged and refused before the
// decoder sizes its output by it; streams near the bound still decode.
TEST(LzssTest, ImpossibleHeadersAreCorrupt) {
  const std::vector<uint8_t> zeros(100000, 0);  // compresses close to the bound
  std::vector<uint8_t> c = LzssCompress(zeros.data(), zeros.size());
  const uint64_t bound = (c.size() - 4) * 144 / 17;
  ASSERT_LE(zeros.size(), bound);
  EXPECT_GT(zeros.size() * 10, bound * 9) << "zeros should compress near the bound";
  Result<std::vector<uint8_t>> d = LzssDecompress(c.data(), c.size());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(zeros, *d);
  for (uint64_t forged : {bound + 1, uint64_t{0x7fff'ffff}, uint64_t{0xffff'ffff}}) {
    SCOPED_TRACE(forged);
    SetLzssHeader(&c, static_cast<uint32_t>(forged));
    EXPECT_EQ(Status::kCorrupt, LzssDecompress(c.data(), c.size()).status());
  }
  // A bare header with no stream holds nothing.
  std::vector<uint8_t> bare(4);
  SetLzssHeader(&bare, 1);
  EXPECT_EQ(Status::kCorrupt, LzssDecompress(bare.data(), bare.size()).status());
}

// "abc" as literals, then one match copying it: six bytes. A header that ends
// inside that final match is corrupt, as is one past the end of the stream.
TEST(LzssTest, FinalMatchOverrunningHeaderIsCorrupt) {
  std::vector<uint8_t> stream = {0, 0, 0, 0, 0x07, 'a', 'b', 'c', 0x20, 0x00};
  SetLzssHeader(&stream, 6);
  Result<std::vector<uint8_t>> d = LzssDecompress(stream.data(), stream.size());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((std::vector<uint8_t>{'a', 'b', 'c', 'a', 'b', 'c'}), *d);
  for (uint32_t size : {4u, 5u, 7u}) {
    SCOPED_TRACE(size);
    SetLzssHeader(&stream, size);
    EXPECT_EQ(Status::kCorrupt, LzssDecompress(stream.data(), stream.size()).status());
  }
  // A match reaching back past the start of the output is corrupt too.
  stream[8] = 0x30;  // distance 4 after three bytes
  SetLzssHeader(&stream, 6);
  EXPECT_EQ(Status::kCorrupt, LzssDecompress(stream.data(), stream.size()).status());
}

class LzssRoundTripTest : public ::testing::TestWithParam<std::pair<size_t, uint32_t>> {};

TEST_P(LzssRoundTripTest, RandomDataRoundTrips) {
  auto [len, seed] = GetParam();
  std::mt19937 rng(seed);
  std::vector<uint8_t> data(len);
  for (auto& b : data) {
    // Skewed distribution: produces both compressible and incompressible runs.
    b = static_cast<uint8_t>(rng() % ((seed % 2) ? 8 : 256));
  }
  std::vector<uint8_t> c = LzssCompress(data.data(), data.size());
  Result<std::vector<uint8_t>> d = LzssDecompress(c.data(), c.size());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(data, *d);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LzssRoundTripTest,
                         ::testing::Values(std::make_pair(size_t{1}, 1u),
                                           std::make_pair(size_t{7}, 2u),
                                           std::make_pair(size_t{256}, 3u),
                                           std::make_pair(size_t{4096}, 4u),
                                           std::make_pair(size_t{4097}, 5u),
                                           std::make_pair(size_t{65536}, 6u),
                                           std::make_pair(size_t{100000}, 7u),
                                           std::make_pair(size_t{12345}, 8u)));

}  // namespace
}  // namespace dlt
