// Unit + property tests for src/serial: writer/reader round trips, varint
// encodings, bounds checking, typed codec, and bit accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "data/key.hpp"
#include "rng/rng.hpp"
#include "serial/codec.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

TEST(Serial, FixedWidthRoundTrip) {
  Writer w;
  w.put_u8(0xAB);
  w.put_u16(0xCDEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i64(-42);
  w.put_f64(3.25);
  w.put_bool(true);

  Reader r(w.buffer());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xCDEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.25);
  EXPECT_TRUE(r.get_bool());
  EXPECT_TRUE(r.exhausted());
}

/// The buffer as plain ints, for exact byte comparisons.
std::vector<int> bytes_of(const Bytes& b) {
  std::vector<int> out;
  for (const std::byte x : b) out.push_back(std::to_integer<int>(x));
  return out;
}

TEST(Serial, LittleEndianLayout) {
  Writer w;
  w.put_u32(0x01020304);
  const Bytes& b = w.buffer();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(std::to_integer<int>(b[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(b[3]), 0x01);

  // Known answers for every fixed-width writer, back to back in one
  // buffer: each value's least significant byte goes first.
  Writer all;
  all.put_u16(0xA1B2);
  all.put_u32(0xC1D2E3F4);
  all.put_u64(0x0102030405060708ULL);
  all.put_f64(-2.5);  // IEEE-754: 0xC004000000000000
  all.put_u8(0x7F);
  EXPECT_EQ(bytes_of(all.buffer()),
            (std::vector<int>{0xB2, 0xA1,                                    // u16
                              0xF4, 0xE3, 0xD2, 0xC1,                        // u32
                              0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
                              0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xC0,  // f64
                              0x7F}));
}

TEST(Serial, LittleEndianLayoutPastInitialReservation) {
  // Enough fixed-width fields to outgrow the writer's first reservation
  // several times over: regrowth must neither drop nor reorder bytes.
  Writer w;
  std::vector<int> expected;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t v = 0x1111111111111111ULL * (i % 15) + i;
    w.put_u64(v);
    for (int shift = 0; shift < 64; shift += 8) {
      expected.push_back(static_cast<int>((v >> shift) & 0xFF));
    }
    w.put_u16(static_cast<std::uint16_t>(i * 257));
    expected.push_back(static_cast<int>((i * 257) & 0xFF));
    expected.push_back(static_cast<int>(((i * 257) >> 8) & 0xFF));
    w.put_varint(i);  // i < 128: one byte
    expected.push_back(static_cast<int>(i));
  }
  ASSERT_EQ(w.size(), 100u * 11u);
  EXPECT_EQ(bytes_of(w.buffer()), expected);
  EXPECT_EQ(bit_size(w.buffer()), 8u * expected.size());
  Reader r(w.buffer());
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(r.get_u64(), 0x1111111111111111ULL * (i % 15) + i);
    EXPECT_EQ(r.get_u16(), static_cast<std::uint16_t>(i * 257));
    EXPECT_EQ(r.get_varint(), i);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, SampleMessageWireBytes) {
  // Algorithm 2's sample message is an attempt byte plus a Key: the bytes
  // (and so the bits the network charges per sample) are exactly these 17.
  Writer w;
  w.put_u8(3);
  encode(w, Key{0x0A0B0C0D0E0F1011ULL, 0x2122232425262728ULL});
  EXPECT_EQ(bytes_of(w.buffer()),
            (std::vector<int>{0x03,                                            // attempt
                              0x11, 0x10, 0x0F, 0x0E, 0x0D, 0x0C, 0x0B, 0x0A,  // rank
                              0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21}));  // id
  EXPECT_EQ(bit_size(w.buffer()), 136u);
  EXPECT_EQ(bit_size(to_bytes(Key{1, 2})), 128u);
}

TEST(Serial, VarintKnownEncodings) {
  {
    Writer w;
    w.put_varint(0);
    EXPECT_EQ(w.size(), 1u);
  }
  {
    Writer w;
    w.put_varint(127);
    EXPECT_EQ(w.size(), 1u);
  }
  {
    Writer w;
    w.put_varint(128);
    EXPECT_EQ(w.size(), 2u);
    EXPECT_EQ(std::to_integer<int>(w.buffer()[0]), 0x80);
    EXPECT_EQ(std::to_integer<int>(w.buffer()[1]), 0x01);
  }
  {
    Writer w;
    w.put_varint(std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(w.size(), 10u);
  }
}

TEST(Serial, VarintRoundTripSweep) {
  Rng rng(1);
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 16383, 16384, 1ULL << 32,
                                       std::numeric_limits<std::uint64_t>::max()};
  for (int i = 0; i < 200; ++i) values.push_back(rng.next_u64() >> (i % 64));
  Writer w;
  for (std::uint64_t v : values) w.put_varint(v);
  Reader r(w.buffer());
  for (std::uint64_t v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, SignedVarintZigZag) {
  const std::vector<std::int64_t> values = {0, -1, 1, -2, 2, -64, 63,
                                            std::numeric_limits<std::int64_t>::min(),
                                            std::numeric_limits<std::int64_t>::max()};
  Writer w;
  for (std::int64_t v : values) w.put_varint_signed(v);
  Reader r(w.buffer());
  for (std::int64_t v : values) EXPECT_EQ(r.get_varint_signed(), v);
  // small magnitudes are 1 byte
  Writer w2;
  w2.put_varint_signed(-1);
  EXPECT_EQ(w2.size(), 1u);
}

TEST(Serial, StringAndBytes) {
  Writer w;
  w.put_string("hello κ-machine");
  Bytes blob = {std::byte{1}, std::byte{2}, std::byte{3}};
  w.put_bytes(blob);
  Reader r(w.buffer());
  EXPECT_EQ(r.get_string(), "hello κ-machine");
  EXPECT_EQ(r.get_bytes(), blob);
}

TEST(Serial, EmptyStringAndBytes) {
  Writer w;
  w.put_string("");
  w.put_bytes({});
  Reader r(w.buffer());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.get_bytes().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, TruncatedReadThrows) {
  Writer w;
  w.put_u32(5);
  Reader r(w.buffer());
  (void)r.get_u16();
  (void)r.get_u16();
  EXPECT_THROW((void)r.get_u8(), InvariantError);
}

TEST(Serial, TruncatedStringThrows) {
  Writer w;
  w.put_varint(100);  // claims 100 bytes, provides none
  Reader r(w.buffer());
  EXPECT_THROW((void)r.get_string(), InvariantError);
}

TEST(Serial, OverlongVarintThrows) {
  Bytes evil(11, std::byte{0xFF});  // never terminates within 10 bytes
  Reader r(evil);
  EXPECT_THROW((void)r.get_varint(), InvariantError);
}

TEST(Serial, BitSizeAccounting) {
  Writer w;
  w.put_u64(1);
  EXPECT_EQ(bit_size(w.buffer()), 64u);
  w.put_u8(0);
  EXPECT_EQ(bit_size(w.buffer()), 72u);
}

// --- typed codec -----------------------------------------------------------------

TEST(Codec, PrimitiveRoundTrip) {
  EXPECT_EQ(from_bytes<std::uint64_t>(to_bytes<std::uint64_t>(77)), 77u);
  EXPECT_EQ(from_bytes<std::string>(to_bytes<std::string>("abc")), "abc");
  EXPECT_DOUBLE_EQ(from_bytes<double>(to_bytes(1.5)), 1.5);
  EXPECT_EQ(from_bytes<bool>(to_bytes(true)), true);
}

TEST(Codec, PairRoundTrip) {
  using P = std::pair<std::uint32_t, std::string>;
  const P p{7, "seven"};
  EXPECT_EQ(from_bytes<P>(to_bytes(p)), p);
}

TEST(Codec, VectorRoundTrip) {
  const std::vector<std::uint64_t> v = {1, 2, 3, 1ULL << 60};
  EXPECT_EQ(from_bytes<std::vector<std::uint64_t>>(to_bytes(v)), v);
}

TEST(Codec, NestedVectorOfPairs) {
  using Item = std::pair<std::uint64_t, double>;
  const std::vector<Item> v = {{1, 0.5}, {2, -3.25}};
  EXPECT_EQ(from_bytes<std::vector<Item>>(to_bytes(v)), v);
}

TEST(Codec, EmptyVector) {
  const std::vector<std::uint64_t> v;
  EXPECT_TRUE(from_bytes<std::vector<std::uint64_t>>(to_bytes(v)).empty());
}

TEST(Codec, TrailingBytesRejected) {
  Bytes b = to_bytes<std::uint32_t>(1);
  b.push_back(std::byte{0});
  EXPECT_THROW((void)from_bytes<std::uint32_t>(b), InvariantError);
}

TEST(Codec, RandomVectorSweep) {
  Rng rng(404);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> v(rng.below(64));
    for (auto& x : v) x = rng.next_u64();
    EXPECT_EQ(from_bytes<std::vector<std::uint64_t>>(to_bytes(v)), v);
  }
}

}  // namespace
}  // namespace dknn
