#include "serial/writer.hpp"

#include <bit>
#include <cstring>

namespace dknn {

namespace {

/// Every simulator payload is small (a key, a count, a header); one
/// up-front reservation covers it, so a typical message costs one
/// allocation instead of a regrowth per appended field.
constexpr std::size_t kInitialReserve = 64;

}  // namespace

std::byte* Writer::grow(std::size_t n) {
  if (buffer_.capacity() == 0) buffer_.reserve(kInitialReserve);
  const std::size_t at = buffer_.size();
  buffer_.resize(at + n);
  return buffer_.data() + at;
}

template <typename U>
void Writer::put_le(U v) {
  // Byte-at-a-time shifts keep the layout host-independent; compilers fold
  // the loop and the copy into one store on little-endian targets.
  std::byte le[sizeof(U)];
  for (std::size_t i = 0; i < sizeof(U); ++i) le[i] = static_cast<std::byte>(v >> (8 * i));
  std::memcpy(grow(sizeof(U)), le, sizeof(U));
}

void Writer::put_u8(std::uint8_t v) { *grow(1) = static_cast<std::byte>(v); }
void Writer::put_u16(std::uint16_t v) { put_le(v); }
void Writer::put_u32(std::uint32_t v) { put_le(v); }
void Writer::put_u64(std::uint64_t v) { put_le(v); }

void Writer::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}

void Writer::put_varint_signed(std::int64_t v) {
  // Zig-zag: maps small-magnitude signed values to small unsigned values.
  const auto u = static_cast<std::uint64_t>(v);
  put_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void Writer::put_bytes(const Bytes& data) {
  put_varint(data.size());
  if (!data.empty()) std::memcpy(grow(data.size()), data.data(), data.size());
}

void Writer::put_string(std::string_view s) {
  put_varint(s.size());
  if (!s.empty()) std::memcpy(grow(s.size()), s.data(), s.size());
}

}  // namespace dknn
