#include "serial/reader.hpp"

#include <bit>

#include "support/panic.hpp"

namespace dknn {

void Reader::need(std::size_t n) const {
  DKNN_REQUIRE(remaining() >= n, "serial::Reader: truncated message");
}

std::uint8_t Reader::get_u8() {
  need(1);
  return static_cast<std::uint8_t>((*data_)[pos_++]);
}

template <typename U>
U Reader::get_le() {
  need(sizeof(U));
  const std::byte* p = data_->data() + pos_;
  U v = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    v |= static_cast<U>(static_cast<U>(p[i]) << (8 * i));
  }
  pos_ += sizeof(U);
  return v;
}

std::uint16_t Reader::get_u16() { return get_le<std::uint16_t>(); }
std::uint32_t Reader::get_u32() { return get_le<std::uint32_t>(); }
std::uint64_t Reader::get_u64() { return get_le<std::uint64_t>(); }

double Reader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::uint64_t Reader::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    DKNN_REQUIRE(shift < 64, "serial::Reader: varint too long");
    const std::uint8_t byte = get_u8();
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::int64_t Reader::get_varint_signed() {
  const std::uint64_t u = get_varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

Bytes Reader::get_bytes() {
  const std::uint64_t len = get_varint();
  need(static_cast<std::size_t>(len));
  Bytes out(data_->begin() + static_cast<std::ptrdiff_t>(pos_),
            data_->begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += static_cast<std::size_t>(len);
  return out;
}

std::string Reader::get_string() {
  const std::uint64_t len = get_varint();
  need(static_cast<std::size_t>(len));
  std::string out(reinterpret_cast<const char*>(data_->data()) + pos_,
                  static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return out;
}

}  // namespace dknn
