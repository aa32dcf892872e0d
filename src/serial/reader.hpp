#pragma once
/// \file reader.hpp
/// \brief Bounds-checked byte reader matching serial/writer.hpp.
///
/// Every read validates remaining length and throws InvariantError on
/// truncation — a truncated message in the simulator is always a bug in the
/// sender or the link model, never something to silently tolerate.

#include <cstdint>
#include <string>

#include "serial/bytes.hpp"

namespace dknn {

class Reader {
public:
  explicit Reader(const Bytes& data) : data_(&data) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint16_t get_u16();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::uint64_t get_varint();
  [[nodiscard]] std::int64_t get_varint_signed();
  [[nodiscard]] Bytes get_bytes();
  [[nodiscard]] std::string get_string();
  [[nodiscard]] bool get_bool() { return get_u8() != 0; }

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return data_->size() - pos_; }
  /// True when the whole buffer has been consumed (decoders assert this).
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

private:
  void need(std::size_t n) const;
  /// Fixed-width little-endian read: one bounds check for the whole value.
  template <typename U>
  [[nodiscard]] U get_le();

  const Bytes* data_;
  std::size_t pos_ = 0;
};

}  // namespace dknn
