#include "common/bytes.hpp"

#include <array>
#include <cctype>
#include <cstdio>

namespace siphoc {

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  // Slicing-by-8: table[k][b] is the CRC of byte b followed by k zero
  // bytes, so eight input bytes fold into the register with eight lookups
  // and no loop-carried dependency between them.
  static const auto table = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  const auto le32 = [](const std::uint8_t* p) {
    return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
           (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
  };
  std::uint32_t crc = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = crc ^ le32(p);
    const std::uint32_t hi = le32(p + 4);
    crc = table[7][lo & 0xffu] ^ table[6][(lo >> 8) & 0xffu] ^
          table[5][(lo >> 16) & 0xffu] ^ table[4][lo >> 24] ^
          table[3][hi & 0xffu] ^ table[2][(hi >> 8) & 0xffu] ^
          table[1][(hi >> 16) & 0xffu] ^ table[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = table[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

Bytes to_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string to_string(std::span<const std::uint8_t> data) {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

std::string hex_dump(std::span<const std::uint8_t> data) {
  std::string out;
  char line[24];
  for (std::size_t row = 0; row < data.size(); row += 16) {
    std::snprintf(line, sizeof(line), "%04zx  ", row);
    out += line;
    for (std::size_t i = 0; i < 16; ++i) {
      if (row + i < data.size()) {
        std::snprintf(line, sizeof(line), "%02x ", data[row + i]);
        out += line;
      } else {
        out += "   ";
      }
      if (i == 7) out += ' ';
    }
    out += " |";
    for (std::size_t i = 0; i < 16 && row + i < data.size(); ++i) {
      const unsigned char c = data[row + i];
      out += std::isprint(c) ? static_cast<char>(c) : '.';
    }
    out += "|\n";
  }
  return out;
}

}  // namespace siphoc
