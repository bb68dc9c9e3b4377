// Little-endian binary stream helpers shared by the snapshot subsystem
// (sim/snapshot.hpp) and the per-component save_state/restore_state hooks.
// Doubles travel as their IEEE-754 bit pattern, so every value round-trips
// bit-exactly — the foundation of the restore-determinism contract.
//
// BinReader fails loudly: reading past the end of the underlying stream
// throws ContractViolation (the snapshot layer re-wraps it with section
// context). Nothing here knows about sections, checksums or versions —
// that framing lives in sim/snapshot.{hpp,cpp}.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/expect.hpp"

namespace mlfs::io {

class BinWriter {
 public:
  explicit BinWriter(std::ostream& os) : os_(os) {}

  void u8(std::uint8_t v) {
    const char c = static_cast<char>(v);
    put(&c, 1);
  }

  void u32(std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    put(b, sizeof(b));
  }

  void u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    put(b, sizeof(b));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u64(s.size());
    put(s.data(), s.size());
  }

  void bytes(const char* data, std::size_t n) { put(data, n); }

  template <typename T, typename WriteOne>
  void vec(const std::vector<T>& v, WriteOne&& write_one) {
    u64(v.size());
    for (const T& x : v) write_one(x);
  }

  void vec_f64(const std::vector<double>& v) {
    vec(v, [this](double x) { f64(x); });
  }

  void vec_u64(const std::vector<std::uint64_t>& v) {
    vec(v, [this](std::uint64_t x) { u64(x); });
  }

  std::ostream& stream() { return os_; }

 private:
  // Each value goes to the stream buffer as one block rather than byte by
  // byte through the formatted-stream layer. A short write sets badbit,
  // which callers check once after the whole payload.
  void put(const char* data, std::size_t n) {
    std::streambuf* buf = os_.rdbuf();
    if (buf == nullptr || buf->sputn(data, static_cast<std::streamsize>(n)) !=
                              static_cast<std::streamsize>(n)) {
      os_.setstate(std::ios::badbit);
    }
  }

  std::ostream& os_;
};

class BinReader {
 public:
  explicit BinReader(std::istream& is) : is_(is) {}

  std::uint8_t u8() {
    char c;
    get(&c, 1);
    return static_cast<std::uint8_t>(c);
  }

  std::uint32_t u32() {
    unsigned char b[4];
    get(reinterpret_cast<char*>(b), sizeof(b));
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    unsigned char b[8];
    get(reinterpret_cast<char*>(b), sizeof(b));
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() { return std::bit_cast<double>(u64()); }

  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint64_t n = u64();
    check_length(n);
    // Grow in bounded chunks: a corrupt length runs out of stream before
    // it can size a large buffer.
    std::string s;
    while (s.size() < n) {
      const std::size_t at = s.size();
      const std::size_t chunk = static_cast<std::size_t>(std::min<std::uint64_t>(n - at, kChunk));
      s.resize(at + chunk);
      get(s.data() + at, chunk);
    }
    return s;
  }

  template <typename T, typename ReadOne>
  std::vector<T> vec(ReadOne&& read_one) {
    const std::uint64_t n = u64();
    check_length(n);
    std::vector<T> v;
    // Reserve at most one chunk up front for the same reason as str().
    v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, kChunk)));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_one());
    return v;
  }

  std::vector<double> vec_f64() {
    return vec<double>([this] { return f64(); });
  }

  std::vector<std::uint64_t> vec_u64() {
    return vec<std::uint64_t>([this] { return u64(); });
  }

  std::istream& stream() { return is_; }

  /// Bytes left before the end of the stream, for bounding a count before
  /// allocating for it. A non-seekable stream reports no bound (its reads
  /// still fail on underrun).
  std::uint64_t remaining() {
    const std::istream::pos_type at = is_.tellg();
    if (at == std::istream::pos_type(-1)) return ~0ull;
    is_.seekg(0, std::ios::end);
    const std::istream::pos_type end = is_.tellg();
    is_.seekg(at);
    return end > at ? static_cast<std::uint64_t>(end - at) : 0;
  }

 private:
  static constexpr std::uint64_t kChunk = 1 << 16;

  // Reads straight from the stream buffer, one block per value; a short
  // read is an underrun.
  void get(char* data, std::size_t n) {
    std::streambuf* buf = is_.rdbuf();
    if (buf == nullptr || buf->sgetn(data, static_cast<std::streamsize>(n)) !=
                              static_cast<std::streamsize>(n)) {
      underrun();
    }
  }

  [[noreturn]] void underrun() const {
    throw ContractViolation("binary read past end of stream");
  }
  void check_length(std::uint64_t n) const {
    // A corrupt length field must not drive a multi-gigabyte allocation;
    // no serialized container in this codebase comes close to this bound.
    if (n > (1ull << 32)) {
      throw ContractViolation("binary length field implausibly large: " + std::to_string(n));
    }
  }

  std::istream& is_;
};

}  // namespace mlfs::io
