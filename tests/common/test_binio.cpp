// io::BinWriter / io::BinReader codec tests (common/binio.hpp): the exact
// little-endian bytes every value encodes to, underrun detection at every
// truncation point, short-write reporting, and a round trip through real
// files as well as string streams.
#include "common/binio.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace mlfs::io {
namespace {

std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += digits[b >> 4];
    out += digits[b & 0xf];
  }
  return out;
}

template <typename Write>
std::string encode(Write&& write) {
  std::ostringstream os(std::ios::binary);
  BinWriter w(os);
  write(w);
  EXPECT_TRUE(os.good());
  return os.str();
}

TEST(BinCodec, GoldenLittleEndianBytes) {
  EXPECT_EQ(hex(encode([](BinWriter& w) { w.u8(0xab); })), "ab");
  EXPECT_EQ(hex(encode([](BinWriter& w) { w.u32(0x01020304u); })), "04030201");
  EXPECT_EQ(hex(encode([](BinWriter& w) { w.u64(0x0102030405060708ull); })),
            "0807060504030201");
  EXPECT_EQ(hex(encode([](BinWriter& w) { w.i64(-2); })), "feffffffffffffff");
  EXPECT_EQ(hex(encode([](BinWriter& w) { w.f64(1.0); })), "000000000000f03f");
  EXPECT_EQ(hex(encode([](BinWriter& w) { w.f64(-2.5); })), "00000000000004c0");
  EXPECT_EQ(hex(encode([](BinWriter& w) { w.boolean(true); })), "01");
  EXPECT_EQ(hex(encode([](BinWriter& w) { w.str("hi"); })), "0200000000000000" "6869");
  EXPECT_EQ(hex(encode([](BinWriter& w) { w.vec_f64({0.5}); })),
            "0100000000000000" "000000000000e03f");
  EXPECT_EQ(hex(encode([](BinWriter& w) { w.vec_u64({7, 0x100}); })),
            "0200000000000000" "0700000000000000" "0001000000000000");
  EXPECT_EQ(hex(encode([](BinWriter& w) {
              w.vec(std::vector<int>{-1}, [&w](int v) { w.i64(v); });
            })),
            "0100000000000000" "ffffffffffffffff");
}

// One of everything. The default string is longer than the reader's
// 64 Ki chunk.
constexpr std::size_t kLongString = (1 << 16) + 3;

void write_sample(BinWriter& w, std::size_t string_len = kLongString) {
    w.u8(7);
    w.u32(0xdeadbeefu);
    w.u64(~0ull);
    w.i64(-12345);
    w.f64(std::numeric_limits<double>::denorm_min());
    w.boolean(false);
    w.str(std::string(string_len, 'x'));
    w.vec_f64({1.5, -0.0});
    w.vec_u64({});
}

std::string sample(std::size_t string_len = kLongString) {
  return encode([string_len](BinWriter& w) { write_sample(w, string_len); });
}

void read_sample(BinReader& r, std::size_t string_len = kLongString) {
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), ~0ull);
  EXPECT_EQ(r.i64(), -12345);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), std::string(string_len, 'x'));
  const std::vector<double> v = r.vec_f64();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 1.5);
  EXPECT_TRUE(std::signbit(v[1]));
  EXPECT_TRUE(r.vec_u64().empty());
}

TEST(BinCodec, StringStreamRoundTrip) {
  const std::string bytes = sample();
  std::istringstream is(bytes, std::ios::binary);
  BinReader r(is);
  read_sample(r);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinCodec, FileStreamRoundTrip) {
  const std::string path = ::testing::TempDir() + "mlfs_binio_round_trip.bin";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.is_open());
    BinWriter w(os);
    write_sample(w);
    os.flush();
    EXPECT_TRUE(os.good());
  }
  {
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.is_open());
    std::ostringstream whole;
    whole << is.rdbuf();
    EXPECT_EQ(whole.str(), sample());  // the same bytes as the string stream
  }
  {
    std::ifstream is(path, std::ios::binary);
    BinReader r(is);
    EXPECT_EQ(r.remaining(), sample().size());
    read_sample(r);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_THROW(r.u8(), ContractViolation);
  }
  std::remove(path.c_str());
}

TEST(BinCodec, TruncationAtEveryOffsetUnderruns) {
  constexpr std::size_t kShort = 5;
  const std::string bytes = sample(kShort);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::istringstream is(bytes.substr(0, cut), std::ios::binary);
    BinReader r(is);
    EXPECT_THROW(read_sample(r, kShort), ContractViolation) << "cut at " << cut;
  }
}

TEST(BinCodec, TruncationInsideAChunkedStringUnderruns) {
  const std::string bytes = sample();
  const std::size_t body = 1 + 4 + 8 + 8 + 8 + 1 + 8;  // where the string body starts
  for (const std::size_t into : {std::size_t{0}, std::size_t{1}, std::size_t{65535},
                                 std::size_t{65536}, std::size_t{65537}, kLongString - 1}) {
    std::istringstream is(bytes.substr(0, body + into), std::ios::binary);
    BinReader r(is);
    EXPECT_THROW(read_sample(r), ContractViolation) << into << " bytes into the string";
  }
}

TEST(BinCodec, EveryWidthUnderrunsOnAShortStream) {
  for (std::size_t have = 0; have < 8; ++have) {
    const std::string bytes(have, '\x01');
    std::istringstream a(bytes), b(bytes);
    BinReader ra(a), rb(b);
    EXPECT_THROW(rb.u64(), ContractViolation) << have << " bytes";
    if (have < 4) EXPECT_THROW(ra.u32(), ContractViolation) << have << " bytes";
  }
  std::istringstream empty;
  BinReader r(empty);
  EXPECT_THROW(r.u8(), ContractViolation);
}

// A stream buffer that accepts `room` bytes and then refuses.
class CappedBuf : public std::streambuf {
 public:
  explicit CappedBuf(std::size_t room) : room_(room) {}

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof()) || room_ == 0) {
      return traits_type::eof();
    }
    --room_;
    return c;
  }

 private:
  std::size_t room_;
};

TEST(BinCodec, ShortWriteSetsBadbit) {
  CappedBuf buf(5);
  std::ostream os(&buf);
  BinWriter w(os);
  w.u32(1);
  EXPECT_TRUE(os.good());
  w.u64(2);  // only one of its eight bytes fits
  EXPECT_TRUE(os.bad());

  std::ostream detached(nullptr);
  BinWriter dw(detached);
  dw.u8(1);
  EXPECT_TRUE(detached.bad());
}

TEST(BinCodec, ImplausibleLengthRejectedBeforeAllocating) {
  const std::string bytes = encode([](BinWriter& w) { w.u64(1ull << 40); });
  std::istringstream a(bytes), b(bytes);
  BinReader ra(a), rb(b);
  EXPECT_THROW(ra.str(), ContractViolation);
  EXPECT_THROW(rb.vec_f64(), ContractViolation);
}

}  // namespace
}  // namespace mlfs::io
