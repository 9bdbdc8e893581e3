// Wire-format tests: exact Value/Row round-trips through the transport
// codec, message encode/decode for all four transport message types, and
// truncation/corruption error paths. Also covers the key-codec extremes
// fixed alongside (int64 <-> double conversion at the ends of the range).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "src/transport/message.h"
#include "src/util/keycodec.h"
#include "src/util/wire.h"

namespace reactdb {
namespace {

Value RoundTrip(const Value& v) {
  std::string buf;
  wire::Writer w(&buf);
  wire::EncodeValue(v, &w);
  wire::Reader r(buf);
  StatusOr<Value> decoded = wire::DecodeValue(&r);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(r.exhausted());
  return decoded.value_or(Value("<decode failed>"));
}

TEST(WireValue, RoundTripsEveryVariant) {
  EXPECT_EQ(ValueType::kNull, RoundTrip(Value::Null()).type());
  EXPECT_EQ(Value(true), RoundTrip(Value(true)));
  EXPECT_EQ(Value(false), RoundTrip(Value(false)));
  EXPECT_EQ(Value(int64_t{0}), RoundTrip(Value(int64_t{0})));
  EXPECT_EQ(Value(int64_t{-1}), RoundTrip(Value(int64_t{-1})));
  EXPECT_EQ(Value(3.25), RoundTrip(Value(3.25)));
  EXPECT_EQ(Value("hello"), RoundTrip(Value("hello")));
  // Type is preserved, not just comparison equality: int64 5 and double 5.0
  // compare equal but must decode back to their own variant.
  EXPECT_EQ(ValueType::kInt64, RoundTrip(Value(int64_t{5})).type());
  EXPECT_EQ(ValueType::kDouble, RoundTrip(Value(5.0)).type());
}

TEST(WireValue, RoundTripsIntegerExtremes) {
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::min() + 1, int64_t{-1},
                    int64_t{0}, int64_t{1},
                    std::numeric_limits<int64_t>::max() - 1,
                    std::numeric_limits<int64_t>::max()}) {
    Value decoded = RoundTrip(Value(v));
    ASSERT_EQ(ValueType::kInt64, decoded.type());
    EXPECT_EQ(v, decoded.AsInt64());
  }
}

TEST(WireValue, RoundTripsDoubleBitPatterns) {
  for (double d : {0.0, -0.0, 1.5, -1.5e300, 5e-324,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    Value decoded = RoundTrip(Value(d));
    ASSERT_EQ(ValueType::kDouble, decoded.type());
    EXPECT_EQ(std::signbit(d), std::signbit(decoded.AsDouble()));
    EXPECT_EQ(d, decoded.AsDouble());
  }
  // NaN round-trips as NaN (bit-pattern transport, no double conversion).
  Value nan = RoundTrip(Value(std::nan("")));
  ASSERT_EQ(ValueType::kDouble, nan.type());
  EXPECT_TRUE(std::isnan(nan.AsDouble()));
}

TEST(WireValue, RoundTripsAwkwardStrings) {
  for (const std::string& s :
       {std::string(), std::string("plain"), std::string("embedded\0nul", 12),
        std::string("\0\0\0", 3), std::string(100000, 'x'),
        std::string("\xff\xfe utf-8 caf\xc3\xa9")}) {
    Value decoded = RoundTrip(Value(s));
    ASSERT_EQ(ValueType::kString, decoded.type());
    EXPECT_EQ(s, decoded.AsString());
  }
}

TEST(WireRow, RoundTripsMixedRow) {
  Row row = {Value::Null(), Value(true), Value(int64_t{-77}), Value(2.5),
             Value("dst_customer_00042")};
  StatusOr<Row> decoded = wire::DecodeRowFromString(
      wire::EncodeRowToString(row));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(row.size(), decoded->size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i].type(), (*decoded)[i].type()) << "cell " << i;
    EXPECT_EQ(row[i], (*decoded)[i]) << "cell " << i;
  }
  // Empty row.
  StatusOr<Row> empty = wire::DecodeRowFromString(wire::EncodeRowToString({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(WireRow, RejectsTruncationAndTrailingBytes) {
  std::string buf = wire::EncodeRowToString({Value(int64_t{1}), Value("abc")});
  // Every strict prefix must fail cleanly, never read out of bounds.
  for (size_t len = 0; len < buf.size(); ++len) {
    EXPECT_FALSE(wire::DecodeRowFromString(buf.substr(0, len)).ok())
        << "prefix length " << len;
  }
  EXPECT_FALSE(wire::DecodeRowFromString(buf + "x").ok());
  // A row header claiming more cells than the buffer can hold is rejected
  // before any allocation.
  std::string bogus;
  wire::Writer w(&bogus);
  w.PutU32(0xfffffff0u);
  EXPECT_FALSE(wire::DecodeRowFromString(bogus).ok());
}

TEST(WireMessage, SubmitRequestRoundTrips) {
  transport::SubmitRequest m;
  m.root_id = 42;
  m.reactor = ReactorId{7};
  m.proc = ProcId{3};
  m.args = {Value(1.0), Value("dest")};
  StatusOr<transport::Message> decoded =
      transport::DecodeMessage(transport::EncodeMessage(m));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto& out = std::get<transport::SubmitRequest>(*decoded);
  EXPECT_EQ(42u, out.root_id);
  EXPECT_EQ(ReactorId{7}, out.reactor);
  EXPECT_EQ(ProcId{3}, out.proc);
  EXPECT_EQ(0, CompareRows(m.args, out.args));
}

TEST(WireMessage, CallRequestRoundTrips) {
  transport::CallRequest m;
  m.root_id = 99;
  m.call_id = 1234;
  m.subtxn_id = 5;
  m.reactor = ReactorId{2048};
  m.proc = ProcId{1};
  m.args = {Value(int64_t{-5}), Value::Null()};
  StatusOr<transport::Message> decoded =
      transport::DecodeMessage(transport::EncodeMessage(m));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto& out = std::get<transport::CallRequest>(*decoded);
  EXPECT_EQ(99u, out.root_id);
  EXPECT_EQ(1234u, out.call_id);
  EXPECT_EQ(5u, out.subtxn_id);
  EXPECT_EQ(ReactorId{2048}, out.reactor);
  EXPECT_EQ(ProcId{1}, out.proc);
  EXPECT_EQ(0, CompareRows(m.args, out.args));
}

TEST(WireMessage, CallResponseCarriesResultsAndErrors) {
  ProcResult ok_result{Value(123.5)};
  transport::CallResponse ok_msg =
      transport::CallResponse::FromResult(7, 8, ok_result);
  StatusOr<transport::Message> decoded =
      transport::DecodeMessage(transport::EncodeMessage(ok_msg));
  ASSERT_TRUE(decoded.ok());
  ProcResult round = std::get<transport::CallResponse>(*decoded).ToResult();
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(Value(123.5), round.value());

  ProcResult err{Status::UserAbort("insufficient funds")};
  transport::CallResponse err_msg =
      transport::CallResponse::FromResult(7, 9, err);
  decoded = transport::DecodeMessage(transport::EncodeMessage(err_msg));
  ASSERT_TRUE(decoded.ok());
  round = std::get<transport::CallResponse>(*decoded).ToResult();
  EXPECT_TRUE(round.status().IsUserAbort());
  EXPECT_EQ("insufficient funds", round.status().message());
}

TEST(WireMessage, RejectsGarbage) {
  EXPECT_FALSE(transport::DecodeMessage("").ok());
  EXPECT_FALSE(transport::DecodeMessage("\x09garbage").ok());
  std::string valid = transport::EncodeMessage(transport::CallResponse{});
  ASSERT_TRUE(transport::DecodeMessage(valid).ok());
  EXPECT_FALSE(transport::DecodeMessage(valid.substr(0, 5)).ok());
  EXPECT_FALSE(transport::DecodeMessage(valid + "\x01").ok());
  // Tag 4 is past the last message kind (kResponse = 3): unknown.
  std::string tag4 = valid;
  tag4[0] = '\x04';
  EXPECT_FALSE(transport::DecodeMessage(tag4).ok());
}

// The key codec (ordered encoding) converts int64 keys through double; the
// conversion is saturating so keys at the ends of the range no longer hit
// undefined behavior and round-trip exactly.
TEST(KeyCodecExtremes, Int64BoundsRoundTrip) {
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::min() + 1,
                    std::numeric_limits<int64_t>::max() - 1,
                    std::numeric_limits<int64_t>::max()}) {
    StatusOr<Row> decoded = DecodeKey(EncodeKey({Value(v)}));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(1u, decoded->size());
    EXPECT_EQ(v, (*decoded)[0].AsInt64()) << v;
  }
}

}  // namespace
}  // namespace reactdb
