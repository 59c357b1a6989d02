// Wire-protocol robustness: frame encode/decode round trips, a decode-fuzz
// table over malformed inputs (bad magic, unsupported version, unknown
// kind, oversized length, truncated header/payload, mid-frame EOF), and
// the typed result-set codec (all scalar types, nils, dense and
// materialised BAT sides, ToString parity after a round trip).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/protocol.h"

namespace recycledb::net {
namespace {

Frame MakeQueryFrame(const std::string& sql, uint64_t rid = 7) {
  Frame f;
  f.kind = FrameKind::kQuery;
  f.request_id = rid;
  PutString(&f.payload, sql);
  return f;
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

TEST(NetFrameTest, EncodeDecodeRoundTrip) {
  Frame in = MakeQueryFrame("select 1", 42);
  in.flags = kFlagHasTrace;
  std::string bytes = EncodeFrame(in);
  ASSERT_EQ(bytes.size(), kHeaderBytes + in.payload.size());

  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  Frame out;
  ASSERT_EQ(dec.Next(&out), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(out.kind, FrameKind::kQuery);
  EXPECT_EQ(out.flags, kFlagHasTrace);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_EQ(dec.Next(&out), FrameDecoder::Outcome::kNeedMore);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(NetFrameTest, ByteAtATimeDelivery) {
  std::string bytes = EncodeFrame(MakeQueryFrame("select count(*) from t"));
  FrameDecoder dec;
  Frame out;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.Feed(&bytes[i], 1);
    ASSERT_EQ(dec.Next(&out), FrameDecoder::Outcome::kNeedMore) << i;
  }
  dec.Feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(dec.Next(&out), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(out.kind, FrameKind::kQuery);
}

TEST(NetFrameTest, BackToBackFramesInOneFeed) {
  std::string bytes = EncodeFrame(MakeQueryFrame("a", 1));
  bytes += EncodeFrame(MakeQueryFrame("b", 2));
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  Frame out;
  ASSERT_EQ(dec.Next(&out), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(out.request_id, 1u);
  ASSERT_EQ(dec.Next(&out), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(out.request_id, 2u);
  EXPECT_EQ(dec.Next(&out), FrameDecoder::Outcome::kNeedMore);
}

/// The decode-fuzz table: every way a header can be malformed must flip the
/// decoder into a permanent, described error state — never a crash, never
/// an allocation driven by attacker-controlled lengths.
struct BadHeaderCase {
  const char* name;
  size_t offset;   ///< byte to clobber
  uint8_t value;   ///< replacement
  const char* expect_substr;
};

TEST(NetFrameTest, MalformedHeaderTable) {
  const BadHeaderCase kCases[] = {
      {"bad magic", 0, 0x00, "magic"},
      {"magic looks like ascii", 0, 'G', "magic"},
      {"version zero", 1, 0, "version"},
      {"version from the future", 1, 9, "version"},
      {"unknown kind", 2, 29, "kind"},
      {"kind above response range", 2, 200, "kind"},
  };
  for (const auto& tc : kCases) {
    std::string bytes = EncodeFrame(MakeQueryFrame("select 1"));
    bytes[tc.offset] = static_cast<char>(tc.value);
    FrameDecoder dec;
    dec.Feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_EQ(dec.Next(&out), FrameDecoder::Outcome::kError) << tc.name;
    EXPECT_NE(dec.error().find(tc.expect_substr), std::string::npos)
        << tc.name << ": " << dec.error();
    // The error is permanent: more bytes do not revive the decoder.
    dec.Feed(bytes.data(), bytes.size());
    EXPECT_EQ(dec.Next(&out), FrameDecoder::Outcome::kError) << tc.name;
  }
}

TEST(NetFrameTest, OversizedLengthRejectedBeforeBuffering) {
  Frame f = MakeQueryFrame("x");
  std::string bytes = EncodeFrame(f);
  // Rewrite payload_len (offset 4, u32 LE) to 16MB against a 1KB cap.
  const uint32_t huge = 16u << 20;
  for (int i = 0; i < 4; ++i)
    bytes[4 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  FrameDecoder dec(/*max_frame_bytes=*/1024);
  dec.Feed(bytes.data(), bytes.size());
  Frame out;
  ASSERT_EQ(dec.Next(&out), FrameDecoder::Outcome::kError);
  EXPECT_NE(dec.error().find("cap"), std::string::npos) << dec.error();
}

TEST(NetFrameTest, TruncatedHeaderAndPayloadNeedMore) {
  std::string bytes = EncodeFrame(MakeQueryFrame("select 1"));
  // A truncated header is simply incomplete input...
  FrameDecoder dec;
  dec.Feed(bytes.data(), kHeaderBytes - 3);
  Frame out;
  EXPECT_EQ(dec.Next(&out), FrameDecoder::Outcome::kNeedMore);
  // ...and so is a complete header with a truncated payload. A peer that
  // disconnects here leaves buffered_bytes() > 0 — the server's mid-frame
  // disconnect signal.
  FrameDecoder dec2;
  dec2.Feed(bytes.data(), bytes.size() - 2);
  EXPECT_EQ(dec2.Next(&out), FrameDecoder::Outcome::kNeedMore);
  EXPECT_GT(dec2.buffered_bytes(), 0u);
}

TEST(NetFrameTest, CompactionPreservesStream) {
  // Thousands of frames through one decoder: the internal compaction of
  // the consumed prefix must never corrupt frame boundaries.
  FrameDecoder dec;
  Frame out;
  std::string sql(512, 'q');
  for (int i = 0; i < 2000; ++i) {
    std::string bytes =
        EncodeFrame(MakeQueryFrame(sql, static_cast<uint64_t>(i)));
    dec.Feed(bytes.data(), bytes.size());
    ASSERT_EQ(dec.Next(&out), FrameDecoder::Outcome::kFrame) << i;
    ASSERT_EQ(out.request_id, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Payload primitives and typed payloads.
// ---------------------------------------------------------------------------

TEST(NetPayloadTest, PrimitivesRoundTripAndFailCleanOnTruncation) {
  std::string buf;
  PutU8(&buf, 0xab);
  PutU32(&buf, 0xdeadbeef);
  PutU64(&buf, 0x0123456789abcdefull);
  PutString(&buf, "hello");
  Cursor c{&buf};
  uint8_t a = 0;
  uint32_t b = 0;
  uint64_t d = 0;
  std::string s;
  ASSERT_TRUE(GetU8(&c, &a).ok());
  ASSERT_TRUE(GetU32(&c, &b).ok());
  ASSERT_TRUE(GetU64(&c, &d).ok());
  ASSERT_TRUE(GetString(&c, &s).ok());
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0123456789abcdefull);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(c.Remaining(), 0u);

  // Every truncation point fails with a Status, not a read overrun.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string part = buf.substr(0, cut);
    Cursor pc{&part};
    uint8_t x8 = 0;
    uint32_t x32 = 0;
    uint64_t x64 = 0;
    std::string xs;
    Status st = GetU8(&pc, &x8);
    if (st.ok()) st = GetU32(&pc, &x32);
    if (st.ok()) st = GetU64(&pc, &x64);
    if (st.ok()) st = GetString(&pc, &xs);
    EXPECT_FALSE(st.ok()) << cut;
  }
}

TEST(NetPayloadTest, StringWithLyingLengthIsTruncation) {
  std::string buf;
  PutU32(&buf, 1000);  // claims 1000 bytes...
  buf += "short";      // ...delivers 5
  Cursor c{&buf};
  std::string s;
  EXPECT_FALSE(GetString(&c, &s).ok());
}

TEST(NetPayloadTest, HelloWelcomeRoundTrip) {
  HelloPayload h;
  h.min_version = 1;
  h.max_version = 3;
  auto h2 = DecodeHello(EncodeHello(h));
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h2.value().min_version, 1);
  EXPECT_EQ(h2.value().max_version, 3);
  // An inverted range is rejected.
  h.min_version = 3;
  h.max_version = 1;
  EXPECT_FALSE(DecodeHello(EncodeHello(h)).ok());

  WelcomePayload w;
  w.version = kProtocolVersion;
  w.max_inflight = 8;
  auto w2 = DecodeWelcome(EncodeWelcome(w));
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2.value().version, kProtocolVersion);
  EXPECT_EQ(w2.value().max_inflight, 8u);
}

TEST(NetPayloadTest, ErrorRoundTripCarriesCodeAndPosition) {
  Status st = Status::InvalidArgument("expected FROM at 2:17");
  auto e = DecodeError(EncodeError(st));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().code, StatusCode::kInvalidArgument);
  EXPECT_EQ(e.value().line, 2u);
  EXPECT_EQ(e.value().col, 17u);
  EXPECT_EQ(e.value().message, "expected FROM at 2:17");
  EXPECT_EQ(MakeStatus(e.value().code, e.value().message).ToString(),
            st.ToString());
}

TEST(NetPayloadTest, ExtractLineColTable) {
  struct {
    const char* message;
    uint32_t line, col;
  } kCases[] = {
      {"expected FROM at 1:8", 1, 8},
      {"unknown column 'x' at 12:345", 12, 345},
      {"two markers 1:2 then 3:4 takes the last", 3, 4},
      {"no position here", 0, 0},
      {"", 0, 0},
      {"lonely colon : and 5: and :7", 0, 0},
  };
  for (const auto& tc : kCases) {
    uint32_t line = 99, col = 99;
    ExtractLineCol(tc.message, &line, &col);
    EXPECT_EQ(line, tc.line) << tc.message;
    EXPECT_EQ(col, tc.col) << tc.message;
  }
}

// ---------------------------------------------------------------------------
// Typed result sets.
// ---------------------------------------------------------------------------

TEST(NetResultSetTest, ScalarsOfEveryTypeRoundTrip) {
  QueryResult r;
  r.values.emplace_back("v_void", Scalar());
  r.values.emplace_back("v_bit", Scalar::Bit(true));
  r.values.emplace_back("v_bit_nil", Scalar::Nil(TypeTag::kBit));
  r.values.emplace_back("v_int", Scalar::Int(-123));
  r.values.emplace_back("v_int_nil", Scalar::Nil(TypeTag::kInt));
  r.values.emplace_back("v_lng", Scalar::Lng(1ll << 40));
  r.values.emplace_back("v_oid", Scalar::OidVal(77));
  r.values.emplace_back("v_dbl", Scalar::Dbl(2.5));
  r.values.emplace_back("v_dbl_nil", Scalar::Nil(TypeTag::kDbl));
  r.values.emplace_back("v_date", Scalar::DateVal(9125));
  r.values.emplace_back("v_str", Scalar::Str("with \x01 bytes \xff"));
  r.values.emplace_back("v_str_empty", Scalar::Str(""));

  auto r2 = DecodeResultSet(EncodeResultSet(r));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2.value().values.size(), r.values.size());
  for (size_t i = 0; i < r.values.size(); ++i) {
    EXPECT_EQ(r2.value().values[i].first, r.values[i].first);
    EXPECT_TRUE(r2.value().values[i].second.scalar() ==
                r.values[i].second.scalar())
        << r.values[i].first;
  }
  // The decoded result renders byte-identically.
  EXPECT_EQ(r2.value().ToString(), r.ToString());
}

TEST(NetResultSetTest, BatWithDenseHeadRoundTrip) {
  auto col = Column::Make<int32_t>(TypeTag::kInt, {5, 4, 3, 2});
  BatPtr b = Bat::Make(BatSide::Dense(100), BatSide::Materialized(col), 4);
  QueryResult r;
  r.values.emplace_back("rows", b);
  r.values.emplace_back("count", Scalar::Lng(4));

  auto r2 = DecodeResultSet(EncodeResultSet(r));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2.value().values.size(), 2u);
  const BatPtr& b2 = r2.value().values[0].second.bat();
  ASSERT_EQ(b2->size(), 4u);
  EXPECT_TRUE(b2->head().dense());
  EXPECT_EQ(b2->head().seq, 100u);
  EXPECT_EQ(r2.value().ToString(), r.ToString());
}

TEST(NetResultSetTest, AllColumnTypesRoundTrip) {
  QueryResult r;
  r.values.emplace_back(
      "c_bit", Bat::Make(BatSide::Dense(0),
                         BatSide::Materialized(Column::Make<int8_t>(
                             TypeTag::kBit, {1, 0, 1})),
                         3));
  r.values.emplace_back(
      "c_int", Bat::Make(BatSide::Dense(0),
                         BatSide::Materialized(Column::Make<int32_t>(
                             TypeTag::kInt, {-1, 0, 7})),
                         3));
  r.values.emplace_back(
      "c_lng", Bat::Make(BatSide::Dense(0),
                         BatSide::Materialized(Column::Make<int64_t>(
                             TypeTag::kLng, {1ll << 40, -2, 3})),
                         3));
  r.values.emplace_back(
      "c_oid", Bat::Make(BatSide::Dense(0),
                         BatSide::Materialized(Column::Make<Oid>(
                             TypeTag::kOid, {9, 8, 7})),
                         3));
  r.values.emplace_back(
      "c_dbl", Bat::Make(BatSide::Dense(0),
                         BatSide::Materialized(Column::Make<double>(
                             TypeTag::kDbl, {0.5, -1.25, 3e9})),
                         3));
  r.values.emplace_back(
      "c_date", Bat::Make(BatSide::Dense(0),
                          BatSide::Materialized(Column::Make<int32_t>(
                              TypeTag::kDate, {9125, 9126, 9127})),
                          3));
  r.values.emplace_back(
      "c_str", Bat::Make(BatSide::Dense(0),
                         BatSide::Materialized(Column::Make<std::string>(
                             TypeTag::kStr, {"a", "", "long string value"})),
                         3));

  auto r2 = DecodeResultSet(EncodeResultSet(r));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2.value().ToString(), r.ToString());
}

TEST(NetResultSetTest, TruncatedAndCorruptPayloadsFailClean) {
  QueryResult r;
  r.values.emplace_back("count", Scalar::Lng(42));
  r.values.emplace_back(
      "rows", Bat::Make(BatSide::Dense(0),
                        BatSide::Materialized(Column::Make<int32_t>(
                            TypeTag::kInt, {1, 2, 3})),
                        3));
  std::string bytes = EncodeResultSet(r);

  // Every proper prefix is a clean decode failure.
  for (size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_FALSE(DecodeResultSet(bytes.substr(0, cut)).ok()) << cut;
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DecodeResultSet(bytes + "x").ok());

  // A lying row count must not drive a huge allocation: the decoder checks
  // remaining bytes before reserving.
  std::string lying;
  PutU32(&lying, 1);
  PutString(&lying, "rows");
  PutU8(&lying, 1);                      // is_bat
  PutU64(&lying, 1u << 30);              // claims 2^30 rows
  PutU8(&lying, 0);                      // head: materialised
  PutU8(&lying, 3);                      // some numeric tag
  lying += std::string(64, '\0');        // ...but only 64 bytes follow
  EXPECT_FALSE(DecodeResultSet(lying).ok());

  // The same for strings: each carries at least its u32 length, so a count
  // beyond a quarter of the remaining bytes is refused before the decoder
  // allocates anything for it (not after reserving a slot per byte).
  std::string lying_strs;
  PutU32(&lying_strs, 1);
  PutString(&lying_strs, "names");
  PutU8(&lying_strs, 1);          // is_bat
  PutU64(&lying_strs, 1u << 20);  // claims 2^20 rows
  PutU8(&lying_strs, 1);          // head: dense
  PutU64(&lying_strs, 0);
  PutU8(&lying_strs, 0);  // tail: materialised
  PutU8(&lying_strs, static_cast<uint8_t>(TypeTag::kStr));
  lying_strs += std::string(4096, '\0');  // 1,024 empty strings at most
  auto refused = DecodeResultSet(lying_strs);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("column strings"),
            std::string::npos);

  // An unknown type tag is rejected.
  std::string badtag;
  PutU32(&badtag, 1);
  PutString(&badtag, "v");
  PutU8(&badtag, 0);    // scalar
  PutU8(&badtag, 200);  // no such TypeTag
  EXPECT_FALSE(DecodeResultSet(badtag).ok());
}

TEST(NetResultSetTest, OverflowingRowCountFailsCleanNotThrow) {
  // count * elem wraps 64-bit arithmetic: 0x2000000000000001 * 8 == 8,
  // which would sail past a multiplying size check and turn the
  // subsequent reserve() into an uncaught length_error. The decoder must
  // reject it with a Status (cap first, division check second).
  std::string wrap;
  PutU32(&wrap, 1);
  PutString(&wrap, "rows");
  PutU8(&wrap, 1);                       // is_bat
  PutU64(&wrap, 0x2000000000000001ull);  // count: wraps to 8 when *8
  PutU8(&wrap, 0);                       // head: materialised
  PutU8(&wrap, static_cast<uint8_t>(TypeTag::kLng));
  wrap += std::string(64, '\0');
  EXPECT_FALSE(DecodeResultSet(wrap).ok());

  // A dense/dense bat encodes no per-row bytes, so its count cannot be
  // validated against the payload — the explicit kMaxWireRows cap stops a
  // corrupt server from handing consumers a 2^61-row iteration.
  std::string dense;
  PutU32(&dense, 1);
  PutString(&dense, "rows");
  PutU8(&dense, 1);  // is_bat
  PutU64(&dense, kMaxWireRows + 1);
  PutU8(&dense, 1);  // head: dense
  PutU64(&dense, 0);
  PutU8(&dense, 1);  // tail: dense
  PutU64(&dense, 0);
  auto bad = DecodeResultSet(dense);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("wire cap"), std::string::npos);

  // At the cap itself the dense/dense form still decodes.
  std::string at_cap;
  PutU32(&at_cap, 1);
  PutString(&at_cap, "rows");
  PutU8(&at_cap, 1);  // is_bat
  PutU64(&at_cap, kMaxWireRows);
  PutU8(&at_cap, 1);  // head: dense
  PutU64(&at_cap, 0);
  PutU8(&at_cap, 1);  // tail: dense
  PutU64(&at_cap, 0);
  EXPECT_TRUE(DecodeResultSet(at_cap).ok());
}

}  // namespace
}  // namespace recycledb::net
