#include "net/protocol.h"

#include <cctype>
#include <cstring>
#include <utility>

#include "util/str.h"

namespace recycledb::net {

Status MakeStatus(StatusCode code, std::string msg) {
  switch (code) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kTypeMismatch:
      return Status::TypeMismatch(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kNotImplemented:
      return Status::NotImplemented(std::move(msg));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case StatusCode::kWriteConflict:
      return Status::WriteConflict(std::move(msg));
    case StatusCode::kInternal:
    case StatusCode::kOk:
      break;
  }
  return Status::Internal(std::move(msg));
}

namespace {

Status Truncated(const char* what) {
  return Status::InvalidArgument(StrFormat("truncated payload: %s", what));
}

}  // namespace

const char* FrameKindName(FrameKind k) {
  switch (k) {
    case FrameKind::kHello:
      return "HELLO";
    case FrameKind::kQuery:
      return "QUERY";
    case FrameKind::kDml:
      return "DML";
    case FrameKind::kCancel:
      return "CANCEL";
    case FrameKind::kPing:
      return "PING";
    case FrameKind::kMetrics:
      return "METRICS";
    case FrameKind::kSetOption:
      return "SET_OPTION";
    case FrameKind::kWelcome:
      return "WELCOME";
    case FrameKind::kResult:
      return "RESULT";
    case FrameKind::kError:
      return "ERROR";
    case FrameKind::kPong:
      return "PONG";
    case FrameKind::kMetricsResult:
      return "METRICS_RESULT";
    case FrameKind::kBusy:
      return "BUSY";
    case FrameKind::kCancelled:
      return "CANCELLED";
    case FrameKind::kOk:
      return "OK";
  }
  return "?";
}

bool IsKnownFrameKind(uint8_t k) {
  return (k >= static_cast<uint8_t>(FrameKind::kHello) &&
          k <= static_cast<uint8_t>(FrameKind::kSetOption)) ||
         (k >= static_cast<uint8_t>(FrameKind::kWelcome) &&
          k <= static_cast<uint8_t>(FrameKind::kOk));
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

Status GetU8(Cursor* c, uint8_t* v) {
  if (c->Remaining() < 1) return Truncated("u8");
  *v = static_cast<uint8_t>((*c->data)[c->pos++]);
  return Status::OK();
}

Status GetU32(Cursor* c, uint32_t* v) {
  if (c->Remaining() < 4) return Truncated("u32");
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(
               static_cast<uint8_t>((*c->data)[c->pos + i]))
           << (8 * i);
  }
  c->pos += 4;
  *v = out;
  return Status::OK();
}

Status GetU64(Cursor* c, uint64_t* v) {
  if (c->Remaining() < 8) return Truncated("u64");
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(
               static_cast<uint8_t>((*c->data)[c->pos + i]))
           << (8 * i);
  }
  c->pos += 8;
  *v = out;
  return Status::OK();
}

Status GetString(Cursor* c, std::string* s) {
  uint32_t n = 0;
  RDB_RETURN_NOT_OK(GetU32(c, &n));
  if (c->Remaining() < n) return Truncated("string body");
  s->assign(*c->data, c->pos, n);
  c->pos += n;
  return Status::OK();
}

std::string EncodeFrame(const Frame& f) {
  std::string out;
  out.reserve(kHeaderBytes + f.payload.size());
  PutU8(&out, kMagic);
  PutU8(&out, f.version);
  PutU8(&out, static_cast<uint8_t>(f.kind));
  PutU8(&out, f.flags);
  PutU32(&out, static_cast<uint32_t>(f.payload.size()));
  PutU64(&out, f.request_id);
  out.append(f.payload);
  return out;
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (!error_.empty()) return;
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Outcome FrameDecoder::Next(Frame* out) {
  if (!error_.empty()) return Outcome::kError;
  if (buf_.size() - pos_ < kHeaderBytes) return Outcome::kNeedMore;
  Cursor c{&buf_, pos_};
  uint8_t magic = 0, version = 0, kind = 0, flags = 0;
  uint32_t len = 0;
  uint64_t rid = 0;
  // Header reads cannot fail: kHeaderBytes are buffered.
  (void)GetU8(&c, &magic);
  (void)GetU8(&c, &version);
  (void)GetU8(&c, &kind);
  (void)GetU8(&c, &flags);
  (void)GetU32(&c, &len);
  (void)GetU64(&c, &rid);
  if (magic != kMagic) {
    error_ = StrFormat("bad magic byte 0x%02x", magic);
    return Outcome::kError;
  }
  if (version == 0 || version > kProtocolVersion) {
    error_ = StrFormat("unsupported protocol version %u", version);
    return Outcome::kError;
  }
  if (!IsKnownFrameKind(kind)) {
    error_ = StrFormat("unknown frame kind %u", kind);
    return Outcome::kError;
  }
  if (len > max_frame_bytes_) {
    error_ = StrFormat("frame payload of %u bytes exceeds the %zu-byte cap",
                       len, max_frame_bytes_);
    return Outcome::kError;
  }
  if (buf_.size() - c.pos < len) return Outcome::kNeedMore;
  out->version = version;
  out->kind = static_cast<FrameKind>(kind);
  out->flags = flags;
  out->request_id = rid;
  out->payload.assign(buf_, c.pos, len);
  pos_ = c.pos + len;
  return Outcome::kFrame;
}

std::string EncodeHello(const HelloPayload& h) {
  std::string out;
  PutU8(&out, h.min_version);
  PutU8(&out, h.max_version);
  return out;
}

Result<HelloPayload> DecodeHello(const std::string& payload) {
  Cursor c{&payload};
  HelloPayload h;
  RDB_RETURN_NOT_OK(GetU8(&c, &h.min_version));
  RDB_RETURN_NOT_OK(GetU8(&c, &h.max_version));
  if (h.min_version > h.max_version)
    return Status::InvalidArgument("HELLO with empty version range");
  return h;
}

std::string EncodeWelcome(const WelcomePayload& w) {
  std::string out;
  PutU8(&out, w.version);
  PutU32(&out, w.max_inflight);
  return out;
}

Result<WelcomePayload> DecodeWelcome(const std::string& payload) {
  Cursor c{&payload};
  WelcomePayload w;
  RDB_RETURN_NOT_OK(GetU8(&c, &w.version));
  RDB_RETURN_NOT_OK(GetU32(&c, &w.max_inflight));
  return w;
}

void ExtractLineCol(const std::string& message, uint32_t* line,
                    uint32_t* col) {
  *line = 0;
  *col = 0;
  // Every SQL-layer error embeds a LineColAt-rendered "L:C". Take the last
  // digits:digits token in the message; when none exists, leave 0:0.
  for (size_t i = message.size(); i-- > 0;) {
    if (message[i] != ':') continue;
    size_t ls = i;
    while (ls > 0 && std::isdigit(static_cast<unsigned char>(message[ls - 1])))
      --ls;
    size_t ce = i + 1;
    while (ce < message.size() &&
           std::isdigit(static_cast<unsigned char>(message[ce])))
      ++ce;
    if (ls == i || ce == i + 1) continue;
    *line = static_cast<uint32_t>(
        std::strtoul(message.substr(ls, i - ls).c_str(), nullptr, 10));
    *col = static_cast<uint32_t>(
        std::strtoul(message.substr(i + 1, ce - i - 1).c_str(), nullptr, 10));
    return;
  }
}

std::string EncodeError(const Status& st) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(st.code()));
  uint32_t line = 0, col = 0;
  ExtractLineCol(st.message(), &line, &col);
  PutU32(&out, line);
  PutU32(&out, col);
  PutString(&out, st.message());
  return out;
}

Result<ErrorPayload> DecodeError(const std::string& payload) {
  Cursor c{&payload};
  ErrorPayload e;
  uint8_t code = 0;
  RDB_RETURN_NOT_OK(GetU8(&c, &code));
  if (code > static_cast<uint8_t>(StatusCode::kWriteConflict))
    return Status::InvalidArgument("ERROR frame with unknown status code");
  e.code = static_cast<StatusCode>(code);
  RDB_RETURN_NOT_OK(GetU32(&c, &e.line));
  RDB_RETURN_NOT_OK(GetU32(&c, &e.col));
  RDB_RETURN_NOT_OK(GetString(&c, &e.message));
  return e;
}

// --- typed result sets ------------------------------------------------------

namespace {

/// Wire tags for TypeTag; the numeric values are part of the protocol, so
/// they are pinned here rather than relying on the enum's layout.
uint8_t WireTypeTag(TypeTag t) { return static_cast<uint8_t>(t); }

Result<TypeTag> TypeTagFromWire(uint8_t v) {
  if (v > static_cast<uint8_t>(TypeTag::kStr))
    return Status::InvalidArgument("result set carries unknown type tag");
  return static_cast<TypeTag>(v);
}

uint64_t DblBits(double d) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double DblFromBits(uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void EncodeScalar(std::string* out, const Scalar& s) {
  PutU8(out, WireTypeTag(s.tag()));
  switch (s.tag()) {
    case TypeTag::kVoid:
      break;
    case TypeTag::kBit:
      PutU8(out, static_cast<uint8_t>(s.Get<int8_t>()));
      break;
    case TypeTag::kInt:
    case TypeTag::kDate:
      PutU32(out, static_cast<uint32_t>(s.Get<int32_t>()));
      break;
    case TypeTag::kLng:
      PutU64(out, static_cast<uint64_t>(s.Get<int64_t>()));
      break;
    case TypeTag::kOid:
      PutU64(out, s.Get<Oid>());
      break;
    case TypeTag::kDbl:
      PutU64(out, DblBits(s.Get<double>()));
      break;
    case TypeTag::kStr:
      PutString(out, s.AsStr());
      break;
  }
}

Result<Scalar> DecodeScalar(Cursor* c) {
  uint8_t raw = 0;
  RDB_RETURN_NOT_OK(GetU8(c, &raw));
  RDB_ASSIGN_OR_RETURN(TypeTag tag, TypeTagFromWire(raw));
  switch (tag) {
    case TypeTag::kVoid:
      return Scalar();
    case TypeTag::kBit: {
      uint8_t v = 0;
      RDB_RETURN_NOT_OK(GetU8(c, &v));
      // Rebuild through the nil-preserving path: Bit() normalises to 0/1,
      // which would corrupt an in-band nil marker.
      int8_t phys = static_cast<int8_t>(v);
      if (IsNil(phys)) return Scalar::Nil(TypeTag::kBit);
      return Scalar::Bit(phys != 0);
    }
    case TypeTag::kInt: {
      uint32_t v = 0;
      RDB_RETURN_NOT_OK(GetU32(c, &v));
      return Scalar::Int(static_cast<int32_t>(v));
    }
    case TypeTag::kDate: {
      uint32_t v = 0;
      RDB_RETURN_NOT_OK(GetU32(c, &v));
      return Scalar::DateVal(static_cast<int32_t>(v));
    }
    case TypeTag::kLng: {
      uint64_t v = 0;
      RDB_RETURN_NOT_OK(GetU64(c, &v));
      return Scalar::Lng(static_cast<int64_t>(v));
    }
    case TypeTag::kOid: {
      uint64_t v = 0;
      RDB_RETURN_NOT_OK(GetU64(c, &v));
      return Scalar::OidVal(v);
    }
    case TypeTag::kDbl: {
      uint64_t v = 0;
      RDB_RETURN_NOT_OK(GetU64(c, &v));
      return Scalar::Dbl(DblFromBits(v));
    }
    case TypeTag::kStr: {
      std::string s;
      RDB_RETURN_NOT_OK(GetString(c, &s));
      return Scalar::Str(std::move(s));
    }
  }
  return Status::Internal("unreachable scalar tag");
}

void EncodeSide(std::string* out, const BatSide& side, size_t count) {
  if (side.dense()) {
    PutU8(out, 1);
    PutU64(out, side.seq);
    return;
  }
  PutU8(out, 0);
  PutU8(out, WireTypeTag(side.type));
  VisitPhysical(side.type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    const T* data = side.col->Data<T>().data() + side.offset;
    [[maybe_unused]] const StringHeap* heap = side.col->heap().get();
    for (size_t i = 0; i < count; ++i) {
      if constexpr (std::is_same_v<T, int8_t>) {
        PutU8(out, static_cast<uint8_t>(data[i]));
      } else if constexpr (std::is_same_v<T, int32_t>) {
        PutU32(out, static_cast<uint32_t>(data[i]));
      } else if constexpr (std::is_same_v<T, int64_t>) {
        PutU64(out, static_cast<uint64_t>(data[i]));
      } else if constexpr (std::is_same_v<T, Oid>) {
        PutU64(out, data[i]);
      } else if constexpr (std::is_same_v<T, double>) {
        PutU64(out, DblBits(data[i]));
      } else {
        PutString(out, heap->Get(data[i]));  // strings leave the heap here
      }
    }
  });
}

Result<BatSide> DecodeSide(Cursor* c, size_t count) {
  uint8_t dense = 0;
  RDB_RETURN_NOT_OK(GetU8(c, &dense));
  if (dense != 0) {
    uint64_t seq = 0;
    RDB_RETURN_NOT_OK(GetU64(c, &seq));
    return BatSide::Dense(seq);
  }
  uint8_t raw = 0;
  RDB_RETURN_NOT_OK(GetU8(c, &raw));
  RDB_ASSIGN_OR_RETURN(TypeTag tag, TypeTagFromWire(raw));
  if (tag == TypeTag::kVoid)
    return Status::InvalidArgument("materialised side cannot be :void");
  return VisitPhysical(tag, [&](auto t) -> Result<BatSide> {
    using T = typename decltype(t)::type;
    if constexpr (!std::is_same_v<T, StrCode>) {
      // Reject a corrupt count before allocating for it. Divide rather
      // than multiply: count * elem can wrap for an adversarial count
      // (e.g. 0x2000000000000001 * 8 == 8) and sail past the check into
      // a throwing reserve().
      const size_t elem = std::is_same_v<T, int8_t> ? 1
                          : std::is_same_v<T, int32_t> ? 4
                                                       : 8;
      if (count > c->Remaining() / elem)
        return Truncated("column values");
      std::vector<T> vals;
      vals.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        if constexpr (std::is_same_v<T, int8_t>) {
          uint8_t v = 0;
          RDB_RETURN_NOT_OK(GetU8(c, &v));
          vals.push_back(static_cast<int8_t>(v));
        } else if constexpr (std::is_same_v<T, int32_t>) {
          uint32_t v = 0;
          RDB_RETURN_NOT_OK(GetU32(c, &v));
          vals.push_back(static_cast<int32_t>(v));
        } else if constexpr (std::is_same_v<T, Oid>) {
          uint64_t v = 0;
          RDB_RETURN_NOT_OK(GetU64(c, &v));
          vals.push_back(v);
        } else if constexpr (std::is_same_v<T, double>) {
          uint64_t v = 0;
          RDB_RETURN_NOT_OK(GetU64(c, &v));
          vals.push_back(DblFromBits(v));
        } else {
          uint64_t v = 0;
          RDB_RETURN_NOT_OK(GetU64(c, &v));
          vals.push_back(static_cast<int64_t>(v));
        }
      }
      return BatSide::Materialized(Column::Make<T>(tag, std::move(vals)));
    } else {
      // Each string carries at least its u32 length.
      if (count > c->Remaining() / 4) return Truncated("column strings");
      StringHeapBuilder heap;
      std::vector<StrCode> codes;
      codes.reserve(count);
      std::string s;
      for (size_t i = 0; i < count; ++i) {
        RDB_RETURN_NOT_OK(GetString(c, &s));
        codes.push_back(heap.Intern(s));
      }
      auto col = Column::Make(TypeTag::kStr, std::move(codes), heap.Finish());
      return BatSide::Materialized(std::move(col));
    }
  });
}

}  // namespace

std::string EncodeResultSet(const QueryResult& r) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(r.values.size()));
  for (const auto& [label, v] : r.values) {
    PutString(&out, label);
    if (v.is_bat()) {
      const Bat& b = *v.bat();
      PutU8(&out, 1);
      PutU64(&out, b.size());
      EncodeSide(&out, b.head(), b.size());
      EncodeSide(&out, b.tail(), b.size());
    } else {
      PutU8(&out, 0);
      EncodeScalar(&out, v.scalar());
    }
  }
  return out;
}

Result<QueryResult> DecodeResultSet(const std::string& payload) {
  Cursor c{&payload};
  uint32_t ncols = 0;
  RDB_RETURN_NOT_OK(GetU32(&c, &ncols));
  QueryResult r;
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string label;
    RDB_RETURN_NOT_OK(GetString(&c, &label));
    uint8_t is_bat = 0;
    RDB_RETURN_NOT_OK(GetU8(&c, &is_bat));
    if (is_bat != 0) {
      uint64_t count = 0;
      RDB_RETURN_NOT_OK(GetU64(&c, &count));
      // A materialized side costs >= 1 byte per row, so its count is
      // checked against the remaining payload inside DecodeSide. A
      // dense/dense bat encodes in 19 bytes regardless of count, so an
      // adversarial row count there is bounded by kMaxWireRows instead —
      // downstream consumers iterate `count` rows and must not be handed
      // a 2^61-row loop by a corrupt server.
      if (count > kMaxWireRows)
        return Status::InvalidArgument(
            StrFormat("result set row count %llu exceeds the wire cap",
                      static_cast<unsigned long long>(count)));
      RDB_ASSIGN_OR_RETURN(BatSide head, DecodeSide(&c, count));
      RDB_ASSIGN_OR_RETURN(BatSide tail, DecodeSide(&c, count));
      r.values.emplace_back(std::move(label),
                            Bat::Make(std::move(head), std::move(tail),
                                      count));
    } else {
      RDB_ASSIGN_OR_RETURN(Scalar s, DecodeScalar(&c));
      r.values.emplace_back(std::move(label), std::move(s));
    }
  }
  if (c.Remaining() != 0)
    return Status::InvalidArgument("trailing bytes after result set");
  return r;
}

}  // namespace recycledb::net
