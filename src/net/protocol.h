#ifndef RECYCLEDB_NET_PROTOCOL_H_
#define RECYCLEDB_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "interp/query_result.h"
#include "util/status.h"

namespace recycledb::net {

/// The RecycleDB wire protocol: length-prefixed binary frames over a byte
/// stream (see docs/PROTOCOL.md for the normative description).
///
/// Every frame is a fixed 16-byte header followed by `payload_len` payload
/// bytes. All integers are little-endian.
///
///   offset 0  u8   magic (kMagic)
///   offset 1  u8   version (kProtocolVersion; see HELLO negotiation)
///   offset 2  u8   kind (FrameKind)
///   offset 3  u8   flags (kind-specific; kFlagHasTrace on RESULT)
///   offset 4  u32  payload_len
///   offset 8  u64  request_id
///
/// Requests carry a client-chosen request_id; every response echoes the id
/// of the request it answers, so responses may be matched out of order.

inline constexpr uint8_t kMagic = 0xDB;
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kHeaderBytes = 16;

/// Upper bound a decoder enforces on payload_len before buffering: a
/// malicious or corrupt length must not make the peer allocate unbounded
/// memory. Both sides enforce it; oversized frames are a protocol error.
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

/// Upper bound on a result-set Bat's row count. Materialized sides are
/// additionally bounded by the payload (>= 1 byte per row), but a
/// dense/dense Bat encodes in O(1) bytes for any count, so the decoder
/// needs an explicit cap to keep a corrupt peer from handing consumers an
/// effectively unbounded row loop.
inline constexpr uint64_t kMaxWireRows = 1ull << 32;

/// Frame kinds. Requests (client -> server) and responses (server ->
/// client) share one namespace; responses start at 32.
enum class FrameKind : uint8_t {
  // Requests.
  kHello = 1,      ///< version negotiation; must be the first frame
  kQuery = 2,      ///< SQL SELECT / TRACE SELECT text
  kDml = 3,        ///< SQL INSERT / DELETE / COMMIT text
  kCancel = 4,     ///< payload: request_id of the request to cancel
  kPing = 5,       ///< liveness probe
  kMetrics = 6,    ///< payload: u8 format (0 = JSON, 1 = Prometheus)
  kSetOption = 7,  ///< session option: name + value strings

  // Responses.
  kWelcome = 32,        ///< HELLO accepted: negotiated version + limits
  kResult = 33,         ///< typed result set (+ trace text when flagged)
  kError = 34,          ///< status code + line:col + message
  kPong = 35,           ///< PING answer
  kMetricsResult = 36,  ///< metrics text in the requested format
  kBusy = 37,           ///< admission control rejected the request; retry
  kCancelled = 38,      ///< the request was cancelled before completion
  kOk = 39,             ///< generic success (SET_OPTION, CANCEL)
};

const char* FrameKindName(FrameKind k);
bool IsKnownFrameKind(uint8_t k);

/// RESULT flag: a trace text payload trails the result set.
inline constexpr uint8_t kFlagHasTrace = 0x1;

/// WELCOME flag: the server executes SELECTs as MVCC snapshot reads — a
/// query captures the catalog epoch at submission and never blocks on (nor
/// observes) commits that land while it runs. Clients may surface this to
/// decide read-your-writes expectations.
inline constexpr uint8_t kWelcomeFlagSnapshotReads = 0x1;

/// One decoded frame.
struct Frame {
  uint8_t version = kProtocolVersion;
  FrameKind kind = FrameKind::kPing;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  std::string payload;
};

/// Serialises a frame (header + payload) ready to write to a socket.
std::string EncodeFrame(const Frame& f);

/// Incremental frame decoder over a received byte stream. Feed() appends
/// raw bytes; Next() yields complete frames. Malformed input (bad magic,
/// unsupported version, unknown kind, oversized length) flips the decoder
/// into a permanent error state — framing is lost, the connection must be
/// closed.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const char* data, size_t n);

  enum class Outcome {
    kFrame,     ///< *out was filled with the next complete frame
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< permanent protocol error; see error()
  };
  Outcome Next(Frame* out);

  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed (a non-empty value at EOF means
  /// the peer disconnected mid-frame).
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  size_t max_frame_bytes_;
  std::string buf_;
  size_t pos_ = 0;  ///< consumed prefix of buf_
  std::string error_;
};

// --- payload builders / parsers --------------------------------------------
//
// Primitive layer: strings are u32 length + bytes; integers little-endian.
// Parsers take a cursor and fail cleanly on truncated input — they are the
// robustness surface the decode-fuzz tests drive.

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutString(std::string* out, std::string_view s);

struct Cursor {
  const std::string* data;
  size_t pos = 0;
  size_t Remaining() const { return data->size() - pos; }
};

Status GetU8(Cursor* c, uint8_t* v);
Status GetU32(Cursor* c, uint32_t* v);
Status GetU64(Cursor* c, uint64_t* v);
Status GetString(Cursor* c, std::string* s);

// --- typed payloads ---------------------------------------------------------

/// HELLO: the version range the client speaks.
struct HelloPayload {
  uint8_t min_version = kProtocolVersion;
  uint8_t max_version = kProtocolVersion;
};
std::string EncodeHello(const HelloPayload& h);
Result<HelloPayload> DecodeHello(const std::string& payload);

/// WELCOME: the negotiated version plus the server's per-connection
/// admission window (how many requests may be in flight at once before
/// BUSY responses start).
struct WelcomePayload {
  uint8_t version = kProtocolVersion;
  uint32_t max_inflight = 0;
};
std::string EncodeWelcome(const WelcomePayload& w);
Result<WelcomePayload> DecodeWelcome(const std::string& payload);

/// ERROR: the Status code, a best-effort 1-based source position (0:0 when
/// unknown — extracted from the "line:col" every SQL-layer error embeds),
/// and the verbatim message.
struct ErrorPayload {
  StatusCode code = StatusCode::kInternal;
  uint32_t line = 0;
  uint32_t col = 0;
  std::string message;
};
std::string EncodeError(const Status& st);
Result<ErrorPayload> DecodeError(const std::string& payload);
/// Rebuilds a Status from a wire (code, message) pair. An OK code inside
/// an ERROR frame is itself a protocol violation, reported as Internal.
Status MakeStatus(StatusCode code, std::string msg);
/// Scans an SQL error message for the trailing "line:col" position marker.
void ExtractLineCol(const std::string& message, uint32_t* line,
                    uint32_t* col);

/// Typed result-set encoding: enough structure crosses the wire for the
/// client to rebuild a real QueryResult (dense sides stay dense; columns
/// are rebuilt with their logical type), so rendering and value access on
/// the client are byte-identical to the in-process result.
std::string EncodeResultSet(const QueryResult& r);
Result<QueryResult> DecodeResultSet(const std::string& payload);

}  // namespace recycledb::net

#endif  // RECYCLEDB_NET_PROTOCOL_H_
