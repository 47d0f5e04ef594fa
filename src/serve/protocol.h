// Wire protocol of the litmusd verdict service.
//
// A long-lived litmusd daemon answers admissibility queries over a
// stream socket; this header is the complete wire contract shared by
// server and client.  Everything is length-prefixed, fixed-width
// little-endian (util/bytes.h codecs — the same discipline as the
// on-disk store), and versioned, so the two ends can disagree about
// build age without ever disagreeing about byte meaning.
//
// Framing:
//
//   u32 magic   ("MCLS")     sanity word; anything else is garbage
//   u32 length  (payload bytes; at most kMaxFramePayload)
//   payload
//
// Payload (request and response alike):
//
//   u32 protocol_version (kProtocolVersion)
//   u32 message type     (MsgType)
//   u64 request id       (echoed verbatim in the response)
//   body                 (per-type; see the encode functions)
//
// Request bodies:
//
//   kProbe       key128 — canonical test fingerprint.  Answered from
//                the store only (kUnknown on a miss): a fingerprint
//                alone cannot be computed.
//   kCheck       u32 len + litmus text (parser.h grammar, one test).
//                Store hit answered without the engine; a miss is
//                computed, answered, and appended to the store.
//   kBatchProbe  u32 n + n x key128.
//   kBatchCheck  u32 len + corpus text (multiple `name:` tests).
//   kStats       empty; answers with the StatsField vector.
//   kModels      empty; answers with the served model names, in
//                verdict-row column order.
//
// Response bodies:
//
//   kVerdictRow   u8 source (VerdictSource) + u32 num_models +
//                 ceil(n/64) valid words + ceil(n/64) bit words.
//                 Bit i of `bits` is model i's verdict where bit i of
//                 `valid` is set; a kUnknown row has no valid bits.
//   kVerdictRows  u32 n + n rows (kBatch* replies, item order).
//   kStatsReply   u32 count + count x u64 (StatsField order; a newer
//                 server may append fields, never reorder).
//   kModelsReply  u32 n + n x (u32 len + bytes).
//   kError        u32 code (ErrorCode) + u32 len + message bytes.
//
// Malformed input is an expected case, not a logic error: every decode
// path bounds-checks before it allocates and returns false instead of
// throwing, so a server fed garbage rejects the frame and stays up.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/hash128.h"

namespace mcmc::serve {

inline constexpr std::uint32_t kFrameMagic = 0x534c434d;  // "MCLS"
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Largest accepted payload.  Generous for batch corpora, small
/// enough that a hostile length word cannot balloon server memory.
inline constexpr std::uint32_t kMaxFramePayload = 4u << 20;
/// Most events (instructions) a checked test may have: the 64 a reorder
/// mask row holds.  A larger test would go to the SAT engine, whose
/// encoding grows with the cube of the event count, on the one batcher
/// thread every client waits on; the server refuses it instead.
inline constexpr int kMaxCheckEvents = 64;

enum class MsgType : std::uint32_t {
  kProbe = 1,
  kCheck = 2,
  kBatchProbe = 3,
  kBatchCheck = 4,
  kStats = 5,
  kModels = 6,

  kVerdictRow = 65,
  kVerdictRows = 66,
  kStatsReply = 67,
  kModelsReply = 68,
  kError = 69,
};

enum class ErrorCode : std::uint32_t {
  kMalformed = 1,      ///< unframeable/undecodable payload
  kBadVersion = 2,     ///< protocol_version mismatch
  kBadRequest = 3,     ///< well-framed but unusable (e.g. parse error)
  kOverloaded = 4,     ///< admission queue full; retry later
  kShuttingDown = 5,   ///< server draining; novel work refused
  kInternal = 6,       ///< server-side failure
};

/// Where a verdict row came from.
enum class VerdictSource : std::uint8_t {
  kUnknown = 0,   ///< probe miss: nothing stored under that fingerprint
  kStore = 1,     ///< answered from the persistent store, engine untouched
  kComputed = 2,  ///< computed by the engine this request
};

/// One packed per-model verdict row as it travels the wire.
struct VerdictRowWire {
  VerdictSource source = VerdictSource::kUnknown;
  std::uint32_t num_models = 0;
  std::vector<std::uint64_t> valid;  ///< ceil(num_models/64) words
  std::vector<std::uint64_t> bits;   ///< same shape as `valid`

  [[nodiscard]] bool known(int model) const {
    return model >= 0 && static_cast<std::uint32_t>(model) < num_models &&
           ((valid[static_cast<std::size_t>(model) / 64] >>
             (static_cast<std::size_t>(model) % 64)) &
            1ULL) != 0;
  }
  [[nodiscard]] bool allowed(int model) const {
    return ((bits[static_cast<std::size_t>(model) / 64] >>
             (static_cast<std::size_t>(model) % 64)) &
            1ULL) != 0;
  }
};

/// Index of every field of a kStatsReply, in wire order.  The final
/// two are per-client (the connection that asked); the rest are
/// global since server start.
enum StatsField : std::size_t {
  kStatProbes = 0,          ///< probe cells asked (batch items count singly)
  kStatProbeStoreHits,      ///< probes answered from the store
  kStatProbeUnknown,        ///< probes with no stored row
  kStatChecks,              ///< check tests asked
  kStatCheckStoreHits,      ///< checks served from the store, engine untouched
  kStatCheckComputed,       ///< checks that went through the engine
  kStatBatchesCoalesced,    ///< engine runs (coalesced admission batches)
  kStatMaxCoalesced,        ///< largest single coalesced batch (tests)
  kStatQueueDepth,          ///< tests queued for the engine right now
  kStatQueueRejected,       ///< requests refused with kOverloaded
  kStatConnectionsOpened,   ///< connections accepted since start
  kStatConnectionsActive,   ///< connections open right now
  kStatLatencyP50Ns,        ///< request service time, 50th percentile
  kStatLatencyP99Ns,        ///< request service time, 99th percentile
  kStatStoreEntries,        ///< rows in the verdict store
  kStatStoreSaves,          ///< store commits since start
  kStatClientRequests,      ///< THIS connection's requests
  kStatClientStoreHits,     ///< THIS connection's store-served rows
  kStatFieldCount
};

/// A decoded request.  `type` selects which payload fields mean
/// anything (the others stay default-constructed).
struct Request {
  MsgType type = MsgType::kStats;
  std::uint64_t id = 0;
  util::Key128 key;                // kProbe
  std::vector<util::Key128> keys;  // kBatchProbe
  std::string text;                // kCheck / kBatchCheck litmus source
};

/// A decoded response; `type` selects the meaningful fields.
struct Response {
  MsgType type = MsgType::kError;
  std::uint64_t id = 0;
  VerdictRowWire row;                     // kVerdictRow
  std::vector<VerdictRowWire> rows;       // kVerdictRows
  std::vector<std::uint64_t> stats;       // kStatsReply
  std::vector<std::string> model_names;   // kModelsReply
  ErrorCode error_code = ErrorCode::kInternal;  // kError
  std::string error_message;                    // kError
};

// ---- Framing ----

/// Appends magic + length + payload to `out` (the only way bytes ever
/// reach a socket).
void append_frame(std::string& out, const std::string& payload);

enum class FrameStatus {
  kNeedMore,  ///< buffer holds a frame prefix; read more bytes
  kFrame,     ///< one payload extracted; `consumed` bytes are done
  kBad,       ///< not a frame (bad magic or oversized length): drop link
};

/// Extracts the first complete frame from `buffer`, writing its
/// payload and the total bytes consumed (header + payload).  Never
/// reads past the buffer and never allocates more than a declared —
/// and bounds-checked — payload.
[[nodiscard]] FrameStatus extract_frame(const std::string& buffer,
                                        std::size_t& consumed,
                                        std::string& payload);

// ---- Payload codecs ----

[[nodiscard]] std::string encode_request(const Request& request);
[[nodiscard]] std::string encode_response(const Response& response);

/// Decodes a request payload; false on anything malformed (wrong
/// version included — the caller distinguishes via `version_out` to
/// answer kBadVersion instead of kMalformed).
[[nodiscard]] bool decode_request(const std::string& payload, Request& out,
                                  std::uint32_t* version_out = nullptr);

[[nodiscard]] bool decode_response(const std::string& payload, Response& out);

}  // namespace mcmc::serve
