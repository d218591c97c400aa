// The routedbd wire format: versioned request/reply framing over datagrams.
//
// One datagram is one request (client-chosen 64-bit request id, up to
// kMaxQueriesPerRequest destination names) or one reply (the id echoed, one result
// per query in request order).  Datagrams are atomic — a UDP or unix-domain
// datagram arrives whole or not at all — so there is no streaming reassembly; the
// framing exists to make *replies* idempotent and *truncation* explicit:
//
//   * Dedup/retransmit: a client that hears nothing retransmits the SAME datagram
//     (same id, same queries).  The daemon remembers its last replies per peer in a
//     bounded replay buffer and answers a duplicate by resending the stored bytes —
//     same answer, no second resolve — with kReplyFlagReplayed set so clients and
//     tests can observe the dedup.  (The AMUDP request/reply engine is the model:
//     coalesce, dedup by (source, id), replay from a bounded buffer.)
//
//   * Truncation: a reply never exceeds the daemon's max_reply_bytes.  Results are
//     appended in request order until the next one would not fit; the reply then
//     carries count < query_count and kReplyFlagTruncated.  The client contract:
//     results [0, count) are final and positional; re-ask the tail [count,
//     query_count) in a NEW request.  A single result too large even for an empty
//     reply comes back as status kResultTruncated with empty via/route — re-ask it
//     alone with a bigger budget, or treat it as undeliverable.
//
// All integers are little-endian, the native order of every supported target (the
// .pari image made the same call; see image_format.h).  Decoders validate
// everything — magic, version, counts, lengths, exact payload size — and reject
// rather than guess: a malformed datagram gets a header-only kReplyFlagBadRequest
// reply when the id is recoverable, silence when it is not.

#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pathalias {
namespace net {

// 'P','A','D','Q' / 'P','A','D','R' read as little-endian u32.
constexpr uint32_t kRequestMagic = 0x51444150u;
constexpr uint32_t kReplyMagic = 0x52444150u;
constexpr uint16_t kWireVersion = 1;

// Hard protocol bounds, chosen so any well-formed request fits one 64 KiB
// datagram with room to spare and a reply buffer can be stack-sized.
constexpr size_t kMaxQueriesPerRequest = 512;
constexpr size_t kMaxNameLength = 1024;
constexpr size_t kMaxDatagramBytes = 64 * 1024;

// Reply header flags.
constexpr uint16_t kReplyFlagTruncated = 1u << 0;   // count < query_count: re-ask the tail
constexpr uint16_t kReplyFlagReplayed = 1u << 1;    // served from the dedup replay buffer
constexpr uint16_t kReplyFlagBadRequest = 1u << 2;  // request undecodable; count == 0
constexpr uint16_t kReplyFlagOverloaded = 1u << 3;  // daemon shed this request; count == 0,
                                                    // nothing was resolved — back off and
                                                    // retransmit the SAME id later

// Per-result status.
enum ResultStatus : uint8_t {
  kResultMiss = 0,         // no route known
  kResultExact = 1,        // exact host/domain key hit: route is the full route
  kResultSuffix = 2,       // domain-suffix hit: prepend the host to the argument
  kResultMalformed = 3,    // not a routable name (QueryDefect, below)
  kResultTruncated = 4,    // this one result alone exceeded the reply budget
};

// The routable-query rule routedbd and `routedb batch` share: a query is a
// non-empty run of printable, non-blank ASCII (0x21-0x7e), as host names and
// domain keys are.  Returns what is wrong with `query`, or null when nothing is.
// routedbd answers a defective query kResultMalformed; `routedb batch` reports its
// line and skips it.
const char* QueryDefect(std::string_view query);

// The fixed 24-byte header shared by requests and replies.
struct WireHeader {
  uint32_t magic;
  uint16_t version;
  uint16_t flags;        // requests: must be 0; replies: kReplyFlag*
  uint64_t request_id;   // client-chosen; echoed verbatim in the reply
  uint16_t count;        // queries present / results present
  uint16_t query_count;  // replies: queries in the request answered (= count unless
                         // truncated); requests: must equal count
  uint32_t reserved;     // must be 0
};
static_assert(sizeof(WireHeader) == 24, "wire header layout is part of the protocol");

// A decoded request: views into the datagram buffer (valid until the buffer is
// reused — the coalescer copies what it keeps).
struct DecodedRequest {
  uint64_t request_id = 0;
  std::vector<std::string_view> queries;
};

// One reply entry.  `via` is the database key that matched; `route` the stored
// route text (with its %s placeholder) — both empty on miss/malformed/truncated.
struct ReplyResult {
  uint8_t status = kResultMiss;
  std::string_view via;
  std::string_view route;
};

// A decoded reply, views into the caller's datagram buffer.
struct DecodedReply {
  uint64_t request_id = 0;
  uint16_t flags = 0;
  uint16_t query_count = 0;
  std::vector<ReplyResult> results;
};

// Encodes a request datagram into `out` (replacing its contents).  False when the
// queries violate the protocol bounds (too many, a name too long or empty).
bool EncodeRequest(uint64_t request_id, std::span<const std::string_view> queries,
                   std::string* out);

// Decodes a request datagram.  On failure returns false and sets *error to a
// short reason; *recovered_id gets the request id when at least the header was
// intact (so the server can still send a bad-request reply), 0 otherwise.
bool DecodeRequest(std::string_view datagram, DecodedRequest* out, std::string* error,
                   uint64_t* recovered_id);

// Encodes a reply for `results`, appending entries in order while the encoded size
// stays within `max_bytes`; sets kReplyFlagTruncated itself when it stops early.
// `flags` carries caller flags (e.g. kReplyFlagReplayed is applied by the replay
// path, not here).  Returns the number of results included.  A first result that
// alone busts the budget is included as kResultTruncated with empty strings, so a
// reply always answers at least one query.  `max_bytes` is clamped to
// [sizeof(WireHeader) + 8, kMaxDatagramBytes].
size_t EncodeReply(uint64_t request_id, uint16_t flags, size_t query_count,
                   std::span<const ReplyResult> results, size_t max_bytes,
                   std::string* out);

// Header-only bad-request reply (count == 0, kReplyFlagBadRequest).
void EncodeBadRequestReply(uint64_t request_id, std::string* out);

// Header-only overload reply (count == 0, kReplyFlagOverloaded): the daemon is
// shedding load and answered nothing.  Deliberately NOT a silent drop — the
// client learns immediately that it should back off instead of burning its
// timeout, and retransmits the same id once the daemon catches up.
void EncodeOverloadReply(uint64_t request_id, std::string* out);

// Decodes a reply datagram; same validation discipline as DecodeRequest.
bool DecodeReply(std::string_view datagram, DecodedReply* out, std::string* error);

}  // namespace net
}  // namespace pathalias

#endif  // SRC_NET_WIRE_H_
