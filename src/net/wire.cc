#include "src/net/wire.h"

#include <algorithm>

namespace pathalias {
namespace net {
namespace {

// Little-endian field access through memcpy: the header structs are only read and
// written through these, so unaligned datagram buffers are fine on any target.
template <typename T>
T LoadLe(const char* at) {
  T value;
  std::memcpy(&value, at, sizeof(T));
  return value;
}

void AppendU16(std::string* out, uint16_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void AppendHeader(std::string* out, const WireHeader& header) {
  out->append(reinterpret_cast<const char*>(&header), sizeof(header));
}

bool ReadHeader(std::string_view datagram, WireHeader* header) {
  if (datagram.size() < sizeof(WireHeader)) {
    return false;
  }
  std::memcpy(header, datagram.data(), sizeof(WireHeader));
  return true;
}

// The serialized size of one reply entry: status byte + two u16 lengths + bytes.
size_t ResultWireSize(const ReplyResult& result) {
  return 1 + 2 * sizeof(uint16_t) + result.via.size() + result.route.size();
}

}  // namespace

const char* QueryDefect(std::string_view query) {
  if (query.empty()) {
    return "is empty";
  }
  for (unsigned char c : query) {
    if (c == ' ' || c == '\t') {
      return "contains whitespace";
    }
    if (c < 0x21 || c > 0x7e) {
      return "contains a control or non-ASCII byte";
    }
  }
  return nullptr;
}

bool EncodeRequest(uint64_t request_id, std::span<const std::string_view> queries,
                   std::string* out) {
  if (queries.empty() || queries.size() > kMaxQueriesPerRequest) {
    return false;  // the decoder rejects count == 0; never emit what it refuses
  }
  for (std::string_view query : queries) {
    if (query.empty() || query.size() > kMaxNameLength) {
      return false;
    }
  }
  WireHeader header{};
  header.magic = kRequestMagic;
  header.version = kWireVersion;
  header.flags = 0;
  header.request_id = request_id;
  header.count = static_cast<uint16_t>(queries.size());
  header.query_count = header.count;
  header.reserved = 0;
  out->clear();
  AppendHeader(out, header);
  for (std::string_view query : queries) {
    AppendU16(out, static_cast<uint16_t>(query.size()));
    out->append(query);
  }
  return out->size() <= kMaxDatagramBytes;
}

bool DecodeRequest(std::string_view datagram, DecodedRequest* out, std::string* error,
                   uint64_t* recovered_id) {
  auto fail = [&](const char* why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  *recovered_id = 0;
  WireHeader header;
  if (!ReadHeader(datagram, &header)) {
    return fail("short datagram");
  }
  if (header.magic != kRequestMagic) {
    return fail("bad magic");
  }
  // The id is usable for an error reply from here on: magic said "ours".
  *recovered_id = header.request_id;
  if (header.version != kWireVersion) {
    return fail("unsupported version");
  }
  if (header.flags != 0 || header.reserved != 0) {
    return fail("nonzero request flags");
  }
  if (header.count == 0 || header.count > kMaxQueriesPerRequest) {
    return fail("query count out of range");
  }
  if (header.query_count != header.count) {
    return fail("query_count mismatch");
  }
  out->request_id = header.request_id;
  out->queries.clear();
  out->queries.reserve(header.count);
  size_t at = sizeof(WireHeader);
  for (uint16_t i = 0; i < header.count; ++i) {
    if (at + sizeof(uint16_t) > datagram.size()) {
      return fail("truncated query length");
    }
    uint16_t length = LoadLe<uint16_t>(datagram.data() + at);
    at += sizeof(uint16_t);
    if (length == 0 || length > kMaxNameLength) {
      return fail("query length out of range");
    }
    if (at + length > datagram.size()) {
      return fail("truncated query bytes");
    }
    out->queries.push_back(datagram.substr(at, length));
    at += length;
  }
  if (at != datagram.size()) {
    return fail("trailing bytes after last query");
  }
  return true;
}

size_t EncodeReply(uint64_t request_id, uint16_t flags, size_t query_count,
                   std::span<const ReplyResult> results, size_t max_bytes,
                   std::string* out) {
  max_bytes = std::clamp(max_bytes, sizeof(WireHeader) + 8, kMaxDatagramBytes);
  size_t included = 0;
  size_t size = sizeof(WireHeader);
  bool clipped_one = false;
  while (included < results.size()) {
    size_t next = ResultWireSize(results[included]);
    if (size + next > max_bytes) {
      // Never send an empty answer: clip the first result to a bare
      // kResultTruncated marker (its wire size is the 5-byte minimum, which the
      // clamp above guarantees fits).
      if (included == 0) {
        clipped_one = true;
        ++included;
      }
      break;
    }
    size += next;
    ++included;
  }
  if (included < query_count) {
    flags |= kReplyFlagTruncated;
  }
  WireHeader header{};
  header.magic = kReplyMagic;
  header.version = kWireVersion;
  header.flags = flags;
  header.request_id = request_id;
  header.count = static_cast<uint16_t>(included);
  header.query_count = static_cast<uint16_t>(query_count);
  header.reserved = 0;
  out->clear();
  out->reserve(size);
  AppendHeader(out, header);
  for (size_t i = 0; i < included; ++i) {
    if (clipped_one) {
      out->push_back(static_cast<char>(kResultTruncated));
      AppendU16(out, 0);
      AppendU16(out, 0);
      continue;
    }
    const ReplyResult& result = results[i];
    out->push_back(static_cast<char>(result.status));
    AppendU16(out, static_cast<uint16_t>(result.via.size()));
    AppendU16(out, static_cast<uint16_t>(result.route.size()));
    out->append(result.via);
    out->append(result.route);
  }
  return included;
}

void EncodeBadRequestReply(uint64_t request_id, std::string* out) {
  WireHeader header{};
  header.magic = kReplyMagic;
  header.version = kWireVersion;
  header.flags = kReplyFlagBadRequest;
  header.request_id = request_id;
  header.count = 0;
  header.query_count = 0;
  header.reserved = 0;
  out->clear();
  AppendHeader(out, header);
}

void EncodeOverloadReply(uint64_t request_id, std::string* out) {
  WireHeader header{};
  header.magic = kReplyMagic;
  header.version = kWireVersion;
  header.flags = kReplyFlagOverloaded;
  header.request_id = request_id;
  header.count = 0;
  header.query_count = 0;
  header.reserved = 0;
  out->clear();
  AppendHeader(out, header);
}

bool DecodeReply(std::string_view datagram, DecodedReply* out, std::string* error) {
  auto fail = [&](const char* why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  WireHeader header;
  if (!ReadHeader(datagram, &header)) {
    return fail("short datagram");
  }
  if (header.magic != kReplyMagic) {
    return fail("bad magic");
  }
  if (header.version != kWireVersion) {
    return fail("unsupported version");
  }
  if (header.count > kMaxQueriesPerRequest || header.count > header.query_count) {
    return fail("result count out of range");
  }
  out->request_id = header.request_id;
  out->flags = header.flags;
  out->query_count = header.query_count;
  out->results.clear();
  out->results.reserve(header.count);
  size_t at = sizeof(WireHeader);
  for (uint16_t i = 0; i < header.count; ++i) {
    if (at + 1 + 2 * sizeof(uint16_t) > datagram.size()) {
      return fail("truncated result header");
    }
    ReplyResult result;
    result.status = static_cast<uint8_t>(datagram[at]);
    if (result.status > kResultTruncated) {
      return fail("unknown result status");
    }
    uint16_t via_length = LoadLe<uint16_t>(datagram.data() + at + 1);
    uint16_t route_length = LoadLe<uint16_t>(datagram.data() + at + 1 + sizeof(uint16_t));
    at += 1 + 2 * sizeof(uint16_t);
    if (at + via_length + route_length > datagram.size()) {
      return fail("truncated result bytes");
    }
    result.via = datagram.substr(at, via_length);
    at += via_length;
    result.route = datagram.substr(at, route_length);
    at += route_length;
    out->results.push_back(result);
  }
  if (at != datagram.size()) {
    return fail("trailing bytes after last result");
  }
  return true;
}

}  // namespace net
}  // namespace pathalias
