// Wire-format contract: round trips, strict decoder validation, and the
// truncation rules the client re-ask loop depends on.

#include "src/net/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace pathalias {
namespace net {
namespace {

std::vector<std::string_view> Queries(std::initializer_list<const char*> names) {
  return std::vector<std::string_view>(names.begin(), names.end());
}

TEST(Wire, RequestRoundTrip) {
  std::string datagram;
  ASSERT_TRUE(EncodeRequest(0xDEADBEEFCAFEull, Queries({"seismo", "a.rutgers.edu", "x"}),
                            &datagram));
  DecodedRequest decoded;
  std::string error;
  uint64_t recovered = 0;
  ASSERT_TRUE(DecodeRequest(datagram, &decoded, &error, &recovered)) << error;
  EXPECT_EQ(decoded.request_id, 0xDEADBEEFCAFEull);
  ASSERT_EQ(decoded.queries.size(), 3u);
  EXPECT_EQ(decoded.queries[0], "seismo");
  EXPECT_EQ(decoded.queries[1], "a.rutgers.edu");
  EXPECT_EQ(decoded.queries[2], "x");
}

TEST(Wire, RequestBoundsEnforcedAtEncode) {
  std::string datagram;
  EXPECT_FALSE(EncodeRequest(1, {}, &datagram)) << "zero queries";
  EXPECT_FALSE(EncodeRequest(1, Queries({""}), &datagram)) << "empty name";
  std::string long_name(kMaxNameLength + 1, 'a');
  std::vector<std::string_view> too_long = {long_name};
  EXPECT_FALSE(EncodeRequest(1, too_long, &datagram)) << "name too long";
  std::vector<std::string_view> too_many(kMaxQueriesPerRequest + 1, "h");
  EXPECT_FALSE(EncodeRequest(1, too_many, &datagram)) << "too many queries";
  std::vector<std::string_view> exactly(kMaxQueriesPerRequest, "h");
  EXPECT_TRUE(EncodeRequest(1, exactly, &datagram)) << "the bound itself is legal";
}

TEST(Wire, DecoderRejectsDamage) {
  std::string good;
  ASSERT_TRUE(EncodeRequest(7, Queries({"seismo", "duke"}), &good));
  DecodedRequest decoded;
  std::string error;
  uint64_t recovered = 0;

  // Truncated header: no id is recoverable.
  EXPECT_FALSE(DecodeRequest(good.substr(0, 10), &decoded, &error, &recovered));
  EXPECT_EQ(recovered, 0u);

  // Truncated payload: header intact, id recoverable for the bad-request reply.
  EXPECT_FALSE(DecodeRequest(good.substr(0, good.size() - 1), &decoded, &error, &recovered));
  EXPECT_EQ(recovered, 7u);

  // Trailing garbage is rejected, not ignored.
  EXPECT_FALSE(DecodeRequest(good + "x", &decoded, &error, &recovered));

  // Wrong magic (a reply fed to the request decoder).
  std::string wrong_magic = good;
  wrong_magic[3] = 'R';
  EXPECT_FALSE(DecodeRequest(wrong_magic, &decoded, &error, &recovered));

  // Future version.
  std::string wrong_version = good;
  wrong_version[4] = 99;
  EXPECT_FALSE(DecodeRequest(wrong_version, &decoded, &error, &recovered));
}

TEST(Wire, ReplyRoundTripWithAllStatuses) {
  std::vector<ReplyResult> results = {
      {kResultExact, "seismo", "seismo!%s"},
      {kResultSuffix, ".edu", "seismo!%s"},
      {kResultMiss, "", ""},
      {kResultMalformed, "", ""},
  };
  std::string datagram;
  size_t included = EncodeReply(42, 0, results.size(), results, kMaxDatagramBytes,
                                &datagram);
  EXPECT_EQ(included, 4u);
  DecodedReply decoded;
  std::string error;
  ASSERT_TRUE(DecodeReply(datagram, &decoded, &error)) << error;
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.flags, 0u);
  EXPECT_EQ(decoded.query_count, 4u);
  ASSERT_EQ(decoded.results.size(), 4u);
  EXPECT_EQ(decoded.results[0].status, kResultExact);
  EXPECT_EQ(decoded.results[0].via, "seismo");
  EXPECT_EQ(decoded.results[0].route, "seismo!%s");
  EXPECT_EQ(decoded.results[1].status, kResultSuffix);
  EXPECT_EQ(decoded.results[2].status, kResultMiss);
  EXPECT_EQ(decoded.results[2].via, "");
  EXPECT_EQ(decoded.results[3].status, kResultMalformed);
}

TEST(Wire, ReplyTruncatesAtBudgetAndFlagsIt) {
  // Each result ~40 bytes encoded; a budget for ~2 must include exactly the
  // prefix that fits and set the flag.
  std::vector<ReplyResult> results(10, {kResultExact, "someviakey", "some!long!route!%s"});
  std::string datagram;
  size_t budget = sizeof(WireHeader) + 2 * (1 + 2 + 2 + 10 + 18) + 1;
  size_t included = EncodeReply(9, 0, results.size(), results, budget, &datagram);
  EXPECT_EQ(included, 2u);
  EXPECT_LE(datagram.size(), budget);
  DecodedReply decoded;
  std::string error;
  ASSERT_TRUE(DecodeReply(datagram, &decoded, &error)) << error;
  EXPECT_NE(decoded.flags & kReplyFlagTruncated, 0);
  EXPECT_EQ(decoded.query_count, 10u);
  ASSERT_EQ(decoded.results.size(), 2u);
  EXPECT_EQ(decoded.results[0].route, "some!long!route!%s");
}

TEST(Wire, OversizedFirstResultBecomesTruncatedStub) {
  // One result that cannot fit even alone: the reply still answers it, as a
  // kResultTruncated stub, so the client never spins on an empty reply.
  std::string huge(kMaxDatagramBytes, 'r');
  std::vector<ReplyResult> results = {{kResultExact, "via", huge}};
  std::string datagram;
  size_t included =
      EncodeReply(3, 0, results.size(), results, sizeof(WireHeader) + 16, &datagram);
  EXPECT_EQ(included, 1u);
  DecodedReply decoded;
  std::string error;
  ASSERT_TRUE(DecodeReply(datagram, &decoded, &error)) << error;
  ASSERT_EQ(decoded.results.size(), 1u);
  EXPECT_EQ(decoded.results[0].status, kResultTruncated);
  EXPECT_EQ(decoded.results[0].via, "");
  EXPECT_EQ(decoded.results[0].route, "");
  // All query_count positions are answered (the stub IS the answer), so the
  // reply-level re-ask-the-tail flag stays clear — the per-result status is the
  // truncation signal here.
  EXPECT_EQ(decoded.flags & kReplyFlagTruncated, 0);
}

TEST(Wire, BadRequestReplyIsHeaderOnly) {
  std::string datagram;
  EncodeBadRequestReply(77, &datagram);
  EXPECT_EQ(datagram.size(), sizeof(WireHeader));
  DecodedReply decoded;
  std::string error;
  ASSERT_TRUE(DecodeReply(datagram, &decoded, &error)) << error;
  EXPECT_EQ(decoded.request_id, 77u);
  EXPECT_NE(decoded.flags & kReplyFlagBadRequest, 0);
  EXPECT_TRUE(decoded.results.empty());
}

TEST(Wire, ReplyFlagBytePositionIsStable) {
  // The daemon ORs kReplyFlagReplayed into stored reply bytes in place (offset 6);
  // this pins the layout that edit depends on.
  std::string datagram;
  EncodeBadRequestReply(1, &datagram);
  uint16_t flags;
  std::memcpy(&flags, datagram.data() + 6, sizeof(flags));
  EXPECT_EQ(flags, kReplyFlagBadRequest);
}

// The routable-query rule at its boundary bytes: 0x21 '!' and 0x7e '~' are the
// first and last routable bytes; tab and space are whitespace; 0x7f and 0x80 are
// a control byte and a non-ASCII one.  The messages are `routedb batch`'s.
TEST(Wire, QueryDefectAcceptsExactlyPrintableNonBlankAscii) {
  const std::pair<std::string, const char*> cases[] = {
      {"", "is empty"},
      {"a\x09" "b", "contains whitespace"},
      {"a\x20" "b", "contains whitespace"},
      {"\x21", nullptr},
      {"\x7e", nullptr},
      {"a\x7f", "contains a control or non-ASCII byte"},
      {"a\x80", "contains a control or non-ASCII byte"},
      {"caip.rutgers.edu", nullptr},
  };
  for (const auto& [query, defect] : cases) {
    const char* got = QueryDefect(query);
    if (defect == nullptr) {
      EXPECT_EQ(got, nullptr) << "'" << query << "': " << (got ? got : "");
    } else {
      ASSERT_NE(got, nullptr) << "'" << query << "'";
      EXPECT_STREQ(got, defect) << "'" << query << "'";
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace pathalias
