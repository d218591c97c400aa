// Mixed-syntax electronic-mail address parsing (paper §Perspectives on relative
// addressing, and Honeyman & Parseghian's companion work it cites).
//
// 1986 reality: three address syntaxes coexist and compose —
//   * UUCP bang paths      a!b!user          (relays left to right)
//   * RFC822               user@host         (host on the right)
//   * the "underground"    user%h2@h1        (h1 relays to h2; legal but absolute-ish)
// An address like a!user@b is genuinely ambiguous: a UUCP mailer relays via a first, an
// RFC822 mailer via b first.  The parser therefore takes the convention to apply as a
// parameter; the resolver (and experiment E11) use both to quantify ambiguity.

#ifndef SRC_ROUTE_DB_ADDRESS_H_
#define SRC_ROUTE_DB_ADDRESS_H_

#include <string>
#include <string_view>
#include <vector>

namespace pathalias {

enum class ParseStyle {
  kUucpFirst,    // "rigidly adhere to UUCP syntax": leftmost ! binds first
  kRfc822First,  // "rigidly adhere to RFC822 syntax": rightmost @ binds first
};

struct Address {
  std::vector<std::string> path;  // relay hosts in delivery order
  std::string user;               // final recipient (may be empty for malformed input)
  bool saw_bang = false;
  bool saw_at = false;
  bool saw_percent = false;

  // True if both ! and @ appear: the forms whose interpretation depends on the mailer.
  bool ambiguous() const { return saw_bang && saw_at; }

  bool operator==(const Address&) const = default;
};

// Parses `text` under the given convention.  Never fails: unparseable pieces end up as
// the user part, which is what real mailers did (and then bounced).
Address ParseAddress(std::string_view text, ParseStyle style);

// Renders delivery order as a pure bang path: h1!h2!user.  The inverse of parsing for
// any address, regardless of the syntax it arrived in — this is the gateway
// translation the paper's guidelines call for.
std::string ToBangPath(const Address& address);

// Renders as RFC822 with a %-relay chain: user%h3%h2@h1.  Empty path → bare user.
std::string ToPercentForm(const Address& address);

// True if some host appears twice in `path` — a UUCP loop test, which the resolver
// never optimizes away.  Bang paths are a handful of hosts, so the quadratic scan
// beats a heap-allocating hash set by an order of magnitude at realistic lengths (no
// allocation, no hashing, two or three resident lines) and only loses past ~100
// hops — far beyond any loop test.
inline bool HasRepeatedHost(const std::vector<std::string>& path) {
  for (size_t i = 1; i < path.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (path[j] == path[i]) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace pathalias

#endif  // SRC_ROUTE_DB_ADDRESS_H_
