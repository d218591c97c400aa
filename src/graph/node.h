// Node: a host or network vertex (paper §Graph representation).
//
// "A node is represented by a structure consisting mostly of pointers and flags."
// Nodes are arena-allocated, never freed individually, and trivially destructible.
// Mapping state (cost, parent, heap index) lives directly in the node, exactly as in
// the original; the two PathLabel slots support the two-label "second-best" extension.

#ifndef SRC_GRAPH_NODE_H_
#define SRC_GRAPH_NODE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/graph/cost.h"
#include "src/graph/link.h"
#include "src/support/interner.h"

namespace pathalias {

struct PathLabel;

enum NodeFlag : uint32_t {
  kNodeNet = 1u << 0,        // placeholder declared via NAME = {...}
  kNodeDomain = 1u << 1,     // name begins with '.'
  kNodePrivate = 1u << 2,    // scope limited to its declaring file
  kNodeDeleted = 1u << 3,    // delete {...}: ignore entirely
  kNodeTerminal = 1u << 4,   // dead {host}: may receive mail, must not relay
  kNodeGatewayed = 1u << 5,  // gatewayed {...}: entry requires a gateway link
  kNodeLocal = 1u << 6,      // the source of the shortest-path computation
  kNodeTraced = 1u << 7,     // -t: report every relaxation involving this node
  // Set when a gateway {net!host} declaration names explicit gateways.  Domains without
  // one accept any declared link as an implicit gateway [R]; with one, entry is
  // restricted to the declared gateways like any other gatewayed net.
  kNodeExplicitGateways = 1u << 8,
};

struct Node {
  NameId name = kNoName;  // handle into the graph's interner, which owns the string
  int32_t order = 0;      // creation order; deterministic iteration & tie-breaks
  // The name's first 8 bytes, big-endian and zero-padded (NameKey), set once at
  // creation: name order as an integer compare wherever two names differ in their
  // first 8 bytes.  NameLess reads the bytes only when the keys tie.  It sits beside
  // `name` so a tie-break touches one cache line of the node.
  uint64_t name_key = 0;
  Link* links = nullptr;  // adjacency list head (declaration order)
  Link* links_tail = nullptr;
  Node* shadow = nullptr;  // next node with the same name (private-name chain)

  // Final mapping results (best label), filled by the mapper.
  PathLabel* label[2] = {nullptr, nullptr};  // [clean, via-domain] labels
  Node* parent = nullptr;
  Link* parent_link = nullptr;
  Cost cost = kUnreached;
  int32_t hops = 0;

  Cost adjust = 0;  // adjust {host(cost)}: bias on every path through this host
  uint32_t flags = 0;
  int32_t private_file = -1;  // file that declared it private (-1 = global)

  bool net() const { return (flags & kNodeNet) != 0; }
  bool domain() const { return (flags & kNodeDomain) != 0; }
  // Nets and domains are placeholders: their routes equal their parents' and (except
  // top-level domains) they never appear in the output.
  bool placeholder() const { return (flags & (kNodeNet | kNodeDomain)) != 0; }
  bool is_private() const { return (flags & kNodePrivate) != 0; }
  bool deleted() const { return (flags & kNodeDeleted) != 0; }
  bool terminal() const { return (flags & kNodeTerminal) != 0; }
  bool gatewayed() const { return (flags & kNodeGatewayed) != 0; }
  bool local() const { return (flags & kNodeLocal) != 0; }
  bool traced() const { return (flags & kNodeTraced) != 0; }
  bool mapped() const { return cost != kUnreached; }
};

// Whether a declared name denotes a domain.
inline bool IsDomainName(std::string_view name) { return !name.empty() && name[0] == '.'; }

// The first 8 bytes of `name`, packed big-endian and zero-padded.  Where two keys
// differ they order as the names do under std::string_view's compare (bytes as
// unsigned char, a proper prefix first); equal keys leave the order to the bytes.
inline uint64_t NameKey(std::string_view name) {
  uint64_t key = 0;
  for (size_t i = 0; i < 8; ++i) {
    key <<= 8;
    if (i < name.size()) {
      key |= static_cast<unsigned char>(name[i]);
    }
  }
  return key;
}

// View(a.name) < View(b.name), the name tie-break every mapper and the route
// printer share: an integer compare of the keys, and the interned bytes only when
// the keys tie.
inline bool NameLess(const Node& a, const Node& b, const NameInterner& names) {
  assert(a.name_key == NameKey(names.View(a.name)));
  assert(b.name_key == NameKey(names.View(b.name)));
  if (a.name_key != b.name_key) {
    return a.name_key < b.name_key;
  }
  return names.View(a.name) < names.View(b.name);
}

}  // namespace pathalias

#endif  // SRC_GRAPH_NODE_H_
