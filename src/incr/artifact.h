// Per-file parse artifacts: the unit of incremental map building.
//
// A FileArtifact is one input file reduced to (a) a content digest and (b) the exact
// sequence of Graph calls parsing it performed, with every name lifted into a
// file-local symbol table.  Artifacts are what MapBuilder retains between updates:
// an unchanged digest means the lexer and parser never run again for that file, and
// replaying the retained op stream — for every file, in file order — performs the
// same Graph call sequence a from-scratch parse of all files would.  That makes
// replay-built graphs equivalent to parse-built ones by construction, which is the
// foundation the incremental pipeline's golden-equivalence guarantee rests on.
//
// Ops reference names by symbol index; symbols store the bytes as written (case
// normalization happens at replay, through the target graph's interner, so artifacts
// compose with -i).  kIntern ops reproduce node-creation order — including private
// shadow-chain order — not just declaration content.

#ifndef SRC_INCR_ARTIFACT_H_
#define SRC_INCR_ARTIFACT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/cost.h"
#include "src/graph/graph.h"
#include "src/parser/parser.h"
#include "src/support/diag.h"

namespace pathalias {
namespace incr {

inline constexpr uint32_t kNoSymbol = 0xffffffffu;

// FNV-1a over the raw file bytes: the digest that decides "unchanged, skip reparse".
uint64_t DigestBytes(std::string_view bytes);

enum class OpKind : uint8_t {
  kIntern = 0,      // a: find-or-create the visible node (mirrors Graph::Intern)
  kHostDecl = 1,    // a: opened a host declaration (default-local bookkeeping)
  kLink = 2,        // a -> b at cost/op/right
  kAlias = 3,       // a = b
  kNet = 4,         // a = {members at member_offset..+member_count} (cost/op/right)
  kPrivate = 5,     // private {a}
  kDeadHost = 6,    // dead {a}
  kDeadLink = 7,    // dead {a!b}
  kDelete = 8,      // delete {a}
  kAdjust = 9,      // adjust {a(cost)}
  kGatewayed = 10,  // gatewayed {a}
  kGatewayLink = 11,  // gateway {a!b} (a = net, b = gateway host)
};

struct Op {
  OpKind kind = OpKind::kIntern;
  uint8_t right = 0;
  char op = kDefaultOp;
  uint32_t a = kNoSymbol;  // symbol index
  uint32_t b = kNoSymbol;  // second symbol (kLink/kAlias/kDeadLink/kGatewayLink)
  uint32_t member_offset = 0;  // kNet: into FileArtifact::net_members
  uint32_t member_count = 0;
  Cost cost = 0;
};

struct ParseError {
  uint32_t line = 0;
  std::string message;
};

struct FileArtifact {
  // pathalint: allow(R1): replay-artifact identity — the input file path as
  // serialized to the state dir; diagnostics and staleness checks, not routing.
  std::string file_name;
  uint64_t digest = 0;
  // pathalint: allow(R1): the artifact's own symbol table — serialized bytes as
  // written in the source file; replay re-interns them into whatever interner
  // the rebuilt graph owns, so the artifact must carry the raw spelling.
  std::vector<std::string> symbols;   // unique names, first-use order, bytes as written
  std::vector<Op> ops;                // the replay stream, in parse order
  std::vector<uint32_t> net_members;  // pooled member symbol indices for kNet ops
  // Parse errors the original lex+parse reported, retained so a digest-matched
  // REUSE of this artifact re-reports them: "the file is still broken" must not
  // decay into a silent success just because the bytes didn't change.
  std::vector<ParseError> errors;
  // First non-domain host-declaration symbol (the file's default-local candidate).
  uint32_t first_host = kNoSymbol;
  // True when ops are only kIntern/kHostDecl/kLink.  Kept in the serialized
  // format for compatibility with existing state dirs; nothing branches on it.
  bool plain_links = true;

  std::string_view Symbol(uint32_t index) const { return symbols[index]; }
  // Re-reports the retained parse errors (used when the artifact is reused).
  void ReportStoredErrors(Diagnostics* diag) const;
};

// Lexes and parses `file` into an artifact without touching any long-lived graph
// (a scratch graph absorbs the side effects).  Parse ERRORS go to *diag with their
// file:line positions; malformed declarations are skipped exactly as a production
// parse skips them.  Graph-level warnings (duplicate links, clamped costs, ...) are
// swallowed here — the scratch graph sees one file in isolation, so they would be
// both incomplete (cross-file duplicates invisible) and double-reported once the
// replay raises them against the full graph.  Replay is their single source.
FileArtifact ParseFileToArtifact(const InputFile& file, Diagnostics* diag);

// Replays the artifact into `graph` — BeginFile, the recorded Graph calls in order,
// EndFile.  The artifact's own `first_host` field carries the default-local
// candidate (already filtered to non-domain names, as the parser filters).
void ReplayArtifact(const FileArtifact& artifact, Graph* graph);

// Binary (de)serialization for the state directory.  The format is versioned and
// self-contained; Load returns nullopt on any structural mismatch.
std::string SerializeArtifact(const FileArtifact& artifact);
std::optional<FileArtifact> DeserializeArtifact(std::string_view bytes);

}  // namespace incr
}  // namespace pathalias

#endif  // SRC_INCR_ARTIFACT_H_
