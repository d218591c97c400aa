// Recursive-descent parser for the pathalias input language (paper §Input, §Parsing).
//
// The original used yacc with syntax-directed translation; the grammar is small enough
// that recursive descent expresses it directly (and keeps the scanner comparison of
// experiment E4 free of parser-generator noise).  Grammar reference: DESIGN.md §2.
//
// Error recovery is line-based, matching the data's reality ("often contradictory and
// error-filled"): a malformed declaration is reported and skipped through the next
// newline; parsing always continues.

#ifndef SRC_PARSER_PARSER_H_
#define SRC_PARSER_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/graph/graph.h"
#include "src/parser/lexer.h"
#include "src/parser/scanner.h"

namespace pathalias {

// One input map file.  Site maps are distributed per-machine; file identity matters
// because private-name scope and duplicate-link severity are per-file.
struct InputFile {
  // pathalint: allow(R1): input boundary — the OS-supplied map-file path, used
  // for per-file scope and diagnostics; it exists before any interner does.
  std::string name;
  std::string content;
};

class Parser {
 public:
  explicit Parser(Graph* graph) : graph_(graph) {}

  // Parses one file through the given scanner.  Errors are reported to the graph's
  // diagnostics; returns the number of declarations accepted from this file.
  int ParseFile(std::string_view file_name, Scanner& scanner);

  // Convenience: parse with the production Lexer.
  int ParseFile(const InputFile& file);
  // Parses every file in order and returns the declarations accepted from all of
  // them.  Presizes the graph's tables from the total input size first.
  int ParseFiles(const std::vector<InputFile>& files);

  // First host declared across all parsed files: the default local host when the
  // caller provides none [R].  Resolves through the graph's interner.
  std::string_view first_host() const {
    return first_host_ == kNoName ? std::string_view() : graph_->NameOf(first_host_);
  }

 private:
  struct LinkSpec {
    NameId id = kNoName;
    char op = kDefaultOp;
    bool right = false;
    Cost cost = kDefaultCost;
    bool ok = false;
  };

  // --- token plumbing ---
  void Advance();
  bool At(TokenKind kind) const { return token_.kind == kind; }
  SourcePos Here() const;
  void ErrorHere(std::string message);
  void SyncToNewline();
  void SkipNewlines();

  // --- productions ---
  void ParseLine();
  void ParseHostDeclaration(Token name);
  void ParseEqualsDeclaration(Token name);  // alias or network
  bool ParseKeywordDeclaration(const Token& name);
  LinkSpec ParseLinkSpec();
  // Parses "(expr)" if present; returns fallback otherwise.
  Cost ParseOptionalCost(Cost fallback, bool* had_cost = nullptr);

  void ParsePrivateBody();
  void ParseDeadBody();
  void ParseDeleteBody();
  void ParseAdjustBody();
  void ParseGatewayedBody();
  void ParseGatewayBody();

  // Input bytes per distinct name and per link, for ParseFiles' presizing.  The
  // usenet-scale generator writes about 59 bytes per name and 34 per link; the
  // paper-scale one, with shorter names and denser nets, about 49 and 17.  So the
  // name estimate leaves headroom at both scales, and the link estimate fits the
  // large maps, where a late growth rehash would cost the most.
  static constexpr size_t kBytesPerName = 40;
  static constexpr size_t kBytesPerLink = 32;

  // A paren body EvalCostExpression accepted, with its value.  A map repeats a
  // handful of bodies (the 1M-host map has 1.65M of them, 10 distinct), and the
  // evaluation is a pure function of the text, so the last few are kept and
  // replaced round-robin.  A body that fails never enters, so every bad expression
  // is evaluated, and reported, at its own line.
  struct MemoCost {
    std::string body;
    Cost cost = 0;
  };
  static constexpr size_t kCostMemoSize = 8;

  Graph* graph_;
  Scanner* scanner_ = nullptr;
  std::vector<MemoCost> cost_memo_;
  size_t cost_memo_next_ = 0;  // the entry a miss replaces once the memo is full
  // pathalint: allow(R1): diagnostics only — error messages cite the input file
  // path; it is never a routing name and never interned.
  std::string file_name_;
  Token token_;
  NameId first_host_ = kNoName;
  int accepted_ = 0;  // declarations accepted from the file being parsed
};

}  // namespace pathalias

#endif  // SRC_PARSER_PARSER_H_
