#include "src/parser/parser.h"

#include <algorithm>
#include <array>

#include "src/graph/cost.h"

namespace pathalias {
namespace {

constexpr std::array<std::string_view, 6> kKeywords = {
    "private", "dead", "delete", "adjust", "gatewayed", "gateway",
};

bool IsKeyword(std::string_view name) {
  for (std::string_view keyword : kKeywords) {
    if (name == keyword) {
      return true;
    }
  }
  return false;
}

}  // namespace

int Parser::ParseFile(std::string_view file_name, Scanner& scanner) {
  accepted_ = 0;
  scanner_ = &scanner;
  file_name_ = std::string(file_name);
  graph_->BeginFile(file_name);
  Advance();
  while (!At(TokenKind::kEnd)) {
    ParseLine();
  }
  graph_->EndFile();
  scanner_ = nullptr;
  return accepted_;
}

int Parser::ParseFile(const InputFile& file) {
  Lexer lexer(file.content);
  return ParseFile(file.name, lexer);
}

int Parser::ParseFiles(const std::vector<InputFile>& files) {
  size_t bytes = 0;
  for (const InputFile& file : files) {
    bytes += file.content.size();
  }
  graph_->Reserve(graph_->names().size() + bytes / kBytesPerName,
                  graph_->link_count() + bytes / kBytesPerLink);
  int total = 0;
  for (const InputFile& file : files) {
    total += ParseFile(file);
  }
  return total;
}

void Parser::Advance() {
  token_ = scanner_->Next();
  if (token_.kind == TokenKind::kName) {
    // Intern at tokenization: this is the single point where a name's bytes are hashed
    // and copied.  Everything downstream — graph, mapper, printer — handles the id.
    token_.id = graph_->InternName(token_.text);
  }
}

SourcePos Parser::Here() const { return SourcePos{file_name_, token_.line}; }

void Parser::ErrorHere(std::string message) { graph_->diag().Error(Here(), std::move(message)); }

void Parser::SyncToNewline() {
  while (!At(TokenKind::kNewline) && !At(TokenKind::kEnd)) {
    Advance();
  }
}

void Parser::SkipNewlines() {
  while (At(TokenKind::kNewline)) {
    Advance();
  }
}

void Parser::ParseLine() {
  SkipNewlines();
  if (At(TokenKind::kEnd)) {
    return;
  }
  if (!At(TokenKind::kName)) {
    ErrorHere("expected a host name at the start of a declaration");
    SyncToNewline();
    return;
  }
  Token name = token_;
  Advance();
  if (IsKeyword(name.text) && At(TokenKind::kLBrace)) {
    if (ParseKeywordDeclaration(name)) {
      ++accepted_;
    }
    return;
  }
  if (At(TokenKind::kEquals)) {
    ParseEqualsDeclaration(name);
    return;
  }
  ParseHostDeclaration(name);
}

void Parser::ParseHostDeclaration(Token name) {
  Node* from = graph_->Intern(name.id);
  if (first_host_ == kNoName && !IsDomainName(name.text)) {
    first_host_ = name.id;
  }
  if (At(TokenKind::kNewline) || At(TokenKind::kEnd)) {
    ++accepted_;  // a bare host declaration: known but unconnected
    return;
  }
  for (;;) {
    LinkSpec spec = ParseLinkSpec();
    if (!spec.ok) {
      SyncToNewline();
      return;
    }
    Node* to = graph_->Intern(spec.id);
    graph_->AddLink(from, to, spec.cost, spec.op, spec.right, Here());
    if (At(TokenKind::kComma)) {
      Advance();
      SkipNewlines();  // a trailing comma continues the declaration on the next line
      if (At(TokenKind::kEnd)) {
        break;
      }
      continue;
    }
    if (At(TokenKind::kNewline) || At(TokenKind::kEnd)) {
      break;
    }
    ErrorHere("expected ',' or end of line after a link");
    SyncToNewline();
    return;
  }
  ++accepted_;
}

Parser::LinkSpec Parser::ParseLinkSpec() {
  LinkSpec spec;
  bool leading_op = false;
  if (At(TokenKind::kOp)) {
    // Leading operator: the host appears on the right of it (user@host style).
    spec.op = token_.op;
    spec.right = true;
    leading_op = true;
    Advance();
  }
  if (!At(TokenKind::kName)) {
    ErrorHere("expected a host name in link");
    return spec;
  }
  spec.id = token_.id;
  Advance();
  if (At(TokenKind::kOp)) {
    if (leading_op) {
      ErrorHere("link has routing operators on both sides of the host name");
      return spec;
    }
    spec.op = token_.op;
    spec.right = false;
    Advance();
  }
  spec.cost = ParseOptionalCost(kDefaultCost);
  spec.ok = true;
  return spec;
}

Cost Parser::ParseOptionalCost(Cost fallback, bool* had_cost) {
  if (had_cost != nullptr) {
    *had_cost = false;
  }
  if (!At(TokenKind::kLParen)) {
    return fallback;
  }
  int open_line = token_.line;
  std::string_view body = scanner_->CaptureParenBody();
  Advance();
  auto hit = std::find_if(cost_memo_.begin(), cost_memo_.end(),
                          [body](const MemoCost& memo) { return memo.body == body; });
  Cost cost = 0;
  if (hit != cost_memo_.end()) {
    cost = hit->cost;
  } else {
    CostParse parsed = EvalCostExpression(body);
    if (!parsed.value) {
      graph_->diag().Error(SourcePos{file_name_, open_line}, parsed.error);
      return fallback;
    }
    cost = *parsed.value;
    if (cost_memo_.size() < kCostMemoSize) {
      cost_memo_.push_back(MemoCost{std::string(body), cost});
    } else {
      cost_memo_[cost_memo_next_] = MemoCost{std::string(body), cost};
      cost_memo_next_ = (cost_memo_next_ + 1) % kCostMemoSize;
    }
  }
  if (had_cost != nullptr) {
    *had_cost = true;
  }
  return cost;
}

void Parser::ParseEqualsDeclaration(Token name) {
  Advance();  // consume '='
  char op = kDefaultOp;
  bool right = false;
  bool have_op = false;
  if (At(TokenKind::kOp)) {
    // Operator before the brace: members are addressed user-op-host (right syntax).
    op = token_.op;
    right = true;
    have_op = true;
    Advance();
  }
  if (At(TokenKind::kLBrace)) {
    Advance();
    SkipNewlines();
    std::vector<Node*> members;
    bool bad = false;
    while (!At(TokenKind::kRBrace)) {
      if (At(TokenKind::kEnd)) {
        ErrorHere("unterminated network member list");
        return;
      }
      if (!At(TokenKind::kName)) {
        ErrorHere("expected a member host name in network declaration");
        SyncToNewline();
        bad = true;
        break;
      }
      members.push_back(graph_->Intern(token_.id));
      Advance();
      if (At(TokenKind::kComma)) {
        Advance();
      }
      SkipNewlines();
    }
    if (bad) {
      return;
    }
    Advance();  // consume '}'
    if (!have_op && At(TokenKind::kOp)) {
      op = token_.op;
      right = false;
      Advance();
    }
    Cost cost = ParseOptionalCost(kDefaultCost);
    Node* net = graph_->Intern(name.id);
    graph_->DeclareNet(net, members, cost, op, right, Here());
    ++accepted_;
    return;
  }
  if (have_op) {
    ErrorHere("routing operator is only valid before a network member list");
    SyncToNewline();
    return;
  }
  if (At(TokenKind::kName)) {
    // name = other: the two names refer to the same machine.  The interns are
    // sequenced explicitly: node-creation order must not depend on argument
    // evaluation order.
    Node* a = graph_->Intern(name.id);
    Node* b = graph_->Intern(token_.id);
    graph_->AddAlias(a, b, Here());
    Advance();
    ++accepted_;
    return;
  }
  ErrorHere("expected an alias name or '{' after '='");
  SyncToNewline();
}

bool Parser::ParseKeywordDeclaration(const Token& name) {
  Advance();  // consume '{'
  SkipNewlines();
  if (name.text == "private") {
    ParsePrivateBody();
  } else if (name.text == "dead") {
    ParseDeadBody();
  } else if (name.text == "delete") {
    ParseDeleteBody();
  } else if (name.text == "adjust") {
    ParseAdjustBody();
  } else if (name.text == "gatewayed") {
    ParseGatewayedBody();
  } else {
    ParseGatewayBody();
  }
  if (!At(TokenKind::kRBrace)) {
    ErrorHere("expected '}' to close '" + std::string(name.text) + "' declaration");
    SyncToNewline();
    return false;
  }
  Advance();
  return true;
}

void Parser::ParsePrivateBody() {
  while (At(TokenKind::kName)) {
    graph_->DeclarePrivate(token_.id, Here());
    Advance();
    if (At(TokenKind::kComma)) {
      Advance();
    }
    SkipNewlines();
  }
}

void Parser::ParseDeadBody() {
  while (At(TokenKind::kName)) {
    Token first = token_;
    Advance();
    if (At(TokenKind::kOp)) {
      Advance();
      if (!At(TokenKind::kName)) {
        ErrorHere("expected a host name after '!' in dead link");
        return;
      }
      Node* from = graph_->Intern(first.id);
      Node* to = graph_->Intern(token_.id);
      graph_->MarkDeadLink(from, to, Here());
      Advance();
    } else {
      graph_->MarkDeadHost(graph_->Intern(first.id), Here());
    }
    if (At(TokenKind::kComma)) {
      Advance();
    }
    SkipNewlines();
  }
}

void Parser::ParseDeleteBody() {
  while (At(TokenKind::kName)) {
    graph_->DeleteHost(graph_->Intern(token_.id), Here());
    Advance();
    if (At(TokenKind::kComma)) {
      Advance();
    }
    SkipNewlines();
  }
}

void Parser::ParseAdjustBody() {
  while (At(TokenKind::kName)) {
    Node* host = graph_->Intern(token_.id);
    Advance();
    bool had_cost = false;
    Cost amount = ParseOptionalCost(0, &had_cost);
    if (!had_cost) {
      ErrorHere("adjust requires a parenthesized cost, e.g. adjust {host(+100)}");
      return;
    }
    graph_->AdjustHost(host, amount, Here());
    if (At(TokenKind::kComma)) {
      Advance();
    }
    SkipNewlines();
  }
}

void Parser::ParseGatewayedBody() {
  while (At(TokenKind::kName)) {
    graph_->MarkGatewayed(graph_->Intern(token_.id), Here());
    Advance();
    if (At(TokenKind::kComma)) {
      Advance();
    }
    SkipNewlines();
  }
}

void Parser::ParseGatewayBody() {
  while (At(TokenKind::kName)) {
    Token net = token_;
    Advance();
    if (!At(TokenKind::kOp)) {
      ErrorHere("gateway declarations use net!host pairs");
      return;
    }
    Advance();
    if (!At(TokenKind::kName)) {
      ErrorHere("expected a gateway host name after '!'");
      return;
    }
    Node* net_node = graph_->Intern(net.id);
    Node* gateway = graph_->Intern(token_.id);
    graph_->MarkGatewayLink(net_node, gateway, Here());
    Advance();
    if (At(TokenKind::kComma)) {
      Advance();
    }
    SkipNewlines();
  }
}

}  // namespace pathalias
