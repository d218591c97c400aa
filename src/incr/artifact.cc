#include "src/incr/artifact.h"

#include <cstring>
#include <unordered_map>

#include "src/parser/parse_recorder.h"

namespace pathalias {
namespace incr {
namespace {

// Builds a FileArtifact from the parser's mutation stream.  Symbols are deduplicated
// by exact bytes (case normalization is the replay-side graph's business).
class ArtifactRecorder : public ParseRecorder {
 public:
  explicit ArtifactRecorder(FileArtifact* artifact) : artifact_(artifact) {}

  void RecordIntern(std::string_view name) override {
    Push(Op{.kind = OpKind::kIntern, .a = SymbolOf(name)});
  }
  void RecordHostDecl(std::string_view name) override {
    uint32_t symbol = SymbolOf(name);
    Push(Op{.kind = OpKind::kHostDecl, .a = symbol});
    if (artifact_->first_host == kNoSymbol && !IsDomainName(name)) {
      artifact_->first_host = symbol;
    }
  }
  void RecordLink(std::string_view from, std::string_view to, Cost cost, char op,
                  bool right) override {
    Push(Op{.kind = OpKind::kLink,
            .right = static_cast<uint8_t>(right ? 1 : 0),
            .op = op,
            .a = SymbolOf(from),
            .b = SymbolOf(to),
            .cost = cost});
  }
  void RecordAlias(std::string_view a, std::string_view b) override {
    Push(Op{.kind = OpKind::kAlias, .a = SymbolOf(a), .b = SymbolOf(b)});
  }
  void RecordNet(std::string_view net, const std::vector<std::string_view>& members,
                 Cost cost, char op, bool right) override {
    Op record{.kind = OpKind::kNet,
              .right = static_cast<uint8_t>(right ? 1 : 0),
              .op = op,
              .a = SymbolOf(net),
              .member_offset = static_cast<uint32_t>(artifact_->net_members.size()),
              .member_count = static_cast<uint32_t>(members.size()),
              .cost = cost};
    for (std::string_view member : members) {
      artifact_->net_members.push_back(SymbolOf(member));
    }
    Push(record);
  }
  void RecordPrivate(std::string_view name) override {
    Push(Op{.kind = OpKind::kPrivate, .a = SymbolOf(name)});
  }
  void RecordDeadHost(std::string_view name) override {
    Push(Op{.kind = OpKind::kDeadHost, .a = SymbolOf(name)});
  }
  void RecordDeadLink(std::string_view from, std::string_view to) override {
    Push(Op{.kind = OpKind::kDeadLink, .a = SymbolOf(from), .b = SymbolOf(to)});
  }
  void RecordDelete(std::string_view name) override {
    Push(Op{.kind = OpKind::kDelete, .a = SymbolOf(name)});
  }
  void RecordAdjust(std::string_view name, Cost amount) override {
    Push(Op{.kind = OpKind::kAdjust, .a = SymbolOf(name), .cost = amount});
  }
  void RecordGatewayed(std::string_view name) override {
    Push(Op{.kind = OpKind::kGatewayed, .a = SymbolOf(name)});
  }
  void RecordGatewayLink(std::string_view net, std::string_view gateway) override {
    Push(Op{.kind = OpKind::kGatewayLink, .a = SymbolOf(net), .b = SymbolOf(gateway)});
  }

 private:
  uint32_t SymbolOf(std::string_view name) {
    auto [it, inserted] =
        index_.try_emplace(std::string(name), static_cast<uint32_t>(artifact_->symbols.size()));
    if (inserted) {
      artifact_->symbols.emplace_back(name);
    }
    return it->second;
  }

  void Push(Op op) {
    if (op.kind != OpKind::kIntern && op.kind != OpKind::kHostDecl &&
        op.kind != OpKind::kLink) {
      artifact_->plain_links = false;
    }
    artifact_->ops.push_back(op);
  }

  FileArtifact* artifact_;
  std::unordered_map<std::string, uint32_t> index_;
};

// --- serialization helpers (little-endian fixed-width) ---

void PutU32(std::string* out, uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, sizeof(value));
  out->append(bytes, sizeof(bytes));
}

void PutU64(std::string* out, uint64_t value) {
  char bytes[8];
  std::memcpy(bytes, &value, sizeof(value));
  out->append(bytes, sizeof(bytes));
}

void PutI64(std::string* out, int64_t value) { PutU64(out, static_cast<uint64_t>(value)); }

struct ByteReader {
  const char* cursor;
  const char* end;

  bool Read(void* out, size_t n) {
    if (static_cast<size_t>(end - cursor) < n) {
      return false;
    }
    std::memcpy(out, cursor, n);
    cursor += n;
    return true;
  }
  bool U32(uint32_t* out) { return Read(out, sizeof(*out)); }
  bool U64(uint64_t* out) { return Read(out, sizeof(*out)); }
  bool I64(int64_t* out) { return Read(out, sizeof(*out)); }
};

constexpr char kArtifactMagic[4] = {'P', 'A', 'i', '1'};

}  // namespace

void FileArtifact::ReportStoredErrors(Diagnostics* diag) const {
  for (const ParseError& error : errors) {
    diag->Error(SourcePos{file_name, static_cast<int>(error.line)}, error.message);
  }
}

uint64_t DigestBytes(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char byte : bytes) {
    hash = (hash ^ byte) * 0x00000100000001B3ull;
  }
  return hash;
}

FileArtifact ParseFileToArtifact(const InputFile& file, Diagnostics* diag) {
  FileArtifact artifact;
  artifact.file_name = file.name;
  artifact.digest = DigestBytes(file.content);
  ArtifactRecorder recorder(&artifact);
  // The scratch graph exists only to satisfy the parser; declarations land in the
  // recorder.  Errors (with their positions) are forwarded to the caller; warnings
  // and notes are replay's business (see the header).
  Diagnostics scratch_diag;
  scratch_diag.set_sink([diag, &artifact](const Diagnostic& diagnostic) {
    if (diagnostic.severity != Severity::kError) {
      return;
    }
    artifact.errors.push_back(
        ParseError{static_cast<uint32_t>(diagnostic.pos.line), diagnostic.message});
    if (diag != nullptr) {
      diag->Report(diagnostic.severity, diagnostic.pos, diagnostic.message);
    }
  });
  Graph scratch(&scratch_diag);
  Parser parser(&scratch);
  parser.set_recorder(&recorder);
  parser.ParseFile(file);
  return artifact;
}

void ReplayArtifact(const FileArtifact& artifact, Graph* graph) {
  // Resolve symbols once per replay: one hash per unique name, then every op is
  // integer-indexed.  Interning here does not create nodes, exactly like the
  // tokenizer's InternName.
  std::vector<NameId> ids(artifact.symbols.size());
  for (size_t i = 0; i < artifact.symbols.size(); ++i) {
    ids[i] = graph->InternName(artifact.symbols[i]);
  }
  graph->BeginFile(artifact.file_name);
  SourcePos here{artifact.file_name, 0};
  for (const Op& op : artifact.ops) {
    switch (op.kind) {
      case OpKind::kIntern:
        graph->Intern(ids[op.a]);
        break;
      case OpKind::kHostDecl:
        break;  // default-local bookkeeping lives in FileArtifact::first_host
      case OpKind::kLink:
        graph->AddLink(graph->Intern(ids[op.a]), graph->Intern(ids[op.b]), op.cost, op.op,
                       op.right != 0, here);
        break;
      case OpKind::kAlias: {
        Node* a = graph->Intern(ids[op.a]);
        Node* b = graph->Intern(ids[op.b]);
        graph->AddAlias(a, b, here);
        break;
      }
      case OpKind::kNet: {
        std::vector<Node*> members;
        members.reserve(op.member_count);
        for (uint32_t i = 0; i < op.member_count; ++i) {
          members.push_back(graph->Intern(ids[artifact.net_members[op.member_offset + i]]));
        }
        graph->DeclareNet(graph->Intern(ids[op.a]), members, op.cost, op.op, op.right != 0,
                          here);
        break;
      }
      case OpKind::kPrivate:
        graph->DeclarePrivate(ids[op.a], here);
        break;
      case OpKind::kDeadHost:
        graph->MarkDeadHost(graph->Intern(ids[op.a]), here);
        break;
      case OpKind::kDeadLink: {
        Node* from = graph->Intern(ids[op.a]);
        Node* to = graph->Intern(ids[op.b]);
        graph->MarkDeadLink(from, to, here);
        break;
      }
      case OpKind::kDelete:
        graph->DeleteHost(graph->Intern(ids[op.a]), here);
        break;
      case OpKind::kAdjust:
        graph->AdjustHost(graph->Intern(ids[op.a]), op.cost, here);
        break;
      case OpKind::kGatewayed:
        graph->MarkGatewayed(graph->Intern(ids[op.a]), here);
        break;
      case OpKind::kGatewayLink: {
        Node* net = graph->Intern(ids[op.a]);
        Node* gateway = graph->Intern(ids[op.b]);
        graph->MarkGatewayLink(net, gateway, here);
        break;
      }
    }
  }
  graph->EndFile();
}

std::string SerializeArtifact(const FileArtifact& artifact) {
  std::string out;
  out.append(kArtifactMagic, sizeof(kArtifactMagic));
  PutU64(&out, artifact.digest);
  PutU32(&out, static_cast<uint32_t>(artifact.file_name.size()));
  out.append(artifact.file_name);
  PutU32(&out, artifact.first_host);
  PutU32(&out, artifact.plain_links ? 1 : 0);
  PutU32(&out, static_cast<uint32_t>(artifact.symbols.size()));
  for (const std::string& symbol : artifact.symbols) {
    PutU32(&out, static_cast<uint32_t>(symbol.size()));
    out.append(symbol);
  }
  PutU32(&out, static_cast<uint32_t>(artifact.net_members.size()));
  for (uint32_t member : artifact.net_members) {
    PutU32(&out, member);
  }
  PutU32(&out, static_cast<uint32_t>(artifact.ops.size()));
  for (const Op& op : artifact.ops) {
    PutU32(&out, (static_cast<uint32_t>(op.kind)) | (static_cast<uint32_t>(op.right) << 8) |
                     (static_cast<uint32_t>(static_cast<unsigned char>(op.op)) << 16));
    PutU32(&out, op.a);
    PutU32(&out, op.b);
    PutU32(&out, op.member_offset);
    PutU32(&out, op.member_count);
    PutI64(&out, op.cost);
  }
  PutU32(&out, static_cast<uint32_t>(artifact.errors.size()));
  for (const ParseError& error : artifact.errors) {
    PutU32(&out, error.line);
    PutU32(&out, static_cast<uint32_t>(error.message.size()));
    out.append(error.message);
  }
  return out;
}

std::optional<FileArtifact> DeserializeArtifact(std::string_view bytes) {
  ByteReader reader{bytes.data(), bytes.data() + bytes.size()};
  char magic[4];
  if (!reader.Read(magic, sizeof(magic)) || std::memcmp(magic, kArtifactMagic, 4) != 0) {
    return std::nullopt;
  }
  FileArtifact artifact;
  uint32_t name_size = 0;
  if (!reader.U64(&artifact.digest) || !reader.U32(&name_size)) {
    return std::nullopt;
  }
  if (static_cast<size_t>(reader.end - reader.cursor) < name_size) {
    return std::nullopt;
  }
  artifact.file_name.assign(reader.cursor, name_size);
  reader.cursor += name_size;
  uint32_t plain = 0;
  uint32_t symbol_count = 0;
  if (!reader.U32(&artifact.first_host) || !reader.U32(&plain) || !reader.U32(&symbol_count)) {
    return std::nullopt;
  }
  artifact.plain_links = plain != 0;
  if (artifact.first_host != kNoSymbol && artifact.first_host >= symbol_count) {
    return std::nullopt;  // the default-local candidate must name a stored symbol
  }
  // Counts come from the file: bound every one by the bytes that could possibly
  // back it BEFORE allocating, so a corrupt payload is a nullopt, not a bad_alloc.
  auto remaining = [&reader] { return static_cast<size_t>(reader.end - reader.cursor); };
  if (symbol_count > remaining() / sizeof(uint32_t)) {
    return std::nullopt;  // each symbol carries at least its 4-byte length
  }
  artifact.symbols.reserve(symbol_count);
  for (uint32_t i = 0; i < symbol_count; ++i) {
    uint32_t size = 0;
    if (!reader.U32(&size) || static_cast<size_t>(reader.end - reader.cursor) < size) {
      return std::nullopt;
    }
    artifact.symbols.emplace_back(reader.cursor, size);
    reader.cursor += size;
  }
  uint32_t member_count = 0;
  if (!reader.U32(&member_count) || member_count > remaining() / sizeof(uint32_t)) {
    return std::nullopt;
  }
  artifact.net_members.resize(member_count);
  for (uint32_t i = 0; i < member_count; ++i) {
    if (!reader.U32(&artifact.net_members[i])) {
      return std::nullopt;
    }
  }
  constexpr size_t kOpBytes = 5 * sizeof(uint32_t) + sizeof(int64_t);
  uint32_t op_count = 0;
  if (!reader.U32(&op_count) || op_count > remaining() / kOpBytes) {
    return std::nullopt;
  }
  artifact.ops.reserve(op_count);
  for (uint32_t i = 0; i < op_count; ++i) {
    uint32_t packed = 0;
    Op op;
    int64_t cost = 0;
    if (!reader.U32(&packed) || !reader.U32(&op.a) || !reader.U32(&op.b) ||
        !reader.U32(&op.member_offset) || !reader.U32(&op.member_count) || !reader.I64(&cost)) {
      return std::nullopt;
    }
    if ((packed & 0xff) > static_cast<uint32_t>(OpKind::kGatewayLink)) {
      return std::nullopt;
    }
    op.kind = static_cast<OpKind>(packed & 0xff);
    op.right = static_cast<uint8_t>((packed >> 8) & 0xff);
    op.op = static_cast<char>((packed >> 16) & 0xff);
    op.cost = static_cast<Cost>(cost);
    // Symbol references must stay inside the table; a truncated or foreign file must
    // not become out-of-bounds indexing later.  The recorder sets `a` on every op
    // and `b` on the two-operand kinds, which replay indexes unconditionally; any
    // other `b` is unused and may only be inside the table or kNoSymbol.
    bool two_operands = op.kind == OpKind::kLink || op.kind == OpKind::kAlias ||
                        op.kind == OpKind::kDeadLink || op.kind == OpKind::kGatewayLink;
    bool b_ok = op.b < symbol_count || (op.b == kNoSymbol && !two_operands);
    if (op.a >= symbol_count || !b_ok ||
        static_cast<uint64_t>(op.member_offset) + op.member_count > member_count) {
      return std::nullopt;
    }
    artifact.ops.push_back(op);
  }
  for (uint32_t member : artifact.net_members) {
    if (member >= symbol_count) {
      return std::nullopt;
    }
  }
  uint32_t error_count = 0;
  if (!reader.U32(&error_count) || error_count > remaining() / (2 * sizeof(uint32_t))) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < error_count; ++i) {
    ParseError error;
    uint32_t size = 0;
    if (!reader.U32(&error.line) || !reader.U32(&size) ||
        static_cast<size_t>(reader.end - reader.cursor) < size) {
      return std::nullopt;
    }
    error.message.assign(reader.cursor, size);
    reader.cursor += size;
    artifact.errors.push_back(std::move(error));
  }
  return artifact;
}

}  // namespace incr
}  // namespace pathalias
