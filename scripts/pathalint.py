#!/usr/bin/env python3
"""pathalint — the repo-invariant static analyzer.

Eight PRs of this codebase accreted architectural invariants that used to be
enforced only by reviewer memory.  pathalint makes them machine-checkable:
every rule below names an invariant documented in docs/INVARIANTS.md, fires as
a finding when code violates it, and respects a per-site allowlist pragma so a
justified exception is visible *at the site* forever.

Rules (each docstring links its canonical invariant):
  R1  interner-only name ownership         docs/INVARIANTS.md#r1
  R2  durable publish discipline           docs/INVARIANTS.md#r2
  R3  io_retry syscall discipline          docs/INVARIANTS.md#r3
  R4  failpoint coverage                   docs/INVARIANTS.md#r4
  R5  memory_order rationale               docs/INVARIANTS.md#r5
  R6  include layering                     docs/INVARIANTS.md#r6

Analysis is comment/string-aware and lexical: deterministic, with no
dependency beyond the python standard library, so every entry point (ctest,
CI, the `lint` build target) reports the same findings.

Allowlisting: a finding is suppressed by an inline pragma on the flagged line
or in the contiguous comment block directly above it:
    // pathalint: allow(R1): <mandatory one-line justification>
The justification is part of the contract — an empty reason does not suppress.

Usage:
  scripts/pathalint.py [--gate] [--root DIR] [--rules R1,R5]
  scripts/pathalint.py --self-test tests/lint      # fixture corpus check
  scripts/pathalint.py --list-rules
Exit codes: 0 clean (or findings without --gate), 1 findings with --gate,
2 self-test mismatch or internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Source model: raw text, comment text per line, comment/string-blanked text.
# --------------------------------------------------------------------------


@dataclass
class SourceFile:
    path: str          # repo-relative, forward slashes
    raw: str
    clean: str = ""                      # comments and literals blanked
    raw_lines: list = field(default_factory=list)
    clean_lines: list = field(default_factory=list)
    comments: dict = field(default_factory=dict)   # line -> comment text
    line_offsets: list = field(default_factory=list)

    def line_of_offset(self, offset: int) -> int:
        """1-based line containing byte offset (clean and raw are congruent)."""
        lo, hi = 0, len(self.line_offsets) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_offsets[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1


def blank_comments_and_strings(text: str):
    """Returns (clean_text, comments_by_line).

    clean_text has the same length and line structure as text, with the
    contents of //, /* */ comments and "...", '...', R"(...)" literals
    replaced by spaces.  comments_by_line maps 1-based line numbers to the
    concatenated comment text on that line (pragmas, EXPECT-FINDING
    directives, and memory_order rationales are read from here, so they are
    invisible to every token rule).
    """
    out = list(text)
    comments: dict = {}
    line = 1
    i = 0
    n = len(text)

    def record_comment(char: str):
        comments[line] = comments.get(line, "") + char

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                record_comment(text[i])
                out[i] = " "
                i += 1
            continue
        if c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            record_comment("/*")
            i += 2
            while i < n:
                if text[i] == "\n":
                    line += 1
                    i += 1
                    continue
                if text[i] == "*" and i + 1 < n and text[i + 1] == "/":
                    out[i] = out[i + 1] = " "
                    i += 2
                    break
                record_comment(text[i])
                out[i] = " "
                i += 1
            continue
        if c == "R" and nxt == '"':
            # Raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                end_marker = ")" + m.group(1) + '"'
                end = text.find(end_marker, i + m.end())
                end = (end + len(end_marker)) if end >= 0 else n
                for j in range(i, min(end, n)):
                    if text[j] == "\n":
                        line += 1
                    else:
                        out[j] = " "
                i = end
                continue
        if c == '"' or c == "'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = out[i + 1] = " "
                    i += 2
                    continue
                if text[i] == "\n":  # unterminated; bail at line end
                    break
                out[i] = " "
                i += 1
            if i < n and text[i] == quote:
                out[i] = " "
                i += 1
            continue
        i += 1
    return "".join(out), comments


def load_source(root: str, rel_path: str) -> SourceFile:
    with open(os.path.join(root, rel_path), "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    sf = SourceFile(path=rel_path.replace(os.sep, "/"), raw=raw)
    sf.clean, sf.comments = blank_comments_and_strings(raw)
    sf.raw_lines = raw.splitlines()
    sf.clean_lines = sf.clean.splitlines()
    offset = 0
    sf.line_offsets = []
    for ln in sf.clean.split("\n"):
        sf.line_offsets.append(offset)
        offset += len(ln) + 1
    return sf


# --------------------------------------------------------------------------
# Function extents: which byte ranges of a file are (outermost) function bodies.
# --------------------------------------------------------------------------

_FN_TAIL = re.compile(
    r"[)\]]\s*(const|noexcept|override|final|mutable|try|->\s*[\w:<>,\s&*~]+)*\s*$"
)
_NONFN_KEYWORD = re.compile(r"\b(namespace|class|struct|enum|union|do|else)\s*[\w:<>]*\s*$")


def function_extents(clean: str):
    """Outermost function-body extents [(start, end)] in blanked text.

    Heuristic brace classifier: a '{' preceded (modulo whitespace) by ')' or
    ']' — a parameter list or lambda introducer — opens a function-ish body
    unless an explicit non-function keyword owns it.  Control-flow braces
    classify function-ish too, but they are always nested inside a real
    function, so outermost extents are unaffected.
    """
    extents = []
    stack = []  # (is_function, start_offset)
    for i, c in enumerate(clean):
        if c == "{":
            look = clean[max(0, i - 240):i].rstrip()
            is_fn = bool(_FN_TAIL.search(look)) and not _NONFN_KEYWORD.search(look)
            outer_fn = any(f for f, _ in stack)
            stack.append((is_fn and not outer_fn, i))
        elif c == "}":
            if stack:
                is_fn, start = stack.pop()
                if is_fn:
                    extents.append((start, i + 1))
    return sorted(extents)


def enclosing_extent(extents, offset):
    for start, end in extents:
        if start <= offset < end:
            return (start, end)
    return None


# --------------------------------------------------------------------------
# Findings and allowlist pragmas.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


_ALLOW = re.compile(r"pathalint:\s*allow\((R\d)\)\s*:\s*(\S.*)")


def allowed(sf: SourceFile, line: int, rule: str) -> bool:
    """True if an allow pragma with a non-empty reason covers (line, rule).

    A pragma covers the line it sits on and the first code line below the
    contiguous comment block containing it — so a multi-line justification
    directly above the flagged declaration works naturally."""

    def line_has_pragma(no: int) -> bool:
        for m in _ALLOW.finditer(sf.comments.get(no, "")):
            if m.group(1) == rule and m.group(2).strip():
                return True
        return False

    if line_has_pragma(line):
        return True
    probe = line - 1
    while probe >= 1 and probe in sf.comments and \
            not sf.clean_lines[probe - 1].strip():
        if line_has_pragma(probe):
            return True
        probe -= 1
    return False


def emit(findings, sf: SourceFile, line: int, rule: str, message: str):
    if not allowed(sf, line, rule):
        findings.append(Finding(rule, sf.path, line, message))


# --------------------------------------------------------------------------
# Rule implementations.
# --------------------------------------------------------------------------

# Layers below src/tools where the interner owns all name bytes (R1 scope).
R1_LAYERS = ("graph", "parser", "core", "route_db", "image", "exec", "incr")

# Identifier components that mark a member as (probably) holding name bytes.
R1_NAMEISH = {
    "name", "names", "host", "hosts", "alias", "aliases", "domain", "domains",
    "dest", "dests", "destination", "destinations", "via", "local", "symbol",
    "symbols", "label", "labels",
}

_R1_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?"
    r"(std::string_view|std::string|std::vector<\s*std::string\s*>)\s+"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*)?;"
)


def rule_r1(sf: SourceFile, findings):
    """R1 interner-only name ownership (docs/INVARIANTS.md#r1).

    No layer below src/tools owns a name string: names are interned once and
    keyed by NameId everywhere (PR 1).  A std::string / string_view /
    vector<string> member whose identifier names hosts, aliases, domains,
    symbols, or similar must either key on NameId instead or carry an allow
    pragma explaining which output/serialization edge it sits on.
    """
    layer = sf.path.split("/")[1] if sf.path.startswith("src/") else ""
    if layer not in R1_LAYERS:
        return
    extents = function_extents(sf.clean)
    for idx, line_text in enumerate(sf.clean_lines):
        m = _R1_MEMBER.match(line_text)
        if not m:
            continue
        line = idx + 1
        offset = sf.line_offsets[idx] + m.start(1)
        if enclosing_extent(extents, offset):
            continue  # a local variable, not an owning member
        ident = m.group(2)
        words = set(w for w in ident.strip("_").lower().split("_") if w)
        if words & R1_NAMEISH:
            emit(findings, sf, line, "R1",
                 f"member '{ident}' looks like owned name bytes ({m.group(1)}); "
                 "layers below src/tools key on NameId — intern it, or pragma "
                 "the output/serialization edge it rides")


_R2_TOKEN = re.compile(
    r"(?<![\w.>:])((?:std::|::)?(?:rename|renameat2?|fsync|fdatasync)\s*\(|O_TRUNC\b)"
)


def rule_r2(sf: SourceFile, findings):
    """R2 durable publish discipline (docs/INVARIANTS.md#r2).

    Every file publish goes through support::PublishFileDurably — the one
    temp+fsync+rename+dirsync implementation (PR 8).  Raw rename/fsync/
    O_TRUNC anywhere else in src/ reintroduces the torn-file window that
    discipline closed.
    """
    if sf.path.startswith("src/support/durable_file"):
        return
    for m in _R2_TOKEN.finditer(sf.clean):
        line = sf.line_of_offset(m.start())
        emit(findings, sf, line, "R2",
             f"raw publish primitive '{m.group(1).strip()}' outside "
             "support/durable_file.cc; use support::PublishFileDurably")


_R3_TOKEN = re.compile(r"(?<![\w.>])::(read|write|send|sendto|sendmsg|recv|recvfrom|recvmsg)\s*\(")
_R3_WRAPPERS = re.compile(r"\b(RetryEintr|ReadFull|WriteFull)\s*\(")


def wrapper_call_spans(clean: str, wrapper_re) -> list:
    """Exact [start, end) extents of each wrapper call's argument list, found by
    forward paren matching — sees through lambda bodies and nested calls, which
    is how RetryEintr is actually used (`RetryEintr([&] { return ::write(...); })`)."""
    spans = []
    for m in wrapper_re.finditer(clean):
        depth = 1
        i = m.end()
        while i < len(clean) and depth > 0:
            if clean[i] == "(":
                depth += 1
            elif clean[i] == ")":
                depth -= 1
            i += 1
        spans.append((m.end(), i))
    return spans


def rule_r3(sf: SourceFile, findings):
    """R3 io_retry syscall discipline (docs/INVARIANTS.md#r3).

    Every raw read/write/send*/recv* in src/net goes through the
    support/io_retry.h helpers (RetryEintr / ReadFull / WriteFull) so the
    EINTR-retry and short-transfer policy lives in one place (PR 7).
    """
    if not sf.path.startswith("src/net/"):
        return
    spans = wrapper_call_spans(sf.clean, _R3_WRAPPERS)
    for m in _R3_TOKEN.finditer(sf.clean):
        if any(start <= m.start() < end for start, end in spans):
            continue
        line = sf.line_of_offset(m.start())
        emit(findings, sf, line, "R3",
             f"raw ::{m.group(1)}() in src/net outside an io_retry wrapper; "
             "wrap in support::RetryEintr / ReadFull / WriteFull")


_R4_PUBLISH_CALL = re.compile(r"\bPublishFileDurably\s*\(")
_R4_FALLIBLE = re.compile(
    r"(?<![\w.>])(?:::(open|socket|bind|mmap|fsync|fdatasync)|std::rename|::rename|mkstemp)\s*\("
)
_STRING_LITERAL = re.compile(r'"([^"\\]|\\.)*"')


def rule_r4(sf: SourceFile, findings):
    """R4 failpoint coverage (docs/INVARIANTS.md#r4).

    Every fallible publish/open/socket site carries a failpoint (PR 8): a
    function performing a raw fallible syscall (open/socket/bind/mmap/fsync/
    rename) must consult support::failpoint::Inject in the same function, and
    every PublishFileDurably call site must name its failpoint prefix with a
    dotted string literal so chaos schedules can target it.
    """
    extents = function_extents(sf.clean)
    if not sf.path.startswith("src/support/durable_file"):
        for m in _R4_PUBLISH_CALL.finditer(sf.clean):
            line = sf.line_of_offset(m.start())
            close = sf.clean.find(";", m.end())
            raw_call = sf.raw[m.start():close if close > 0 else m.end() + 200]
            has_name = any("." in lit.group(0)
                           for lit in _STRING_LITERAL.finditer(raw_call))
            if not has_name:
                emit(findings, sf, line, "R4",
                     "PublishFileDurably call does not name a failpoint prefix "
                     '(dotted string literal like "image.publish")')
    flagged_extents = set()
    for m in _R4_FALLIBLE.finditer(sf.clean):
        extent = enclosing_extent(extents, m.start())
        if extent is None or extent in flagged_extents:
            continue
        start, end = extent
        if "failpoint::Inject" in sf.raw[start:end]:
            continue
        flagged_extents.add(extent)
        line = sf.line_of_offset(m.start())
        emit(findings, sf, line, "R4",
             f"fallible syscall '{m.group(0).strip()}' in a function with no "
             "failpoint::Inject site; add a named failpoint so chaos tests can "
             "reach this error path")


_R5_TOKEN = re.compile(r"\bmemory_order(?:_|::)(relaxed|acquire|release|acq_rel|consume)\b")


def rule_r5(sf: SourceFile, findings):
    """R5 memory_order rationale (docs/INVARIANTS.md#r5).

    Every non-seq_cst atomic operation carries a '// memory_order:' comment
    (same line or within the preceding six lines) saying why the weaker order
    is sound.  Weak orderings are load-bearing proofs, not defaults; TSan can
    only see the interleavings a test produces, the comment is reviewable
    always.
    """
    for m in _R5_TOKEN.finditer(sf.clean):
        line = sf.line_of_offset(m.start())
        documented = any("memory_order:" in sf.comments.get(probe, "")
                         for probe in range(max(1, line - 6), line + 1))
        if not documented:
            emit(findings, sf, line, "R5",
                 f"memory_order_{m.group(1)} without a '// memory_order:' "
                 "rationale comment on or above the operation")


# R6: the allowed direct-include matrix between src/ layers.  Every layer may
# include itself and src/support; the sets below are the additional allowed
# targets.  This codifies the dependency structure as built (docs/
# INVARIANTS.md#r6); widening an edge is a reviewed change to this table.
R6_ALLOWED = {
    "support": set(),
    "graph": set(),
    "parser": {"graph"},
    "core": {"graph", "parser"},
    "route_db": {"graph", "core"},
    "image": {"graph", "route_db"},
    "exec": {"route_db", "image"},
    "incr": {"graph", "parser", "core", "route_db"},
    "net": {"parser", "exec", "image", "incr"},
    "mapgen": {"parser"},
    "baseline": {"graph", "parser", "core"},
    "tools": None,  # tools are the composition root: may include anything
}

# File-level exceptions: (including file, included header) edges allowed
# beyond the matrix, each with a rationale that lives here.
R6_EXCEPTIONS = {
    # The sharded mapper borrows only the fork-join pool from exec; the rest of
    # exec (engines, caches) stays above core.
    ("src/core/sharded_mapper.cc", "src/exec/thread_pool.h"),
}

_INCLUDE = re.compile(r'^\s*#\s*include\s*"(src/([a-z_]+)/[^"]+)"')


def rule_r6(sf: SourceFile, findings):
    """R6 include layering (docs/INVARIANTS.md#r6).

    Lower layers may not include higher ones — src/core must never see
    src/net, src/support depends on nothing above itself.  The full allowed
    matrix is R6_ALLOWED in scripts/pathalint.py; genuinely new edges are
    added there (with rationale), not by just including the header.
    """
    if not sf.path.startswith("src/"):
        return
    layer = sf.path.split("/")[1]
    allowed_layers = R6_ALLOWED.get(layer)
    if allowed_layers is None and layer in R6_ALLOWED:
        return  # composition root
    if layer not in R6_ALLOWED:
        emit(findings, sf, 1, "R6",
             f"unknown layer 'src/{layer}'; add it to R6_ALLOWED with its "
             "permitted dependencies")
        return
    for idx, line_text in enumerate(sf.raw_lines):
        m = _INCLUDE.match(line_text)
        if not m:
            continue
        target = m.group(2)
        if target == layer or target == "support" or target in allowed_layers:
            continue
        if (sf.path, m.group(1)) in R6_EXCEPTIONS:
            continue
        emit(findings, sf, idx + 1, "R6",
             f"src/{layer} may not include src/{target} "
             f"(allowed: support, {layer}"
             + ("".join(", " + a for a in sorted(allowed_layers)))
             + "); see R6_ALLOWED")


RULES = {
    "R1": rule_r1,
    "R2": rule_r2,
    "R3": rule_r3,
    "R4": rule_r4,
    "R5": rule_r5,
    "R6": rule_r6,
}


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------


def discover_files(root: str):
    files = []
    src_root = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src_root):
        for name in sorted(names):
            if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                files.append(os.path.relpath(os.path.join(dirpath, name), root)
                             .replace(os.sep, "/"))
    return sorted(files)


def run_rules(root, files, rules):
    findings: list = []
    for rel_path in files:
        sf = load_source(root, rel_path)
        for rule_name in rules:
            RULES[rule_name](sf, findings)
    return sorted(set(findings), key=lambda f: (f.path, f.line, f.rule))


def write_summary(path, findings, rules, files):
    lines = ["## pathalint findings", ""]
    lines.append(f"Scanned {len(files)} files, rules {', '.join(rules)}: "
                 f"**{len(findings)} finding(s)**.")
    if findings:
        lines += ["", "| file | line | rule | message |", "|---|---|---|---|"]
        for f in findings:
            lines.append(f"| {f.path} | {f.line} | {f.rule} | {f.message} |")
    with open(path, "a", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")


_EXPECT = re.compile(r"EXPECT-FINDING:\s*(R\d)\b")


def self_test(lint_dir: str, rules) -> int:
    """Runs the rules over the seeded-violation fixture corpus and diffs the
    findings against the EXPECT-FINDING directives embedded in the fixtures.

    Proves three things per rule: it fires where seeded, it stays quiet on the
    conforming twin, and the allow pragma suppresses it (the corpus must
    contain at least one pragma'd site with no finding)."""
    fixture_root = os.path.join(lint_dir, "fixtures")
    if not os.path.isdir(fixture_root):
        print(f"pathalint: no fixture corpus at {fixture_root}", file=sys.stderr)
        return 2
    files = discover_files(fixture_root)
    expected = set()
    pragma_sites = 0
    for rel_path in files:
        sf = load_source(fixture_root, rel_path)
        for line_no, comment in sf.comments.items():
            for m in _EXPECT.finditer(comment):
                expected.add((rel_path, line_no, m.group(1)))
            if "pathalint: allow(" in comment:
                pragma_sites += 1
    actual = set((f.path, f.line, f.rule)
                 for f in run_rules(fixture_root, files, rules))
    missing = expected - actual
    unexpected = actual - expected
    ok = not missing and not unexpected
    fired_rules = {r for _, _, r in expected}
    for rule_name in rules:
        status = "fires+clean" if rule_name in fired_rules else "NO FIXTURE"
        print(f"  {rule_name}: {status}")
        if rule_name not in fired_rules:
            ok = False
    if pragma_sites == 0:
        print("  allowlist: NO pragma fixture (need one suppressed violation)")
        ok = False
    else:
        print(f"  allowlist: {pragma_sites} pragma site(s) exercised")
    for path, line, rule in sorted(missing):
        print(f"MISSING   {path}:{line}: [{rule}] expected but not reported")
    for path, line, rule in sorted(unexpected):
        print(f"SPURIOUS  {path}:{line}: [{rule}] reported but not expected")
    print(f"self-test: {len(expected)} expected, {len(actual)} reported — "
          + ("OK" if ok else "MISMATCH"))
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="repo root (default: script's parent)")
    parser.add_argument("--rules", default=",".join(RULES),
                        help="comma-separated rule subset (default: all)")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 if any finding survives the allowlist")
    parser.add_argument("--summary", metavar="PATH",
                        help="append a markdown findings summary (CI job summary)")
    parser.add_argument("--self-test", metavar="DIR",
                        help="run the fixture corpus under DIR/fixtures and diff "
                             "against EXPECT-FINDING directives")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("files", nargs="*",
                        help="restrict the scan to these repo-relative files")
    args = parser.parse_args(argv)

    rules = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
    for r in rules:
        if r not in RULES:
            parser.error(f"unknown rule {r}; known: {', '.join(RULES)}")

    if args.list_rules:
        for name, fn in RULES.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"{name}  {doc[0] if doc else ''}")
            for line in doc[1:]:
                print(f"      {line.strip()}")
            print()
        return 0

    if args.self_test:
        return self_test(args.self_test, rules)

    root = os.path.abspath(args.root)
    files = ([p.replace(os.sep, "/") for p in args.files]
             if args.files else discover_files(root))
    findings = run_rules(root, files, rules)
    for f in findings:
        print(f.render())
    if args.summary:
        write_summary(args.summary, findings, rules, files)
    if not findings:
        print(f"pathalint: clean ({len(files)} files, rules {','.join(rules)})")
    return 1 if (findings and args.gate) else 0


if __name__ == "__main__":
    sys.exit(main())
