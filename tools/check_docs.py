#!/usr/bin/env python3
"""Documentation cross-reference checker (ctest: docs_check).

Run from the repository root (the ctest registration sets the working
directory). Verifies, over every tracked markdown file:

1. Relative markdown links resolve to files that exist.
2. Every `DESIGN.md §N` reference names an existing `## N.` section
   of DESIGN.md. (Bare `§N` references are paper sections and are not
   checked.)
3. Every experiment id `E<N>` mentioned anywhere has a row in
   DESIGN.md's experiment index table and a `## E<N>` section in
   EXPERIMENTS.md.
4. Every file under docs/ is listed in DOC_FILES (a new reference doc
   cannot silently escape the checks or the README index).
5. Every `ctest -L <label>` recipe quoted in the docs names a label
   actually attached to a test in tests/CMakeLists.txt or
   bench/CMakeLists.txt.
6. Every backticked repo path with a file extension under src/,
   tests/, bench/, tools/, examples/ or docs/ (an optional `:line`
   suffix and `{a,b}` alternatives allowed) names an existing file, in
   README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md. ROADMAP.md and
   CHANGES.md are exempt: they name planned and deleted files.
7. docs/NETWORK.md states the wire protocol of src/server/protocol.h:
   its frame-layout row reads "protocol version, currently N" with N =
   kProtocolVersion, its version history has a "Version N" sentence
   for that N (so a protocol bump cannot land without its note), and
   its message-type table has exactly one row per MessageTypeName
   string, with that type's enum number.
8. (Over source files, not docs.) One byte codec: src/common/bytes.h
   alone decides how an integer is laid out in bytes. No other file
   under src/ defines a fixed-width Put/Get/Load/Store helper (U8,
   U16, U32, U64, I64; function or lambda), packs an integer with an
   `(8 * i)` shift, memcpy's a variable's bytes to or from a buffer,
   or defines a `Cursor`; and the old WireWriter/WireReader names
   appear in no source file. The bit-level codecs
   (src/common/bitstream.*, src/compress/) are exempt.
9. EXPLAIN's access-path vocabulary stays documented: the names
   AccessKindName returns (its `case AccessKind::k...: return "..."`
   lines in src/sql/planner/planner.cc) are exactly the rows of
   docs/INDEXING.md's `| access path |` table, one row each.

Exits non-zero with one line per problem.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "PAPER.md",
    "docs/OBSERVABILITY.md",
    "docs/NETWORK.md",
    "docs/DURABILITY.md",
    "docs/INDEXING.md",
]

CMAKE_FILES = ["tests/CMakeLists.txt", "bench/CMakeLists.txt",
               "CMakeLists.txt"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
DESIGN_SECTION_REF_RE = re.compile(r"DESIGN\.md\s*§+\s*(\d+)")
DESIGN_SECTION_DEF_RE = re.compile(r"^##\s+(\d+)\.", re.MULTILINE)
EXPERIMENT_REF_RE = re.compile(r"\bE(\d+)\b")
EXPERIMENT_INDEX_ROW_RE = re.compile(r"^\|\s*E(\d+)\s*\|", re.MULTILINE)
EXPERIMENT_SECTION_RE = re.compile(r"^##\s+E(\d+)\b", re.MULTILINE)
CTEST_LABEL_RE = re.compile(r"ctest\s+(?:--test-dir\s+\S+\s+)?-L\s+`?([\w-]+)")
# LABELS in qbism_add_test(... LABELS a b), set_tests_properties(...
# LABELS "a;b"), and the free-form preset notes don't define labels —
# only the first two forms do.
CMAKE_LABELS_RE = re.compile(r"LABELS\s+((?:\"[^\"]*\"|[\w-]+)(?:\s+[\w-]+)*)")
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
REPO_PATH_RE = re.compile(
    r"^((?:src|tests|bench|tools|examples|docs)/[\w./{},-]*\.[\w{},]+)"
    r"(?::[\d,-]+)?$")
PATH_CHECKED_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
PROTOCOL_VERSION_RE = re.compile(r"kProtocolVersion\s*=\s*(\d+)")
MESSAGE_ENUM_RE = re.compile(r"^\s*(k\w+)\s*=\s*(\d+),", re.MULTILINE)
MESSAGE_NAME_RE = re.compile(r'case MessageType::(k\w+):\s*return "(\w+)"')
DOC_VERSION_RE = re.compile(r"protocol version, currently (\d+)")
DOC_VERSION_NOTE_RE = re.compile(r"\bVersion (\d+)\b")
DOC_MESSAGE_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|\s*(\d+)\s*\|",
                                re.MULTILINE)
BYTE_CODEC = "src/common/bytes.h"
BYTE_CODEC_EXEMPT = ("src/common/bitstream.", "src/compress/")
CODE_DIRS = ("src", "tests", "bench", "bench_e2e", "examples")
FIXED_WIDTH = r"(?i:put|get|load|store)_?(?i:u8|u16|u32|u64|i64)\w*"
PRIVATE_CODEC_RES = [
    ("defines a fixed-width byte helper", re.compile(
        r"^[ \t]*(?!return\b)(?:(?:static|inline|constexpr)[ \t]+)*"
        r"[\w:<>]+[ \t*&]+" + FIXED_WIDTH + r"[ \t]*\(", re.MULTILINE)),
    ("defines a fixed-width byte lambda", re.compile(
        r"\bauto[ \t]+" + FIXED_WIDTH + r"[ \t]*=[ \t]*\[")),
    ("packs an integer with an (8 * i) shift", re.compile(
        r"(?:<<|>>)[ \t]*\([ \t]*8[ \t]*\*")),
    ("memcpy's a variable's bytes", re.compile(
        r"memcpy\([ \t]*&|memcpy\([^,;]+,[ \t]*&")),
    ("defines a Cursor", re.compile(r"\b(?:struct|class)[ \t]+Cursor\b")),
]
OLD_WIRE_NAMES_RE = re.compile(r"\bWire(?:Writer|Reader)\b")
ACCESS_NAMES_SOURCE = "src/sql/planner/planner.cc"
ACCESS_NAME_RE = re.compile(r'case AccessKind::k\w+:\s*return "([^"]+)"')
ACCESS_TABLE_HEADER = "| access path |"
ACCESS_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def expand_braces(path):
    """`src/a.{h,cc}` -> [`src/a.h`, `src/a.cc`], one group at a time."""
    match = re.search(r"\{([^{}]*)\}", path)
    if not match:
        return [path]
    out = []
    for alt in match.group(1).split(","):
        out += expand_braces(path[:match.start()] + alt + path[match.end():])
    return out


def check_protocol_doc(network_doc):
    """Rule 7: problems where docs/NETWORK.md disagrees with the code."""
    header = (ROOT / "src/server/protocol.h").read_text(encoding="utf-8")
    source = (ROOT / "src/server/protocol.cc").read_text(encoding="utf-8")
    rel = "docs/NETWORK.md"
    problems = []
    version = PROTOCOL_VERSION_RE.search(header)
    stated = DOC_VERSION_RE.findall(network_doc)
    if version is None:
        problems.append("src/server/protocol.h: no kProtocolVersion")
    else:
        if stated != [version.group(1)]:
            problems.append(f"{rel}: states protocol version "
                            f"{', '.join(stated) or 'nowhere'}, "
                            f"kProtocolVersion is {version.group(1)}")
        if version.group(1) not in DOC_VERSION_NOTE_RE.findall(network_doc):
            problems.append(f"{rel}: the version history has no "
                            f"'Version {version.group(1)}' note")
    enum_body = header.split("enum class MessageType", 1)[-1].split("};")[0]
    numbers = dict(MESSAGE_ENUM_RE.findall(enum_body))
    want = {name: numbers.get(enum) for enum, name in
            MESSAGE_NAME_RE.findall(source)}
    rows = DOC_MESSAGE_ROW_RE.findall(network_doc)
    listed = {}
    for name, number in rows:
        listed.setdefault(name, []).append(number)
    for name, number in sorted(want.items()):
        if listed.get(name) != [number]:
            problems.append(f"{rel}: message table lists `{name}` as "
                            f"{', '.join(listed.get(name, [])) or 'missing'}"
                            f", the code numbers it {number}")
    for name in sorted(set(listed) - set(want)):
        problems.append(f"{rel}: message table lists `{name}`, which "
                        f"MessageTypeName does not name")
    return problems


def check_byte_codec():
    """Rule 8: problems where code outside the one byte codec packs
    integers itself."""
    problems = []
    for top in CODE_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            rel = path.relative_to(ROOT).as_posix()
            text = path.read_text(encoding="utf-8")
            if OLD_WIRE_NAMES_RE.search(text):
                problems.append(f"{rel}: names WireWriter/WireReader; use "
                                f"ByteWriter/ByteReader ({BYTE_CODEC})")
            if (top != "src" or rel == BYTE_CODEC or
                    rel.startswith(BYTE_CODEC_EXEMPT)):
                continue
            for what, pattern in PRIVATE_CODEC_RES:
                for match in pattern.finditer(text):
                    lineno = text.count("\n", 0, match.start()) + 1
                    problems.append(f"{rel}:{lineno}: {what}; use "
                                    f"{BYTE_CODEC}")
    return problems


def check_access_paths(indexing_doc):
    """Rule 9: problems where docs/INDEXING.md's access-path table and
    the names EXPLAIN can print disagree."""
    source = (ROOT / ACCESS_NAMES_SOURCE).read_text(encoding="utf-8")
    names = ACCESS_NAME_RE.findall(source)
    rel = "docs/INDEXING.md"
    if not names:
        return [f"{ACCESS_NAMES_SOURCE}: AccessKindName returns no name"]
    lines = indexing_doc.splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith(ACCESS_TABLE_HEADER)), None)
    if start is None:
        return [f"{rel}: no '{ACCESS_TABLE_HEADER}' table"]
    rows = []
    for line in lines[start + 2:]:  # skip the header's separator row
        if not line.startswith("|"):
            break
        match = ACCESS_ROW_RE.match(line)
        rows.append(match.group(1) if match else line)
    problems = []
    for name in names:
        if rows.count(name) != 1:
            problems.append(f"{rel}: access-path table lists `{name}` "
                            f"{rows.count(name)} times, EXPLAIN prints it")
    for row in rows:
        if row not in names:
            problems.append(f"{rel}: access-path table row `{row}` is not "
                            f"a name AccessKindName returns")
    return problems


def main() -> int:
    problems = []
    texts = {}
    for rel in DOC_FILES:
        path = ROOT / rel
        if not path.is_file():
            problems.append(f"{rel}: listed in check_docs.py but missing")
            continue
        texts[rel] = path.read_text(encoding="utf-8")

    # 4. docs/ holds no file the list (and so the checks) doesn't cover.
    for path in sorted((ROOT / "docs").glob("*.md")):
        rel = f"docs/{path.name}"
        if rel not in DOC_FILES:
            problems.append(f"{rel}: exists but is not listed in check_docs.py")

    # Labels defined in the build: qbism_add_test(... LABELS a b) and
    # set_tests_properties(... LABELS "a;b").
    defined_labels = set()
    for rel in CMAKE_FILES:
        cmake = (ROOT / rel).read_text(encoding="utf-8")
        for group in CMAKE_LABELS_RE.findall(cmake):
            for token in group.replace('"', " ").replace(";", " ").split():
                defined_labels.add(token)

    design = texts.get("DESIGN.md", "")
    experiments = texts.get("EXPERIMENTS.md", "")
    design_sections = set(DESIGN_SECTION_DEF_RE.findall(design))
    index_rows = set(EXPERIMENT_INDEX_ROW_RE.findall(design))
    experiment_sections = set(EXPERIMENT_SECTION_RE.findall(experiments))

    for rel, text in texts.items():
        base = (ROOT / rel).parent

        # 1. Relative links resolve.
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            if not (base / target_path).exists():
                problems.append(f"{rel}: broken link -> {target}")

        # 2. DESIGN.md §N references name real sections.
        for num in DESIGN_SECTION_REF_RE.findall(text):
            if num not in design_sections:
                problems.append(
                    f"{rel}: reference to DESIGN.md §{num}, but DESIGN.md "
                    f"has no '## {num}.' section"
                )

        # 5. Quoted `ctest -L <label>` recipes name real labels.
        for label in CTEST_LABEL_RE.findall(text):
            if label not in defined_labels:
                problems.append(
                    f"{rel}: `ctest -L {label}`, but no test in the build "
                    f"carries the label '{label}'"
                )

        # 6. Backticked repo paths name files that exist.
        if rel in PATH_CHECKED_FILES or rel.startswith("docs/"):
            for lineno, line in enumerate(text.splitlines(), 1):
                for span in CODE_SPAN_RE.findall(line):
                    for token in span.split():
                        match = REPO_PATH_RE.match(token)
                        if not match:
                            continue
                        for path in expand_braces(match.group(1)):
                            if not (ROOT / path).exists():
                                problems.append(
                                    f"{rel}:{lineno}: `{token}` names a "
                                    f"file that does not exist")

        # 3. Experiment ids resolve in both the index and EXPERIMENTS.md.
        for num in set(EXPERIMENT_REF_RE.findall(text)):
            if num not in index_rows:
                problems.append(
                    f"{rel}: experiment E{num} is not in DESIGN.md's "
                    f"experiment index"
                )
            if num not in experiment_sections:
                problems.append(
                    f"{rel}: experiment E{num} has no '## E{num}' section "
                    f"in EXPERIMENTS.md"
                )

    # 7. The protocol reference states the protocol the code speaks.
    problems += check_protocol_doc(texts.get("docs/NETWORK.md", ""))

    # 8. One byte codec.
    problems += check_byte_codec()

    # 9. EXPLAIN's access paths are documented, one row each.
    problems += check_access_paths(texts.get("docs/INDEXING.md", ""))

    if problems:
        for p in sorted(set(problems)):
            print(p)
        print(f"docs_check: {len(set(problems))} problem(s)")
        return 1
    n_links = sum(len(LINK_RE.findall(t)) for t in texts.values())
    print(
        f"docs_check: OK ({len(texts)} files, {n_links} links, "
        f"{len(design_sections)} DESIGN sections, "
        f"{len(experiment_sections)} experiments, "
        f"{len(defined_labels)} ctest labels)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
