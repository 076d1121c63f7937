#!/usr/bin/env python3
"""cdb_lint: fast, AST-free checker for CDB-specific repo invariants.

These are the rules generic tools (compiler warnings, clang-tidy) cannot
express because they encode *this* repo's determinism and error-handling
contracts:

  rng-outside-common      All randomness flows through src/common/random.*
                          (seeded, stream-splittable cdb::Rng). Direct use of
                          rand()/srand(), std::random_device, standard engines
                          (mt19937, default_random_engine), or wall-clock
                          time() as an entropy/seed source anywhere else makes
                          runs irreproducible and breaks the bit-identical
                          parallel==serial guarantee.

  unordered-iteration     No range-for or iterator loops over
                          std::unordered_{map,set,multimap,multiset} in the
                          optimizer decision paths (src/cost, src/graph,
                          src/latency, src/exec). Unordered iteration order is
                          implementation- and seed-dependent; iterating it in
                          a decision path silently reorders tie-breaks and
                          changes which task order the optimizer picks.

  naked-abort             std::abort()/abort() only inside src/common/. All
                          other code must fail through CDB_CHECK* (which
                          funnels into cdb::internal_logging::CheckFail) or
                          return a Status, so every crash has a file:line and
                          every recoverable error is visible to callers.

  include-guard           Every header under src/ uses the canonical guard
                          CDB_<DIR>_<FILE>_H_ (e.g. src/cost/sampling.h ->
                          CDB_COST_SAMPLING_H_), keeping guards collision-free
                          as directories grow.

  cc-owned-by-cmake       Every .cc under src/ is listed in a CMake target in
                          src/CMakeLists.txt. An orphaned .cc compiles in
                          nobody's build and silently rots.

  single-publish-path     CrowdPlatform::ExecuteRound may only be invoked
                          inside src/crowd/platform.{h,cc}, by
                          PlatformPublisher, the one crowd deployment type
                          (one market or several) that sessions and the
                          multi-query scheduler publish through. Every other
                          caller must publish through a TaskPublisher so
                          budget accounting, cross-query dedup, and the
                          fault-layer drains cannot be bypassed. Unit tests
                          exercising the simulator itself (tests/) are out of
                          scope; simulator micro-benchmarks use the
                          documented disable comment.

  fault-rng-stream        Fault-injection decisions in the crowd simulator
                          (src/crowd/) must come from explicit split streams
                          — Rng(seed ^ salt, counter), or ShortStream(seed
                          ^ salt, counter), which gives the same draws —
                          never from the platform's shared sequential rng_,
                          whose draws depend on how much randomness earlier
                          code consumed. A fault schedule on the shared
                          stream stops being a pure function of (seed,
                          counter) and silently breaks the bit-identical
                          determinism the DST harness asserts.

  wallclock-outside-trace  std::chrono (includes, namespace uses, direct
                          clock types) only in src/common/trace.cc, the one
                          sanctioned wall-clock reader. Everything else goes
                          through cdb::WallTimer, so nondeterministic time
                          can never leak into an optimizer decision or a
                          byte-compared dump (tests/ is out of scope).

  mutex-annotation        All locking in src/ goes through the annotated
                          wrappers in common/mutex.h — raw std::mutex /
                          std::condition_variable are invisible to clang's
                          -Wthread-safety analysis (libstdc++ carries no
                          capability attributes). Files declaring a
                          Mutex/CondVar must directly include common/mutex.h,
                          and every Mutex member must be named by a
                          CDB_GUARDED_BY / CDB_PT_GUARDED_BY in its own class
                          or struct, so every mutex states what it guards.
                          The repo's one structural mutex rule.

Suppression: append  // cdb-lint: disable=<rule>  (with a reason) to the
offending line. Suppressions without a rule name are invalid.

Usage:
  tools/cdb_lint.py [--repo-root DIR]   lint the repo, exit 1 on findings
  tools/cdb_lint.py --self-test         run rule fixtures, exit 1 on failure

Wired into ctest as `ctest -L lint` (see tools/CMakeLists.txt).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

# --------------------------------------------------------------------------
# Framework
# --------------------------------------------------------------------------


class Finding(NamedTuple):
    path: str  # repo-relative
    line: int  # 1-based; 0 for file-level findings
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


SUPPRESS_RE = re.compile(r"//\s*cdb-lint:\s*disable=([\w-]+)")


def suppressed(line: str, rule: str) -> bool:
    m = SUPPRESS_RE.search(line)
    return bool(m) and m.group(1) == rule


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and the contents of string/char literals.

    Purely line-local (block comments spanning lines are handled by callers
    passing pre-stripped text). Good enough for token-level rules; this is a
    linter for invariants, not a parser.
    """
    out: List[str] = []
    i, n = 0, len(line)
    in_str: Optional[str] = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
                out.append(c)
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def iter_code_lines(text: str) -> Iterator[Tuple[int, str, str]]:
    """Yields (lineno, raw_line, code_line) with comments/strings stripped.

    Handles /* */ block comments across lines.
    """
    in_block = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                yield lineno, raw, ""
                continue
            line = line[end + 2:]
            in_block = False
        # Strip any block comments that open (and maybe close) on this line.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " + line[end + 2:]
        yield lineno, raw, strip_comments_and_strings(line)


CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")


def repo_files(root: str, subdirs: Tuple[str, ...]) -> List[str]:
    out: List[str] = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    out.append(
                        os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(out)


# --------------------------------------------------------------------------
# Rule: rng-outside-common
# --------------------------------------------------------------------------

RNG_ALLOWED = ("src/common/random.h", "src/common/random.cc")
RNG_PATTERNS = [
    (re.compile(r"\bs?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "direct std::mt19937 engine"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(nullptr|NULL|0)?\s*\)"),
     "wall-clock time() as entropy"),
]


def check_rng(path: str, text: str) -> List[Finding]:
    if path.replace(os.sep, "/") in RNG_ALLOWED:
        return []
    findings = []
    for lineno, raw, code in iter_code_lines(text):
        for pattern, what in RNG_PATTERNS:
            if pattern.search(code) and not suppressed(raw, "rng-outside-common"):
                findings.append(Finding(
                    path, lineno, "rng-outside-common",
                    f"{what} outside src/common/random.*; use cdb::Rng so "
                    "runs stay reproducible"))
    return findings


# --------------------------------------------------------------------------
# Rule: unordered-iteration
# --------------------------------------------------------------------------

DECISION_DIRS = ("src/cost", "src/graph", "src/latency", "src/exec")

# `for (auto& kv : container)` — capture the container expression.
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;:()]*:\s*([^){]+)\)")
# `x.begin()` / `x.cbegin()` — iterator-loop entry points.
BEGIN_CALL_RE = re.compile(r"([\w\.\->]+)\s*\.\s*c?begin\s*\(")


def _unordered_names(text: str) -> set:
    """Names of variables/members declared with an unordered container type.

    Textual heuristic: a declaration line mentions unordered_xxx< and ends
    with an identifier before ; = { or (. Tracks across the whole file, which
    over-approximates scopes — acceptable for a determinism gate (false
    positives are suppressible with a reasoned disable comment).
    """
    names = set()
    decl_re = re.compile(
        r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*&?\s*"
        r"(\w+)\s*(?:[;={(]|$)")
    for _lineno, _raw, code in iter_code_lines(text):
        if "unordered_" not in code:
            continue
        for m in decl_re.finditer(code):
            names.add(m.group(1))
    return names


def check_unordered_iteration(path: str, text: str) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    if not any(norm.startswith(d + "/") for d in DECISION_DIRS):
        return []
    findings = []
    names = _unordered_names(text)
    for lineno, raw, code in iter_code_lines(text):
        if suppressed(raw, "unordered-iteration"):
            continue
        hit = None
        m = RANGE_FOR_RE.search(code)
        if m:
            target = m.group(1).strip()
            base = re.split(r"[.\-\[(]", target)[0].strip()
            if "unordered_" in target or base in names:
                hit = f"range-for over unordered container '{target}'"
        if hit is None and "begin" in code:
            b = BEGIN_CALL_RE.search(code)
            if b:
                base = re.split(r"[.\-\[(]", b.group(1))[0].strip()
                if base in names:
                    hit = (f"iterator loop over unordered container "
                           f"'{b.group(1)}'")
        if hit:
            findings.append(Finding(
                path, lineno, "unordered-iteration",
                f"{hit} in an optimizer decision path; iteration order is "
                "nondeterministic — iterate a sorted key list or an ordered "
                "index instead"))
    return findings


# --------------------------------------------------------------------------
# Rule: naked-abort
# --------------------------------------------------------------------------


def check_naked_abort(path: str, text: str) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    if not norm.startswith("src/") or norm.startswith("src/common/"):
        return []
    findings = []
    abort_re = re.compile(r"(?:\bstd::|(?<![\w:.]))abort\s*\(")
    for lineno, raw, code in iter_code_lines(text):
        if abort_re.search(code) and not suppressed(raw, "naked-abort"):
            findings.append(Finding(
                path, lineno, "naked-abort",
                "std::abort outside src/common/; fail through CDB_CHECK* or "
                "return a Status so the crash carries context"))
    return findings


# --------------------------------------------------------------------------
# Rule: include-guard
# --------------------------------------------------------------------------


def expected_guard(path: str) -> str:
    norm = path.replace(os.sep, "/")
    assert norm.startswith("src/") and norm.endswith(".h")
    stem = norm[len("src/"):-len(".h")]
    return "CDB_" + re.sub(r"[/.]", "_", stem).upper() + "_H_"


IFNDEF_RE = re.compile(r"^\s*#ifndef\s+(\w+)", re.MULTILINE)
DEFINE_RE = re.compile(r"^\s*#define\s+(\w+)", re.MULTILINE)


def check_include_guard(path: str, text: str) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    if not (norm.startswith("src/") and norm.endswith(".h")):
        return []
    want = expected_guard(path)
    ifndef = IFNDEF_RE.search(text)
    if not ifndef:
        return [Finding(path, 0, "include-guard",
                        f"missing include guard; expected #ifndef {want}")]
    got = ifndef.group(1)
    lineno = text[:ifndef.start()].count("\n") + 1
    if got != want:
        return [Finding(path, lineno, "include-guard",
                        f"guard '{got}' does not match canonical '{want}'")]
    define = DEFINE_RE.search(text, ifndef.end())
    if not define or define.group(1) != want:
        return [Finding(path, lineno, "include-guard",
                        f"#ifndef {want} not followed by matching #define")]
    return []


# --------------------------------------------------------------------------
# Rule: cc-owned-by-cmake
# --------------------------------------------------------------------------


def check_cmake_ownership(root: str) -> List[Finding]:
    cmake_path = os.path.join(root, "src", "CMakeLists.txt")
    try:
        with open(cmake_path, encoding="utf-8") as f:
            cmake = f.read()
    except OSError:
        return [Finding("src/CMakeLists.txt", 0, "cc-owned-by-cmake",
                        "src/CMakeLists.txt is missing")]
    listed = set(re.findall(r"([\w/\-]+\.cc)\b", cmake))
    findings = []
    for rel in repo_files(root, ("src",)):
        norm = rel.replace(os.sep, "/")
        if not norm.endswith(".cc"):
            continue
        in_src = norm[len("src/"):]
        if in_src not in listed:
            findings.append(Finding(
                rel, 0, "cc-owned-by-cmake",
                f"{in_src} is not listed in any target in src/CMakeLists.txt "
                "— it is built by nothing"))
    return findings


# --------------------------------------------------------------------------
# Rule: snapshot-discipline
# --------------------------------------------------------------------------

# Every data member of QuerySession must either be serialized — its name
# appears in code (not comments) of exec/session_snapshot.cc — or carry an
# explicit `// cdb-snapshot: transient(<reason>)` marker on its declaration
# line or within the two lines above it. This keeps Snapshot()/Restore()
# honest as the session grows: a new field that is silently absent from
# checkpoints fails lint, not a resumed query at 2am.
SNAPSHOT_HEADER_REL = "src/exec/session.h"
SNAPSHOT_IMPL_REL = "src/exec/session_snapshot.cc"
SNAPSHOT_CLASS_RE = re.compile(r"^\s*class\s+QuerySession\b")
SNAPSHOT_TRANSIENT_RE = re.compile(r"//\s*cdb-snapshot:\s*transient\(")
# A data-member declaration: trailing-underscore identifier, optional
# initializer, terminated by ';'. Function declarations are excluded by the
# caller (any line containing '(').
SNAPSHOT_MEMBER_RE = re.compile(
    r"\b([A-Za-z_]\w*_)\s*(?:=[^;{}]*|\{[^;]*\})?;")


def check_snapshot_discipline(root: str) -> List[Finding]:
    header_path = os.path.join(root, *SNAPSHOT_HEADER_REL.split("/"))
    impl_path = os.path.join(root, *SNAPSHOT_IMPL_REL.split("/"))
    try:
        with open(header_path, encoding="utf-8") as f:
            header = f.read()
    except OSError:
        return []  # No session header: nothing to police.
    try:
        with open(impl_path, encoding="utf-8") as f:
            impl = f.read()
    except OSError:
        impl = ""  # Snapshot file deleted: every member below is a finding.
    impl_code = "\n".join(code for _, _, code in iter_code_lines(impl))

    # Collect the QuerySession class body via brace depth over
    # comment-stripped lines.
    body: List[Tuple[int, str, str]] = []
    depth = 0
    in_class = False
    for lineno, raw, code in iter_code_lines(header):
        if not in_class:
            if SNAPSHOT_CLASS_RE.search(code):
                in_class = True
                depth = code.count("{") - code.count("}")
            continue
        depth += code.count("{") - code.count("}")
        if depth <= 0:  # The class-closing '};'.
            break
        body.append((lineno, raw, code))

    findings = []
    # A transient marker covers exactly the next member declaration:
    # intervening comment lines (marker continuations) keep it pending, any
    # other code — or the declaration it annotates — consumes it. A fixed
    # lookback window would let one member's marker leak onto its neighbor.
    marker_pending = False
    for lineno, raw, code in body:
        if SNAPSHOT_TRANSIENT_RE.search(raw):
            marker_pending = True
        members = ([] if "(" in code  # Function declarations, not data.
                   else [m.group(1)
                         for m in SNAPSHOT_MEMBER_RE.finditer(code)])
        if members:
            for member in members:
                if re.search(r"\b" + re.escape(member) + r"\b", impl_code):
                    continue
                if marker_pending or suppressed(raw, "snapshot-discipline"):
                    continue
                findings.append(Finding(
                    SNAPSHOT_HEADER_REL, lineno, "snapshot-discipline",
                    f"QuerySession::{member} is neither serialized in "
                    f"{SNAPSHOT_IMPL_REL} nor marked "
                    "'// cdb-snapshot: transient(<reason>)' — restored "
                    "sessions would silently drop this state"))
            marker_pending = False
        elif code.strip():
            marker_pending = False
    return findings


# --------------------------------------------------------------------------
# Rule: single-publish-path
# --------------------------------------------------------------------------

# The only files allowed to drive the platform round loop directly: the
# platform's own implementation and PlatformPublisher, which lives beside it.
PUBLISH_PATH_ALLOWED = (
    "src/crowd/platform.h",
    "src/crowd/platform.cc",
)
EXECUTE_ROUND_RE = re.compile(r"\bExecuteRound\s*\(")


def check_single_publish_path(path: str, text: str) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    # tests/ exercises the simulator directly by design (platform unit tests,
    # the DST fault harness); everything shipping in src/bench/examples must
    # go through a TaskPublisher.
    if norm in PUBLISH_PATH_ALLOWED or norm.startswith("tests/"):
        return []
    findings = []
    for lineno, raw, code in iter_code_lines(text):
        if (EXECUTE_ROUND_RE.search(code)
                and not suppressed(raw, "single-publish-path")):
            findings.append(Finding(
                path, lineno, "single-publish-path",
                "direct ExecuteRound call outside PlatformPublisher, the one "
                "publisher; publish through a TaskPublisher so budget, "
                "dedup, and fault drains are not bypassed"))
    return findings


# --------------------------------------------------------------------------
# Rule: fault-rng-stream
# --------------------------------------------------------------------------

# A line is "fault context" when it touches a FaultProfile knob.
FAULT_TOKEN_RE = re.compile(
    r"\bfault\s*\.|abandon_prob|straggler_prob|straggler_delay|no_show_prob|"
    r"duplicate_prob|task_deadline_ticks")
# The platform's shared sequential generator (member `rng_`).
SHARED_RNG_RE = re.compile(r"(?<![\w.])rng_\s*\.")
# Any Rng or ShortStream construction on the line: `Rng(...)` temporary or
# `Rng name(...)` declaration. The argument text is scanned for a top-level
# comma — one argument means no stream index was passed.
RNG_CTOR_RE = re.compile(
    r"\b(?:Rng|ShortStream)\s+(?:\w+\s*)?\(|\b(?:Rng|ShortStream)\s*\(")


def _single_arg_rng_ctor(code: str) -> bool:
    for m in RNG_CTOR_RE.finditer(code):
        depth = 1
        top_level_comma = False
        closed = False
        for c in code[m.end():]:
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    closed = True
                    break
            elif c == "," and depth == 1:
                top_level_comma = True
        if closed and not top_level_comma:
            return True
    return False


def check_fault_rng_stream(path: str, text: str) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    if not norm.startswith("src/crowd/"):
        return []
    findings = []
    for lineno, raw, code in iter_code_lines(text):
        if suppressed(raw, "fault-rng-stream"):
            continue
        if not FAULT_TOKEN_RE.search(code):
            continue
        if SHARED_RNG_RE.search(code):
            findings.append(Finding(
                path, lineno, "fault-rng-stream",
                "fault decision drawn from the shared sequential rng_; the "
                "fault schedule must be a pure function of (seed, counter) "
                "— use a split Rng(seed ^ salt, counter) or "
                "ShortStream(seed ^ salt, counter) stream"))
        elif _single_arg_rng_ctor(code):
            findings.append(Finding(
                path, lineno, "fault-rng-stream",
                "single-argument Rng or ShortStream construction in fault "
                "logic; pass a stream index (Rng(seed ^ salt, counter) or "
                "ShortStream(seed ^ salt, counter)) so the draw is "
                "independent of every other consumer"))
    return findings


# --------------------------------------------------------------------------
# Rule: wallclock-outside-trace
# --------------------------------------------------------------------------

# The deterministic surface (metrics dumps, tick traces, optimizer decisions)
# must never see wall-clock time. src/common/trace.cc is the single sanctioned
# std::chrono reader; everything else measures wall time through cdb::WallTimer
# so a nondeterministic stamp cannot leak into a byte-compared dump.
WALLCLOCK_ALLOWED = ("src/common/trace.cc",)
WALLCLOCK_PATTERNS = [
    (re.compile(r"#\s*include\s*<chrono>"), "#include <chrono>"),
    (re.compile(r"\bstd\s*::\s*chrono\b"), "std::chrono"),
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\b"),
     "direct clock type"),
]


def check_wallclock(path: str, text: str) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    if norm in WALLCLOCK_ALLOWED or norm.startswith("tests/"):
        return []
    findings = []
    for lineno, raw, code in iter_code_lines(text):
        for pattern, what in WALLCLOCK_PATTERNS:
            if (pattern.search(code)
                    and not suppressed(raw, "wallclock-outside-trace")):
                findings.append(Finding(
                    path, lineno, "wallclock-outside-trace",
                    f"{what} outside src/common/trace.cc; read wall time "
                    "through cdb::WallTimer so nondeterministic stamps stay "
                    "out of decision paths and byte-compared dumps"))
                break
    return findings


# --------------------------------------------------------------------------
# Rule: flat-index-hot-path
# --------------------------------------------------------------------------
# The per-record and per-sample hot paths are flat: CSR posting lists plus
# dense-id arenas in the similarity joins (similarity/csr_index.h), and SoA
# edge columns / CSR incidence / cached selection skeletons in the optimizer
# (graph/query_graph.h, cost/structure_cache.h, flow/min_cut.h), probed by
# bounds arithmetic and linear scans. A hash lookup (find/count/at/
# operator[]) on an unordered container inside these directories is either a
# probe/sample-loop regression or a deliberate build/encode-phase use — the
# latter carries a reasoned
# `// cdb-lint: disable=flat-index-hot-path <why>` comment.

FLAT_INDEX_DIRS = {
    "src/similarity": "probe loops are flat (CSR postings + dense-id "
                      "arenas, see similarity/csr_index.h)",
    "src/cost": "per-sample selection loops are flat (SoA edge columns + "
                "cached skeletons, see cost/structure_cache.h)",
    "src/flow": "per-sample flow loops are flat (CSR adjacency + reusable "
                "arenas, see flow/min_cut.h)",
}
UNORDERED_LOOKUP_RE = re.compile(r"\b(\w+)\s*(?:\.\s*(?:find|count|at)\s*\(|\[)")


def check_flat_index_hot_path(path: str, text: str) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    hint = next((why for d, why in FLAT_INDEX_DIRS.items()
                 if norm.startswith(d + "/")), None)
    if hint is None:
        return []
    names = _unordered_names(text)
    if not names:
        return []
    findings = []
    for lineno, raw, code in iter_code_lines(text):
        if suppressed(raw, "flat-index-hot-path"):
            continue
        for m in UNORDERED_LOOKUP_RE.finditer(code):
            if m.group(1) in names:
                findings.append(Finding(
                    path, lineno, "flat-index-hot-path",
                    f"hash lookup on unordered container '{m.group(1)}' in "
                    f"{os.path.dirname(norm)}/; {hint} — use the flat "
                    "structures, or justify a build-phase lookup with "
                    "// cdb-lint: disable=flat-index-hot-path <reason>"))
                break
    return findings


# --------------------------------------------------------------------------
# Rule: mutex-annotation
# --------------------------------------------------------------------------
# The concurrency capability model (DESIGN.md): clang's -Wthread-safety
# checks every access to a guarded member; this rule checks the structure it
# cannot see. src/ scope only (tests may exercise raw primitives):
#   (1) no raw std:: mutex or condition variable outside common/mutex.h
#       (libstdc++'s carry no capability attributes, so clang cannot see them);
#   (2) a file declaring a cdb Mutex/CondVar directly includes common/mutex.h
#       (or common/thread_annotations.h);
#   (3) every Mutex data member is named by a CDB_GUARDED_BY or
#       CDB_PT_GUARDED_BY inside its own class or struct body.

MUTEX_WRAPPER_HEADER = "src/common/mutex.h"
RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|recursive_mutex|timed_mutex|shared_mutex"
    r"|condition_variable|condition_variable_any)\b")
WRAPPER_DECL_RE = re.compile(r"(?<![\w:])(?:cdb::)?(?:Mutex|CondVar)\s+[A-Za-z_]\w*")
MUTEX_INCLUDE_RE = re.compile(
    r'#\s*include\s+"common/(?:mutex|thread_annotations)\.h"')
RECORD_KEYWORD_RE = re.compile(r"\b(?:class|struct)\b")
BRACKETED_RE = re.compile(r"\([^()]*\)|<[^<>]*>")
MUTEX_MEMBER_RE = re.compile(r"(?<![\w:])(?:cdb::)?Mutex\s+(\w+)\s*$")
GUARD_RE = re.compile(r"\bCDB_(?:PT_)?GUARDED_BY\s*\(\s*(\w+)\s*\)")


def unguarded_mutex_members(text: str) -> Iterator[Tuple[int, str]]:
    """Yields (lineno, name) of each Mutex data member that no guard
    annotation in its own class or struct body names.

    Brace-depth scan over comment-stripped code: a '{' opens a record body
    when the text since the previous ; { or } says class or struct outside
    parentheses and template brackets. A guard counts for the innermost
    record around it only."""
    stack: List[Optional[Tuple[set, list]]] = []  # Per open '{'.
    head = ""
    for lineno, _raw, code in iter_code_lines(text):
        for c in code + "\n":
            if c not in "{};":
                head += c
                continue
            records = [frame for frame in stack if frame is not None]
            if records:
                records[-1][0].update(GUARD_RE.findall(head))
            if c == ";" and stack and stack[-1] is not None:
                m = MUTEX_MEMBER_RE.search(head)
                if m:
                    stack[-1][1].append((lineno, m.group(1)))
            elif c == "{":
                bare, head = head, BRACKETED_RE.sub("", head)
                while head != bare:
                    bare, head = head, BRACKETED_RE.sub("", head)
                stack.append((set(), []) if RECORD_KEYWORD_RE.search(head)
                             else None)
            elif c == "}" and stack:
                frame = stack.pop()
                if frame is not None:
                    yield from ((n, name) for n, name in frame[1]
                                if name not in frame[0])
            head = ""


def check_mutex_annotation(path: str, text: str) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    if not norm.startswith("src/") or norm == MUTEX_WRAPPER_HEADER:
        return []
    findings = []
    wrapper_decl_line = None
    has_include = False
    raw_lines = text.splitlines()
    for lineno, raw, code in iter_code_lines(text):
        # Match the raw line: the include path is a string literal, which
        # iter_code_lines strips out of `code`.
        if MUTEX_INCLUDE_RE.search(raw):
            has_include = True
        if suppressed(raw, "mutex-annotation"):
            continue
        if RAW_SYNC_RE.search(code):
            findings.append(Finding(
                path, lineno, "mutex-annotation",
                "raw std:: synchronization primitive outside common/mutex.h; "
                "libstdc++ mutexes carry no capability attributes, so clang's "
                "-Wthread-safety cannot see them — use cdb::Mutex / "
                "cdb::CondVar / cdb::MutexLock from common/mutex.h"))
            continue
        if wrapper_decl_line is None and WRAPPER_DECL_RE.search(code):
            wrapper_decl_line = lineno
    if wrapper_decl_line is not None and not has_include:
        findings.append(Finding(
            path, wrapper_decl_line, "mutex-annotation",
            "declares a Mutex/CondVar but does not directly include "
            'common/mutex.h; add #include "common/mutex.h" so the '
            "capability types are not picked up transitively"))
    for lineno, name in unguarded_mutex_members(text):
        if not suppressed(raw_lines[lineno - 1], "mutex-annotation"):
            findings.append(Finding(
                path, lineno, "mutex-annotation",
                f"Mutex member '{name}' guards nothing in its class; add "
                f"CDB_GUARDED_BY({name}) to the state it protects (a "
                "capability that admits to protecting nothing protects "
                "nothing)"))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

PER_FILE_RULES: List[Callable[[str, str], List[Finding]]] = [
    check_rng,
    check_unordered_iteration,
    check_naked_abort,
    check_include_guard,
    check_single_publish_path,
    check_fault_rng_stream,
    check_wallclock,
    check_flat_index_hot_path,
    check_mutex_annotation,
]

LINT_SUBDIRS = ("src", "tests", "bench", "examples")


def lint_repo(root: str) -> List[Finding]:
    findings: List[Finding] = []
    for rel in repo_files(root, LINT_SUBDIRS):
        try:
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            findings.append(Finding(rel, 0, "io", f"unreadable: {e}"))
            continue
        for rule in PER_FILE_RULES:
            findings.extend(rule(rel, text))
    findings.extend(check_cmake_ownership(root))
    findings.extend(check_snapshot_discipline(root))
    return findings


# --------------------------------------------------------------------------
# Self-test fixtures: for every rule, at least one snippet that must trigger
# it (positive) and one that must not (negative). Run via --self-test; wired
# into ctest as cdb_lint_selftest.
# --------------------------------------------------------------------------

SELF_TEST_CASES = [
    # (description, path, snippet, rule, expect_finding)
    ("rand() in exec", "src/exec/foo.cc",
     "int x = rand();\n", "rng-outside-common", True),
    ("srand in bench", "bench/b.cc",
     "srand(42);\n", "rng-outside-common", True),
    ("random_device in tests", "tests/t.cc",
     "std::random_device rd;\n", "rng-outside-common", True),
    ("mt19937 outside common", "src/cost/c.cc",
     "std::mt19937 gen(7);\n", "rng-outside-common", True),
    ("time(nullptr) seed", "src/graph/g.cc",
     "auto seed = time(nullptr);\n", "rng-outside-common", True),
    ("allowed in common/random", "src/common/random.cc",
     "std::mt19937_64 engine_;\n", "rng-outside-common", False),
    ("Rng use is fine", "src/exec/foo.cc",
     "double d = rng.Uniform01();\n", "rng-outside-common", False),
    ("rand in comment ignored", "src/exec/foo.cc",
     "// seeded, never rand()\n", "rng-outside-common", False),
    ("rand in string ignored", "src/exec/foo.cc",
     'const char* s = "rand()";\n', "rng-outside-common", False),
    ("ElapsedTime() not time()", "src/exec/foo.cc",
     "double t = ElapsedTime();\n", "rng-outside-common", False),
    ("steady_clock fine", "bench/b.cc",
     "auto t0 = std::chrono::steady_clock::now();\n",
     "rng-outside-common", False),
    ("suppressed with reason", "src/exec/foo.cc",
     "int x = rand();  // cdb-lint: disable=rng-outside-common legacy shim\n",
     "rng-outside-common", False),

    ("range-for over unordered decl", "src/cost/c.cc",
     "std::unordered_map<int, double> m;\n"
     "for (const auto& kv : m) {\n}\n", "unordered-iteration", True),
    ("range-for over inline unordered expr", "src/graph/g.cc",
     "for (auto& v : state.unordered_set_of_ids()) {\n}\n",
     "unordered-iteration", True),
    ("iterator loop over unordered", "src/exec/e.cc",
     "std::unordered_set<int> seen;\n"
     "for (auto it = seen.begin(); it != seen.end(); ++it) {\n}\n",
     "unordered-iteration", True),
    ("range-for over vector fine", "src/cost/c.cc",
     "std::vector<int> order;\nfor (int v : order) {\n}\n",
     "unordered-iteration", False),
    ("unordered lookup fine", "src/cost/c.cc",
     "std::unordered_map<int, double> m;\n"
     "auto it = m.find(3);\n", "unordered-iteration", False),
    ("unordered iteration outside decision path", "src/storage/s.cc",
     "std::unordered_map<int, int> m;\nfor (auto& kv : m) {\n}\n",
     "unordered-iteration", False),
    ("suppressed sorted-after loop", "src/latency/l.cc",
     "std::unordered_map<int, int> m;\n"
     "for (auto& kv : m) {  // cdb-lint: disable=unordered-iteration "
     "keys sorted below\n}\n",
     "unordered-iteration", False),

    ("std::abort in exec", "src/exec/e.cc",
     "if (bad) std::abort();\n", "naked-abort", True),
    ("bare abort in graph", "src/graph/g.cc",
     "abort();\n", "naked-abort", True),
    ("abort fine in common", "src/common/logging.cc",
     "std::abort();\n", "naked-abort", False),
    ("CheckFail call fine", "src/exec/e.cc",
     "::cdb::internal_logging::CheckFail(__FILE__, __LINE__, c, {});\n",
     "naked-abort", False),
    ("member .abort() fine", "src/exec/e.cc",
     "controller.abort();\n", "naked-abort", False),
    ("abort in tests out of scope", "tests/t.cc",
     "std::abort();\n", "naked-abort", False),

    ("ExecuteRound in an executor", "src/exec/e.cc",
     "auto answers = platform.ExecuteRound(tasks).value();\n",
     "single-publish-path", True),
    ("ExecuteRound in a bench", "bench/b.cc",
     "platform.ExecuteRound(tasks);\n", "single-publish-path", True),
    ("ExecuteRound in the session", "src/exec/session.cc",
     "auto answers = platform_->ExecuteRound(tasks, policy, observer);\n",
     "single-publish-path", True),
    ("ExecuteRound in the scheduler", "src/exec/scheduler.cc",
     "platform_->ExecuteRound(merged, nullptr, nullptr);\n",
     "single-publish-path", True),
    ("allowed inside the platform", "src/crowd/platform.cc",
     "return ExecuteRound(tasks, policy, observer);\n",
     "single-publish-path", False),
    ("platform unit tests out of scope", "tests/crowd_test.cc",
     "auto answers = platform.ExecuteRound(tasks).value();\n",
     "single-publish-path", False),
    ("mention in comment ignored", "src/exec/e.cc",
     "// the publisher wraps ExecuteRound()\n", "single-publish-path", False),
    ("suppressed simulator micro-bench", "bench/bench_micro_core.cc",
     "platform.ExecuteRound(tasks);  "
     "// cdb-lint: disable=single-publish-path raw simulator harness\n",
     "single-publish-path", False),

    ("fault draw from shared rng_", "src/crowd/platform.cc",
     "if (rng_.Bernoulli(fault.abandon_prob)) {\n}\n",
     "fault-rng-stream", True),
    ("single-arg Rng in fault logic", "src/crowd/platform.cc",
     "Rng r(options_.seed); bool x = r.Bernoulli(fault.straggler_prob);\n",
     "fault-rng-stream", True),
    ("split-stream draw is fine", "src/crowd/platform.cc",
     "bool abandoned = Rng(options_.seed ^ kSalt, lease_seq_)"
     ".Bernoulli(fault.abandon_prob);\n",
     "fault-rng-stream", False),
    ("two-argument ShortStream draw is fine", "src/crowd/platform.cc",
     "if (ShortStream(options_.seed ^ kNoShowSalt, tick_)"
     ".Bernoulli(fault.no_show_prob)) {\n}\n",
     "fault-rng-stream", False),
    ("single-arg ShortStream in fault logic", "src/crowd/platform.cc",
     "ShortStream s(options_.seed); bool x = s.Bernoulli(fault.abandon_prob);\n",
     "fault-rng-stream", True),
    ("named split-stream rng is fine", "src/crowd/platform.cc",
     "bool dup = fault_rng.Bernoulli(fault.duplicate_prob);\n",
     "fault-rng-stream", False),
    ("shared rng_ for worker arrival fine", "src/crowd/platform.cc",
     "size_t w = rng_.UniformInt(0, n - 1);\n", "fault-rng-stream", False),
    ("fault draws outside src/crowd out of scope", "src/exec/e.cc",
     "if (rng_.Bernoulli(fault.abandon_prob)) {\n}\n",
     "fault-rng-stream", False),
    ("suppressed fault draw", "src/crowd/platform.cc",
     "if (rng_.Bernoulli(fault.abandon_prob)) {  "
     "// cdb-lint: disable=fault-rng-stream documented legacy knob\n}\n",
     "fault-rng-stream", False),

    ("chrono include in exec", "src/exec/e.cc",
     "#include <chrono>\n", "wallclock-outside-trace", True),
    ("std::chrono read in bench", "bench/b.cc",
     "auto t0 = std::chrono::steady_clock::now();\n",
     "wallclock-outside-trace", True),
    ("bare clock type in examples", "examples/demo.cc",
     "using clock = high_resolution_clock;\n",
     "wallclock-outside-trace", True),
    ("allowed in trace.cc", "src/common/trace.cc",
     "auto now = std::chrono::steady_clock::now();\n",
     "wallclock-outside-trace", False),
    ("WallTimer use is fine", "src/exec/e.cc",
     "WallTimer timer; double ms = timer.ElapsedMs();\n",
     "wallclock-outside-trace", False),
    ("chrono in comment ignored", "src/common/trace.h",
     "// the only file allowed to touch std::chrono\n",
     "wallclock-outside-trace", False),
    ("tests out of scope", "tests/t.cc",
     "auto t0 = std::chrono::steady_clock::now();\n",
     "wallclock-outside-trace", False),
    ("suppressed wall read", "src/exec/e.cc",
     "auto t = std::chrono::steady_clock::now();  "
     "// cdb-lint: disable=wallclock-outside-trace profiling shim\n",
     "wallclock-outside-trace", False),

    ("hash find in similarity probe loop", "src/similarity/join.cc",
     "std::unordered_map<int, std::vector<int>> index;\n"
     "auto it = index.find(token);\n",
     "flat-index-hot-path", True),
    ("hash subscript in similarity", "src/similarity/join.cc",
     "std::unordered_map<std::string, int> freq;\n"
     "++freq[token];\n",
     "flat-index-hot-path", True),
    ("suppressed build-phase lookup", "src/similarity/join.cc",
     "std::unordered_map<std::string, int> ids;\n"
     "auto it = ids.find(token);  "
     "// cdb-lint: disable=flat-index-hot-path dictionary build phase\n",
     "flat-index-hot-path", False),
    ("vector subscript is fine", "src/similarity/join.cc",
     "std::vector<int> postings;\nint x = postings[0];\n",
     "flat-index-hot-path", False),
    ("unordered lookup outside flat-index dirs", "src/graph/g.cc",
     "std::unordered_map<int, int> cache;\nauto it = cache.find(k);\n",
     "flat-index-hot-path", False),
    ("declaration alone is fine", "src/similarity/join.cc",
     "std::unordered_map<std::string, int> ids;\nids.reserve(100);\n",
     "flat-index-hot-path", False),
    ("hash find in cost sample loop", "src/cost/sampling.cc",
     "std::unordered_map<int64_t, double> memo;\n"
     "auto it = memo.find(key);\n",
     "flat-index-hot-path", True),
    ("hash subscript in flow layering", "src/flow/min_cut.cc",
     "std::unordered_map<int, int> pos;\nint i = pos[v];\n",
     "flat-index-hot-path", True),
    ("unordered_set count in flow", "src/flow/dinic.cc",
     "std::unordered_set<int> seen;\nif (seen.count(v)) return;\n",
     "flat-index-hot-path", True),
    ("suppressed cache-build lookup in cost", "src/cost/structure_cache.cc",
     "std::unordered_map<int, int> ids;\n"
     "auto it = ids.find(k);  "
     "// cdb-lint: disable=flat-index-hot-path one-time cache build\n",
     "flat-index-hot-path", False),
    ("flat vectors in cost are fine", "src/cost/expectation.cc",
     "std::vector<double> memo;\ndouble v = memo[key];\n",
     "flat-index-hot-path", False),

    ("raw std::mutex member in src", "src/exec/e.h",
     "class S {\n  std::mutex mu_;\n};\n",
     "mutex-annotation", True),
    ("raw std::condition_variable in src", "src/exec/e.h",
     "class S {\n  std::condition_variable cv_;\n};\n",
     "mutex-annotation", True),
    ("raw mutex in tests is out of scope", "tests/parallel_test.cc",
     "std::mutex mu;\n",
     "mutex-annotation", False),
    ("raw mutex inside the wrapper header", "src/common/mutex.h",
     "class Mutex {\n  std::mutex mu_;\n};\n",
     "mutex-annotation", False),
    ("suppressed raw mutex", "src/exec/e.h",
     "std::mutex mu_;  // cdb-lint: disable=mutex-annotation ffi shim\n",
     "mutex-annotation", False),
    ("annotated wrapper declaration is clean", "src/cost/c.h",
     '#include "common/mutex.h"\n'
     "class S {\n  Mutex mu_;\n  int x_ CDB_GUARDED_BY(mu_) = 0;\n};\n",
     "mutex-annotation", False),
    ("wrapper declared without direct include", "src/cost/c.h",
     "class S {\n  Mutex mu_;\n  int x_ CDB_GUARDED_BY(mu_) = 0;\n};\n",
     "mutex-annotation", True),
    ("wrapper declared without any annotation", "src/cost/c.h",
     '#include "common/mutex.h"\n'
     "class S {\n  Mutex mu_;\n  int x_ = 0;\n};\n",
     "mutex-annotation", True),
    ("mutex guarding nothing", "src/cost/c.h",
     '#include "common/mutex.h"\n'
     "struct S {\n  Mutex mu_;\n  int x_ = 0;\n};\n",
     "mutex-annotation", True),
    ("mutex with guarded sibling is clean", "src/cost/c.h",
     '#include "common/mutex.h"\n'
     "struct S {\n  Mutex mu_;\n  int x_ CDB_GUARDED_BY(mu_) = 0;\n};\n",
     "mutex-annotation", False),
    ("second record's mutex unguarded", "src/cost/c.h",
     '#include "common/mutex.h"\n'
     "class A {\n  Mutex mu_;\n  int x_ CDB_GUARDED_BY(mu_) = 0;\n};\n"
     "class B {\n  Mutex mu_;\n  int y_ = 0;\n};\n",
     "mutex-annotation", True),
    ("guard on a continuation line, pointee guard", "src/cost/c.h",
     '#include "common/mutex.h"\n'
     "class R {\n private:\n  mutable cdb::Mutex mutex_;\n"
     "  std::map<int, int> m_\n      CDB_GUARDED_BY(mutex_);\n"
     "  Mutex other_;\n  int* p_ CDB_PT_GUARDED_BY(other_);\n};\n",
     "mutex-annotation", False),
    ("MutexLock local alone needs no include", "src/cost/c.cc",
     "void F() { MutexLock lock(mu_); }\n",
     "mutex-annotation", False),
    ("chrono mention in comment ignored for mutex rule", "src/cost/c.cc",
     "// a std::mutex would be wrong here\n",
     "mutex-annotation", False),

    ("canonical guard ok", "src/cost/sampling.h",
     "#ifndef CDB_COST_SAMPLING_H_\n#define CDB_COST_SAMPLING_H_\n#endif\n",
     "include-guard", False),
    ("wrong guard name", "src/cost/sampling.h",
     "#ifndef SAMPLING_H\n#define SAMPLING_H\n#endif\n",
     "include-guard", True),
    ("missing guard", "src/cost/sampling.h",
     "int x;\n", "include-guard", True),
    ("ifndef without matching define", "src/cost/sampling.h",
     "#ifndef CDB_COST_SAMPLING_H_\n#define WRONG_H_\n#endif\n",
     "include-guard", True),
]


def run_self_test() -> int:
    failures = 0
    for desc, path, snippet, rule, expect in SELF_TEST_CASES:
        found = []
        for check in PER_FILE_RULES:
            found.extend(f for f in check(path, snippet) if f.rule == rule)
        ok = bool(found) == expect
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
            detail = "; ".join(f.render() for f in found) or "no findings"
            print(f"[{status}] {desc}: expected "
                  f"{'a finding' if expect else 'no findings'}, got {detail}")
        else:
            print(f"[{status}] {desc}")

    # cc-owned-by-cmake fixture: a fake repo in a temp dir with one orphan.
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "src", "util"))
        with open(os.path.join(tmp, "src", "CMakeLists.txt"), "w",
                  encoding="utf-8") as f:
            f.write("add_library(x util/owned.cc)\n")
        for name in ("owned.cc", "orphan.cc"):
            with open(os.path.join(tmp, "src", "util", name), "w",
                      encoding="utf-8") as f:
                f.write("int v;\n")
        got = check_cmake_ownership(tmp)
        orphan_flagged = (len(got) == 1
                          and got[0].path.endswith("orphan.cc")
                          and got[0].rule == "cc-owned-by-cmake")
        status = "PASS" if orphan_flagged else "FAIL"
        if not orphan_flagged:
            failures += 1
        print(f"[{status}] cmake ownership flags only the orphan .cc")

    # snapshot-discipline fixture: a fake QuerySession with one serialized
    # member, one marked-transient member, and one silently dropped member.
    # Only the dropped one may be flagged, and a comment mention in the
    # snapshot file must not count as serialization.
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "src", "exec"))
        with open(os.path.join(tmp, "src", "exec", "session.h"), "w",
                  encoding="utf-8") as f:
            f.write(
                "class QuerySession {\n"
                " public:\n"
                "  int Steps();\n"
                " private:\n"
                "  // cdb-snapshot: transient(alias owned by the caller)\n"
                "  int* transient_;\n"
                "  int covered_;\n"
                "  int dropped_;\n"
                "};\n"
                "int after_class_not_a_member_;\n")
        with open(os.path.join(tmp, "src", "exec", "session_snapshot.cc"),
                  "w", encoding="utf-8") as f:
            f.write("void Snap() { covered_ = 1; }\n"
                    "// dropped_ appears only in this comment\n")
        got = check_snapshot_discipline(tmp)
        dropped_flagged = (len(got) == 1
                           and got[0].rule == "snapshot-discipline"
                           and "dropped_" in got[0].message)
        status = "PASS" if dropped_flagged else "FAIL"
        if not dropped_flagged:
            failures += 1
            detail = "; ".join(f.render() for f in got) or "no findings"
            print(f"[{status}] snapshot discipline flags only the dropped "
                  f"member, got {detail}")
        else:
            print(f"[{status}] snapshot discipline flags only the dropped "
                  "member")

    total = len(SELF_TEST_CASES) + 2
    print(f"self-test: {total - failures}/{total} cases passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run built-in rule fixtures and exit")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test()

    root = args.repo_root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = lint_repo(root)
    for f in findings:
        print(f.render())
    if findings:
        print(f"cdb_lint: {len(findings)} finding(s)")
        return 1
    print("cdb_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
