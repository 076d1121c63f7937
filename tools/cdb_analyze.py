#!/usr/bin/env python3
"""cdb_analyze: AST-level concurrency-discipline analyzer over compile_commands.

Where cdb_lint.py is token/regex-level (it cannot see through aliases, call
graphs, or lock scopes), cdb_analyze parses every src/ translation unit with
libclang, driven by the build's compile_commands.json, and enforces the
three concurrency checks that need types or call structure (the raw
std::mutex ban and the every-Mutex-guards-something rule are cdb_lint's
mutex-annotation):

  atomic-annotation       Every non-metrics std::atomic field carries a
                          CDB_GUARDED_BY annotation or an explicit
                          suppression. The metrics primitives
                          (src/common/metrics.h: Counter, Gauge) are the
                          sanctioned lock-free exception — a counter's adds
                          are commutative integer sums, which is what keeps
                          them inside the determinism contract.

  rng-ref-in-parallel     No cdb::Rng object declared outside a ParallelFor
                          body may be referenced inside it.
                          The stream-splitting discipline (one Rng per chunk,
                          constructed inside the callback as
                          Rng(seed, index)) is what makes parallel == serial
                          bit-identical; a captured outer Rng's draws depend
                          on chunk interleaving. Checked on the AST — a
                          renamed alias or a reference parameter cannot hide
                          from it the way it hides from a line grep.

  lock-then-callback      No public member function of a capability-annotated
                          class may invoke a user-supplied callable (a
                          std::function parameter) while holding a lock it
                          acquired. A MutexLock covers the rest of its
                          enclosing block, nested blocks included; a
                          Mutex::Lock() call conservatively does too, even
                          if Unlock() follows. Calling out with a lock held
                          hands every caller a deadlock/reentrancy footgun;
                          copy the work out of the critical section first
                          (see ThreadPool::WorkerLoop).

Suppression: append  // cdb-analyze: allow=<check> <reason>  on the
offending line (or the line above it).

Exit codes mirror tools/run_tidy.sh: 0 clean OR libclang bindings absent
(skip with a notice, so machines without LLVM — like the minimal CI image —
do not hard-fail); 1 findings; 2 usage/configuration error.

Usage:
  tools/cdb_analyze.py [--build-dir DIR] [--repo-root DIR]   analyze src/
  tools/cdb_analyze.py --self-test                           run fixtures

Wired into ctest as `ctest -L analyze` (see tools/CMakeLists.txt) and the
`analyze` CI job.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shlex
import sys
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

SUPPRESS_RE = re.compile(r"//\s*cdb-analyze:\s*allow=([\w-]+)")

# Paths (repo-relative, forward slashes) exempt from atomic-annotation.
METRICS_PATHS = ("src/common/metrics.h", "src/common/metrics.cc")

GUARD_ANNOTATIONS = ("CDB_GUARDED_BY", "CDB_PT_GUARDED_BY")


class Finding(NamedTuple):
    path: str
    line: int
    check: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def load_cindex() -> Optional[Any]:
    """Imports clang.cindex and locates a loadable libclang, else None."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    if cindex.Config.loaded:
        return cindex
    candidates = [os.environ.get("CDB_LIBCLANG", "")]
    for pattern in ("/usr/lib/llvm-*/lib/libclang.so*",
                    "/usr/lib/llvm-*/lib/libclang-*.so*",
                    "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
                    "/usr/local/lib/libclang*.so*"):
        candidates.extend(sorted(glob.glob(pattern), reverse=True))
    for lib in candidates:
        if not lib or not os.path.exists(lib):
            continue
        try:
            cindex.Config.set_library_file(lib)
            cindex.Index.create()
            return cindex
        except Exception:  # noqa: BLE001 - probe loop; try the next library.
            cindex.Config.loaded = False
            continue
    try:
        cindex.Index.create()  # System default search path.
        return cindex
    except Exception:  # noqa: BLE001
        return None


# --------------------------------------------------------------------------
# Per-TU analysis
# --------------------------------------------------------------------------


class TuAnalyzer:
    """Walks one translation unit's AST and collects findings for files the
    analysis owns (under src/, inside the repo)."""

    def __init__(self, cindex: Any, repo_root: str) -> None:
        self.cindex = cindex
        self.repo_root = os.path.realpath(repo_root)
        self._file_lines: Dict[str, List[str]] = {}
        self.findings: List[Finding] = []

    # -- helpers ----------------------------------------------------------

    def rel_path(self, cursor: Any) -> Optional[str]:
        loc = cursor.location
        if loc.file is None:
            return None
        path = os.path.realpath(loc.file.name)
        if not path.startswith(self.repo_root + os.sep):
            return None
        rel = os.path.relpath(path, self.repo_root).replace(os.sep, "/")
        return rel if rel.startswith("src/") else None

    def lines_of(self, cursor: Any) -> List[str]:
        name = cursor.location.file.name
        if name not in self._file_lines:
            try:
                with open(name, encoding="utf-8", errors="replace") as f:
                    self._file_lines[name] = f.read().splitlines()
            except OSError:
                self._file_lines[name] = []
        return self._file_lines[name]

    def suppressed(self, cursor: Any, check: str) -> bool:
        lines = self.lines_of(cursor)
        lineno = cursor.location.line  # 1-based
        for candidate in (lineno, lineno - 1):
            if 1 <= candidate <= len(lines):
                m = SUPPRESS_RE.search(lines[candidate - 1])
                if m and m.group(1) == check:
                    return True
        return False

    def report(self, cursor: Any, check: str, message: str) -> None:
        rel = self.rel_path(cursor)
        if rel is None or self.suppressed(cursor, check):
            return
        self.findings.append(Finding(rel, cursor.location.line, check, message))

    @staticmethod
    def type_spelling(cursor: Any) -> str:
        try:
            return cursor.type.get_canonical().spelling
        except Exception:  # noqa: BLE001 - incomplete types under parse errors
            return cursor.type.spelling

    def decl_tokens(self, cursor: Any) -> str:
        """Raw source slice of a declaration (annotation macros survive here
        even though they expand to nothing under GCC-style parses)."""
        extent = cursor.extent
        lines = self.lines_of(cursor)
        lo, hi = extent.start.line, extent.end.line
        if not lines or lo < 1 or hi > len(lines):
            return ""
        if lo == hi:
            return lines[lo - 1][extent.start.column - 1:extent.end.column - 1]
        chunk = [lines[lo - 1][extent.start.column - 1:]]
        chunk.extend(lines[lo:hi - 1])
        chunk.append(lines[hi - 1][:extent.end.column - 1])
        return "\n".join(chunk)

    # -- checks -----------------------------------------------------------

    ATOMIC_RE = re.compile(r"\bstd::(?:__1::)?atomic\b")
    CDB_MUTEX_RE = re.compile(r"\bcdb::Mutex\b")

    def check_field(self, cursor: Any) -> None:
        rel = self.rel_path(cursor)
        if rel is None:
            return
        if (self.ATOMIC_RE.search(self.type_spelling(cursor))
                and rel not in METRICS_PATHS):
            if not any(a in self.decl_tokens(cursor) for a in GUARD_ANNOTATIONS):
                self.report(
                    cursor, "atomic-annotation",
                    f"std::atomic member '{cursor.spelling}' outside the "
                    "metrics primitives carries no CDB_GUARDED_BY; annotate "
                    "the capability that orders its writes, or suppress with "
                    "// cdb-analyze: allow=atomic-annotation <reason>")

    PARALLEL_FOR_NAMES = ("ParallelFor",)

    def check_parallel_call(self, call: Any) -> None:
        kinds = self.cindex.CursorKind
        lambdas: List[Any] = []

        def collect_lambdas(node: Any) -> None:
            if node.kind == kinds.LAMBDA_EXPR:
                lambdas.append(node)
                return  # Nested lambdas are walked as part of the body scan.
            for child in node.get_children():
                collect_lambdas(child)

        collect_lambdas(call)
        for lam in lambdas:
            self._check_lambda_rng_refs(lam)

    def _check_lambda_rng_refs(self, lam: Any) -> None:
        kinds = self.cindex.CursorKind
        rng_re = re.compile(r"\bcdb::Rng\b")
        inside: set = set()

        def scan(node: Any) -> None:
            if node.kind in (kinds.VAR_DECL, kinds.PARM_DECL):
                inside.add(node.hash)
            if node.kind == kinds.DECL_REF_EXPR:
                ref = node.referenced
                if (ref is not None and ref.hash not in inside
                        and ref.kind in (kinds.VAR_DECL, kinds.PARM_DECL)
                        and rng_re.search(self.type_spelling(ref))):
                    self.report(
                        node, "rng-ref-in-parallel",
                        f"ParallelFor body references Rng '{ref.spelling}' "
                        "declared outside the callback; construct a "
                        "per-chunk stream inside it — Rng(seed, chunk_index) "
                        "— so draws stay a pure function of (seed, index)")
            for child in node.get_children():
                scan(child)

        scan(lam)

    LOCK_TYPES_RE = re.compile(r"\bcdb::MutexLock\b")

    def check_method_lock_callback(self, method: Any, record: Any) -> None:
        kinds = self.cindex.CursorKind
        if method.access_specifier != self.cindex.AccessSpecifier.PUBLIC:
            return
        if not self._record_has_mutex(record):
            return
        fn_params = {
            p.hash for p in method.get_arguments()
            if "function<" in self.type_spelling(p)
        }
        if not fn_params:
            return
        callback_calls: List[Tuple[Any, str]] = []

        def scan(node: Any, locked: bool) -> None:
            # A lock covers the rest of its enclosing block: statements
            # after the one that acquires it, nested blocks included.
            if node.kind == kinds.COMPOUND_STMT:
                for stmt in node.get_children():
                    scan(stmt, locked)
                    locked = locked or self._acquires_lock(stmt, kinds)
                return
            if locked and node.kind == kinds.CALL_EXPR:
                # A call whose callee (possibly through an implicit cast)
                # names a std::function parameter is a callback-out.
                callee = next(iter(node.get_children()), None)
                ref = self._leaf_decl_ref(callee, kinds)
                if ref is not None and ref.hash in fn_params:
                    callback_calls.append((node, ref.spelling))
            for child in node.get_children():
                scan(child, locked)

        scan(method, False)
        if callback_calls:
            node, name = callback_calls[0]
            self.report(
                node, "lock-then-callback",
                f"public method '{record.spelling}::{method.spelling}' "
                f"invokes caller-supplied '{name}' while a lock acquired "
                "earlier in its block is held; move the invocation outside "
                "the critical section (deadlock/reentrancy hazard for every "
                "caller)")

    def _acquires_lock(self, stmt: Any, kinds: Any) -> bool:
        """True when statement `stmt` declares a MutexLock or calls Lock()
        outside any nested block; a Lock() call counts as held until the
        block ends even if Unlock() follows (conservative)."""
        if stmt.kind == kinds.COMPOUND_STMT:
            return False
        if (stmt.kind == kinds.VAR_DECL
                and self.LOCK_TYPES_RE.search(self.type_spelling(stmt))):
            return True
        if stmt.kind == kinds.CALL_EXPR and any(
                child.kind == kinds.MEMBER_REF_EXPR
                and child.spelling == "Lock"
                for child in stmt.get_children()):
            return True
        return any(self._acquires_lock(child, kinds)
                   for child in stmt.get_children())

    def _leaf_decl_ref(self, node: Any, kinds: Any) -> Optional[Any]:
        while node is not None:
            if node.kind == kinds.DECL_REF_EXPR:
                return node.referenced
            node = next(iter(node.get_children()), None)
        return None

    def _record_has_mutex(self, record: Any) -> bool:
        kinds = self.cindex.CursorKind
        return any(
            child.kind == kinds.FIELD_DECL
            and self.CDB_MUTEX_RE.search(self.type_spelling(child))
            for child in record.get_children())

    # -- driver -----------------------------------------------------------

    def walk(self, tu: Any) -> None:
        kinds = self.cindex.CursorKind

        def visit(node: Any, record: Optional[Any]) -> None:
            if node.kind in (kinds.CLASS_DECL, kinds.STRUCT_DECL,
                             kinds.CLASS_TEMPLATE):
                if node.is_definition():
                    record = node
            if node.kind == kinds.FIELD_DECL and record is not None:
                self.check_field(node)
            if node.kind == kinds.CALL_EXPR and \
                    node.spelling in self.PARALLEL_FOR_NAMES:
                self.check_parallel_call(node)
            if node.kind == kinds.CXX_METHOD and node.is_definition() \
                    and record is not None:
                self.check_method_lock_callback(node, record)
            for child in node.get_children():
                visit(child, record)

        visit(tu.cursor, None)


# --------------------------------------------------------------------------
# compile_commands plumbing
# --------------------------------------------------------------------------


def tu_args(entry: Dict[str, Any]) -> List[str]:
    if "arguments" in entry:
        args = list(entry["arguments"])
    else:
        args = shlex.split(entry.get("command", ""))
    args = args[1:]  # Drop the compiler executable.
    out: List[str] = []
    skip = False
    for a in args:
        if skip:
            skip = False
            continue
        if a in ("-o", "-c"):
            skip = a == "-o"
            continue
        if a == entry.get("file"):
            continue
        # GCC-only flags libclang chokes on are harmless to drop.
        if a.startswith(("-fdiagnostics", "-fconcepts-diagnostics")):
            continue
        out.append(a)
    out.append("-Wno-everything")  # Diagnostics are the compiler's job.
    return out


def analyze_repo(cindex: Any, repo_root: str, build_dir: str) -> List[Finding]:
    db_path = os.path.join(build_dir, "compile_commands.json")
    try:
        with open(db_path, encoding="utf-8") as f:
            database = json.load(f)
    except OSError as e:
        print(f"cdb_analyze: cannot read {db_path}: {e}", file=sys.stderr)
        print(f"  configure first: cmake -B {build_dir} -S {repo_root}",
              file=sys.stderr)
        sys.exit(2)

    root_real = os.path.realpath(repo_root)
    index = cindex.Index.create()
    analyzer = TuAnalyzer(cindex, repo_root)
    seen: set = set()
    for entry in database:
        path = os.path.realpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        rel = os.path.relpath(path, root_real).replace(os.sep, "/")
        if not rel.startswith("src/") or path in seen:
            continue
        seen.add(path)
        try:
            tu = index.parse(path, args=tu_args(entry))
        except cindex.TranslationUnitLoadError as e:
            analyzer.findings.append(
                Finding(rel, 0, "parse", f"libclang failed to parse: {e}"))
            continue
        analyzer.walk(tu)
    # Deterministic output independent of database order.
    return sorted(set(analyzer.findings))


# --------------------------------------------------------------------------
# Self-test fixtures
# --------------------------------------------------------------------------

FIXTURE_PRELUDE = """
namespace std {
template <typename T> class atomic { public: T load() const; void store(T); };
template <typename T> class function;
template <typename R, typename... A> class function<R(A...)> {
 public:
  R operator()(A...) const;
};
}  // namespace std
#define CDB_GUARDED_BY(x)
#define CDB_PT_GUARDED_BY(x)
#define CDB_EXCLUDES(x)
namespace cdb {
class Mutex { public: void Lock(); void Unlock(); };
class MutexLock { public: explicit MutexLock(Mutex&); ~MutexLock(); };
class Rng { public: Rng(unsigned long long, unsigned long long); double U(); };
void ParallelFor(long long, long long, long long, void (*)(long long));
template <typename Fn>
void ParallelFor(long long b, long long e, long long g, const Fn& fn) {
  fn(b, e, 0);
}
}  // namespace cdb
"""

SELF_TEST_CASES: List[Tuple[str, str, str, bool]] = [
    ("unannotated atomic member", """
namespace cdb {
struct S { std::atomic<long long> n_; };
}  // namespace cdb
""", "atomic-annotation", True),
    ("annotated atomic member is clean", """
namespace cdb {
struct S {
  Mutex mu_;
  std::atomic<long long> n_ CDB_GUARDED_BY(mu_);
  int x_ CDB_GUARDED_BY(mu_) = 0;
};
}  // namespace cdb
""", "atomic-annotation", False),
    ("suppressed atomic member", """
namespace cdb {
struct S {
  // cdb-analyze: allow=atomic-annotation commutative stat shard
  std::atomic<long long> n_;
};
}  // namespace cdb
""", "atomic-annotation", False),
    ("outer Rng referenced in ParallelFor body", """
namespace cdb {
void f() {
  Rng rng(1, 0);
  ParallelFor(0, 8, 1, [&](long long, long long, int) { rng.U(); });
}
}  // namespace cdb
""", "rng-ref-in-parallel", True),
    ("per-chunk Rng inside the body is clean", """
namespace cdb {
void f() {
  ParallelFor(0, 8, 1, [&](long long, long long, int chunk) {
    Rng rng(1, static_cast<unsigned long long>(chunk));
    rng.U();
  });
}
}  // namespace cdb
""", "rng-ref-in-parallel", False),
    ("lock then user callback", """
namespace cdb {
class S {
 public:
  void Run(const std::function<void()>& fn) {
    MutexLock lock(mu_);
    fn();
  }
 private:
  Mutex mu_;
  int x_ CDB_GUARDED_BY(mu_) = 0;
};
}  // namespace cdb
""", "lock-then-callback", True),
    ("callback invoked outside the lock is clean", """
namespace cdb {
class S {
 public:
  void Run(const std::function<void()>& fn) {
    { MutexLock lock(mu_); x_ = 1; }
    fn();
  }
 private:
  Mutex mu_;
  int x_ CDB_GUARDED_BY(mu_) = 0;
};
}  // namespace cdb
""", "lock-then-callback", False),
    ("callback in a nested block under the lock still flags", """
namespace cdb {
class S {
 public:
  void Run(const std::function<void()>& fn) {
    MutexLock lock(mu_);
    if (x_ > 0) {
      fn();
    }
  }
 private:
  Mutex mu_;
  int x_ CDB_GUARDED_BY(mu_) = 0;
};
}  // namespace cdb
""", "lock-then-callback", True),
    ("callback before the lock in the same block is clean", """
namespace cdb {
class S {
 public:
  void Run(const std::function<void()>& fn) {
    fn();
    MutexLock lock(mu_);
    x_ = 1;
  }
 private:
  Mutex mu_;
  int x_ CDB_GUARDED_BY(mu_) = 0;
};
}  // namespace cdb
""", "lock-then-callback", False),
    ("storing the callback under lock is clean", """
namespace cdb {
class S {
 public:
  void Run(const std::function<void()>& fn) {
    MutexLock lock(mu_);
    x_ = 1;
  }
 private:
  Mutex mu_;
  int x_ CDB_GUARDED_BY(mu_) = 0;
};
}  // namespace cdb
""", "lock-then-callback", False),
]


def run_self_test(cindex: Any) -> int:
    index = cindex.Index.create()
    failures = 0
    for i, (desc, snippet, check, expect) in enumerate(SELF_TEST_CASES):
        name = f"src/fixture_{i}.cc"
        analyzer = TuAnalyzer(cindex, repo_root="/")

        # Fixtures parse from memory; rel_path/suppression read the unsaved
        # text through a patched loader.
        text = FIXTURE_PRELUDE + snippet
        analyzer.rel_path = (  # type: ignore[method-assign]
            lambda cur, _n=name: _n if cur.location.file is not None else None)
        analyzer._file_lines[name] = text.splitlines()
        analyzer.lines_of = (  # type: ignore[method-assign]
            lambda cur, _n=name: analyzer._file_lines[_n])
        try:
            tu = index.parse(name, args=["-std=c++20", "-Wno-everything"],
                             unsaved_files=[(name, text)])
        except cindex.TranslationUnitLoadError as e:
            print(f"[FAIL] {desc}: fixture failed to parse: {e}")
            failures += 1
            continue
        analyzer.walk(tu)
        got = [f for f in analyzer.findings if f.check == check]
        ok = bool(got) == expect
        print(f"[{'PASS' if ok else 'FAIL'}] {desc}")
        if not ok:
            failures += 1
            detail = "; ".join(f.render() for f in got) or "no findings"
            print(f"       expected {'a finding' if expect else 'none'}, "
                  f"got: {detail}")
    total = len(SELF_TEST_CASES)
    print(f"self-test: {total - failures}/{total} cases passed")
    return 1 if failures else 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=None,
                        help="build dir holding compile_commands.json "
                             "(default: <repo-root>/build)")
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run built-in AST fixtures and exit")
    args = parser.parse_args()

    cindex = load_cindex()
    if cindex is None:
        print("cdb_analyze: python libclang bindings (clang.cindex) or a "
              "loadable libclang.so not found; skipping (install "
              "python3-clang + libclang, or set CDB_LIBCLANG, to enable the "
              "AST analyzer)", file=sys.stderr)
        return 0

    if args.self_test:
        return run_self_test(cindex)

    root = args.repo_root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    build_dir = args.build_dir or os.path.join(root, "build")
    findings = analyze_repo(cindex, root, build_dir)
    for f in findings:
        print(f.render())
    if findings:
        print(f"cdb_analyze: {len(findings)} finding(s)")
        return 1
    print("cdb_analyze: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
