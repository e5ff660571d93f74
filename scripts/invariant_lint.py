#!/usr/bin/env python3
"""Project-invariant linter: the concurrency rules the type system can't see.

The clang thread-safety analysis (src/util/thread_annotations.h) proves
lock discipline *inside* the annotated wrappers; this linter enforces the
project conventions that make the proof total — the rules that say which
primitives may appear where:

  raw-mutex          std::mutex / std::shared_mutex / std::condition_variable
                     (and their lock helpers) anywhere outside
                     src/util/mutex.h. Everything must go through the
                     annotated util::Mutex wrappers or the analysis has a
                     hole exactly where a bug would hide.
  raw-thread         std::thread construction outside src/util/thread_pool.*.
                     Loose threads dodge the pool's shutdown/drain contract.
                     Static calls (std::thread::hardware_concurrency) are
                     fine.
  raw-fsync          ::fsync / ::fdatasync outside src/storage/wal.cc.
                     Durability decisions belong to the WAL; a stray sync is
                     either redundant or a no-steal violation.
  unscoped-pin       BufferPool Fetch/New outside the index/storage interior
                     (src/storage/, src/btree/, src/relational/) in a file
                     with no PinBalanceScope. Pins taken elsewhere must be
                     balance-audited (storage/audit.h) or they leak frames
                     invisibly until a pool asserts.
  unexplained-escape PROBE_NO_THREAD_SAFETY_ANALYSIS with no adjacent
                     comment. Every escape hatch needs a written reason or
                     the annotation rollout rots one silent opt-out at a
                     time.
  unchecked-syscall  pread / pwrite / fsync / fdatasync / ftruncate / rename
                     under src/storage/ whose result is discarded: a bare
                     statement, a (void) or static_cast<void> cast, or a
                     [[maybe_unused]] binding. Storage is fail-stop; an
                     ignored short write or failed sync is a lost commit.

Waivers: a comment `invariant-lint waiver(<rule>)` on the offending line or
within the three lines above suppresses that rule there. Waivers are for
the handful of structural exceptions (the server's acceptor thread, the
base-file fsync in FilePager::Sync) — each must carry its justification in
the surrounding comment.

Modes:
  --mode=regex  (default, and the fallback) — matches against
                comment-and-string-stripped source text.
  --mode=ast    uses clang-query AST matchers over the compile database
                for the rules that are about *constructs* rather than
                tokens (raw-mutex, raw-thread). Needs clang-query and
                build/compile_commands.json; errors out if either is
                missing (CI sets this mode), so a broken toolchain can't
                silently weaken the gate.
  --mode=auto   ast when clang-query is available, else regex.

Self test: `--self-test [fixtures-dir]` runs every rule against the bad
examples in tests/lint_fixtures/ and fails unless each rule (a) fires on
its bad fixture and (b) stays quiet on the clean fixture. The ctest case
`invariant_lint_test` runs exactly this plus a clean scan of the real tree.

Exit status: 0 clean, 1 findings, 2 usage/toolchain error.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Files the scan covers: first-party C++ under src/.
SOURCE_GLOBS = ("src/**/*.h", "src/**/*.cc")

WAIVER_RE = re.compile(r"invariant-lint\s+waiver\((?P<rule>[a-z-]+)\)")
WAIVER_REACH = 3  # lines above the finding a waiver comment may sit

# ---------------------------------------------------------------------------
# Rules. Each: id, human message, matcher over stripped lines, and a
# predicate deciding whether a given file is exempt wholesale.


class Finding:
    def __init__(self, rule, path, line, text):
        self.rule = rule
        self.path = path
        self.line = line
        self.text = text

    def __str__(self):
        rel = self.path.relative_to(REPO) if self.path.is_absolute() else self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.text.strip()}"


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.

    Good enough for token rules: no tokenizer ambiguity we care about
    survives in this codebase (no raw strings containing `*/`, no trigraphs).
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; stop at line end
                    break
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


RAW_MUTEX_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"(_any)?|lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)
# std::thread as a type/constructor; std::thread::X static calls are allowed.
RAW_THREAD_RE = re.compile(r"std::thread\b(?!::)")
RAW_FSYNC_RE = re.compile(r"\b(?:::)?(fsync|fdatasync)\s*\(")
# Pool pins: Fetch/New called on something named like a pool.
PIN_RE = re.compile(r"\b\w*[Pp]ool\w*(?:\.|->)(?:Fetch|New)\s*\(")
ESCAPE_RE = re.compile(r"PROBE_NO_THREAD_SAFETY_ANALYSIS")
# A checked syscall's result feeds an expression. A call that starts a
# statement (after `;`, `{`, `}`, `else` or an `if (...)`), a void cast
# and a [[maybe_unused]] binding each throw it away. Matched over the
# whole stripped text, so both sides may span lines.
UNCHECKED_SYSCALL_RE = re.compile(
    r"(?:(?:[;{}]|\belse\b|\))\s*"
    r"|\(\s*void\s*\)\s*"
    r"|static_cast\s*<\s*void\s*>\s*\(\s*"
    r"|\[\[maybe_unused\]\][^;]*?=\s*)"
    r"(?:(?:std)?::)?(?P<name>pread|pwrite|fsync|fdatasync|ftruncate|rename)"
    r"\s*\(",
    re.MULTILINE)

PIN_INTERIOR = ("src/storage/", "src/btree/", "src/relational/")
SYSCALL_CHECKED = "src/storage/"


def rel_posix(path):
    p = path.resolve()
    try:
        return p.relative_to(REPO).as_posix()
    except ValueError:
        return p.as_posix()


def check_file(path, raw_text, synthetic_rel=None):
    """All findings in one file. `synthetic_rel` overrides the path the
    exemption rules see (the self-test presents fixtures as fake tree
    locations)."""
    rel = synthetic_rel if synthetic_rel is not None else rel_posix(path)
    raw_lines = raw_text.splitlines()
    stripped_lines = strip_comments_and_strings(raw_text).splitlines()
    findings = []

    def waived(rule, lineno):
        lo = max(0, lineno - 1 - WAIVER_REACH)
        for raw in raw_lines[lo:lineno]:
            m = WAIVER_RE.search(raw)
            if m and m.group("rule") == rule:
                return True
        return False

    def add(rule, lineno, message):
        if not waived(rule, lineno):
            findings.append(Finding(rule, path, lineno, message))

    # Stripped text: a *comment* mentioning PinBalanceScope is not a scope.
    has_pin_scope = "PinBalanceScope" in "\n".join(stripped_lines)
    in_pin_interior = any(rel.startswith(d) for d in PIN_INTERIOR)

    for idx, line in enumerate(stripped_lines, start=1):
        if rel != "src/util/mutex.h" and RAW_MUTEX_RE.search(line):
            add("raw-mutex", idx,
                "raw std lock primitive; use util::Mutex / util::MutexLock "
                "(src/util/mutex.h) so the thread-safety analysis sees it")
        if (not rel.startswith("src/util/thread_pool")
                and RAW_THREAD_RE.search(line)):
            add("raw-thread", idx,
                "std::thread outside util::ThreadPool; loose threads skip "
                "the pool's shutdown/drain contract")
        if rel != "src/storage/wal.cc" and RAW_FSYNC_RE.search(line):
            add("raw-fsync", idx,
                "fsync/fdatasync outside storage/wal; durability belongs "
                "to the WAL")
        if (not in_pin_interior and not has_pin_scope
                and PIN_RE.search(line)):
            add("unscoped-pin", idx,
                "BufferPool pin outside the index interior with no "
                "PinBalanceScope in the file (storage/audit.h)")

    if rel.startswith(SYSCALL_CHECKED):
        stripped = "\n".join(stripped_lines)
        for m in UNCHECKED_SYSCALL_RE.finditer(stripped):
            add("unchecked-syscall",
                stripped.count("\n", 0, m.start("name")) + 1,
                f"{m.group('name')} result discarded; storage I/O is "
                "fail-stop, so check it")

    # unexplained-escape works on raw lines: the *comment* is the point.
    for idx, line in enumerate(raw_lines, start=1):
        if rel.endswith("util/thread_annotations.h"):
            break  # the macro's own definition
        if ESCAPE_RE.search(line) and not line.lstrip().startswith("//"):
            prev = raw_lines[idx - 2] if idx >= 2 else ""
            if "//" not in line and "//" not in prev:
                add("unexplained-escape", idx,
                    "NO_THREAD_SAFETY_ANALYSIS without an adjacent reason "
                    "comment")
    return findings


# ---------------------------------------------------------------------------
# AST mode: clang-query matchers for the construct-shaped rules. Token
# rules (raw-fsync, unscoped-pin, unexplained-escape) stay regex in both
# modes — they are about tokens/macros the AST either can't see (macros,
# comments) or sees too late (fsync via the libc decl is just a callExpr).

AST_MATCHERS = {
    "raw-mutex": (
        'match typeLoc(loc(qualType(hasDeclaration(namedDecl(hasAnyName('
        '"::std::mutex", "::std::shared_mutex", "::std::recursive_mutex", '
        '"::std::timed_mutex", "::std::condition_variable", '
        '"::std::condition_variable_any", "::std::lock_guard", '
        '"::std::unique_lock", "::std::shared_lock", "::std::scoped_lock"'
        ')))), isExpansionInMainFile())'
    ),
    "raw-thread": (
        'match typeLoc(loc(qualType(hasDeclaration(namedDecl(hasName('
        '"::std::thread"))))), isExpansionInMainFile())'
    ),
}

AST_EXEMPT = {
    "raw-mutex": ("src/util/mutex.h",),
    "raw-thread": ("src/util/thread_pool.h", "src/util/thread_pool.cc"),
}

AST_LOC_RE = re.compile(r'^(/[^:]+):(\d+):\d+')


def clang_query_findings(build_dir, files, query_bin):
    findings = []
    by_rule_sources = {}
    for rule in AST_MATCHERS:
        exempt = AST_EXEMPT[rule]
        by_rule_sources[rule] = [
            f for f in files
            if f.suffix == ".cc" and rel_posix(f) not in exempt
        ]
    for rule, sources in by_rule_sources.items():
        if not sources:
            continue
        cmd = [query_bin, "-p", str(build_dir),
               "-c", AST_MATCHERS[rule]] + [str(s) for s in sources]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0 and not proc.stdout:
            raise RuntimeError(
                f"clang-query failed for rule {rule}:\n{proc.stderr[:2000]}")
        seen = set()
        for line in proc.stdout.splitlines():
            m = AST_LOC_RE.match(line)
            if not m:
                continue
            path, lineno = Path(m.group(1)), int(m.group(2))
            rel = rel_posix(path)
            if not rel.startswith("src/") or rel in AST_EXEMPT[rule]:
                continue
            key = (rule, rel, lineno)
            if key in seen:
                continue
            seen.add(key)
            raw_lines = path.read_text(errors="replace").splitlines()
            lo = max(0, lineno - 1 - WAIVER_REACH)
            if any(WAIVER_RE.search(l) and WAIVER_RE.search(l).group("rule") == rule
                   for l in raw_lines[lo:lineno]):
                continue
            findings.append(Finding(rule, path, lineno,
                                    f"(ast) disallowed construct for {rule}"))
    return findings


# ---------------------------------------------------------------------------
# Self test: each rule must fire on its bad fixture (presented at a
# synthetic path where the rule applies) and stay silent on the clean one.

FIXTURE_EXPECTATIONS = [
    # (fixture file, synthetic tree path, rule that must fire)
    ("bad_unchecked_syscall.cc", "src/storage/bad_unchecked_syscall.cc",
     "unchecked-syscall"),
    ("bad_raw_mutex.cc", "src/query/bad_raw_mutex.cc", "raw-mutex"),
    ("bad_raw_thread.cc", "src/query/bad_raw_thread.cc", "raw-thread"),
    ("bad_raw_fsync.cc", "src/query/bad_raw_fsync.cc", "raw-fsync"),
    ("bad_unscoped_pin.cc", "src/query/bad_unscoped_pin.cc", "unscoped-pin"),
    ("bad_unexplained_escape.cc", "src/query/bad_unexplained_escape.cc",
     "unexplained-escape"),
    ("clean.cc", "src/query/clean.cc", None),
]

# Fixtures whose rule must fire exactly this many times.
FIXTURE_FINDINGS = {"bad_unchecked_syscall.cc": 5}


def self_test(fixtures_dir):
    failures = []
    for name, synthetic, rule in FIXTURE_EXPECTATIONS:
        path = fixtures_dir / name
        if not path.is_file():
            failures.append(f"fixture missing: {path}")
            continue
        findings = check_file(path, path.read_text(), synthetic_rel=synthetic)
        fired = {f.rule for f in findings}
        if rule is None:
            if fired:
                failures.append(
                    f"{name}: expected clean, got {sorted(fired)}")
        elif rule not in fired:
            failures.append(f"{name}: rule {rule} did not fire (got "
                            f"{sorted(fired) or 'nothing'})")
        elif name in FIXTURE_FINDINGS:
            # Exact count: the fixture's checked calls must stay quiet.
            count = sum(f.rule == rule for f in findings)
            if count != FIXTURE_FINDINGS[name]:
                failures.append(f"{name}: {rule} fired {count} times, "
                                f"expected {FIXTURE_FINDINGS[name]}")
    # The waiver mechanism itself: a waived bad fixture must be quiet.
    waived = fixtures_dir / "waived_raw_fsync.cc"
    if waived.is_file():
        findings = check_file(waived, waived.read_text(),
                              synthetic_rel="src/query/waived_raw_fsync.cc")
        if any(f.rule == "raw-fsync" for f in findings):
            failures.append("waived_raw_fsync.cc: waiver did not suppress")
    else:
        failures.append(f"fixture missing: {waived}")

    if failures:
        print("invariant_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"invariant_lint self-test OK "
          f"({len(FIXTURE_EXPECTATIONS) + 1} fixtures)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files/dirs to scan "
                    "(default: the repo's src/ tree)")
    ap.add_argument("--mode", choices=("regex", "ast", "auto"),
                    default="regex")
    ap.add_argument("--build-dir", default=str(REPO / "build"),
                    help="compile database location for --mode=ast")
    ap.add_argument("--self-test", nargs="?", const=str(
        REPO / "tests" / "lint_fixtures"), default=None, metavar="DIR",
        help="run the rules against the bad-example fixtures and exit")
    args = ap.parse_args()

    if args.self_test is not None:
        return self_test(Path(args.self_test))

    files = []
    if args.paths:
        for p in args.paths:
            path = Path(p)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.h")))
                files.extend(sorted(path.rglob("*.cc")))
            else:
                files.append(path)
    else:
        for pattern in SOURCE_GLOBS:
            files.extend(sorted(REPO.glob(pattern)))

    findings = []
    for f in files:
        findings.extend(check_file(f, f.read_text(errors="replace")))

    mode = args.mode
    # CLANG_QUERY pins a versioned binary (CI: clang-query-15).
    query_bin = shutil.which(os.environ.get("CLANG_QUERY", "clang-query"))
    if mode == "auto":
        mode = "ast" if query_bin else "regex"
    if mode == "ast":
        if not query_bin:
            print("invariant_lint: --mode=ast but clang-query not found",
                  file=sys.stderr)
            return 2
        db = Path(args.build_dir) / "compile_commands.json"
        if not db.is_file():
            print(f"invariant_lint: --mode=ast but {db} missing",
                  file=sys.stderr)
            return 2
        try:
            ast = clang_query_findings(Path(args.build_dir), files, query_bin)
        except RuntimeError as e:
            print(f"invariant_lint: {e}", file=sys.stderr)
            return 2
        known = {(f.rule, rel_posix(f.path), f.line) for f in findings}
        for f in ast:
            if (f.rule, rel_posix(f.path), f.line) not in known:
                findings.append(f)

    if findings:
        findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
        for f in findings:
            print(f)
        print(f"invariant_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"invariant_lint: OK ({len(files)} files, mode={mode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
