#!/usr/bin/env python3
"""priste_lint: the PriSTE static analyzer.

Reads each first-party file once, builds one call graph over src/ and tools/,
and checks nine rules that ordinary compiler warnings cannot express:

  banned-call
      In src/: atoi, atof, raw strtod, rand(), time() and std::random_device.
      Runs must replay byte-identically, and locale-dependent parsing corrupts
      release tables on non-C locales. The strict parser
      (src/priste/common/strings.cc) is the sanctioned home of strtod.

  fma-pattern
      In the kernel TUs (src/priste/linalg/kernels*): std::fma, C fma() and
      the FMA intrinsics. The scalar and SIMD kernels are bit-identical only
      while every multiply and add rounds separately (FP contraction is pinned
      off separately with -ffp-contract=off).

  hot-path-alloc
      A PRISTE_HOT_PATH body allocates: operator new, the malloc family,
      make_unique/make_shared, or container growth (push_back, emplace_back,
      resize, reserve, insert, emplace). Amortized thread_local scratch growth
      is waived line by line with allow(hot-path-alloc).

  hot-path-alloc-transitive
      A function reachable from a PRISTE_HOT_PATH body allocates. The finding
      names the shortest call chain edge by edge:

        kernels.cc:GatherDot (:31) -> helper.cc:Grow [... at line 21]

      An allocation waived with allow(hot-path-alloc) is sanctioned in callees
      too. allow(hot-path-alloc-transitive) on a call line cuts that edge when
      the callee provably cannot allocate on that path; it never waives an
      allocation in the marked body itself.

  no-abort-reachable
      A PRISTE_NO_ABORT function (the serving boundary: CSV and file parsing,
      CLI flag handling, the drivers' input validation) reaches a process
      abort on some path: PRISTE_CHECK / PRISTE_CHECK_MSG / PRISTE_CHECK_OK,
      abort(), exit(), _Exit(), quick_exit(), terminate(), a throw
      expression, or .value() (std::expected throws from it when it holds
      an error). PRISTE_DCHECK is permitted: it compiles away in NDEBUG
      builds and guards internal invariants, not input. Waive a call edge,
      or an abort that an earlier validation dominates, with
      allow(no-abort-reachable).

  unchecked-result
      A call whose Result<T> is discarded, including discards through (void),
      the comma operator or an if-statement body, which [[nodiscard]] does
      not survive.

  lock-order
      Every priste::Mutex member carries PRISTE_LOCK_LEVEL(n). A
      `MutexLock lock(&m)` holds m to the end of its block, and every
      acquisition nested in that region, directly or through calls, is an
      edge between levels. The rule fails on a same-level edge (priste::Mutex
      is not reentrant), a cycle between levels, a Mutex member without a
      level, and a MutexLock whose target matches no Mutex declaration. A
      lone descending edge only goes into the report.

  blocking-under-lock
      A function reachable while a MutexLock is held blocks the thread: a
      PRISTE_BLOCKING function (declarations count, so a header annotation
      suffices), sleeps, C stdio, fstream, getline, thread join, system().
      A condvar wait releases the mutex while it sleeps; waive it at the Wait
      call.

  bare-waiver
      A waiver with no justification text after it on the waiver's line.

The analysis is lexical: function bodies come from brace matching over
comment- and string-stripped text, calls from identifier-before-'(' scanning,
and a call links to every definition that shares its simple name. That
over-approximates, which is the safe direction for reachability rules: a
false edge can only add a finding, which a human then waives with its root
cause, while a missing edge would silently disable the gate.

Waivers take the form

  // priste-lint: allow(<rule>) <justification>

On a line of its own, a waiver covers the comment lines that follow it and
the next statement, through that statement's continuation lines. After code,
it covers only the statement it follows, through that statement's
continuation lines.

Usage:
  priste_lint.py --compile-commands build/compile_commands.json [--src-root .]
                 [--report build/lint_report.json]
  priste_lint.py --self-test    # the seeded fixtures must give exact counts
"""

import argparse
import collections
import json
import os
import re
import sys
import time

HOT_PATH_MARKER = "PRISTE_HOT_PATH"
NO_ABORT_MARKER = "PRISTE_NO_ABORT"
BLOCKING_MARKER = "PRISTE_BLOCKING"

SUPPRESS_RE = re.compile(r"//\s*priste-lint:\s*allow\(([a-z-]+)\)")

# Continuation coverage is bounded so a run of unterminated lines (macro
# soup, broken code) cannot silently waive a whole file.
MAX_WAIVED_STATEMENT_LINES = 12

LINT_EXTENSIONS = (".h", ".cc")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

# --- Rule tables -------------------------------------------------------------

# The strict parser wraps strtod once, under an explicit errno/endptr
# protocol; everything else goes through that wrapper.
SANCTIONED_FILES = {"src/priste/common/strings.cc"}

BANNED_CALLS = [
    (re.compile(r"(?<![\w:.>])atoi\s*\("),
     "atoi: no error reporting and locale-dependent; use priste::ParseInt"),
    (re.compile(r"(?<![\w:.>])atof\s*\("),
     "atof: no error reporting and locale-dependent; use priste::ParseDouble"),
    (re.compile(r"(?<![\w:.>])strtod\s*\("),
     "raw strtod: locale-dependent; use priste::ParseDouble "
     "(sanctioned only inside common/strings.cc)"),
    (re.compile(r"(?<![\w:.>])rand\s*\(\s*\)"),
     "rand(): hidden global state breaks replayable experiments; "
     "use a seeded std::mt19937_64"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0|&\w+)?\s*\)"),
     "time(): wall-clock in library code breaks determinism; "
     "take a Deadline or a seed from the caller"),
    (re.compile(r"std::random_device"),
     "std::random_device: non-deterministic seeding; "
     "seeds must come from config so runs replay"),
]

KERNEL_FILE_RE = re.compile(r"src/priste/linalg/kernels[^/]*\.(?:h|cc)$")

FMA_PATTERNS = [
    (re.compile(r"std::fma[f]?\s*\("), "std::fma"),
    (re.compile(r"(?<![\w:.>])fma[f]?\s*\("), "C fma()"),
    (re.compile(r"_mm(?:256|512)?_fn?m(?:add|sub)"), "FMA intrinsic"),
]

HOT_PATH_ALLOC = [
    (re.compile(r"(?<![\w:])new\s+[A-Za-z_:<]"), "operator new"),
    (re.compile(r"(?<![\w:.>])(?:malloc|calloc|realloc|aligned_alloc)\s*\("),
     "malloc-family call"),
    (re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|resize|reserve|"
                r"insert|emplace)\s*\("),
     "allocating container growth"),
    (re.compile(r"std::make_(?:unique|shared)\s*<"), "heap-allocating factory"),
]

# PRISTE_DCHECK is deliberately absent: NDEBUG serving builds compile it away.
ABORT_TOKENS = [
    (re.compile(r"\bPRISTE_CHECK(?:_MSG|_OK)?\s*\("), "PRISTE_CHECK aborts"),
    (re.compile(r"(?<![\w:.>])(?:std::)?abort\s*\("), "abort()"),
    (re.compile(r"(?<![\w:.>])(?:std::)?(?:exit|_Exit|quick_exit)\s*\("),
     "exit()"),
    (re.compile(r"(?<![\w:.>])(?:std::)?terminate\s*\("), "std::terminate()"),
    (re.compile(r"(?<![\w>])throw\s+[^;]"), "throw expression"),
    (re.compile(r"\.\s*value\s*\(\s*\)"), "value() throws when empty"),
]

# Each blocks the calling thread for an unbounded or scheduler-chosen time.
BLOCKING_TOKENS = [
    (re.compile(r"\bsleep_(?:for|until)\s*\("), "thread sleep"),
    (re.compile(r"(?<![\w:.>])(?:usleep|nanosleep|sleep)\s*\("), "sleep()"),
    (re.compile(r"(?<![\w:.>])(?:fopen|fread|fwrite|fflush|fgets|fputs|"
                r"fclose)\s*\("), "C stdio IO"),
    (re.compile(r"\b(?:std::)?[iof]fstream\b"), "fstream IO"),
    (re.compile(r"\bstd::getline\s*\("), "getline"),
    (re.compile(r"(?:\.|->)\s*join\s*\(\s*\)"), "thread join"),
    (re.compile(r"(?<![\w:.>])system\s*\("), "system()"),
]

# The return type whose value must be consumed. QpSolver::Result (a plain
# value struct) is excluded by requiring template arguments on Result.
MUST_CHECK_RETURN_RE = re.compile(r"(?:^|[\s,<(])(?:[\w:]+::)?Result\s*<")

# `Mutex name [PRISTE_LOCK_LEVEL(n)];` -- value members only: a pointer or
# reference (MutexLock's `Mutex* const mu_`) aliases a mutex declared
# elsewhere.
MUTEX_DECL_RE = re.compile(
    r"(?<![\w:])Mutex\s+([A-Za-z_]\w*)\s*"
    r"(?:PRISTE_LOCK_LEVEL\s*\(\s*(\d+)\s*\))?\s*;")

# RAII acquisition, the only sanctioned way to hold a priste::Mutex outside
# mutex.h itself.
ACQUIRE_RE = re.compile(
    r"\bMutexLock\s+\w+\s*\(\s*&\s*((?:[\w\[\]]|->|\.)+?)\s*\)")

# Keywords that can precede '(' without being a call.
NON_CALL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "static_assert", "alignas", "new", "delete",
    "co_return", "co_await", "co_yield", "throw", "typeid", "assert",
    "defined", "case", "do", "else", "operator", "requires", "template",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast", "until",
}

# Macros are matched by the token tables, never as call-graph names.
MACRO_RE = re.compile(r"[A-Z][A-Z0-9_]*")

# Heads containing these cannot be function definitions.
NON_FUNCTION_HEAD_RE = re.compile(
    r"\b(?:class|struct|union|enum|namespace)\s+[\w:]*\s*$")

CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:<[\w\s:,<>*&]*>)?\s*\(")

# A named lambda head: `auto f = [...](...)`, also `std::function<...> f =`
# and `static const auto f =`. Its body braces follow the head like a
# function definition's, and call sites use the variable name, so a lambda
# hoisted out of a marked body to namespace or class scope stays in the graph.
LAMBDA_HEAD_RE = re.compile(
    r"([A-Za-z_]\w*)\s*=\s*\[[^\[\]]*\]\s*"   # name = [captures]
    r"(?:\([^()]*\)\s*)?"                     # optional parameter list
    r"(?:mutable\b\s*)?(?:noexcept\b\s*)?(?:constexpr\b\s*)?"
    r"(?:->\s*[\w:<>,\s*&]+?)?\s*$")          # optional trailing return type


class Finding(collections.namedtuple("Finding", "path line rule message")):
    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- Lexical helpers ---------------------------------------------------------


def strip_comments_and_strings(text):
    """Blanks comments and the contents of string and char literals, keeping
    every offset and newline so line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":  # unterminated (raw string etc.): bail
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 2) +
                       (quote if j <= n and j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_preprocessor(text):
    """Blanks preprocessor directives, backslash continuations included, and
    keeps the line structure. Macro bodies must not become graph nodes:
    check.h's `#define PRISTE_CHECK ... abort()` is what the abort tokens
    match at use sites, not a function that aborts."""
    out = []
    in_directive = False
    for line in text.split("\n"):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            out.append("")
        else:
            out.append(line)
    return "\n".join(out)


def _ends_statement(line):
    """The code part of `line` (before any // comment) closes a statement
    with ';', '{' or '}', or is empty: the waived statement never started."""
    code = line.split("//", 1)[0].rstrip()
    return code == "" or code.endswith((";", "{", "}"))


def suppressed_lines(lines):
    """Maps rule -> set of 1-based line numbers that allow() waivers cover.

    A waiver on a line of its own covers itself, the comment lines right
    after it (the justification block) and the next statement. A waiver
    after code covers only the statement on its own line. Either way the
    coverage runs on to the line that closes the statement, so a clang-format
    wrap that moves the token to a continuation line keeps it waived."""
    waived = {}
    for idx, line in enumerate(lines, start=1):
        for m in SUPPRESS_RE.finditer(line):
            covered = {idx}
            j = idx  # 1-based line of the covered statement's first line
            if not line.split("//", 1)[0].strip():
                j += 1
                while (j <= len(lines)
                       and len(covered) < MAX_WAIVED_STATEMENT_LINES
                       and lines[j - 1].lstrip().startswith("//")):
                    covered.add(j)
                    j += 1
                covered.add(j)
            while (j <= len(lines)
                   and len(covered) < MAX_WAIVED_STATEMENT_LINES
                   and not _ends_statement(lines[j - 1])):
                covered.add(j + 1)
                j += 1
            waived.setdefault(m.group(1), set()).update(covered)
    return waived


# --- Function extraction -----------------------------------------------------


class Function:
    """One function definition: identity, body text and per-line records.
    The records ignore waivers; each rule applies its own."""

    def __init__(self, rel_path, qualified, simple, start_line, head, body,
                 body_start_line):
        self.rel_path = rel_path
        self.qualified = qualified      # e.g. "QpSolver::Maximize"
        self.simple = simple            # e.g. "Maximize"
        self.start_line = start_line    # 1-based line of the head
        self.head = head                # text from the last boundary to '{'
        self.body = body                # text inside the braces
        self.body_start_line = body_start_line  # line of the '{'
        self.hot_path = HOT_PATH_MARKER in head
        self.no_abort = NO_ABORT_MARKER in head
        self.calls = []                 # [(callee simple name, line)]
        self.allocs = []                # [(line, why)]
        self.aborts = []                # [(line, why)]
        self.blocks = []                # [(line, why)]
        self.locks = []                 # [(line, MutexLock target)]

    @property
    def label(self):
        return f"{os.path.basename(self.rel_path)}:{self.qualified}"


def _matching_brace(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def _head_function_name(head):
    """(qualified, simple) when `head`, which ends right before '{', reads
    like a function definition's signature; else None."""
    # A named lambda is a definition whose callable name is the variable.
    m = LAMBDA_HEAD_RE.search(head)
    if m:
        return (m.group(1), m.group(1))
    # Cut a constructor's member-init list: a top-level ':' (not '::') that
    # follows a ')'.
    depth = 0
    cut = len(head)
    for i, c in enumerate(head):
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif c == ":" and depth == 0:
            before = head[i - 1] if i else ""
            after = head[i + 1] if i + 1 < len(head) else ""
            if before != ":" and after != ":" and ")" in head[:i]:
                cut = i
                break
    sig = head[:cut]
    if NON_FUNCTION_HEAD_RE.search(sig):
        return None
    # Each identifier directly before a top-level '(' is a candidate name;
    # trailing groups such as PRISTE_REQUIRES(mu_) name macros, so the first
    # viable candidate is the function.
    candidates = []
    depth = 0
    for i, c in enumerate(sig):
        if c == "(":
            if depth == 0:
                m = re.search(r"((?:[A-Za-z_]\w*::)*(?:~?[A-Za-z_]\w*|"
                              r"operator\s*[^\s(]{1,3}))\s*$", sig[:i])
                candidates.append(m.group(1).strip() if m else None)
            depth += 1
        elif c == ")":
            depth -= 1
    for name in candidates:
        if name is None:
            continue
        simple = name.split("::")[-1]
        base = simple.lstrip("~")
        if simple.startswith("operator"):
            return ("<operator>", "<operator>")
        if base in NON_CALL_KEYWORDS:
            continue
        if MACRO_RE.fullmatch(base) and base.startswith("PRISTE"):
            continue
        return (name, base)
    return None


def extract_functions(rel_path, clean_text):
    """Function definitions, found by classifying the head before each '{'.
    A function body is consumed whole (nested braces, lambdas included,
    belong to it); class, namespace and enum bodies, and operator bodies,
    are descended into."""
    functions = []
    n = len(clean_text)
    i = 0
    prev_boundary = 0
    while i < n:
        c = clean_text[i]
        if c in ";}":
            prev_boundary = i + 1
            i += 1
            continue
        if c != "{":
            i += 1
            continue
        head = clean_text[prev_boundary:i]
        # "(" admits ordinary definitions; "[" admits parameterless named
        # lambdas (`auto f = [] { ... }`), whose heads carry no parens.
        named = (_head_function_name(head)
                 if ("(" in head or "[" in head) else None)
        if named is None or named[0] == "<operator>":
            prev_boundary = i + 1
            i += 1
            continue
        close = _matching_brace(clean_text, i)
        start_line = clean_text.count("\n", 0, prev_boundary +
                                      len(head) - len(head.lstrip())) + 1
        functions.append(Function(rel_path, named[0], named[1], start_line,
                                  head, clean_text[i + 1:close],
                                  clean_text.count("\n", 0, i) + 1))
        prev_boundary = close + 1
        i = close + 1
    return functions


def analyze_function(fn):
    """Fills the call, allocation, abort, blocking and lock records."""
    for offset, line in enumerate(fn.body.split("\n")):
        lineno = fn.body_start_line + offset
        for m in CALL_RE.finditer(line):
            name = m.group(1)
            if name not in NON_CALL_KEYWORDS and not MACRO_RE.fullmatch(name):
                fn.calls.append((name, lineno))
        for records, table in ((fn.allocs, HOT_PATH_ALLOC),
                               (fn.aborts, ABORT_TOKENS),
                               (fn.blocks, BLOCKING_TOKENS)):
            records.extend((lineno, why) for pattern, why in table
                           if pattern.search(line))
    for m in ACQUIRE_RE.finditer(fn.body):
        line = fn.body_start_line + fn.body.count("\n", 0, m.start())
        fn.locks.append((line, m.group(1)))


# --- Call graph --------------------------------------------------------------

# One linted file: raw lines (waivers, bare-waiver), code lines with comments
# and strings blanked (line rules), that text with preprocessor directives
# blanked too (functions, declarations), and rule -> waived line numbers.
SourceFile = collections.namedtuple("SourceFile", "raw code clean waived")


class CallGraph:
    """Every function of the linted files, indexed by simple name."""

    def __init__(self):
        self.functions = []
        self.by_simple = collections.defaultdict(list)
        self.files = {}                 # rel_path -> SourceFile
        self._reach = {}                # (start, rule) -> BFS parent map

    def add_file(self, rel_path, text):
        raw = text.split("\n")
        code = strip_comments_and_strings(text)
        clean = strip_preprocessor(code)
        self.files[rel_path] = SourceFile(raw, code.split("\n"), clean,
                                          suppressed_lines(raw))
        for fn in extract_functions(rel_path, clean):
            analyze_function(fn)
            self.functions.append(fn)
            self.by_simple[fn.simple].append(fn)

    def waived(self, rel_path, line, rule):
        return line in self.files[rel_path].waived.get(rule, ())

    def live(self, fn, records, *rules):
        """`records` of `fn` minus the lines waived for any of `rules`."""
        return [(line, what) for line, what in records
                if not any(self.waived(fn.rel_path, line, r) for r in rules)]

    def reach(self, start, rule):
        """BFS parent map from `start` (callee -> (caller, call line); the
        insertion order is shortest-path order). A call edge waived for
        `rule` is cut."""
        key = (start, rule)
        if key not in self._reach:
            parent = {start: None}
            queue = collections.deque([start])
            while queue:
                fn = queue.popleft()
                for name, line in fn.calls:
                    if self.waived(fn.rel_path, line, rule):
                        continue
                    for callee in self.by_simple.get(name, ()):
                        if callee is not fn and callee not in parent:
                            parent[callee] = (fn, line)
                            queue.append(callee)
            self._reach[key] = parent
        return self._reach[key]


def chain(parent, node):
    """`start (:line) -> ... -> node` along a BFS parent map."""
    hops = []
    while parent[node] is not None:
        caller, line = parent[node]
        hops.append(f"(:{line}) -> {node.label}")
        node = caller
    return " ".join([node.label] + hops[::-1])


def reached_sink(graph, root, rule, sink, reported):
    """The shortest chain from `root` to a function for which `sink` gives
    (line, why), as message text; None when there is none or when this
    root already reported that sink line."""
    parent = graph.reach(root, rule)
    for fn in parent:
        detail = sink(fn) if fn is not root else None
        if detail:
            key = (root.rel_path, root.qualified, fn.rel_path, fn.qualified,
                   detail[0])
            if key in reported:
                return None
            reported.add(key)
            return f"{chain(parent, fn)} [{detail[1]} at line {detail[0]}]"
    return None


# --- Rules: lines and hot paths ----------------------------------------------


def rule_line_tokens(graph):
    """banned-call in src/ and fma-pattern in the kernel TUs, line by line."""
    findings = []
    for rel, src in graph.files.items():
        scopes = []
        if rel.startswith("src/") and rel not in SANCTIONED_FILES:
            scopes.append(("banned-call", BANNED_CALLS, ""))
        if KERNEL_FILE_RE.search(rel):
            scopes.append(("fma-pattern", FMA_PATTERNS,
                           " breaks the scalar/SIMD bit-identity contract "
                           "(see linalg/CMakeLists.txt)"))
        for rule, table, suffix in scopes:
            for idx, line in enumerate(src.code, start=1):
                for pattern, why in table:
                    if pattern.search(line) and not graph.waived(rel, idx,
                                                                 rule):
                        findings.append(Finding(rel, idx, rule, why + suffix))
    return findings


def rule_hot_path(graph):
    """hot-path-alloc for each allocation in a marked body, and
    hot-path-alloc-transitive for the nearest one among its callees."""
    findings = []
    reported = set()

    def sink(fn):
        allocs = graph.live(fn, fn.allocs, "hot-path-alloc",
                            "hot-path-alloc-transitive")
        return allocs[0] if allocs else None

    for root in graph.functions:
        if not root.hot_path:
            continue
        for line, why in graph.live(root, root.allocs, "hot-path-alloc"):
            findings.append(Finding(
                root.rel_path, line, "hot-path-alloc",
                f"{why} inside PRISTE_HOT_PATH {root.qualified}"))
        path = reached_sink(graph, root, "hot-path-alloc-transitive", sink,
                            reported)
        if path:
            findings.append(Finding(
                root.rel_path, root.start_line, "hot-path-alloc-transitive",
                f"PRISTE_HOT_PATH {root.qualified} reaches an allocation: "
                + path))
    return findings


def rule_no_abort(graph):
    findings = []
    reported = set()

    def sink(fn):
        aborts = graph.live(fn, fn.aborts, "no-abort-reachable")
        return aborts[0] if aborts else None

    for root in graph.functions:
        if not root.no_abort:
            continue
        direct = sink(root)
        if direct:
            findings.append(Finding(
                root.rel_path, direct[0], "no-abort-reachable",
                f"PRISTE_NO_ABORT {root.qualified} aborts directly: "
                f"{direct[1]}"))
            continue
        path = reached_sink(graph, root, "no-abort-reachable", sink, reported)
        if path:
            findings.append(Finding(
                root.rel_path, root.start_line, "no-abort-reachable",
                f"PRISTE_NO_ABORT {root.qualified} reaches an abort: " + path))
    return findings


# --- Rule: unchecked-result --------------------------------------------------


def _returns_must_check(fn):
    # The return type is the head before the function's name, minus a
    # trailing `Class<...>::` scope, so `bool Result<T>::ok()` does not read
    # as returning Result. Constructor and destructor heads keep only
    # attributes and whitespace here and cannot match.
    name_pos = fn.head.rfind(fn.simple)
    prefix = fn.head if name_pos < 0 else fn.head[:name_pos]
    prefix = re.sub(r"[\w:]+\s*(?:<[^<>]*(?:<[^<>]*>[^<>]*)*>)?\s*::\s*$", "",
                    prefix)
    return bool(MUST_CHECK_RETURN_RE.search(" " + prefix))


def rule_unchecked_result(graph):
    """Calls to Result-returning functions whose value is dropped."""
    must_check = {fn.simple for fn in graph.functions
                  if _returns_must_check(fn)}
    findings = []
    for fn in graph.functions:
        for m in CALL_RE.finditer(fn.body):
            name = m.group(1)
            if name not in must_check:
                continue
            lineno = fn.body_start_line + fn.body.count("\n", 0, m.start())
            if graph.waived(fn.rel_path, lineno, "unchecked-result"):
                continue
            if _call_is_discarded(fn.body, m):
                findings.append(Finding(
                    fn.rel_path, lineno, "unchecked-result",
                    f"{fn.qualified} discards the Result<T> returned by "
                    f"{name}() -- handle it, propagate it (PRISTE_TRY), or "
                    "waive with allow(unchecked-result)"))
    return findings


def _call_is_discarded(body, match):
    """True when the matched call's value is dropped, judged from what
    precedes the callee name and what follows the argument list's ')'."""
    i = match.start() - 1
    while i >= 0 and body[i] in " \t\n":
        i -= 1
    prev = body[i] if i >= 0 else "{"
    if prev in ".>":
        # Member call: walk left past the object expression to the
        # statement start.
        j = i
        depth = 0
        while j >= 0:
            c = body[j]
            if c in ")]":
                depth += 1
            elif c in "([":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and c in ";{},":
                break
            j -= 1
        stmt_prefix = body[max(0, j):i + 1]
        prev = body[j] if j >= 0 else "{"
        i = j
        # `return obj.f()`, `x = obj.f()` and `c ? obj.f() : y` consume the
        # value although the statement starts at ';' or '{'.
        if re.search(r"\breturn\b|\bco_return\b|\bco_yield\b|\bthrow\b|"
                     r"[=?]", stmt_prefix):
            return False
    open_paren = body.find("(", match.end() - 1)
    depth = 0
    k = open_paren
    while k < len(body):
        if body[k] == "(":
            depth += 1
        elif body[k] == ")":
            depth -= 1
            if depth == 0:
                break
        k += 1
    after = (body[k + 1:k + 40] if k < len(body) else "").lstrip()
    nxt = after[0] if after else ";"
    if nxt in ".-" or after.startswith("->"):
        return False  # chained access consumes the value

    def word_before(pos):
        m2 = re.search(r"([A-Za-z_]\w*)\s*$", body[:pos + 1])
        return m2.group(1) if m2 else ""

    if prev == ")":
        # `(void) f();` or `if (...) f();`: classify the closing group.
        depth = 0
        g = i
        while g >= 0:
            if body[g] == ")":
                depth += 1
            elif body[g] == "(":
                depth -= 1
                if depth == 0:
                    break
            g -= 1
        if body[g + 1:i].strip() == "void":
            return True  # cast-laundered discard
        return word_before(g - 1) in ("if", "while", "for", "switch")
    if prev == ",":
        # An argument separator (value used) or the comma operator (value
        # dropped): the nearest unclosed bracket decides.
        depth = 0
        j = i - 1
        while j >= 0:
            c = body[j]
            if c in ")]}":
                depth += 1
            elif c in "([{":
                if depth == 0:
                    return False
                depth -= 1
            elif c == ";" and depth == 0:
                return True
            j -= 1
        return True
    if prev not in ";{}":
        # After an identifier: `else f();` drops the value, while
        # `return f()` and the '=' of `auto x = f()` consume it.
        return word_before(i) in ("else", "do")
    # Statement start: `f();` and `f(), g();` drop the value.
    return nxt in ";,"


# --- Rules: lock-order and blocking-under-lock -------------------------------


def mutex_decls(graph):
    """Every Mutex value member as {file, name, line, level}."""
    decls = []
    for rel, src in sorted(graph.files.items()):
        for m in MUTEX_DECL_RE.finditer(src.clean):
            decls.append({"file": rel, "name": m.group(1),
                          "line": src.clean.count("\n", 0, m.start()) + 1,
                          "level": int(m.group(2)) if m.group(2) else None})
    return decls


def resolve_levels(decls, rel, target):
    """(sorted levels, declaration found) for `MutexLock lock(&target)`. The
    last path component is matched in the same file first (members that
    share a name such as `mu` but never leave their files), then across the
    tree."""
    base = re.split(r"->|\.", target)[-1].split("[", 1)[0]
    pool = ([d for d in decls if d["file"] == rel and d["name"] == base]
            or [d for d in decls if d["name"] == base])
    return (sorted({d["level"] for d in pool if d["level"] is not None}),
            bool(pool))


def blocking_names(graph):
    """Simple names of the functions marked PRISTE_BLOCKING, declarations
    included (ParallelFor is annotated in parallel_for.h only)."""
    names = set()
    for _rel, src in sorted(graph.files.items()):
        for m in re.finditer(r"\bPRISTE_BLOCKING\b", src.clean):
            tail = src.clean[m.end():m.end() + 400]
            for stop in (";", "{"):
                pos = tail.find(stop)
                if pos != -1:
                    tail = tail[:pos]
            for cm in CALL_RE.finditer(tail):
                name = cm.group(1)
                if name not in NON_CALL_KEYWORDS and \
                        not MACRO_RE.fullmatch(name):
                    names.add(name)
                    break
    return names


def held_regions(fn):
    """(acquisition line, target, last held line) per MutexLock: an RAII lock
    is held from its declaration to the line that closes its block, or to
    the end of the body."""
    lines = fn.body.split("\n")
    regions = []  # [line, target, brace depth at acquisition, end]
    depth = 0
    for offset, text in enumerate(lines):
        lineno = fn.body_start_line + offset
        m = ACQUIRE_RE.search(text)
        if m:
            before = text[:m.start()]
            regions.append([lineno, m.group(1),
                            depth + before.count("{") - before.count("}"),
                            None])
        depth += text.count("{") - text.count("}")
        for r in regions:
            if r[3] is None and depth < r[2]:
                r[3] = lineno
    last = fn.body_start_line + len(lines) - 1
    return [(line, target, end or last) for line, target, _, end in regions]


# An edge from a held lock's level to a level taken while it is held, with
# where it was observed.
Edge = collections.namedtuple("Edge",
                              "src dst file hold_line detail function")


def scan_held_regions(graph, acquisitions, bnames):
    """Walks every held region once: the lock-level edges it creates,
    directly or through calls, and its blocking-under-lock findings."""

    def blocking_detail(fn):
        """(line, why) that makes `fn` block, or None."""
        calls = [(line, name) for name, line in fn.calls if name in bnames]
        found = (graph.live(fn, fn.blocks, "blocking-under-lock")
                 or graph.live(fn, calls, "blocking-under-lock"))
        if found:
            return found[0]
        if BLOCKING_MARKER in fn.head or fn.simple in bnames:
            return (None, BLOCKING_MARKER)
        return None

    edges = set()
    blocking = []
    seen_block = set()

    def add_blocking(fn, hold, line, what, message):
        if (fn.rel_path, hold, line, what) not in seen_block:
            seen_block.add((fn.rel_path, hold, line, what))
            blocking.append(Finding(fn.rel_path, line, "blocking-under-lock",
                                    message))

    for fn in graph.functions:
        acqs = acquisitions[fn]
        if not acqs:
            continue
        levels_at = {a[0]: a[2] for a in acqs}
        for hold, target, end in held_regions(fn):
            levels = levels_at.get(hold, [])
            if not levels:
                continue  # unresolved or unclassified: lock-order reports it
            held = f"{target} (acquired :{hold})"
            # (how it is reached, acquisition line, target, its levels)
            taken = [(" and", line, other, lv2)
                     for line, other, lv2, _found, waived in acqs
                     if hold < line <= end and not waived]
            for line, why in graph.live(fn, fn.blocks, "blocking-under-lock"):
                if hold < line <= end:
                    add_blocking(fn, hold, line, why,
                                 f"{fn.qualified} blocks ({why}) while "
                                 f"holding {target} (level {levels[0]}, "
                                 f"acquired :{hold})")
            for name, call_line in fn.calls:
                if not hold <= call_line <= end:
                    continue
                lock_cut = graph.waived(fn.rel_path, call_line, "lock-order")
                block_cut = graph.waived(fn.rel_path, call_line,
                                         "blocking-under-lock")
                if name in bnames and not block_cut:
                    add_blocking(fn, hold, call_line, name,
                                 f"{fn.qualified} calls PRISTE_BLOCKING "
                                 f"{name}() while holding {held}")
                via_call = f"{fn.label} (:{call_line}) -> "
                for callee in graph.by_simple.get(name, ()):
                    if callee is fn:
                        continue
                    if not lock_cut:
                        parent = graph.reach(callee, "lock-order")
                        taken += [
                            (f"; path {via_call}{chain(parent, s)}", line,
                             other, lv2)
                            for s in parent
                            for line, other, lv2, _found, waived
                            in acquisitions[s] if not waived]
                    if not block_cut:
                        parent = graph.reach(callee, "blocking-under-lock")
                        for s in parent:
                            detail = blocking_detail(s)
                            if detail:
                                where = (f" at :{detail[0]}"
                                         if detail[0] is not None else "")
                                add_blocking(
                                    fn, hold, call_line, s.label,
                                    f"{fn.qualified} holds {held} and "
                                    f"reaches blocking {s.qualified} "
                                    f"[{detail[1]}{where}] via "
                                    + via_call + chain(parent, s))
                                break  # the nearest sink per call suffices
            for via, line, other, lv2 in taken:
                for l1 in levels:
                    for l2 in lv2:
                        edges.add(Edge(
                            l1, l2, fn.rel_path, hold,
                            f"{fn.label} holds {target} (level {l1}, :{hold})"
                            f"{via} takes {other} (level {l2}, :{line})",
                            fn.qualified))
    return sorted(edges), blocking


def find_cycles(adj):
    """Directed cycles over the (small) level graph, one per node set."""
    cycles = []
    seen = []
    visiting, done, path = set(), set(), []

    def dfs(u):
        visiting.add(u)
        path.append(u)
        for v in sorted(adj.get(u, ())):
            if v in visiting:
                cyc = path[path.index(v):] + [v]
                if frozenset(cyc) not in seen:
                    seen.append(frozenset(cyc))
                    cycles.append(cyc)
            elif v not in done:
                dfs(v)
        visiting.discard(u)
        done.add(u)
        path.pop()

    for u in sorted(adj):
        if u not in done:
            dfs(u)
    return cycles


def lock_order_findings(graph, decls, acquisitions, edges):
    """Same-level edges, cycles between levels, Mutex members without a
    level, and acquisitions that match no Mutex declaration."""
    findings = []
    for e in edges:
        if e.src == e.dst:
            findings.append(Finding(
                e.file, e.hold_line, "lock-order",
                f"same-level acquisition (level {e.src} under level "
                f"{e.dst}): {e.detail}"))
    adj = {}
    for e in edges:
        if e.src != e.dst:
            adj.setdefault(e.src, set()).add(e.dst)
    for cyc in find_cycles(adj):
        examples = [next(e for e in edges if e.src == a and e.dst == b)
                    for a, b in zip(cyc, cyc[1:])]
        findings.append(Finding(
            examples[0].file, examples[0].hold_line, "lock-order",
            "lock-level cycle " + " -> ".join(str(l) for l in cyc)
            + ": " + "; ".join(e.detail for e in examples)))
    for d in decls:
        if d["level"] is None and not graph.waived(d["file"], d["line"],
                                                   "lock-order"):
            findings.append(Finding(
                d["file"], d["line"], "lock-order",
                f"Mutex member '{d['name']}' carries no PRISTE_LOCK_LEVEL(n) "
                "-- every mutex must be placed in the lock hierarchy "
                "(common/thread_annotations.h)"))
    for fn in graph.functions:
        for line, target, _levels, found, waived in acquisitions[fn]:
            if not found and not waived:
                findings.append(Finding(
                    fn.rel_path, line, "lock-order",
                    f"{fn.qualified} locks '{target}', which matches no "
                    "Mutex member declaration -- the hierarchy cannot "
                    "classify it"))
    return findings


def rule_concurrency(graph):
    """lock-order and blocking-under-lock: the findings and the lock graph
    for the report."""
    decls = mutex_decls(graph)
    bnames = blocking_names(graph)
    # fn -> [(line, target, levels, declaration found, waived)]
    acquisitions = {
        fn: [(line, target, *resolve_levels(decls, fn.rel_path, target),
              graph.waived(fn.rel_path, line, "lock-order"))
             for line, target in fn.locks]
        for fn in graph.functions}
    edges, blocking = scan_held_regions(graph, acquisitions, bnames)
    lock_graph = {
        "mutexes": decls,
        "edges": [{"from": e.src, "to": e.dst, "file": e.file,
                   "function": e.function, "held_from_line": e.hold_line,
                   "detail": e.detail} for e in edges],
        "blocking_functions": sorted(bnames),
    }
    return (lock_order_findings(graph, decls, acquisitions, edges) + blocking,
            lock_graph)


# --- Rule: bare-waiver -------------------------------------------------------


def rule_bare_waiver(graph):
    findings = []
    for rel, src in graph.files.items():
        for idx, line in enumerate(src.raw, start=1):
            for m in SUPPRESS_RE.finditer(line):
                if not line[m.end():].strip():
                    findings.append(Finding(
                        rel, idx, "bare-waiver",
                        f"allow({m.group(1)}) carries no root-cause "
                        "justification on the waiver line"))
    return findings


# --- Drivers -----------------------------------------------------------------


def analyze(graph):
    """All nine rules: (sorted findings, lock graph)."""
    findings, lock_graph = rule_concurrency(graph)
    findings += (rule_line_tokens(graph) + rule_hot_path(graph)
                 + rule_no_abort(graph) + rule_unchecked_result(graph)
                 + rule_bare_waiver(graph))
    return sorted(findings), lock_graph


def relpath(path, src_root):
    return os.path.relpath(path, src_root).replace(os.sep, "/")


def collect_sources(compile_commands, src_root):
    """src/ and tools/ without tools/lint, whose fixtures only --self-test
    reads: the .h/.cc files the compilation database names, plus every
    header."""
    with open(compile_commands, encoding="utf-8") as f:
        db = json.load(f)
    paths = [os.path.abspath(os.path.join(e.get("directory", ""), e["file"]))
             for e in db]
    for tree in ("src", "tools"):
        for root, _dirs, names in os.walk(os.path.join(src_root, tree)):
            paths += [os.path.join(root, n) for n in names if n.endswith(".h")]
    files = set()
    for path in paths:
        rel = relpath(path, src_root)
        if (rel.endswith(LINT_EXTENSIONS)
                and rel.startswith(("src/", "tools/"))
                and not rel.startswith("tools/lint/")):
            files.add(os.path.abspath(path))
    return sorted(files)


# Fixture -> the exact per-rule finding counts it must produce on its own.
SELF_TEST = {
    "bad_banned_call.cc": {"banned-call": 3},
    "bad_hot_path_alloc.cc": {"hot-path-alloc": 6},
    "kernels_bad_fma.cc": {"fma-pattern": 4},
    "good_suppressed.cc": {},
    "bad_transitive_alloc.cc": {"hot-path-alloc-transitive": 2},
    "bad_lambda_hoist.cc": {"hot-path-alloc-transitive": 2},
    "bad_no_abort.cc": {"no-abort-reachable": 5},
    "bad_unchecked_result.cc": {"unchecked-result": 4},
    "good_callgraph.cc": {},
    "bad_lock_order.cc": {"lock-order": 3, "bare-waiver": 1},
    "bad_blocking_under_lock.cc": {"blocking-under-lock": 3},
    "good_concurrency.cc": {},
}


def run_self_test():
    """A rule that stops firing fails here, not silently on the clean
    tree."""
    failures = []
    untabled = sorted(set(os.listdir(FIXTURES)) - set(SELF_TEST))
    if untabled:
        failures.append(f"fixtures missing from SELF_TEST: {untabled}")
    for name, expected in SELF_TEST.items():
        # Fixtures pose as src/ files so the src/-scoped rules apply, and
        # kernels_* poses as a kernel TU.
        subdir = "linalg" if name.startswith("kernels_") else "fixture"
        graph = CallGraph()
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
            graph.add_file(f"src/priste/{subdir}/{name}", f.read())
        findings, lock_graph = analyze(graph)
        got = collections.Counter(finding.rule for finding in findings)
        if got != expected:
            failures.append(f"{name}: expected {expected}, got {dict(got)}")
            for finding in findings:
                print(f"  {finding}", file=sys.stderr)
        if name == "bad_lock_order.cc":
            # The report must carry the mutexes and edges behind the findings.
            report = json.loads(json.dumps(lock_graph))
            if not report["edges"] or not report["mutexes"]:
                failures.append(f"{name}: the report's lock graph is empty")
    for failure in failures:
        print(f"priste_lint self-test FAILED: {failure}", file=sys.stderr)
    if not failures:
        print(f"priste_lint self-test OK ({len(SELF_TEST)} fixtures)",
              file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compile-commands",
                        help="path to compile_commands.json")
    parser.add_argument("--src-root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the seeded fixtures' exact finding counts")
    parser.add_argument("--report", metavar="PATH",
                        help="write the findings and the lock graph as JSON")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    if not args.compile_commands:
        parser.error("--compile-commands is required (or use --self-test)")

    started = time.monotonic()
    src_root = os.path.abspath(args.src_root)
    graph = CallGraph()
    for path in collect_sources(args.compile_commands, src_root):
        with open(path, encoding="utf-8", errors="replace") as f:
            graph.add_file(relpath(path, src_root), f.read())
    findings, lock_graph = analyze(graph)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump({"findings": [finding._asdict() for finding in findings],
                       **lock_graph}, f, indent=1, sort_keys=True)
            f.write("\n")
    for finding in findings:
        print(finding)
    levels = {d["level"] for d in lock_graph["mutexes"]} - {None}
    print(f"priste_lint: {len(graph.files)} files, "
          f"{len(graph.functions)} functions, "
          f"{len(lock_graph['mutexes'])} mutexes / {len(levels)} levels, "
          f"{len(lock_graph['edges'])} lock edges, "
          f"{len(lock_graph['blocking_functions'])} blocking functions; "
          f"{len(findings) or 'no'} finding(s) "
          f"[wall {time.monotonic() - started:.2f}s]", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
