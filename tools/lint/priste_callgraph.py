#!/usr/bin/env python3
"""priste_callgraph: whole-program call-graph lint for the PriSTE tree.

priste_lint.py enforces LEXICAL, body-only invariants; this tool closes its
documented gap by building a src-wide call graph and checking three
REACHABILITY rules that single-function analysis cannot express:

  hot-path-alloc-transitive
      No function reachable from a PRISTE_HOT_PATH body may allocate
      (new / malloc-family calls, allocating container growth, or the
      make_unique/make_shared factories). priste_lint's hot-path-alloc rule
      deliberately "does not chase callees" — a marked kernel calling an
      allocating helper passes it clean; this rule flags exactly that case,
      reporting the call chain edge by edge:

        kernels.cc:GatherDot -> helper.cc:Grow: Grow allocates (push_back)

      Allocations carrying the existing `// priste-lint: allow(hot-path-alloc)`
      waiver (amortized thread_local scratch growth) are sanctioned in callees
      too; a call EDGE may be cut with allow(hot-path-alloc-transitive) on the
      call line when the callee provably cannot allocate on that path (the
      justification comment is mandatory by convention).

  no-abort-reachable
      Functions annotated PRISTE_NO_ABORT (common/thread_annotations.h; the
      serving-facing entry points: CSV/file parsing, CLI flag handling, the
      driver Run input-validation preludes) must not reach a process abort on
      ANY path: PRISTE_CHECK / PRISTE_CHECK_MSG, abort(), exit(), _Exit(),
      quick_exit(), terminate, a `throw` expression, or a `.value()` call
      (std::expected and std::optional throw from value() when empty, and
      nothing on the serving boundary catches it).
      PRISTE_DCHECK is permitted — it compiles away in NDEBUG serving builds
      and guards internal invariants, not input data. A malformed observation
      from one user must produce a typed Error, never kill the process
      serving everyone else. Waive with allow(no-abort-reachable) on the call
      edge or the aborting line when the abort is provably unreachable
      (e.g. a bounds CHECK dominated by an earlier validation).

  unchecked-result
      Any call whose Result<T> return value is discarded — including
      discards laundered through (void) / static_cast casts or the comma
      operator, which [[nodiscard]] does not survive (GCC happily suppresses
      the warning). An error that is computed and dropped is worse than no
      error path at all. Waive with allow(unchecked-result) on the call line.

The analysis is deliberately LEXICAL, like priste_lint: function definitions
are recovered by brace matching over comment/string-stripped text, calls by
identifier-before-'(' scanning, and names are resolved by (qualified, then
simple) name against every definition in the tree. That over-approximates —
an ambiguous simple name links to every definition sharing it — which is the
safe direction for reachability rules: false edges can only ADD findings,
which a human then waives with a root-cause comment; missing edges would
silently disable the gate. libclang (python3-clang), when importable, is used
to cross-check that the annotate attributes survive the build flags, exactly
as priste_lint does; the graph itself does not depend on it.

Usage:
  priste_callgraph.py --compile-commands build/compile_commands.json [--src-root .]
  priste_callgraph.py --self-test       # seeded fixtures must FAIL correctly
  priste_callgraph.py ... --dump-graph  # debug: print the resolved call graph
"""

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
import time

# Reuse the shared lexical helpers (comment/string stripping, waiver parsing)
# so both linters agree on what a suppression means.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from priste_lint import (  # noqa: E402
    HOT_PATH_ALLOC,
    SUPPRESS_RE,
    strip_comments_and_strings,
    suppressed_lines,
)

HOT_PATH_MARKER = "PRISTE_HOT_PATH"
NO_ABORT_MARKER = "PRISTE_NO_ABORT"

# Statements/calls that terminate the process. PRISTE_DCHECK is deliberately
# absent: NDEBUG serving builds compile it away, and it guards internal
# invariants rather than user input.
ABORT_TOKENS = [
    (re.compile(r"\bPRISTE_CHECK(?:_MSG)?\s*\("), "PRISTE_CHECK aborts"),
    (re.compile(r"(?<![\w:.>])(?:std::)?abort\s*\("), "abort()"),
    (re.compile(r"(?<![\w:.>])(?:std::)?(?:exit|_Exit|quick_exit)\s*\("),
     "exit()"),
    (re.compile(r"(?<![\w:.>])(?:std::)?terminate\s*\("), "std::terminate()"),
    (re.compile(r"(?<![\w>])throw\s+[^;]"), "throw expression"),
    (re.compile(r"\.\s*value\s*\(\s*\)"), "value() throws when empty"),
]

# The return type whose value must be consumed. QpSolver::Result (a plain
# value struct) is excluded by requiring template arguments on Result.
MUST_CHECK_RETURN_RE = re.compile(r"(?:^|[\s,<(])(?:[\w:]+::)?Result\s*<")

# Keywords that can precede '(' without being a call.
NON_CALL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "static_assert", "alignas", "new", "delete",
    "co_return", "co_await", "co_yield", "throw", "typeid", "assert",
    "defined", "case", "do", "else", "operator", "requires", "template",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast", "until",
}

# Heads containing these cannot be function definitions.
NON_FUNCTION_HEAD_RE = re.compile(
    r"\b(?:class|struct|union|enum|namespace)\s+[\w:]*\s*$")

CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:<[\w\s:,<>*&]*>)?\s*\(")

# A NAMED lambda head: `auto f = [...](...)` (also `std::function<...> f =`,
# `static const auto f =`). The body braces follow the head, exactly like a
# function definition. Lambdas defined inline inside a function body are
# swallowed whole with that body and attribute their calls to the enclosing
# function; this pattern catches the ones hoisted OUT of the marked body —
# to namespace or class scope — which used to vanish from the graph entirely
# (calls to the variable resolved to nothing), letting hot-path/no-abort
# transitive rules be dodged by hoisting the work into a lambda variable.
LAMBDA_HEAD_RE = re.compile(
    r"([A-Za-z_]\w*)\s*=\s*\[[^\[\]]*\]\s*"   # name = [captures]
    r"(?:\([^()]*\)\s*)?"                     # optional parameter list
    r"(?:mutable\b\s*)?(?:noexcept\b\s*)?(?:constexpr\b\s*)?"
    r"(?:->\s*[\w:<>,\s*&]+?)?\s*$")          # optional trailing return type

LINT_EXTENSIONS = (".h", ".cc")

GRAPH_CACHE_VERSION = 2  # bump on any extraction/analysis change


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Function:
    """One function definition: identity, extent, body text, call sites."""

    def __init__(self, rel_path, qualified, simple, start_line, end_line,
                 head, body):
        self.rel_path = rel_path
        self.qualified = qualified      # e.g. "QpSolver::Maximize"
        self.simple = simple            # e.g. "Maximize"
        self.start_line = start_line    # 1-based line of the head
        self.end_line = end_line
        self.head = head                # text between previous boundary and '{'
        self.body = body                # text inside the braces (cleaned)
        self.body_start_line = 0        # line of the '{'
        self.hot_path = HOT_PATH_MARKER in head
        self.no_abort = NO_ABORT_MARKER in head
        self.calls = []                 # [(callee_simple, line)]
        self.allocs = []                # [(line, why)]
        self.aborts = []                # [(line, why)]

    @property
    def label(self):
        return f"{os.path.basename(self.rel_path)}:{self.qualified}"


# --- Function extraction ----------------------------------------------------


def strip_line_comments(clean_text):
    """Blanks the line comments priste_lint's stripper preserves (it keeps
    them readable for waiver parsing). Statement-position analysis here must
    not see comment text; waivers are read from the RAW text separately."""
    return re.sub(r"//[^\n]*", lambda m: " " * len(m.group(0)), clean_text)


def strip_preprocessor(clean_text):
    """Blanks preprocessor directives (incl. backslash continuations) while
    preserving line structure. Macro bodies must not become call-graph nodes:
    check.h's own `#define PRISTE_CHECK ... abort()` is the macro the token
    rules match at USE sites, not a function that aborts."""
    out = []
    in_directive = False
    for line in clean_text.split("\n"):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            out.append("")
        else:
            out.append(line)
    return "\n".join(out)


def _matching_brace(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def _head_function_name(head):
    """Returns (qualified, simple) when `head` reads like a function
    definition signature, else None. `head` ends right before '{'."""
    # A named-lambda assignment is a function definition for graph purposes:
    # the variable name is the callable name call sites use.
    m = LAMBDA_HEAD_RE.search(head)
    if m:
        return (m.group(1), m.group(1))
    # Strip a trailing constructor member-init list: "...)" [: init, init]
    # The ':' must be outside parens and not part of '::'.
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
            if before != ":" and after != ":":
                # Candidate init-list start — only if a ')' precedes it.
                if ")" in head[:i]:
                    cut = i
                    break
    sig = head[:cut]
    if NON_FUNCTION_HEAD_RE.search(sig):
        return None
    # The parameter list is the LAST top-level (...) group in the signature
    # (trailing qualifiers like const/noexcept/PRISTE_REQUIRES(mu_) follow).
    # Walk groups left to right; remember each identifier directly preceding
    # a top-level '(' — the function name is the one whose group is followed
    # only by qualifiers.
    candidates = []
    depth = 0
    i = 0
    while i < len(sig):
        c = sig[i]
        if c == "(":
            if depth == 0:
                m = re.search(r"((?:[A-Za-z_]\w*::)*(?:~?[A-Za-z_]\w*|operator\s*[^\s(]{1,3}))\s*$",
                              sig[:i])
                candidates.append((m.group(1).strip() if m else None, i))
            depth += 1
        elif c == ")":
            depth -= 1
        i += 1
    for name, pos in candidates:
        if name is None:
            continue
        simple = name.split("::")[-1]
        base = simple.lstrip("~")
        if base in NON_CALL_KEYWORDS or simple.startswith("operator"):
            # operator overloads and control keywords: not tracked nodes,
            # but "operator()" etc. still exclude the head from recursion.
            if simple.startswith("operator"):
                return ("<operator>", "<operator>")
            continue
        # Annotation macros like PRISTE_REQUIRES(mu_) name macros, not
        # functions; they are ALL_CAPS with underscores. The function name in
        # a real definition head is the first viable candidate.
        if re.fullmatch(r"[A-Z][A-Z0-9_]+", base) and base.startswith("PRISTE"):
            continue
        return (name, base)
    return None


def extract_functions(rel_path, clean_text):
    """Recovers function definitions by scanning for '{' and classifying the
    preceding head. Function bodies are consumed whole (nested braces, incl.
    lambdas, belong to the enclosing function); class/namespace/enum bodies
    are descended into."""
    functions = []
    n = len(clean_text)
    # Boundaries that can precede a definition head.
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
            # Not a function definition (or an operator we do not track):
            # descend into the braces. For operators, skip the whole body so
            # their calls do not pollute the enclosing scope... but operator
            # bodies are rare and tiny; descending is the conservative
            # (over-approximating) choice and keeps the scanner simple.
            prev_boundary = i + 1
            i += 1
            continue
        close = _matching_brace(clean_text, i)
        qualified, simple = named
        start_line = clean_text.count("\n", 0, prev_boundary +
                                      len(head) - len(head.lstrip())) + 1
        end_line = clean_text.count("\n", 0, close) + 1
        fn = Function(rel_path, qualified, simple, start_line, end_line,
                      head, clean_text[i + 1:close])
        fn.body_start_line = clean_text.count("\n", 0, i) + 1
        functions.append(fn)
        prev_boundary = close + 1
        i = close + 1
    return functions


def analyze_function(fn, waived):
    """Populates calls / allocs / aborts from the (cleaned) body text."""
    body_lines = fn.body.split("\n")
    for offset, line in enumerate(body_lines):
        lineno = fn.body_start_line + offset
        for m in CALL_RE.finditer(line):
            name = m.group(1)
            if name in NON_CALL_KEYWORDS:
                continue
            if re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
                continue  # macros are matched by dedicated token rules
            fn.calls.append((name, lineno))
        for pattern, why in HOT_PATH_ALLOC:
            if pattern.search(line):
                if lineno in waived.get("hot-path-alloc", ()) or \
                        lineno in waived.get("hot-path-alloc-transitive", ()):
                    continue
                fn.allocs.append((lineno, why))
        for pattern, why in ABORT_TOKENS:
            if pattern.search(line):
                if lineno in waived.get("no-abort-reachable", ()):
                    continue
                fn.aborts.append((lineno, why))


# --- Call graph -------------------------------------------------------------


class CallGraph:
    def __init__(self):
        self.functions = []            # all Function nodes
        self.by_simple = {}            # simple name -> [Function]
        self.waived = {}               # rel_path -> {rule: set(lines)}
        self.clean_text = {}           # rel_path -> fully cleaned text
        self.cache_hits = 0            # files served from the graph cache

    def add_file(self, rel_path, text):
        clean = strip_preprocessor(
            strip_line_comments(strip_comments_and_strings(text)))
        waived = suppressed_lines(text.split("\n"))
        fns = []
        for fn in extract_functions(rel_path, clean):
            analyze_function(fn, waived)
            fns.append(fn)
        self.install(rel_path, clean, waived, fns)
        return fns

    def install(self, rel_path, clean, waived, fns):
        """Registers one file's (possibly cache-restored) scan results."""
        self.waived[rel_path] = waived
        self.clean_text[rel_path] = clean
        for fn in fns:
            self.functions.append(fn)
            self.by_simple.setdefault(fn.simple, []).append(fn)

    def resolve(self, name):
        """All definitions a call to `name` may reach (over-approximate)."""
        return self.by_simple.get(name, ())

    def edge_waived(self, caller, line, rule):
        return line in self.waived.get(caller.rel_path, {}).get(rule, ())


def walk_paths(graph, root, is_sink, edge_rule, max_nodes=20000):
    """BFS from `root`; returns the shortest offending path as a list of
    (caller, call_line, callee) edges ending at a sink function, plus the sink
    detail (line, why) — or None when no sink is reachable. Edges carrying an
    `edge_rule` waiver are cut."""
    from collections import deque

    parent = {root: None}   # callee -> (caller, line)
    queue = deque([root])
    visited = 0
    while queue:
        fn = queue.popleft()
        visited += 1
        if visited > max_nodes:
            break
        detail = is_sink(fn) if fn is not root else None
        if detail:
            # Reconstruct the edge chain root -> ... -> fn.
            edges = []
            node = fn
            while parent[node] is not None:
                caller, line = parent[node]
                edges.append((caller, line, node))
                node = caller
            edges.reverse()
            return edges, detail
        for name, line in fn.calls:
            if graph.edge_waived(fn, line, edge_rule):
                continue
            for callee in graph.resolve(name):
                if callee is fn or callee in parent:
                    continue
                parent[callee] = (fn, line)
                queue.append(callee)
    return None


def format_path(root, edges, detail_line, detail_why):
    hops = [root.label]
    for _caller, line, callee in edges:
        hops.append(f"(:{line}) -> {callee.label}")
    chain = " ".join(hops)
    return f"{chain} [{detail_why} at line {detail_line}]"


# --- Rules ------------------------------------------------------------------


def rule_hot_path_alloc_transitive(graph):
    """Allocations reachable from PRISTE_HOT_PATH bodies through callees.
    Depth >= 1 only: direct allocations in the marked body itself are
    priste_lint's (lexical) hot-path-alloc rule."""
    findings = []
    reported = set()

    def sink(fn):
        if fn.allocs:
            return fn.allocs[0]
        return None

    for root in graph.functions:
        if not root.hot_path:
            continue
        result = walk_paths(graph, root, sink, "hot-path-alloc-transitive")
        if result is None:
            continue
        edges, (alloc_line, why) = result
        sink_fn = edges[-1][2]
        key = (root.rel_path, root.qualified, sink_fn.rel_path,
               sink_fn.qualified, alloc_line)
        if key in reported:
            continue
        reported.add(key)
        findings.append(Finding(
            root.rel_path, root.start_line, "hot-path-alloc-transitive",
            f"PRISTE_HOT_PATH {root.qualified} reaches an allocation: "
            + format_path(root, edges, alloc_line, why)))
    return findings


def rule_no_abort_reachable(graph):
    findings = []
    reported = set()

    def sink(fn):
        if fn.aborts:
            return fn.aborts[0]
        return None

    for root in graph.functions:
        if not root.no_abort:
            continue
        # The root's own body may abort too — report that directly.
        if root.aborts:
            line, why = root.aborts[0]
            findings.append(Finding(
                root.rel_path, line, "no-abort-reachable",
                f"PRISTE_NO_ABORT {root.qualified} aborts directly: {why}"))
            continue
        result = walk_paths(graph, root, sink, "no-abort-reachable")
        if result is None:
            continue
        edges, (abort_line, why) = result
        sink_fn = edges[-1][2]
        key = (root.rel_path, root.qualified, sink_fn.rel_path,
               sink_fn.qualified, abort_line)
        if key in reported:
            continue
        reported.add(key)
        findings.append(Finding(
            root.rel_path, root.start_line, "no-abort-reachable",
            f"PRISTE_NO_ABORT {root.qualified} reaches an abort: "
            + format_path(root, edges, abort_line, why)))
    return findings


def _returns_must_check(fn):
    # Return type = signature head minus the name/params. Lexical: look for
    # Result< before the function name's position, after stripping a
    # trailing `Class<...>::` scope qualifier so `bool Result<T>::ok()` does
    # not read as returning Result.
    name_pos = fn.head.rfind(fn.simple)
    prefix = fn.head if name_pos < 0 else fn.head[:name_pos]
    prefix = re.sub(r"[\w:]+\s*(?:<[^<>]*(?:<[^<>]*>[^<>]*)*>)?\s*::\s*$", "",
                    prefix)
    # Heads of constructors/destructors have no return type; `prefix` then
    # holds attributes/whitespace only and cannot match.
    return bool(MUST_CHECK_RETURN_RE.search(" " + prefix))


def rule_unchecked_result(graph):
    """Statement-position calls to Result-returning functions whose value is
    discarded, including (void)/static_cast<void> casts and
    comma-operator discards."""
    must_check = {fn.simple for fn in graph.functions
                  if _returns_must_check(fn)}

    findings = []
    for fn in graph.functions:
        body = fn.body
        for m in CALL_RE.finditer(body):
            name = m.group(1)
            if name not in must_check:
                continue
            lineno = fn.body_start_line + body.count("\n", 0, m.start())
            if graph.edge_waived(fn, lineno, "unchecked-result"):
                continue
            if _call_is_discarded(body, m):
                findings.append(Finding(
                    fn.rel_path, lineno, "unchecked-result",
                    f"{fn.qualified} discards the Result<T> returned by "
                    f"{name}() — handle it, propagate it (PRISTE_TRY), or "
                    "waive with allow(unchecked-result)"))
    return findings


def _call_is_discarded(body, match):
    """True when the matched call's value is dropped. Lexical statement-
    position test: what comes before the callee name, and what follows the
    matching ')'."""
    start = match.start()
    # Member calls (x.f() / x->f()) keep their object expression on the left;
    # scan past it to the true statement start.
    i = start - 1
    while i >= 0 and body[i] in " \t\n":
        i -= 1
    prev = body[i] if i >= 0 else "{"
    if prev in ".>":  # member access — walk left past the object expression
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
            elif depth == 0 and c in ";{}," and (c != "," or depth == 0):
                break
            j -= 1
        stmt_prefix = body[max(0, j):i + 1]
        prev = body[j] if j >= 0 else "{"
        i = j
        # The object expression may itself sit in value context:
        # `return obj.f()`, `x = obj.f()`, `cond ? obj.f() : y` all consume
        # the call's value even though the statement starts at ';'/'{'.
        if re.search(r"\breturn\b|\bco_return\b|\bco_yield\b|\bthrow\b|"
                     r"[=?]", stmt_prefix):
            return False
    else:
        stmt_prefix = ""
    # Find the end of the call: matching ')' of the argument list.
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
    after = body[k + 1:k + 40] if k < len(body) else ""
    after = after.lstrip()
    nxt = after[0] if after else ";"

    # Chained access on the returned value means it is consumed.
    if nxt in ".-" or after.startswith("->"):
        return False

    def word_before(pos):
        m2 = re.search(r"([A-Za-z_]\w*)\s*$", body[:pos + 1])
        return m2.group(1) if m2 else ""

    if prev in ";{}":
        pass  # statement start — candidate discard
    elif prev == ")":
        # `if (...) f();` / `(void) f();` — classify the closing group.
        g = body.rfind("(", 0, i)
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
        group = body[g + 1:i].strip()
        kw = word_before(g - 1)
        if group == "void":
            return True  # (void)f(): cast-laundered discard
        if kw in ("if", "while", "for", "switch"):
            return True  # `if (...) f();` — f's value dropped
        return False  # part of a larger expression
    elif prev == ",":
        # Comma: argument separator (value used) or comma operator (discard).
        # Walk left: if the enclosing open bracket is '(' or '[' or '{',
        # the comma separates arguments/initializers — value used.
        depth = 0
        j = i - 1
        while j >= 0:
            c = body[j]
            if c in ")]}":
                depth += 1
            elif c in "([{":
                if depth == 0:
                    return False  # inside an argument list
                depth -= 1
            elif c == ";" and depth == 0:
                return True  # comma operator at statement level
            j -= 1
        return True
    else:
        # Preceded by an identifier: `return f()` / `else f();` / declaration
        # `auto x = f()` has prev '='.
        w = word_before(i)
        if w in ("else", "do"):
            return True
        return False
    # Statement-start call: discarded unless wrapped via static_cast<void>
    # earlier on the line — but static_cast<void>(f()) parses with prev '('
    # and is handled above; std::ignore = f() parses with prev '='. A bare
    # `f();` or `f(), g();` lands here.
    if stmt_prefix:
        # Member call at statement start: `obj.f();` — still a discard.
        pass
    if nxt == ";":
        return True
    if nxt == ",":
        return True  # comma-operator chain at statement level
    return False


# --- Annotation cross-check (libclang, optional) ----------------------------


def verify_annotations_libclang(db, src_root):
    """When python3-clang is importable, parse one annotated TU and confirm
    both annotate attributes survive the build flags — a macro regression
    (PRISTE_NO_ABORT redefined empty under Clang) would silently disable the
    reachability rules. Mirrors priste_lint's cross-check."""
    try:
        from clang import cindex
        index = cindex.Index.create()
    except Exception:
        return
    from priste_lint import hot_path_extents_libclang
    marked = [e for e in db if "kernels" in e["file"]]
    for entry in marked[:1]:
        extents = hot_path_extents_libclang(cindex, index, entry)
        if extents is not None and not extents:
            print("priste_callgraph: WARNING: libclang saw no "
                  "priste_hot_path annotations in a kernel TU — the markers "
                  "may be compiled out", file=sys.stderr)


# --- Drivers ----------------------------------------------------------------


def relpath(path, src_root):
    try:
        return os.path.relpath(path, src_root).replace(os.sep, "/")
    except ValueError:
        return path.replace(os.sep, "/")


def collect_sources(compile_commands, src_root):
    """First-party files: src/ TUs named by the compilation DB plus all src/
    headers, plus tools/ (the CLI is a PRISTE_NO_ABORT entry point)."""
    files = set()
    with open(compile_commands, encoding="utf-8") as f:
        db = json.load(f)
    for entry in db:
        src = entry["file"]
        if not os.path.isabs(src):
            src = os.path.join(entry.get("directory", ""), src)
        src = os.path.abspath(src)
        rel = relpath(src, src_root)
        if rel.endswith(LINT_EXTENSIONS) and (
                rel.startswith("src/") or rel.startswith("tools/")):
            files.add(src)
    for tree in ("src", "tools"):
        base = os.path.join(src_root, tree)
        for root, _dirs, names in os.walk(base):
            if "lint" in root.split(os.sep):
                continue  # fixtures are linted by --self-test only
            for name in names:
                if name.endswith(".h"):
                    files.add(os.path.abspath(os.path.join(root, name)))
    return sorted(files), db


# --- Graph cache ------------------------------------------------------------
# The per-file extraction (comment stripping, brace matching, call-site
# scanning) is the expensive part of every whole-program gate, and three gates
# now run it over the same tree (priste_lint's libclang cross-check aside:
# lint.callgraph_src_clean, lint.concurrency_src_clean, and tier1/CI reruns).
# One JSON cache keyed on each file's CONTENT HASH shares the parse between
# them: any gate that finds a fresh hash re-extracts just that file and
# rewrites the cache atomically (os.replace), so parallel ctest gates never
# read a torn file — at worst both write identical content.

_FN_FIELDS = ("rel_path", "qualified", "simple", "start_line", "end_line",
              "head", "body", "body_start_line", "hot_path", "no_abort",
              "calls", "allocs", "aborts")


def _fn_to_record(fn):
    return {field: getattr(fn, field) for field in _FN_FIELDS}


def _fn_from_record(rec):
    fn = Function(rec["rel_path"], rec["qualified"], rec["simple"],
                  rec["start_line"], rec["end_line"], rec["head"],
                  rec["body"])
    fn.body_start_line = rec["body_start_line"]
    fn.hot_path = rec["hot_path"]
    fn.no_abort = rec["no_abort"]
    fn.calls = [tuple(c) for c in rec["calls"]]
    fn.allocs = [tuple(a) for a in rec["allocs"]]
    fn.aborts = [tuple(a) for a in rec["aborts"]]
    return fn


def load_graph_cache(cache_path):
    if not cache_path or not os.path.exists(cache_path):
        return {}
    try:
        with open(cache_path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError):
        return {}  # unreadable/corrupt cache: rebuild from scratch
    if data.get("version") != GRAPH_CACHE_VERSION:
        return {}
    files = data.get("files", {})
    return files if isinstance(files, dict) else {}


def save_graph_cache(cache_path, entries):
    payload = {"version": GRAPH_CACHE_VERSION, "files": entries}
    directory = os.path.dirname(os.path.abspath(cache_path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lint_graph_cache.")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        os.replace(tmp, cache_path)
    except OSError:
        pass  # the cache is an optimization; gates stay correct without it


def default_cache_path(compile_commands):
    return os.path.join(os.path.dirname(os.path.abspath(compile_commands)),
                        "lint_graph_cache.json")


def build_graph(paths, src_root, cache_path=None):
    graph = CallGraph()
    cached = load_graph_cache(cache_path)
    fresh = {}
    for path in paths:
        rel = relpath(path, src_root)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"priste_callgraph: cannot read {rel}: {e}", file=sys.stderr)
            continue
        sha = hashlib.sha1(text.encode("utf-8", "replace")).hexdigest()
        entry = cached.get(rel)
        if entry and entry.get("sha") == sha:
            graph.cache_hits += 1
            waived = {rule: set(lines)
                      for rule, lines in entry["waived"].items()}
            graph.install(rel, entry["clean"], waived,
                          [_fn_from_record(r) for r in entry["functions"]])
        else:
            fns = graph.add_file(rel, text)
            entry = {
                "sha": sha,
                "clean": graph.clean_text[rel],
                "waived": {rule: sorted(lines)
                           for rule, lines in graph.waived[rel].items()},
                "functions": [_fn_to_record(fn) for fn in fns],
            }
        fresh[rel] = entry
    if cache_path and fresh != cached:
        save_graph_cache(cache_path, fresh)
    return graph


def run_rules(graph):
    findings = []
    findings.extend(rule_hot_path_alloc_transitive(graph))
    findings.extend(rule_no_abort_reachable(graph))
    findings.extend(rule_unchecked_result(graph))
    return findings


def run(compile_commands, src_root, dump_graph=False, cache_path=None):
    files, db = collect_sources(compile_commands, src_root)
    graph = build_graph(files, src_root, cache_path=cache_path)
    print(f"priste_callgraph: {len(files)} files "
          f"({graph.cache_hits} from graph cache), "
          f"{len(graph.functions)} functions, "
          f"{sum(len(f.calls) for f in graph.functions)} call sites",
          file=sys.stderr)
    if dump_graph:
        for fn in graph.functions:
            flags = "".join(
                s for s, on in (("H", fn.hot_path), ("N", fn.no_abort),
                                ("A", bool(fn.allocs)), ("X", bool(fn.aborts)))
                if on)
            print(f"{fn.rel_path}:{fn.start_line} {fn.qualified} [{flags}] "
                  f"-> {sorted({c for c, _ in fn.calls})}")
    verify_annotations_libclang(db, src_root)
    return run_rules(graph)


# --- Self-test --------------------------------------------------------------


def run_self_test(src_root):
    """Negative test: seeded fixtures MUST produce exactly these findings.
    In particular, bad_transitive_alloc.cc is the case priste_lint's lexical
    hot-path-alloc rule passes clean — a marked kernel calling an allocating
    HELPER — and it must be flagged here."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures")
    cases = {
        "bad_transitive_alloc.cc": {"hot-path-alloc-transitive": 2},
        "bad_lambda_hoist.cc": {"hot-path-alloc-transitive": 2},
        "bad_no_abort.cc": {"no-abort-reachable": 4},
        "bad_unchecked_result.cc": {"unchecked-result": 4},
        "good_callgraph.cc": {},
    }
    failures = []
    for name, expected in cases.items():
        path = os.path.join(fixtures, name)
        graph = build_graph([path], src_root=fixtures)
        findings = run_rules(graph)
        got = {}
        for f in findings:
            got[f.rule] = got.get(f.rule, 0) + 1
        if got != expected:
            failures.append(f"{name}: expected {expected}, got {got}")
            for f in findings:
                print(f"  {f}", file=sys.stderr)
    # The lexical-gap proof: priste_lint's body-only rule must NOT fire on
    # the transitive fixture (it allocates only in the helper), while this
    # tool does. If priste_lint ever starts flagging it, the fixture no
    # longer demonstrates the gap and must be revisited.
    from priste_lint import lint_fixture
    lexical = lint_fixture(os.path.join(fixtures, "bad_transitive_alloc.cc"),
                           "src/priste/fixture/bad_transitive_alloc.cc")
    lexical_hot = [f for f in lexical if f.rule == "hot-path-alloc"]
    if lexical_hot:
        failures.append(
            "bad_transitive_alloc.cc: priste_lint's lexical rule now fires "
            "on it; the fixture no longer isolates the transitive gap")
    if failures:
        for f in failures:
            print(f"priste_callgraph self-test FAILED: {f}", file=sys.stderr)
        return 1
    print(f"priste_callgraph self-test OK ({len(cases)} fixtures; lexical "
          "rule confirmed blind to the transitive case)", file=sys.stderr)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compile-commands",
                        help="path to compile_commands.json")
    parser.add_argument("--src-root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-fixture negative test")
    parser.add_argument("--dump-graph", action="store_true",
                        help="print the resolved call graph (debug)")
    parser.add_argument("--cache", default=None,
                        help="graph-cache JSON path shared between lint "
                             "gates (default: lint_graph_cache.json next to "
                             "the compile_commands; pass '' to disable)")
    args = parser.parse_args()

    started = time.monotonic()
    src_root = os.path.abspath(args.src_root)
    if args.self_test:
        return run_self_test(src_root)
    if not args.compile_commands:
        parser.error("--compile-commands is required (or use --self-test)")
    cache_path = args.cache
    if cache_path is None:
        cache_path = default_cache_path(args.compile_commands)
    findings = run(args.compile_commands, src_root, args.dump_graph,
                   cache_path=cache_path or None)
    for f in findings:
        print(f)
    wall = time.monotonic() - started
    if findings:
        print(f"priste_callgraph: {len(findings)} finding(s) "
              f"[wall {wall:.2f}s]", file=sys.stderr)
        return 1
    print(f"priste_callgraph: clean [wall {wall:.2f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
