#!/usr/bin/env python3
"""priste_concurrency: whole-program concurrency-contract lint for PriSTE.

Shares priste_callgraph's lexical call-graph core (and its on-disk graph
cache) and checks two TRANSITIVE concurrency rules that neither clang's
-Wthread-safety (function-local) nor TSan (dynamic, schedule-dependent) can
enforce statically across the whole tree:

  lock-order
      Every priste::Mutex member carries a PRISTE_LOCK_LEVEL(n) annotation
      (common/thread_annotations.h documents the hierarchy). Each RAII
      `MutexLock lock(&m)` acquisition opens a held region; every acquisition
      nested in that region — directly or through any chain of calls —
      contributes an inter-level edge. The rule fails on:
        * a same-level edge (level N acquired while a level-N mutex is held:
          self-deadlock across instances, guaranteed deadlock on the same
          instance — priste::Mutex is non-reentrant);
        * any cycle in the inter-level graph (two threads taking the levels
          in opposite orders can deadlock);
        * a Mutex member with NO level annotation (completeness: an
          unclassified mutex is invisible to the hierarchy); and
        * a MutexLock whose target resolves to no annotated declaration.
      A lone descending edge is reported in the machine-readable graph
      (--emit-graph) but does not fail by itself — it only deadlocks once a
      complementary edge completes a cycle. Waive an edge with
      `// priste-lint: allow(lock-order)` on the inner acquisition or call
      line; the root-cause justification on the waiver line is mandatory
      (rule `bare-waiver`).

  blocking-under-lock
      No function transitively reachable while a MutexLock is held may block
      the calling thread: condition-variable waits, ThreadPool::Submit /
      ParallelFor, file IO, sleeps and deadline waits, thread joins. The
      blocking set is seeded two ways: the PRISTE_BLOCKING annotation (read
      from declarations as well as definitions, so a header-annotated
      function whose definition lives in a .cc is still a sink) and a
      built-in token list (sleep family, C stdio, fstream, getline, join,
      system). The sanctioned exception is a condvar wait, which releases
      the mutex while sleeping — waive it at the Wait call with
      allow(blocking-under-lock) and a justification.

  bare-waiver
      Any `// priste-lint: allow(<rule>)` with no justification text on the
      waiver line. Waivers are contracts with the next reader; an
      unexplained one is itself a finding, in every rule's scope.

Usage:
  priste_concurrency.py --compile-commands build/compile_commands.json \
      [--src-root .] [--emit-graph build/lock_order.json]
  priste_concurrency.py --self-test   # seeded fixtures must FAIL correctly
"""

import argparse
import json
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from priste_callgraph import (  # noqa: E402
    CALL_RE,
    NON_CALL_KEYWORDS,
    Finding,
    build_graph,
    collect_sources,
    default_cache_path,
)
from priste_lint import SUPPRESS_RE  # noqa: E402

# `Mutex name [PRISTE_LOCK_LEVEL(n)];` — value members only: pointer /
# reference declarations (e.g. MutexLock's `Mutex* const mu_`) alias a mutex
# declared elsewhere and are not classification sites.
MUTEX_DECL_RE = re.compile(
    r"(?<![\w:])Mutex\s+([A-Za-z_]\w*)\s*"
    r"(?:PRISTE_LOCK_LEVEL\s*\(\s*(\d+)\s*\))?\s*;")

# RAII acquisition: `MutexLock lock(&expr);` — the only sanctioned way to
# hold a priste::Mutex outside mutex.h itself.
ACQUIRE_RE = re.compile(
    r"\bMutexLock\s+\w+\s*\(\s*&\s*((?:[\w\[\]]|->|\.)+?)\s*\)")

BLOCKING_MARKER = "PRISTE_BLOCKING"

# Direct blocking tokens: each blocks the calling thread for an unbounded
# (or scheduler-determined) time. PRISTE_BLOCKING-annotated functions extend
# this set at the call-graph level.
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

GRAPH_FORMAT_VERSION = 1


# --- Per-file facts ----------------------------------------------------------


def mutex_decls(graph):
    """rel_path -> [{name, level, line}] for every Mutex value member, read
    from the cleaned file text (declarations live outside function bodies,
    so Function records cannot carry them)."""
    decls = {}
    for rel in sorted(graph.clean_text):
        clean = graph.clean_text[rel]
        for m in MUTEX_DECL_RE.finditer(clean):
            decls.setdefault(rel, []).append({
                "name": m.group(1),
                "level": int(m.group(2)) if m.group(2) else None,
                "line": clean.count("\n", 0, m.start()) + 1,
            })
    return decls


def resolve_levels(decls, rel, target):
    """Levels a `MutexLock lock(&target)` may acquire. The final path
    component is matched against declarations in the SAME file first (the
    common case: Shard::mu, LoopState::mu and Impl::mu all share the member
    name `mu` but never leave their file), then against the whole tree.
    Returns (sorted levels, declaration-found)."""
    base = re.split(r"->|\.", target)[-1].split("[", 1)[0]
    local = [d for d in decls.get(rel, ()) if d["name"] == base]
    pool = local or [d for ds in decls.values() for d in ds
                     if d["name"] == base]
    return (sorted({d["level"] for d in pool if d["level"] is not None}),
            bool(pool))


def blocking_names(graph):
    """Simple names of functions marked PRISTE_BLOCKING anywhere — including
    pure declarations (Submit/ParallelFor are annotated in thread_pool.h,
    defined unannotated in the .cc)."""
    names = set()
    for rel in sorted(graph.clean_text):
        clean = graph.clean_text[rel]
        for m in re.finditer(r"\bPRISTE_BLOCKING\b", clean):
            tail = clean[m.end():m.end() + 400]
            for stop_ch in (";", "{"):
                pos = tail.find(stop_ch)
                if pos != -1:
                    tail = tail[:pos]
            for cm in CALL_RE.finditer(tail):
                name = cm.group(1)
                if name in NON_CALL_KEYWORDS or \
                        re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
                    continue
                names.add(name)
                break
    return names


class Facts:
    """Concurrency-relevant facts of one function body."""

    def __init__(self):
        self.acquisitions = []    # [(line, target, levels, resolved, waived)]
        self.blocking_tokens = []  # [(line, why)] minus waived lines
        self.blocking_calls = []  # [(line, name)] calls into blocking_names


def collect_facts(graph, decls, bnames):
    facts = {}
    for fn in graph.functions:
        f = Facts()
        for m in ACQUIRE_RE.finditer(fn.body):
            line = fn.body_start_line + fn.body.count("\n", 0, m.start())
            target = m.group(1)
            levels, resolved = resolve_levels(decls, fn.rel_path, target)
            f.acquisitions.append(
                (line, target, levels, resolved,
                 graph.edge_waived(fn, line, "lock-order")))
        for offset, text in enumerate(fn.body.split("\n")):
            line = fn.body_start_line + offset
            if graph.edge_waived(fn, line, "blocking-under-lock"):
                continue
            for pattern, why in BLOCKING_TOKENS:
                if pattern.search(text):
                    f.blocking_tokens.append((line, why))
        for name, line in fn.calls:
            if name in bnames and \
                    not graph.edge_waived(fn, line, "blocking-under-lock"):
                f.blocking_calls.append((line, name))
        facts[fn] = f
    return facts


def is_blocking_sink(fn, facts, bnames):
    return (BLOCKING_MARKER in fn.head or fn.simple in bnames
            or bool(facts[fn].blocking_tokens)
            or bool(facts[fn].blocking_calls))


# --- Held regions -------------------------------------------------------------


class HeldRegion:
    def __init__(self, line, target, levels, depth):
        self.line = line          # acquisition line
        self.target = target
        self.levels = levels
        self.depth = depth        # brace depth at acquisition
        self.end = None           # last line the lock is held on


def held_regions(fn):
    """Line-granular RAII extents: a MutexLock is held from its declaration
    to the line that closes its enclosing block (or the end of the body)."""
    lines = fn.body.split("\n")
    regions = []
    depth = 0
    for offset, text in enumerate(lines):
        lineno = fn.body_start_line + offset
        m = ACQUIRE_RE.search(text)
        if m:
            at = depth + text[:m.start()].count("{") - \
                text[:m.start()].count("}")
            regions.append(HeldRegion(lineno, m.group(1), None, at))
        depth += text.count("{") - text.count("}")
        for r in regions:
            if r.end is None and depth < r.depth:
                r.end = lineno
    last = fn.body_start_line + len(lines) - 1
    for r in regions:
        if r.end is None:
            r.end = last
    return regions


# --- Reachability -------------------------------------------------------------


def reach(graph, start, rule, cache):
    """BFS parent map from `start` (insertion order = shortest-path order).
    Call edges carrying an allow(<rule>) waiver are cut."""
    key = (id(start), rule)
    if key in cache:
        return cache[key]
    parent = {start: None}
    queue = [start]
    while queue:
        fn = queue.pop(0)
        for name, line in fn.calls:
            if graph.edge_waived(fn, line, rule):
                continue
            for callee in graph.resolve(name):
                if callee is fn or callee in parent:
                    continue
                parent[callee] = (fn, line)
                queue.append(callee)
    cache[key] = parent
    return parent


def chain_text(root, root_line, node, parent):
    """`root (:line) -> ... -> node` using the BFS parent map."""
    hops = []
    cur = node
    while parent.get(cur) is not None:
        caller, line = parent[cur]
        hops.append((line, cur))
        cur = caller
    hops.reverse()
    text = root.label + f" (:{root_line})"
    for line, callee in hops[1:]:
        text += f" -> {callee.label} (:{line})"
    if not hops:
        return text
    return text


def full_chain(fn, call_line, callee, sink, parent):
    hops = [f"{fn.label} (:{call_line})", callee.label]
    path = []
    cur = sink
    while cur is not callee and parent.get(cur) is not None:
        caller, line = parent[cur]
        path.append(f"(:{line}) -> {cur.label}")
        cur = caller
    path.reverse()
    return " -> ".join(hops) + (" " + " ".join(path) if path else "")


# --- Rules --------------------------------------------------------------------


class Edge:
    def __init__(self, src, dst, fn, hold_line, detail):
        self.src = src
        self.dst = dst
        self.fn = fn
        self.hold_line = hold_line
        self.detail = detail

    def key(self):
        return (self.src, self.dst, self.fn.rel_path, self.hold_line,
                self.detail)


def collect_edges_and_blocking(graph, facts, bnames):
    """One pass over every held region: lock-level edges (direct + through
    calls) and blocking-under-lock findings."""
    edges = {}
    blocking = []
    seen_block = set()
    cache = {}
    for fn in graph.functions:
        f = facts[fn]
        if not f.acquisitions:
            continue
        acq_by_line = {line: (target, levels, resolved, waived)
                       for line, target, levels, resolved, waived
                       in f.acquisitions}
        for region in held_regions(fn):
            _, levels, _, _ = acq_by_line.get(
                region.line, (None, [], True, False))
            region.levels = levels
            if not levels:
                continue  # unresolved/unclassified: reported separately
            # Direct nested acquisitions.
            for line, target, lv2, resolved, waived in f.acquisitions:
                if line <= region.line or line > region.end or waived:
                    continue
                for l1 in levels:
                    for l2 in lv2:
                        e = Edge(l1, l2, fn, region.line,
                                 f"{fn.label} holds {region.target} "
                                 f"(level {l1}, :{region.line}) and takes "
                                 f"{target} (level {l2}, :{line})")
                        edges.setdefault(e.key(), e)
            # Direct blocking tokens.
            for line, why in f.blocking_tokens:
                if region.line < line <= region.end:
                    k = (fn.rel_path, region.line, line, why)
                    if k not in seen_block:
                        seen_block.add(k)
                        blocking.append(Finding(
                            fn.rel_path, line, "blocking-under-lock",
                            f"{fn.qualified} blocks ({why}) while holding "
                            f"{region.target} (level {levels[0]}, acquired "
                            f":{region.line})"))
            # Calls inside the region: blocking-by-name, then transitive.
            for name, line in fn.calls:
                if not (region.line <= line <= region.end):
                    continue
                lock_cut = graph.edge_waived(fn, line, "lock-order")
                block_cut = graph.edge_waived(fn, line,
                                              "blocking-under-lock")
                if name in bnames and not block_cut:
                    k = (fn.rel_path, region.line, line, name)
                    if k not in seen_block:
                        seen_block.add(k)
                        blocking.append(Finding(
                            fn.rel_path, line, "blocking-under-lock",
                            f"{fn.qualified} calls PRISTE_BLOCKING {name}() "
                            f"while holding {region.target} (acquired "
                            f":{region.line})"))
                for callee in graph.resolve(name):
                    if callee is fn:
                        continue
                    if not lock_cut:
                        parent = reach(graph, callee, "lock-order", cache)
                        for s in parent:
                            for sl, st, lv2, _res, waived in \
                                    facts[s].acquisitions:
                                if waived:
                                    continue
                                chain = full_chain(fn, line, callee, s,
                                                   parent)
                                for l1 in levels:
                                    for l2 in lv2:
                                        e = Edge(
                                            l1, l2, fn, region.line,
                                            f"{fn.label} holds "
                                            f"{region.target} (level {l1}, "
                                            f":{region.line}); path {chain} "
                                            f"takes {st} (level {l2}, "
                                            f":{sl})")
                                        edges.setdefault(e.key(), e)
                    if not block_cut:
                        parent = reach(graph, callee,
                                       "blocking-under-lock", cache)
                        for s in parent:
                            if not is_blocking_sink(s, facts, bnames):
                                continue
                            k = (fn.rel_path, region.line, line, s.label)
                            if k in seen_block:
                                break
                            seen_block.add(k)
                            detail = (facts[s].blocking_tokens or
                                      facts[s].blocking_calls)
                            why = (f"{detail[0][1]} at :{detail[0][0]}"
                                   if detail else "PRISTE_BLOCKING")
                            blocking.append(Finding(
                                fn.rel_path, line, "blocking-under-lock",
                                f"{fn.qualified} holds {region.target} "
                                f"(acquired :{region.line}) and reaches "
                                f"blocking {s.qualified} [{why}] via "
                                + full_chain(fn, line, callee, s, parent)))
                            break  # shortest sink per call edge suffices
    return list(edges.values()), blocking


def find_cycles(adj):
    """Directed cycles over the (small) level graph; one representative per
    distinct node set."""
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


def rule_lock_order(graph, facts, decls, edges):
    findings = []
    # Same-level nesting: every edge is a finding.
    for e in sorted(edges, key=Edge.key):
        if e.src == e.dst:
            findings.append(Finding(
                e.fn.rel_path, e.hold_line, "lock-order",
                f"same-level acquisition (level {e.src} under level "
                f"{e.dst}): {e.detail}"))
    # Cycles through distinct levels.
    adj = {}
    for e in edges:
        if e.src != e.dst:
            adj.setdefault(e.src, set()).add(e.dst)
    for cyc in find_cycles(adj):
        examples = []
        for a, b in zip(cyc, cyc[1:]):
            for e in sorted(edges, key=Edge.key):
                if e.src == a and e.dst == b:
                    examples.append(e.detail)
                    break
        anchor = next((e for e in sorted(edges, key=Edge.key)
                       if e.src == cyc[0] and e.dst == cyc[1]), None)
        findings.append(Finding(
            anchor.fn.rel_path if anchor else "<graph>",
            anchor.hold_line if anchor else 0, "lock-order",
            "lock-level cycle " + " -> ".join(str(l) for l in cyc)
            + ": " + "; ".join(examples)))
    # Completeness: unclassified declarations and unresolved acquisitions.
    for rel in sorted(decls):
        for d in decls[rel]:
            if d["level"] is None and d["line"] not in \
                    graph.waived.get(rel, {}).get("lock-order", ()):
                findings.append(Finding(
                    rel, d["line"], "lock-order",
                    f"Mutex member '{d['name']}' carries no "
                    "PRISTE_LOCK_LEVEL(n) — every mutex must be placed in "
                    "the lock hierarchy (common/thread_annotations.h)"))
    for fn in graph.functions:
        for line, target, levels, resolved, waived in \
                facts[fn].acquisitions:
            if not resolved and not waived:
                findings.append(Finding(
                    fn.rel_path, line, "lock-order",
                    f"{fn.qualified} locks '{target}', which matches no "
                    "Mutex member declaration — the hierarchy cannot "
                    "classify it"))
    return findings


def rule_bare_waiver(rel, raw_text):
    findings = []
    for idx, line in enumerate(raw_text.split("\n"), start=1):
        for m in SUPPRESS_RE.finditer(line):
            if not line[m.end():].strip():
                findings.append(Finding(
                    rel, idx, "bare-waiver",
                    f"allow({m.group(1)}) carries no root-cause "
                    "justification on the waiver line"))
    return findings


# --- Machine-readable lock graph ----------------------------------------------


def emit_graph(path, decls, edges, bnames, findings):
    mutexes = []
    for rel in sorted(decls):
        for d in decls[rel]:
            mutexes.append({"file": rel, "name": d["name"],
                            "line": d["line"], "level": d["level"]})
    payload = {
        "version": GRAPH_FORMAT_VERSION,
        "mutexes": mutexes,
        "edges": [{"from": e.src, "to": e.dst, "file": e.fn.rel_path,
                   "function": e.fn.qualified, "held_from_line": e.hold_line,
                   "detail": e.detail}
                  for e in sorted(edges, key=Edge.key)],
        "blocking_functions": sorted(bnames),
        "findings": len(findings),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


# --- Drivers --------------------------------------------------------------------


def analyze_graph(graph, raw_by_rel):
    decls = mutex_decls(graph)
    bnames = blocking_names(graph)
    facts = collect_facts(graph, decls, bnames)
    edges, blocking = collect_edges_and_blocking(graph, facts, bnames)
    findings = []
    findings.extend(rule_lock_order(graph, facts, decls, edges))
    findings.extend(blocking)
    for rel in sorted(raw_by_rel):
        findings.extend(rule_bare_waiver(rel, raw_by_rel[rel]))
    return findings, decls, edges, bnames


def run(compile_commands, src_root, cache_path=None, graph_out=None):
    files, _db = collect_sources(compile_commands, src_root)
    graph = build_graph(files, src_root, cache_path=cache_path)
    raw_by_rel = {}
    for path in files:
        rel = os.path.relpath(path, src_root).replace(os.sep, "/")
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw_by_rel[rel] = f.read()
        except OSError:
            continue
    findings, decls, edges, bnames = analyze_graph(graph, raw_by_rel)
    n_levels = len({d['level'] for ds in decls.values() for d in ds
                    if d['level'] is not None})
    print(f"priste_concurrency: {len(files)} files "
          f"({graph.cache_hits} from graph cache), "
          f"{sum(len(ds) for ds in decls.values())} mutexes / "
          f"{n_levels} levels, {len(edges)} inter-level edges, "
          f"{len(bnames)} blocking functions", file=sys.stderr)
    if graph_out:
        emit_graph(graph_out, decls, edges, bnames, findings)
        print(f"priste_concurrency: lock graph written to {graph_out}",
              file=sys.stderr)
    return findings


# --- Self-test ------------------------------------------------------------------


def run_self_test():
    """Negative test: the seeded fixtures MUST produce exactly these
    findings — proof each rule fires — and the good fixture none."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures")
    cases = {
        "bad_lock_order.cc": {"lock-order": 3, "bare-waiver": 1},
        "bad_blocking_under_lock.cc": {"blocking-under-lock": 3},
        "good_concurrency.cc": {},
    }
    failures = []
    for name, expected in cases.items():
        path = os.path.join(fixtures, name)
        graph = build_graph([path], src_root=fixtures)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        rel = os.path.basename(path)
        findings, decls, edges, bnames = analyze_graph(graph, {rel: raw})
        got = {}
        for f2 in findings:
            got[f2.rule] = got.get(f2.rule, 0) + 1
        if got != expected:
            failures.append(f"{name}: expected {expected}, got {got}")
            for f2 in findings:
                print(f"  {f2}", file=sys.stderr)
        if name == "bad_lock_order.cc":
            # The machine-readable graph must round-trip and carry the edges
            # the findings were derived from.
            import tempfile
            fd, tmp = tempfile.mkstemp(suffix=".json")
            os.close(fd)
            try:
                emit_graph(tmp, decls, edges, bnames, findings)
                with open(tmp, encoding="utf-8") as f:
                    payload = json.load(f)
                if not payload["edges"] or not payload["mutexes"]:
                    failures.append(f"{name}: emitted lock graph is empty")
            finally:
                os.unlink(tmp)
    if failures:
        for f2 in failures:
            print(f"priste_concurrency self-test FAILED: {f2}",
                  file=sys.stderr)
        return 1
    print(f"priste_concurrency self-test OK ({len(cases)} fixtures; "
          "lock-order and blocking-under-lock both fire)",
          file=sys.stderr)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compile-commands",
                        help="path to compile_commands.json")
    parser.add_argument("--src-root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-fixture negative test")
    parser.add_argument("--emit-graph", default=None, metavar="PATH",
                        help="write the machine-readable lock-order graph "
                             "(levels, edges, blocking set) as JSON")
    parser.add_argument("--cache", default=None,
                        help="graph-cache JSON path shared with "
                             "priste_callgraph (default: "
                             "lint_graph_cache.json next to the "
                             "compile_commands; pass '' to disable)")
    args = parser.parse_args()

    started = time.monotonic()
    if args.self_test:
        return run_self_test()
    if not args.compile_commands:
        parser.error("--compile-commands is required (or use --self-test)")
    cache_path = args.cache
    if cache_path is None:
        cache_path = default_cache_path(args.compile_commands)
    findings = run(args.compile_commands, os.path.abspath(args.src_root),
                   cache_path=cache_path or None, graph_out=args.emit_graph)
    for f in findings:
        print(f)
    wall = time.monotonic() - started
    if findings:
        print(f"priste_concurrency: {len(findings)} finding(s) "
              f"[wall {wall:.2f}s]", file=sys.stderr)
        return 1
    print(f"priste_concurrency: clean [wall {wall:.2f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
