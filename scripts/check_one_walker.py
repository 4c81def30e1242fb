#!/usr/bin/env python3
"""Keeps one schedule interpreter in the workspace.

`orion_runtime::walk` and the `Walker` it steps (in
``crates/runtime/src/threaded.rs``) are the only code that runs a
compiled plan's execs and forwards time partitions: the simulated
executor steps a walker per worker over virtual links, the thread pool
walks over channels, the TCP node over sockets. A second hand-written
copy of that loop shows up as a reader of the plan's internals, so this
check fails when any ``.rs`` file under ``crates/``

- ``edges``: calls ``forwards_of(`` or binds a ``next_forward`` (reads
  the forwarding edges);
- ``execs``: calls ``execs_of(`` (reads a worker's execution list);
- ``steps``: reads ``.steps`` (the schedule's step plan, which only the
  plan compiler, `Schedule` itself and the static O100 check read);
- ``walker``: inside ``threaded.rs``, reads ``.per_worker`` or
  ``.forward`` outside the walker's and the plan's own functions;
- ``pool``: inside ``threaded.rs``, calls ``walk(``, ``dispatch(`` or
  ``channel(`` anywhere but the one pooled walk (``pool_walk``), which
  builds the parcel channels and dispatches a walker per worker; the
  pooled readout may only dispatch, and ``dispatch`` only build its
  result channel,

unless the enclosing function (or, for ``*``, the whole file) is in that
rule's ``ALLOWED`` table — for an entry given as ``(why, calls)``, only
for the named calls. An entry that no longer matches anything is an
error too: delete it.

``--self-test`` runs the check over a generated tree with one offender
per rule, and fails unless exactly those five are reported.

Exit status is non-zero on any finding.
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADED = "crates/runtime/src/threaded.rs"

# rule → (pattern, files it applies to (None: all), {(file, fn): why}).
RULES = {
    "edges": (
        re.compile(r"\bforwards_of\(|\blet\s+(?:mut\s+)?next_forward\b"),
        None,
        {
            (THREADED, "forwards_of"): "the accessor itself",
            ("crates/check/src/hb.rs", "plan_event_log"): "the reference log the "
            "conformance tests compare the walker against; it must not share its code",
            ("crates/net/src/plan.rs", "plan_fingerprint"): "hashes the edges into "
            "the handshake fingerprint; walks nothing",
        },
    ),
    "execs": (
        re.compile(r"\bexecs_of\("),
        None,
        {
            (THREADED, "execs_of"): "the accessor itself",
            ("crates/check/src/hb.rs", "plan_event_log"): "the reference log",
            ("crates/net/src/plan.rs", "plan_fingerprint"): "hashes the execution "
            "lists into the handshake fingerprint",
        },
    ),
    "steps": (
        re.compile(r"\.steps\b"),
        None,
        {
            (THREADED, "compile"): "compiles the step plan into per-worker lists",
            ("crates/runtime/src/schedule.rs", "*"): "`Schedule`, its builders and "
            "its own methods",
            ("crates/check/src/race.rs", "check_schedule"): "the static O100 check "
            "of the step plan itself",
        },
    ),
    "walker": (
        re.compile(r"\.(?:per_worker|forward)\b"),
        {THREADED},
        {
            (THREADED, fn): "the plan's and the walker's own functions"
            for fn in ("worker_positions", "execs_of", "exec_count", "forwards_of", "new")
        },
    ),
    "pool": (
        re.compile(r"\b(walk|dispatch|channel)\("),
        {THREADED},
        {
            (THREADED, "pool_walk"): "the one pooled walk every pool pass runs",
            (THREADED, "run_readout_pooled"): ("the pooled readout walks nothing",
                                               {"dispatch"}),
            (THREADED, "dispatch"): ("its result channel carries no parcel", {"channel"}),
        },
    ),
}

FN = re.compile(r"^\s*(?:pub(?:\([\w:]+\))?\s+)?fn\s+(\w+)")


def findings(root: Path, rules):
    """Yields `(rule, file, enclosing fn, line number, call)` for every
    match; `call` is the pattern's group, if it has one."""
    for path in sorted((root / "crates").rglob("*.rs")):
        if "target" in path.parts:
            continue
        rel = path.relative_to(root).as_posix()
        active = [(name, pat) for name, (pat, files, _) in rules.items()
                  if files is None or rel in files]
        enclosing = None
        for n, line in enumerate(path.read_text().splitlines(), 1):
            m = FN.match(line)
            if m:
                enclosing = m.group(1)
            for name, pat in active:
                m = pat.search(line)
                if m:
                    yield name, rel, enclosing, n, m.group(m.lastindex or 0)


def check(root: Path, rules) -> list[str]:
    errors, used = [], set()
    for rule, rel, fn, n, call in findings(root, rules):
        allowed = rules[rule][2]
        key = next((k for k in ((rel, fn), (rel, "*")) if k in allowed), None)
        if key and isinstance(allowed[key], tuple) and call not in allowed[key][1]:
            key = None
        if key:
            used.add((rule, key))
        else:
            errors.append(
                f"{rel}:{n}: [{rule}] `{fn}` reads the plan's internals itself; "
                "step an `orion_runtime` walker over a `Transport` instead"
            )
    for rule, (_, _, allowed) in rules.items():
        for key in sorted(set(allowed) - {k for r, k in used if r == rule}):
            errors.append(f"[{rule}] ALLOWED names `{key[1]}` in {key[0]}, "
                          "which matches nothing now: drop it")
    return errors


def report(errors: list[str]) -> int:
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} second interpreter(s)", file=sys.stderr)
        return 1
    print("check_one_walker: one schedule interpreter (orion_runtime::walk)")
    return 0


def self_test() -> int:
    """Each rule must fire on its seeded offender, and nothing else."""
    files = {
        "crates/x/src/lib.rs": "fn edge_reader(p: &P) { for f in p.forwards_of(0) {} }\n"
        "fn exec_loop(p: &P) { for e in p.execs_of(0) {} }\n"
        "fn step_loop(s: &S) { for st in &s.steps {} }\n",
        THREADED: "fn second_pass(plan: &ThreadedPlan) {\n"
        "    for e in &plan.per_worker[0] {}\n}\n"
        "fn second_pool_walk(pool: &WorkerPool, plan: &ThreadedPlan) {\n"
        "    dispatch(pool, queues, |w, q| walk(plan, w, q, &mut wire, start, f));\n}\n",
    }
    rules = {name: (pat, files_, {}) for name, (pat, files_, _) in RULES.items()}
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            status = report(check(root, rules))
    reported = sorted(re.findall(r"\[(\w+)\] `(\w+)`", out.getvalue()))
    expected = [("edges", "edge_reader"), ("execs", "exec_loop"), ("pool", "second_pool_walk"),
                ("steps", "step_loop"), ("walker", "second_pass")]
    if status == 0 or reported != expected:
        print(f"self-test failed: exit {status}, output:\n{out.getvalue()}", file=sys.stderr)
        return 1
    print("check_one_walker self-test: each rule fires on its seeded offender")
    return 0


def main() -> int:
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    if sys.argv[1:]:
        print("usage: check_one_walker.py [--self-test]", file=sys.stderr)
        return 2
    return report(check(ROOT, RULES))


if __name__ == "__main__":
    sys.exit(main())
