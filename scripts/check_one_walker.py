#!/usr/bin/env python3
"""Keeps one partition walker in the workspace.

`orion_runtime::walk` (in ``crates/runtime/src/threaded.rs``) is the
only code that walks a worker's execution list and forwards time
partitions: the thread pool runs it over channels, the TCP node over
sockets. A second hand-written copy of that loop shows up as a reader of
the plan's forwarding edges, so this check fails when any ``.rs`` file
under ``crates/`` outside the walker's module

- calls ``forwards_of(``, or
- binds a ``next_forward``

unless the enclosing function is in ``ALLOWED``. An entry that no
longer matches anything is an error too: delete it.

Exit status is non-zero on any finding.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALKER = ROOT / "crates" / "runtime" / "src" / "threaded.rs"

# (file, enclosing function) → why it may read the forwarding edges.
ALLOWED = {
    ("crates/check/src/hb.rs", "plan_event_log"): "the reference log the "
    "conformance tests compare the walker against; it must not share its code",
    ("crates/net/src/plan.rs", "plan_fingerprint"): "hashes the edges into "
    "the handshake fingerprint; walks nothing",
}

READS_EDGES = re.compile(r"\bforwards_of\(|\blet\s+(?:mut\s+)?next_forward\b")
FN = re.compile(r"^\s*(?:pub(?:\([\w:]+\))?\s+)?fn\s+(\w+)")


def findings():
    """Yields `(file, enclosing fn, line number)` for every edge reader."""
    for path in sorted((ROOT / "crates").rglob("*.rs")):
        if "target" in path.parts or path == WALKER:
            continue
        enclosing = None
        for n, line in enumerate(path.read_text().splitlines(), 1):
            m = FN.match(line)
            if m:
                enclosing = m.group(1)
            if READS_EDGES.search(line):
                yield path.relative_to(ROOT).as_posix(), enclosing, n


def main() -> int:
    errors, used = [], set()
    for rel, fn, n in findings():
        if (rel, fn) in ALLOWED:
            used.add((rel, fn))
        else:
            errors.append(
                f"{rel}:{n}: `{fn}` walks the plan's forwarding edges itself; "
                "run `orion_runtime::walk` over a `Transport` instead"
            )
    for rel, fn in sorted(set(ALLOWED) - used):
        errors.append(f"ALLOWED names `{fn}` in {rel}, which reads no edges now: drop it")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} second walker(s)", file=sys.stderr)
        return 1
    print("check_one_walker: one partition walker (orion_runtime::walk)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
