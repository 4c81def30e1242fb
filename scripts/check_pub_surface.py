#!/usr/bin/env python3
"""Keeps every library crate to surface somebody calls, and the workspace
to zero build knobs.

Two checks:

1. **No cargo features.** No workspace manifest (``Cargo.toml``,
   ``crates/*/Cargo.toml``) has a ``[features]`` table, and no ``.rs``
   file under ``crates/``, ``src/``, ``tests/`` or ``examples/`` tests
   one (``cfg!(feature`` / ``cfg(feature``): a build-time switch is an
   axis every test and bench must be multiplied by.
2. **Use it or delete it.** For each crate under ``crates/`` with a
   ``src/lib.rs``: every name its ``src/lib.rs`` re-exports with
   ``pub use`` (a list may span several lines), and every ``pub fn`` in
   the crate's sources (free functions and methods alike), is mentioned
   as a whole word by at least one ``.rs`` file outside that crate's
   ``src/``, not counting ``pub use`` statements (a re-export is not a
   caller). Unit tests inside the crate do not count either: a function
   only its own tests call is surface nobody uses. A crate's
   ``benches/`` do count. The match is by name, so a method called
   ``get`` passes as soon as anything calls a ``get`` — the check
   catches what nobody mentions at all, not every dead overload.

``ALLOWED`` lists the names kept on purpose, per crate, each with its
reason.

``--self-test`` runs the check over a generated tree with one uncalled
``pub fn`` and one uncalled ``pub use`` name, and fails unless exactly
those two are reported.

Exit status is non-zero if either check fails.
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Names with no caller outside their crate that stay, and why. Each is a
# type callers reach through a public field or a return value and use
# without naming it.
ALLOWED = {
    "analysis": {
        "ArrayPlacement": "the element type of `ParallelPlan::placements`",
        "Ext": "the element type of `UniMat::apply_dep`'s result; callers ask "
        "it `definitely_positive()`",
    },
    "check": {
        "AccessViolation": "the record `AccessValidator` collects; a checker's "
        "output type, read through `violations()` by field",
    },
    "ir": {
        "LoopSpecBuilder": "the return type of `LoopSpec::builder`; callers "
        "chain its methods",
    },
    "net": {
        "LinkStat": "the element type of `Msg::EpochDone::sent` and of "
        "`NodeEndpoint::take_sent`",
        "WireLink": "the element type of `EpochStats::links`",
    },
    "runtime": {
        "ServedModel": "the type of `LoopCommModel::served`; callers reach it "
        "through that field and set its `mode`",
    },
    "serve": {
        "CacheStats": "what `ServeEngine::cache_stats` and `LruCache::stats` "
        "return; callers read its fields",
        "ServeShard": "what `ServeCtx::scan` and `ShardedArray::shard` return",
    },
    "sim": {
        "LinkFault": "the element type of `FaultPlan::link_faults`",
        "LinkTraffic": "the element type of `SimNet::per_link`",
        "Straggler": "the element type of `FaultPlan::stragglers`",
    },
    "trace": {
        "PhaseTotals": "the type of `RunReport::phase_totals`",
        "WorkerBreakdown": "the element type of `RunReport::per_worker`",
    },
    "tune": {
        "PlanChoice": "the type of `TuneOutcome::baseline` / `chosen`",
    },
}

FEATURE_CFG = re.compile(r"cfg!?\(\s*feature\b")
# A whole re-export statement, however many lines its list spans.
PUB_USE = re.compile(r"^\s*pub use\b[^;]*;", re.M)
PUB_FN = re.compile(r"^\s*pub (?:const )?fn (\w+)")
TEST_MOD = re.compile(r"^#\[cfg\(test\)\]")


def rust_files(*roots: Path):
    for root in roots:
        if root.is_file():
            yield root
        elif root.is_dir():
            for path in sorted(root.rglob("*.rs")):
                if "target" not in path.parts:
                    yield path


def library_crates(root: Path) -> list[str]:
    return sorted(p.name for p in (root / "crates").iterdir() if (p / "src" / "lib.rs").exists())


def check_no_features(root: Path) -> list[str]:
    errors = []
    manifests = [root / "Cargo.toml", *sorted(root.glob("crates/*/Cargo.toml"))]
    for manifest in manifests:
        for n, line in enumerate(manifest.read_text().splitlines(), 1):
            if line.strip() == "[features]":
                errors.append(f"{manifest.relative_to(root)}:{n}: [features] table")
    for path in rust_files(*(root / d for d in ("crates", "src", "tests", "examples"))):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if FEATURE_CFG.search(line):
                errors.append(f"{path.relative_to(root)}:{n}: tests a cargo feature")
    return errors


def reexported_names(root: Path, src: Path) -> dict[str, str]:
    """`pub use` names of a crate root → the line their statement starts on."""
    lib = src / "lib.rs"
    text = lib.read_text()
    names = {}
    for m in PUB_USE.finditer(text):
        n = text.count("\n", 0, m.start()) + 1
        path = re.sub(r"\s+", "", m.group(0))[len("pubuse") : -1]
        listed = path[path.index("{") + 1 : -1] if "{" in path else path.rsplit("::", 1)[-1]
        for name in listed.split(","):
            if name:
                names[name] = f"{lib.relative_to(root)}:{n}"
    return names


def public_fns(root: Path, src: Path) -> dict[str, str]:
    """`pub fn` names of a crate's sources (unit-test modules skipped)."""
    names = {}
    for path in rust_files(src):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if TEST_MOD.match(line):
                break
            m = PUB_FN.match(line)
            if m:
                names.setdefault(m.group(1), f"{path.relative_to(root)}:{n}")
    return names


def check_surface_is_used(root: Path, name: str, allowed: dict[str, str]) -> list[str]:
    src = root / "crates" / name / "src"
    surface = {**public_fns(root, src), **reexported_names(root, src)}
    dirs = ("crates", "src", "tests", "examples", "benchmark/src")
    words = set()
    for path in rust_files(*(root / d for d in dirs)):
        if src not in path.parents:
            words.update(re.findall(r"\w+", PUB_USE.sub("", path.read_text())))
    errors = []
    for item, where in sorted(surface.items()):
        if item not in words and item not in allowed:
            errors.append(f"{where}: `{item}` has no caller outside crates/{name}/src")
    for item in sorted(allowed):
        if item not in surface:
            errors.append(f"ALLOWED names `{item}`, which orion-{name} no longer exports")
        elif item in words:
            errors.append(f"ALLOWED names `{item}`, which has a caller now: drop the entry")
    return errors


def check(root: Path, allowed: dict[str, dict[str, str]]) -> tuple[list[str], list[str]]:
    """All findings under `root`, and the crates checked."""
    crates = library_crates(root)
    errors = check_no_features(root)
    for name in sorted(set(allowed) - set(crates)):
        errors.append(f"ALLOWED names crate `{name}`, which crates/ does not have")
    for name in crates:
        errors += check_surface_is_used(root, name, allowed.get(name, {}))
    return errors, crates


def report(errors: list[str], crates: list[str]) -> int:
    """Prints the findings; the exit status."""
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} public-surface problem(s)", file=sys.stderr)
        return 1
    print(
        f"check_pub_surface: no cargo features; every export of the {len(crates)} "
        "library crates under crates/ has a caller"
    )
    return 0


def self_test() -> int:
    """The check must fail on a tree with uncalled surface, naming it."""
    files = {
        "Cargo.toml": "[workspace]\n",
        "crates/a/src/lib.rs": "mod inner;\npub use inner::{Shown, Unseen};\n"
        "pub fn called() {}\npub fn benched() {}\npub fn uncalled() {}\n",
        "crates/a/src/inner.rs": "pub struct Shown;\npub struct Unseen;\n"
        "fn own_caller() { super::uncalled(); let _ = Unseen; }\n",
        "crates/a/benches/speed.rs": "fn main() { a::benched(); }\n",
        "crates/b/src/lib.rs": "fn use_a() { a::called(); let _ = a::Shown; }\n",
    }
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            status = report(*check(root, {}))
    reported = sorted(re.findall(r"`(\w+)` has no caller", out.getvalue()))
    if status == 0 or reported != ["Unseen", "uncalled"]:
        print(f"self-test failed: exit {status}, output:\n{out.getvalue()}", file=sys.stderr)
        return 1
    print("check_pub_surface self-test: the uncalled `pub fn` and `pub use` name fail the check")
    return 0


def main() -> int:
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    if sys.argv[1:]:
        print("usage: check_pub_surface.py [--self-test]", file=sys.stderr)
        return 2
    return report(*check(ROOT, ALLOWED))


if __name__ == "__main__":
    sys.exit(main())
