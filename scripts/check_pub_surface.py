#!/usr/bin/env python3
"""Keeps `orion-check`, `orion-core`, `orion-dsm` and `orion-runtime` to
surface somebody calls, and the workspace to zero build knobs.

Two checks:

1. **No cargo features.** No workspace manifest (``Cargo.toml``,
   ``crates/*/Cargo.toml``) has a ``[features]`` table, and no ``.rs``
   file under ``crates/``, ``src/``, ``tests/`` or ``examples/`` tests
   one (``cfg!(feature`` / ``cfg(feature``): a build-time switch is an
   axis every test and bench must be multiplied by.
2. **Use it or delete it.** For each crate in ``CRATES``: every name its
   ``src/lib.rs`` re-exports with ``pub use`` (a list may span several
   lines), and every ``pub fn`` in the crate's sources (free functions
   and methods alike), is mentioned as a whole word by at least one
   ``.rs`` file outside that crate, not counting ``pub use`` statements
   (a re-export is not a caller). Unit tests inside the crate do not
   count either: a function only its own tests call is surface nobody
   uses. The match is by name, so a method called ``get`` passes as
   soon as anything calls a ``get`` — the check catches what nobody
   mentions at all, not every dead overload.

``ALLOWED`` lists the names kept on purpose, per crate, each with its
reason.

Exit status is non-zero if either check fails.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRATES = ["check", "core", "dsm", "runtime"]

# Names with no caller outside their crate that stay, and why.
ALLOWED = {
    "check": {
        "AccessViolation": "the record `AccessValidator` collects; a checker's "
        "output type, read through `violations()` by field",
    },
    "core": {
        "DriverError": "the error type of `Driver::parallel_for`, which callers "
        "unwrap or propagate without naming it",
        "Indexed": "the item bound of `Driver::parallel_for` / `tune_loop`; "
        "callers pass slices of its impls without naming the trait",
    },
    "dsm": {},
    "runtime": {
        "ServedModel": "the type of `LoopCommModel::served`; callers reach it "
        "through that field and set its `mode`",
        "SyncMode": "the type of `Schedule::sync`, read through that field",
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


def check_no_features() -> list[str]:
    errors = []
    manifests = [ROOT / "Cargo.toml", *sorted(ROOT.glob("crates/*/Cargo.toml"))]
    for manifest in manifests:
        for n, line in enumerate(manifest.read_text().splitlines(), 1):
            if line.strip() == "[features]":
                errors.append(f"{manifest.relative_to(ROOT)}:{n}: [features] table")
    for path in rust_files(*(ROOT / d for d in ("crates", "src", "tests", "examples"))):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if FEATURE_CFG.search(line):
                errors.append(f"{path.relative_to(ROOT)}:{n}: tests a cargo feature")
    return errors


def reexported_names(crate: Path) -> dict[str, str]:
    """`pub use` names of a crate root → the line their statement starts on."""
    lib = crate / "src" / "lib.rs"
    text = lib.read_text()
    names = {}
    for m in PUB_USE.finditer(text):
        n = text.count("\n", 0, m.start()) + 1
        path = re.sub(r"\s+", "", m.group(0))[len("pubuse") : -1]
        listed = path[path.index("{") + 1 : -1] if "{" in path else path.rsplit("::", 1)[-1]
        for name in listed.split(","):
            if name:
                names[name] = f"{lib.relative_to(ROOT)}:{n}"
    return names


def public_fns(crate: Path) -> dict[str, str]:
    """`pub fn` names of a crate's sources (unit-test modules skipped)."""
    names = {}
    for path in rust_files(crate / "src"):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if TEST_MOD.match(line):
                break
            m = PUB_FN.match(line)
            if m:
                names.setdefault(m.group(1), f"{path.relative_to(ROOT)}:{n}")
    return names


def check_surface_is_used(name: str) -> list[str]:
    crate = ROOT / "crates" / name
    surface = {**public_fns(crate), **reexported_names(crate)}
    allowed = ALLOWED.get(name, {})
    roots = (ROOT / d for d in ("crates", "src", "tests", "examples", "benchmark/src"))
    words = set()
    for path in rust_files(*roots):
        if crate not in path.parents:
            words.update(re.findall(r"\w+", PUB_USE.sub("", path.read_text())))
    errors = []
    for item, where in sorted(surface.items()):
        if item not in words and item not in allowed:
            errors.append(f"{where}: `{item}` has no caller outside crates/{name}")
    for item in sorted(allowed):
        if item not in surface:
            errors.append(f"ALLOWED names `{item}`, which orion-{name} no longer exports")
        elif item in words:
            errors.append(f"ALLOWED names `{item}`, which has a caller now: drop the entry")
    return errors


def main() -> int:
    errors = check_no_features()
    for name in CRATES:
        errors += check_surface_is_used(name)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} public-surface problem(s)", file=sys.stderr)
        return 1
    crates = ", ".join(f"orion-{name}" for name in CRATES)
    print(f"check_pub_surface: no cargo features; every {crates} export has a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
