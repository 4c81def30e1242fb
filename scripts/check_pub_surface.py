#!/usr/bin/env python3
"""Keeps `orion-dsm` to surface somebody calls, and the workspace to
zero build knobs.

Two checks:

1. **No cargo features.** No workspace manifest (``Cargo.toml``,
   ``crates/*/Cargo.toml``) has a ``[features]`` table, and no ``.rs``
   file under ``crates/``, ``src/``, ``tests/`` or ``examples/`` tests
   one (``cfg!(feature`` / ``cfg(feature``): a build-time switch is an
   axis every test and bench must be multiplied by.
2. **Use it or delete it.** Every name ``crates/dsm/src/lib.rs``
   re-exports with ``pub use``, and every ``pub fn`` in the crate's
   sources (free functions of the ``pub mod``s and methods alike), is
   mentioned as a whole word by at least one ``.rs`` file outside
   ``crates/dsm``, not counting ``pub use`` statements (a re-export is
   not a caller). Unit tests inside ``crates/dsm`` do not count either:
   a function only its own tests call is surface nobody uses. The match
   is by name, so a method called ``get`` passes as soon as anything
   calls a ``get`` — the check catches what nobody mentions at all, not
   every dead overload.

``ALLOWED`` lists the names kept on purpose, each with its reason.

Exit status is non-zero if either check fails.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DSM = ROOT / "crates" / "dsm"

# Names with no caller outside `crates/dsm` that stay, and why.
ALLOWED = {
    "AccessViolation": "the record `AccessValidator` collects; a checker's "
    "output type, read through `violations()` by field",
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


def reexported_names() -> dict[str, str]:
    """`pub use` names of the dsm crate root → where they are listed."""
    lib = DSM / "src" / "lib.rs"
    names = {}
    for n, line in enumerate(lib.read_text().splitlines(), 1):
        m = re.match(r"^pub use \w+::(.*);$", line)
        if not m:
            continue
        listed = m.group(1).strip("{}")
        for name in (part.strip() for part in listed.split(",")):
            if name:
                names[name] = f"crates/dsm/src/lib.rs:{n}"
    return names


def public_fns() -> dict[str, str]:
    """`pub fn` names of the dsm sources (unit-test modules skipped)."""
    names = {}
    for path in rust_files(DSM / "src"):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if TEST_MOD.match(line):
                break
            m = PUB_FN.match(line)
            if m:
                names.setdefault(m.group(1), f"{path.relative_to(ROOT)}:{n}")
    return names


def check_surface_is_used() -> list[str]:
    surface = {**public_fns(), **reexported_names()}
    roots = (ROOT / d for d in ("crates", "src", "tests", "examples", "benchmark/src"))
    words = set()
    for path in rust_files(*roots):
        if DSM not in path.parents:
            words.update(re.findall(r"\w+", PUB_USE.sub("", path.read_text())))
    errors = []
    for name, where in sorted(surface.items()):
        if name not in words and name not in ALLOWED:
            errors.append(f"{where}: `{name}` has no caller outside crates/dsm")
    for name in sorted(ALLOWED):
        if name not in surface:
            errors.append(f"ALLOWED names `{name}`, which orion-dsm no longer exports")
        elif name in words:
            errors.append(f"ALLOWED names `{name}`, which has a caller now: drop the entry")
    return errors


def main() -> int:
    errors = check_no_features() + check_surface_is_used()
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} public-surface problem(s)", file=sys.stderr)
        return 1
    print("check_pub_surface: no cargo features; every orion-dsm export has a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
