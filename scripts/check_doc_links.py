#!/usr/bin/env python3
"""Checks that documentation cross-references resolve.

Three classes of reference are verified, repo-wide:

1. Markdown links ``[text](target)`` in ``*.md`` files whose target is a
   relative path (external URLs are skipped) must point at an existing
   file or directory.
2. Intra-document anchors — pure ``#fragment`` links and ``path#fragment``
   links into another Markdown file — must name a heading that actually
   exists in the target document, using GitHub's slugification rules
   (lowercase, punctuation stripped, spaces to hyphens, ``-N`` suffixes
   for duplicates).
3. Bare file mentions of the repo's canonical documents
   (``docs/OBSERVABILITY.md``, ``DESIGN.md`` etc.) inside Markdown and
   Rust doc comments must name files that actually exist, so renames
   cannot silently strand prose.

Exit status is non-zero if any reference dangles.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Canonical docs referred to by bare name throughout prose and rustdoc,
# with the directories in front of the name when a mention has them
# (`.claude/skills/verify/SKILL.md` names that file, not a root SKILL.md).
DOC_MENTION = re.compile(
    r"(?<![\w./\-])((?:[\w.\-]+/)*(?:docs/[A-Za-z0-9_\-]+|[A-Z][A-Z0-9_]+)\.md)\b"
)

SKIP_DIRS = {"target", ".git", "vendor", "results"}

HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*(?:#+\s*)?$")
# Markdown inline decoration stripped before slugifying a heading.
INLINE_LINK = re.compile(r"\[([^\]]*)\]\([^)]*\)")
# Characters GitHub keeps in an anchor slug: word chars, spaces, hyphens.
SLUG_DROP = re.compile(r"[^\w\- ]")


def repo_files(patterns):
    for pattern in patterns:
        for path in ROOT.rglob(pattern):
            if not any(part in SKIP_DIRS for part in path.parts):
                yield path


def slugify(heading):
    """GitHub's heading-to-anchor slug (without the -N dedup suffix)."""
    text = INLINE_LINK.sub(r"\1", heading)
    text = text.replace("`", "").replace("**", "").replace("*", "")
    text = SLUG_DROP.sub("", text.lower())
    return text.replace(" ", "-")


def anchors_of(md_path, cache={}):
    """The set of valid #fragment anchors in one Markdown file."""
    if md_path in cache:
        return cache[md_path]
    anchors = set()
    counts = {}
    in_fence = False
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING.match(line)
        if not match:
            continue
        slug = slugify(match.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    cache[md_path] = anchors
    return anchors


def check_md_links(errors):
    for md in repo_files(["*.md"]):
        text = md.read_text(encoding="utf-8")
        for match in MD_LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path, _, fragment = target.partition("#")
            line = text.count("\n", 0, match.start()) + 1
            resolved = (md.parent / path).resolve() if path else md
            if not resolved.exists():
                errors.append(
                    f"{md.relative_to(ROOT)}:{line}: broken link `{target}`"
                )
                continue
            if not fragment or resolved.suffix != ".md":
                continue
            if fragment not in anchors_of(resolved):
                errors.append(
                    f"{md.relative_to(ROOT)}:{line}: dead anchor "
                    f"`#{fragment}` (no such heading in "
                    f"{resolved.relative_to(ROOT)})"
                )


def check_doc_mentions(errors):
    for src in repo_files(["*.md", "*.rs"]):
        text = src.read_text(encoding="utf-8")
        for match in DOC_MENTION.finditer(text):
            name = match.group(1)
            # A canonical doc may be mentioned by repo-root path or, from
            # a sibling document, by plain relative name.
            if not (ROOT / name).exists() and not (src.parent / name).exists():
                line = text.count("\n", 0, match.start()) + 1
                errors.append(
                    f"{src.relative_to(ROOT)}:{line}: "
                    f"mentions non-existent doc `{name}`"
                )


def main():
    errors = []
    check_md_links(errors)
    check_doc_mentions(errors)
    if errors:
        print("\n".join(errors))
        print(f"\n{len(errors)} broken documentation reference(s)")
        return 1
    print("documentation links OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
