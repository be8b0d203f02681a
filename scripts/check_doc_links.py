#!/usr/bin/env python3
"""Fail on dead relative links or anchors in the repo's markdown docs.

Scans ``README.md`` and every ``*.md`` under ``docs/`` for markdown links.
External links (``http(s)://``, ``mailto:``) are ignored; everything else
must resolve:

* a relative path link must point at an existing file or directory
  (resolved against the file containing the link);
* a ``#fragment`` — bare or appended to a path — must match a heading
  anchor in the target file, using GitHub's slug rules (lowercase, spaces
  to dashes, punctuation dropped).

The "Metrics" section of ``docs/OBSERVABILITY.md`` is checked against the
code the same way: its table (registry slot · class · counters) must list
exactly the slots and counter names of
``make_system().registry.snapshot()`` — a counter renamed, added or dropped
without its row changing is a dead pointer too.

Exit status 0 = clean, 1 = problems (each printed as
``file: link — reason``).  Needs only the checkout: ``repro`` is imported
from ``src/`` when it is not installed.

Usage::

    python scripts/check_doc_links.py [repo_root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: inline markdown links: [text](target) — images share the syntax
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: ATX headings, the only heading style the repo's docs use
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE = re.compile(r"^(```|~~~)")


def slugify(heading: str) -> str:
    """GitHub's anchor algorithm: strip markup, lowercase, drop
    punctuation, spaces to dashes."""
    text = re.sub(r"[`*]|\[|\]|\(.*?\)", "", heading)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    """Every heading anchor in a markdown file (fenced code skipped)."""
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if not match:
            continue
        slug = slugify(match.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def check_file(path: Path, root: Path) -> list[str]:
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    # strip fenced code blocks so example links aren't checked
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        raw_path, _, fragment = target.partition("#")
        if raw_path:
            resolved = (path.parent / raw_path).resolve()
            if not resolved.exists():
                problems.append(f"{path.relative_to(root)}: {target} — missing file")
                continue
        else:
            resolved = path
        if fragment:
            if resolved.is_dir() or resolved.suffix.lower() != ".md":
                problems.append(
                    f"{path.relative_to(root)}: {target} — anchor on a non-markdown target"
                )
            elif fragment.lower() not in anchors_of(resolved):
                problems.append(f"{path.relative_to(root)}: {target} — missing anchor")
    return problems


_BACKTICKED = re.compile(r"`(\w+)`")


def documented_counters(path: Path) -> dict[str, set[str]]:
    """Registry slot → counter names, from the table rows of the section
    whose heading starts with "Metrics" (first cell: the slot; last cell:
    its counters)."""
    documented: dict[str, set[str]] = {}
    in_section = False
    for line in path.read_text(encoding="utf-8").splitlines():
        heading = _HEADING.match(line)
        if heading:
            in_section = heading.group(2).startswith("Metrics")
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        slot = _BACKTICKED.fullmatch(cells[0])
        if in_section and line.startswith("|") and slot:
            documented[slot.group(1)] = set(_BACKTICKED.findall(cells[-1]))
    return documented


def check_metrics(path: Path, root: Path) -> list[str]:
    """The documented counters vs. a fresh system's registry snapshot,
    both directions."""
    try:
        import repro
    except ImportError:
        sys.path.insert(0, str(root / "src"))
        import repro

    snapshot = repro.make_system().registry.snapshot()
    actual = {
        slot: set(counters) for slot, counters in snapshot.items() if slot != "histograms"
    }
    documented = documented_counters(path)
    where = path.relative_to(root)
    problems = []
    for slot in sorted(documented.keys() | actual.keys()):
        for name in sorted(documented.get(slot, set()) - actual.get(slot, set())):
            problems.append(f"{where}: `{slot}`.`{name}` — documented, not in snapshot()")
        for name in sorted(actual.get(slot, set()) - documented.get(slot, set())):
            problems.append(f"{where}: `{slot}`.`{name}` — in snapshot(), not documented")
    return problems


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parent.parent
    files = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    problems: list[str] = []
    checked = 0
    for path in files:
        if not path.exists():
            continue
        checked += 1
        problems.extend(check_file(path, root))
    metrics_doc = root / "docs" / "OBSERVABILITY.md"
    if metrics_doc.exists():
        problems.extend(check_metrics(metrics_doc, root))
    for problem in problems:
        print(problem)
    print(f"checked {checked} file(s): {len(problems)} dead link(s) or counter name(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
