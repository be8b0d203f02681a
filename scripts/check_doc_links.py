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

What the docs say regenerates is checked too, in ``README.md``,
``EXPERIMENTS.md``, ``DESIGN.md`` and ``docs/*.md`` (not ``docs/HISTORY.md``,
whose commands run at the commits it names): every ``python -m
repro.bench.reporting <name>`` must name a registered experiment (or
``all``), and every ``BENCH_*.json`` they name must exist at the repo root —
so a retired experiment is a dead pointer.

A backticked private Python name in ``README.md``, ``DESIGN.md`` and
``docs/*.md`` (not ``docs/HISTORY.md``) — ``_name``, ``Class._name`` or
``module._name``, with or without ``()`` — must be defined (``def``,
``class`` or an assignment) somewhere under ``src/``: a helper deleted or
renamed without its prose changing is a dead pointer.  So must a public
one: inline code that begins ``repro.`` in ``README.md``, ``DESIGN.md``,
``EXPERIMENTS.md`` and ``docs/*.md`` (not ``docs/HISTORY.md``) — say
``repro.connect("main")`` — must name a module or attribute that exists:
its longest importable module prefix is imported, the rest looked up with
``getattr``.

A documented command line ``python -m repro.<module> …`` in those files,
fenced code included, may name only the ``--flags`` its module's parser
has: a ``repro`` module (or package ``__main__``) that exposes
``build_parser()`` is asked for its option strings; ``main`` never runs.

The "Metrics" section of ``docs/OBSERVABILITY.md`` is checked against the
code the same way: its table (registry slot · class · counters) must list
exactly the slots and counter names of
``make_system().registry.snapshot()`` — a counter renamed, added or dropped
without its row changing is a dead pointer too.

Exit status 0 = clean, 1 = problems (each printed as
``file: link — reason``).  Needs only the checkout: ``repro`` is imported
from its ``src/``.

Usage::

    python scripts/check_doc_links.py [repo_root]
"""

from __future__ import annotations

import importlib
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
    _import_from_checkout(root)
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


def _import_from_checkout(root: Path) -> None:
    """Put the checkout's ``src/`` first on the import path, if it has one."""
    if (root / "src").is_dir() and str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))


_REPORTING_COMMAND = re.compile(r"python3? -m repro\.bench\.reporting[ \t]+(\w+)")
_BENCH_ARTIFACT = re.compile(r"\bBENCH_\w+\.json\b")


def check_artifacts(path: Path, root: Path) -> list[str]:
    """The file's ``repro.bench.reporting`` experiment names and
    ``BENCH_*.json`` names."""
    _import_from_checkout(root)
    from repro.bench.reporting import EXPERIMENTS

    where = path.relative_to(root)
    text = path.read_text(encoding="utf-8")
    problems = [
        f"{where}: `python -m repro.bench.reporting {name}` — no such experiment"
        for name in sorted(set(_REPORTING_COMMAND.findall(text)))
        if name not in EXPERIMENTS and name != "all"
    ]
    problems += [
        f"{where}: {name} — no such artifact"
        for name in sorted(set(_BENCH_ARTIFACT.findall(text)))
        if not (root / name).exists()
    ]
    return problems


#: a backticked private name: ``_name``, ``Class._name``, ``module._name``,
#: optionally called — a dunder is not private
_PRIVATE_NAME = re.compile(r"`(?:\w+\.)*(_[A-Za-z0-9]\w*)(?:\(\))?`")
#: what defines a name in Python source: ``def``/``class``, or an
#: assignment (annotated or not, to a plain or a ``self.`` attribute)
_DEFINITION = re.compile(
    r"^\s*(?:(?:async\s+)?def|class)\s+(\w+)|^\s*(?:self\.)?(\w+)\s*(?::[^=\n]*)?=(?!=)",
    re.MULTILINE,
)


def defined_names(root: Path) -> set[str]:
    """Every name ``def``, ``class`` or an assignment defines under
    ``src/``."""
    names: set[str] = set()
    for source in sorted((root / "src").rglob("*.py")):
        for match in _DEFINITION.finditer(source.read_text(encoding="utf-8")):
            names.add(match.group(1) or match.group(2))
    return names


def check_private_names(path: Path, root: Path, defined: set[str]) -> list[str]:
    """The file's backticked private names that nothing under ``src/``
    defines (fenced code skipped)."""
    text = re.sub(r"```.*?```", "", path.read_text(encoding="utf-8"), flags=re.DOTALL)
    where = path.relative_to(root)
    return [
        f"{where}: `{name}` — not defined under src/"
        for name in sorted(set(_PRIVATE_NAME.findall(text)))
        if name not in defined
    ]


#: an inline code span, which may wrap a line
_CODE_SPAN = re.compile(r"`([^`]+)`")
#: the dotted name a span starting ``repro.`` begins with
_PUBLIC_NAME = re.compile(r"repro(?:\.\w+)+")


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute reached from the
    longest importable module prefix of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def public_names(path: Path) -> list[str]:
    """The dotted names of the file's inline code spans that begin
    ``repro.`` (fenced code skipped)."""
    text = re.sub(r"```.*?```", "", path.read_text(encoding="utf-8"), flags=re.DOTALL)
    spans = (span.group(1) for span in _CODE_SPAN.finditer(text))
    return [match.group() for match in map(_PUBLIC_NAME.match, spans) if match]


def check_public_names(path: Path, root: Path) -> list[str]:
    """The file's ``repro.`` names that do not resolve."""
    _import_from_checkout(root)
    where = path.relative_to(root)
    return [
        f"{where}: `{name}` — no such module or attribute"
        for name in sorted(set(public_names(path)))
        if not resolves(name)
    ]


#: a documented command line: the module it runs, then the rest of the
#: line up to a closing backtick or a shell comment
_MODULE_COMMAND = re.compile(r"python3? -m (repro(?:\.\w+)*)([^`#\n]*)")
_FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def parser_flags(module_name: str) -> set[str] | None:
    """The option strings of ``module_name``'s ``build_parser()`` (a
    package's ``__main__`` is what ``-m`` runs), or None when the module
    exposes no parser."""
    for name in (module_name + ".__main__", module_name):
        try:
            module = importlib.import_module(name)
        except ModuleNotFoundError:
            continue
        build = getattr(module, "build_parser", None)
        if build is not None:
            return set(build()._option_string_actions)
    return None


def check_cli_flags(path: Path, root: Path) -> list[str]:
    """The file's documented ``python -m repro.…`` flags that the module's
    parser lacks."""
    _import_from_checkout(root)
    where = path.relative_to(root)
    known: dict[str, set[str] | None] = {}
    problems = []
    for module_name, rest in _MODULE_COMMAND.findall(path.read_text(encoding="utf-8")):
        if module_name not in known:
            known[module_name] = parser_flags(module_name)
        flags = known[module_name]
        if flags is None:
            continue
        problems += [
            f"{where}: `python -m {module_name} {flag}` — no such flag"
            for flag in _FLAG.findall(rest)
            if flag not in flags
        ]
    return sorted(set(problems))


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
    for path in [root / "EXPERIMENTS.md", root / "DESIGN.md", *files]:
        if path.exists() and path.name != "HISTORY.md":
            problems.extend(check_artifacts(path, root))
            problems.extend(check_public_names(path, root))
            problems.extend(check_cli_flags(path, root))
    defined = defined_names(root)
    for path in [root / "DESIGN.md", *files]:
        if path.exists() and path.name != "HISTORY.md":
            problems.extend(check_private_names(path, root, defined))
    metrics_doc = root / "docs" / "OBSERVABILITY.md"
    if metrics_doc.exists():
        problems.extend(check_metrics(metrics_doc, root))
    for problem in problems:
        print(problem)
    print(
        f"checked {checked} file(s): {len(problems)} dead link(s), experiment(s), "
        "artifact(s), private or public name(s), CLI flag(s) or counter name(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
