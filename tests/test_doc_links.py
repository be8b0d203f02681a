"""The docs link checker: the repo's own docs stay clean, and the checker
actually catches what it claims to (dead paths, dead anchors)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_doc_links", REPO_ROOT / "scripts" / "check_doc_links.py"
)
check_doc_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_doc_links)


def test_repo_docs_have_no_dead_links(capsys):
    assert check_doc_links.main(["check_doc_links.py", str(REPO_ROOT)]) == 0, (
        capsys.readouterr().out
    )


def test_slugify_matches_github_rules():
    assert check_doc_links.slugify("Story 1: the crash") == "story-1-the-crash"
    assert check_doc_links.slugify("Chaos & fault model") == "chaos--fault-model"
    assert check_doc_links.slugify("`restore_to`: rewinding") == "restore_to-rewinding"


def test_checker_flags_dead_path_and_anchor(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (tmp_path / "README.md").write_text(
        "# Title\n\n## A Real Heading\n\n"
        "[ok](docs/GUIDE.md) [ok too](#a-real-heading)\n"
        "[dead file](docs/MISSING.md) [dead anchor](docs/GUIDE.md#nope)\n",
        encoding="utf-8",
    )
    (docs / "GUIDE.md").write_text("# Guide\n", encoding="utf-8")
    assert check_doc_links.main(["check_doc_links.py", str(tmp_path)]) == 1


def test_checker_ignores_external_links_and_code_fences(tmp_path):
    (tmp_path / "README.md").write_text(
        "# T\n\n[ext](https://example.com/x)\n\n"
        "```\n[not a link](nowhere.md)\n```\n",
        encoding="utf-8",
    )
    assert check_doc_links.main(["check_doc_links.py", str(tmp_path)]) == 0


def test_checker_flags_counter_names_that_drift_from_the_snapshot(tmp_path):
    real = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    assert "`forces`, " in real
    docs = tmp_path / "docs"
    docs.mkdir()
    # a documented counter the code does not have, and a real one left out
    (docs / "OBSERVABILITY.md").write_text(
        real.replace("`forces`, ", "`forces_per_fortnight`, "), encoding="utf-8"
    )
    problems = check_doc_links.check_metrics(docs / "OBSERVABILITY.md", tmp_path)
    assert problems == [
        "docs/OBSERVABILITY.md: `wal`.`forces_per_fortnight` — documented, not in snapshot()",
        "docs/OBSERVABILITY.md: `wal`.`forces` — in snapshot(), not documented",
    ]


def test_checker_flags_an_undocumented_registry_slot(tmp_path):
    real = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    docs = tmp_path / "docs"
    docs.mkdir()
    rows = [line for line in real.splitlines() if not line.startswith("| `dispatch` |")]
    (docs / "OBSERVABILITY.md").write_text("\n".join(rows), encoding="utf-8")
    problems = check_doc_links.check_metrics(docs / "OBSERVABILITY.md", tmp_path)
    assert [p.split(" — ")[1] for p in problems] == ["in snapshot(), not documented"] * 4
    assert all("`dispatch`." in p for p in problems)
