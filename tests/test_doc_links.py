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


def test_checker_flags_retired_experiments_and_missing_artifacts(tmp_path):
    (tmp_path / "BENCH_kept.json").write_text("{}", encoding="utf-8")
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(
        "`python -m repro.bench.reporting fig2` and `… reporting all` write\n"
        "BENCH_kept.json; `python -m repro.bench.reporting timetravel --json\n"
        "BENCH_time_travel.json` no longer runs.\n",
        encoding="utf-8",
    )
    assert check_doc_links.check_artifacts(doc, tmp_path) == [
        "EXPERIMENTS.md: `python -m repro.bench.reporting timetravel` — no such experiment",
        "EXPERIMENTS.md: BENCH_time_travel.json — no such artifact",
    ]
    assert check_doc_links.main(["check_doc_links.py", str(tmp_path)]) == 1


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


def test_checker_flags_a_private_name_nothing_defines(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "class _Plan:\n    def _run(self):\n        self._rows = []\n\n_MEMO: dict = {}\n",
        encoding="utf-8",
    )
    (tmp_path / "docs").mkdir()
    doc = tmp_path / "docs" / "GUIDE.md"
    doc.write_text(
        "`_Plan._run()`, `_rows`, `pkg.mod._MEMO` and `__init__` are fine;\n"
        "`_gone` and `_Plan._deleted()` are not.\n\n```\n`_in_a_fence`\n```\n",
        encoding="utf-8",
    )
    (tmp_path / "docs" / "HISTORY.md").write_text("`_retired_long_ago`\n", encoding="utf-8")
    defined = check_doc_links.defined_names(tmp_path)
    assert check_doc_links.check_private_names(doc, tmp_path, defined) == [
        "docs/GUIDE.md: `_deleted` — not defined under src/",
        "docs/GUIDE.md: `_gone` — not defined under src/",
    ]
    assert check_doc_links.main(["check_doc_links.py", str(tmp_path)]) == 1
    doc.write_text("`_Plan._run()`\n", encoding="utf-8")
    assert check_doc_links.main(["check_doc_links.py", str(tmp_path)]) == 0


def test_checker_flags_a_public_name_that_is_gone(tmp_path):
    (tmp_path / "docs").mkdir()
    doc = tmp_path / "docs" / "GUIDE.md"
    doc.write_text(
        '`repro.connect("main")`, `repro.engine.locks.LockManager.acquire` and\n'
        "`repro.obs` resolve; `repro.engine.locks.LockManager.waits_for_graph(\n)`\n"
        "and `repro.engine.locks.LockMode.SHARED` do not.\n\n"
        "```\n`repro.in_a_fence`\n```\n",
        encoding="utf-8",
    )
    (tmp_path / "docs" / "HISTORY.md").write_text(
        "`repro.engine.locks.LockMode.SHARED`\n", encoding="utf-8"
    )
    assert check_doc_links.check_public_names(doc, tmp_path) == [
        "docs/GUIDE.md: `repro.engine.locks.LockManager.waits_for_graph` — no such module or attribute",
        "docs/GUIDE.md: `repro.engine.locks.LockMode.SHARED` — no such module or attribute",
    ]
    assert check_doc_links.main(["check_doc_links.py", str(tmp_path)]) == 1
    doc.write_text('`repro.connect("main")`\n', encoding="utf-8")
    assert check_doc_links.main(["check_doc_links.py", str(tmp_path)]) == 0


def test_checker_flags_a_documented_cli_flag_the_parser_lacks(tmp_path):
    (tmp_path / "docs").mkdir()
    doc = tmp_path / "docs" / "GUIDE.md"
    doc.write_text(
        "`python -m repro.chaos --seed 1 --stride 11` and\n\n"
        "```\npython -m repro.obs --restarts --drain-timeout 1  # --not-a-flag\n```\n\n"
        "`python -m repro.bench.reporting fig2 --reps 2 --fast`\n",
        encoding="utf-8",
    )
    assert check_doc_links.check_cli_flags(doc, tmp_path) == [
        "docs/GUIDE.md: `python -m repro.bench.reporting --fast` — no such flag",
        "docs/GUIDE.md: `python -m repro.obs --drain-timeout` — no such flag",
    ]
    assert check_doc_links.main(["check_doc_links.py", str(tmp_path)]) == 1
    doc.write_text("`python -m repro.obs --restarts --locks`\n", encoding="utf-8")
    assert check_doc_links.main(["check_doc_links.py", str(tmp_path)]) == 0
