"""One path per decision: guards that keep dead and deleted switches out.

PR 19 removed the ablation baselines from ``PhoenixConfig`` and the executor
mode from the engine; these tests fail when a knob nobody reads is added, or
when a removed one drifts back in through a default.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro.core import PhoenixConfig
from repro.engine import DatabaseServer
from repro.engine.executor import Executor

SRC = Path(repro.__file__).resolve().parent


def _config_attributes_read() -> set[str]:
    """Every ``<...>config.<name>`` attribute *read* under ``src/repro``
    outside ``core/config.py`` (assignments such as ``config.sleep = ...``
    do not count: setting a knob is not honouring it)."""
    read = set()
    for path in SRC.rglob("*.py"):
        if path == SRC / "core" / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "config":
                read.add(node.attr)
    return read


def test_every_phoenix_config_field_is_read():
    """A field no code reads is a knob that silently does nothing
    (``fetch_block_size`` was one: the fetch loops read the statement
    attribute, never the config)."""
    fields = {field.name for field in dataclasses.fields(PhoenixConfig)}
    assert _config_attributes_read() == fields


@pytest.mark.parametrize(
    "function", [repro.make_system, DatabaseServer.__init__, Executor.__init__]
)
def test_no_executor_mode_parameter(function):
    assert not {"executor", "vectorized"} & set(inspect.signature(function).parameters)
