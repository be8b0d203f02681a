"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

import repro
from repro.engine import DatabaseServer
from repro.sql.parser import Parser


@pytest.fixture()
def server() -> DatabaseServer:
    """A fresh in-memory database server."""
    return DatabaseServer()


@pytest.fixture()
def session(server):
    """(server, session_id) ready for execute()."""
    return server, server.connect()


@pytest.fixture()
def system() -> repro.System:
    """A fully wired system (server + endpoint + drivers + managers)."""
    return repro.make_system()


@pytest.fixture()
def phoenix_conn(system):
    """A Phoenix connection whose recovery never sleeps and restarts the
    server automatically while pinging (so crash tests run instantly)."""
    connection = system.phoenix.connect(system.DSN)
    connection.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )
    yield connection
    if not connection.closed:
        try:
            connection.close()
        except Exception:
            pass


@pytest.fixture()
def plain_conn(system):
    connection = system.plain.connect(system.DSN)
    yield connection
    if not connection.closed:
        try:
            connection.close()
        except Exception:
            pass


@pytest.fixture()
def parsed_texts(monkeypatch):
    """Every text a :class:`Parser` is built over from now on, client or
    server.  Through Phoenix: the application's text is the client's parse, a
    ``BEGIN TRANSACTION; ...`` script the server's, a bare ``CREATE
    PROCEDURE`` the stored text an ``EXEC`` had to look up."""
    texts: list[str] = []
    original = Parser.__init__

    def recording(self, text):
        texts.append(text)
        original(self, text)

    monkeypatch.setattr(Parser, "__init__", recording)
    return texts


def execute(server, session_id, sql):
    """Convenience: run SQL, return rows for queries / rowcount for DML."""
    result = server.execute(session_id, sql)
    if result.kind == "rows":
        return result.rows
    if result.kind == "rowcount":
        return result.rowcount
    return None
