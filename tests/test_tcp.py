"""The real-socket serving tier: framing, TCP parity, recovery over real
sockets, idle-session scale, and the PEP 249 context managers."""

from __future__ import annotations

import os
import socket

import pytest

import repro
from repro import errors
from repro.chaos.oracle import check_run
from repro.chaos.trace import probe_dml_trace, run_trace
from repro.net import framing
from repro.net.faults import FaultKind
from repro.engine.results import StatementResult
from repro.net.protocol import ConnectRequest, ConnectResponse, ExecuteRequest
from repro.net.tcp import TcpTransport
from repro.net.transport import InProcessTransport
from tests.test_planned_restart import connect_waits_for_the_swap

#: CI runs a reduced soak (REPRO_TCP_SOAK=300); the default is the
#: acceptance-level thousand
SOAK_SESSIONS = int(os.environ.get("REPRO_TCP_SOAK", "1000"))


@pytest.fixture()
def tcp_system():
    """A system with a live TCP listener whose own stack rides the socket."""
    system = repro.make_system(dsn="tcp-test", listen="127.0.0.1:0")
    yield system
    system.close()


def _auto_restart(system, config) -> None:
    """Wire the recovery sleep hook to restart a crashed server (the
    watchdog stand-in every crash test uses)."""
    config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )


# --------------------------------------------------------------------------
# framing
# --------------------------------------------------------------------------


def test_frame_roundtrip_single():
    payload = b"hello frames"
    decoder = framing.FrameDecoder()
    frames = decoder.feed(framing.encode_frame(framing.FRAME_REQUEST, payload))
    assert frames == [(framing.FRAME_REQUEST, payload)]
    assert decoder.pending_bytes == 0


def test_frame_split_reads_byte_by_byte():
    payload = bytes(range(64))
    wire = framing.encode_frame(framing.FRAME_RESPONSE, payload)
    decoder = framing.FrameDecoder()
    collected = []
    for i in range(len(wire)):  # worst-case TCP chunking: one byte per read
        collected.extend(decoder.feed(wire[i : i + 1]))
    assert collected == [(framing.FRAME_RESPONSE, payload)]


def test_frame_coalesced_reads():
    frames_in = [
        (framing.FRAME_REQUEST, b"one"),
        (framing.FRAME_RESPONSE, b""),
        (framing.FRAME_TIMEOUT, framing.encode_notice("TimeoutError", "slow")),
        (framing.FRAME_FATAL, framing.encode_notice("ServerCrashedError", "boom")),
    ]
    blob = b"".join(framing.encode_frame(t, p) for t, p in frames_in)
    # everything in one read, split at an arbitrary unaligned boundary
    decoder = framing.FrameDecoder()
    assert decoder.feed(blob) == frames_in
    decoder = framing.FrameDecoder()
    collected = decoder.feed(blob[:7])
    collected += decoder.feed(blob[7:])
    assert collected == frames_in


def test_frame_notice_roundtrip():
    error_type, message = framing.decode_notice(
        framing.encode_notice("ServerCrashedError", "connection reset")
    )
    assert error_type == "ServerCrashedError"
    assert message == "connection reset"


def test_frame_rejects_unknown_type_and_oversize():
    decoder = framing.FrameDecoder()
    with pytest.raises(framing.FrameError):
        decoder.feed(b"\xee\x00\x00\x00\x01x")
    with pytest.raises(framing.FrameError):
        framing.encode_frame(framing.FRAME_REQUEST, b"x" * (framing.MAX_FRAME_BYTES + 1))


# --------------------------------------------------------------------------
# the serving tier
# --------------------------------------------------------------------------


def test_tcp_system_serves_sql(tcp_system):
    connection = repro.connect(tcp_system)
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10))")
    cursor.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    cursor.execute("SELECT * FROM t ORDER BY k")
    assert cursor.fetchall() == [(1, "a"), (2, "b")]
    connection.close()
    snap = tcp_system.registry.snapshot()["net"]
    assert snap["connections_accepted"] >= 1
    assert snap["frames_received"] > 0
    assert snap["bytes_received"] > 0


def test_url_dsn_reaches_listening_system(tcp_system):
    connection = repro.connect(tcp_system)
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE u (k INT PRIMARY KEY)")
    cursor.execute("INSERT INTO u VALUES (7)")
    connection.close()
    # a second "process" dials the advertised URL instead of the registry
    other = repro.connect(tcp_system.url, phoenix=False)
    cursor = other.cursor()
    cursor.execute("SELECT k FROM u")
    assert cursor.fetchall() == [(7,)]
    other.close()


def test_url_dsn_validation():
    with pytest.raises(errors.InterfaceError):
        repro.connect("tcp://nohost/db")  # no port
    with pytest.raises(errors.InterfaceError):
        repro._parse_url_dsn("udp://127.0.0.1:1/x")
    # a port that is not an integer in 0-65535, in a URL DSN or a listen
    # address (which fails in parsing, before any listener starts)
    for dsn in ("tcp://h:abc/x", "tcp://h:99999/x"):
        with pytest.raises(errors.InterfaceError, match="port"):
            repro.connect(dsn)
    for listen in ("127.0.0.1:99999", "127.0.0.1:-1"):
        with pytest.raises(errors.InterfaceError, match="port"):
            repro.make_system(dsn="bad-port", listen=listen)


def test_registry_name_dsns_keep_working():
    system = repro.make_system(dsn="plain-name-dsn")
    connection = repro.connect("plain-name-dsn")
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE r (k INT PRIMARY KEY)")
    connection.close()
    assert system.tcp is None
    assert system.transport.name == "inprocess"


def test_transport_matrix_same_driver_surface(tcp_system):
    """The same NativeDriver calls work over either transport."""
    host, port = tcp_system.tcp.address
    for transport in (InProcessTransport(tcp_system.endpoint), TcpTransport(host, port)):
        driver = repro.NativeDriver(transport)
        dc = driver.connect("matrix")
        assert isinstance(dc.opened, ConnectResponse)
        assert dc.execute("SELECT 1").rows == [(1,)]
        dc.disconnect()


def test_connect_mid_drain_parks_over_tcp(tcp_system):
    """The parked connect of ``tests/test_planned_restart.py``, with the
    stack and the parked connect both on the socket tier."""
    driver = repro.NativeDriver(TcpTransport(*tcp_system.tcp.address))
    connect_waits_for_the_swap(tcp_system, driver)


def test_connect_during_the_swaps_boot_over_tcp(tcp_system):
    """The same connect, held while the swap boots the fresh engine — the
    window in which no engine is installed and the server still reports
    up."""
    driver = repro.NativeDriver(TcpTransport(*tcp_system.tcp.address))
    connect_waits_for_the_swap(tcp_system, driver, at="boot")


# --------------------------------------------------------------------------
# parity: the full phoenix trace over both transports
# --------------------------------------------------------------------------


def test_golden_trace_fingerprint_parity():
    golden_inprocess = run_trace(probe_dml_trace())
    golden_tcp = run_trace(probe_dml_trace(), transport="tcp")
    assert golden_tcp.completed, golden_tcp.error
    assert golden_tcp.fingerprints == golden_inprocess.fingerprints
    assert golden_tcp.observations == golden_inprocess.observations
    assert golden_tcp.status_rows == golden_inprocess.status_rows


def test_crash_recover_trace_exactly_once_over_tcp():
    """A mid-trace crash over real sockets: the oracle holds, byte-identical
    fingerprints, and recovery actually happened."""
    golden = run_trace(probe_dml_trace())
    for schedule in (
        ((6, FaultKind.CRASH_AFTER_EXECUTE),),
        ((8, FaultKind.CRASH_BEFORE_EXECUTE),),
        ((11, FaultKind.DROP_CONNECTION),),
    ):
        faulted = run_trace(probe_dml_trace(), schedule=schedule, transport="tcp")
        assert faulted.completed, faulted.error
        assert faulted.recoveries >= 1
        assert faulted.fingerprints == golden.fingerprints
        violations = check_run(golden, faulted)
        assert not violations, (schedule, violations)


def test_hang_fault_over_tcp_keeps_socket_usable(tcp_system):
    """HANG arrives as a TIMEOUT frame: TimeoutError, channel NOT broken."""
    driver = repro.NativeDriver(TcpTransport(*tcp_system.tcp.address))
    dc = driver.connect("hang")
    tcp_system.faults.schedule(FaultKind.HANG, after=0)
    with pytest.raises(errors.TimeoutError):
        dc.execute("SELECT 1")
    assert not dc.broken
    assert dc.execute("SELECT 1").rows == [(1,)]  # same socket still serves
    dc.disconnect()


# --------------------------------------------------------------------------
# kill mid-request: CommunicationError + recovery on a *new* socket
# --------------------------------------------------------------------------


def test_server_kill_surfaces_communication_error_over_tcp(tcp_system):
    plain = repro.connect(tcp_system, phoenix=False)
    cursor = plain.cursor()
    cursor.execute("CREATE TABLE k (id INT PRIMARY KEY)")
    tcp_system.faults.schedule(FaultKind.CRASH_AFTER_EXECUTE, after=0)
    with pytest.raises(errors.CommunicationError):
        cursor.execute("INSERT INTO k VALUES (1)")
    # the channel (and its socket) is permanently broken, like in-process
    with pytest.raises(errors.CommunicationError):
        cursor.execute("SELECT * FROM k")
    tcp_system.endpoint.restart_server()


def test_phoenix_recovers_over_new_socket(tcp_system):
    config = tcp_system.phoenix.config
    _auto_restart(tcp_system, config)
    connection = tcp_system.phoenix.connect(tcp_system.DSN)
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE ride (id INT PRIMARY KEY, v FLOAT)")
    cursor.execute("INSERT INTO ride VALUES (1, 1.5)")
    accepted_before = tcp_system.registry.net.connections_accepted
    tcp_system.faults.schedule(FaultKind.CRASH_AFTER_EXECUTE, after=0)
    cursor.execute("INSERT INTO ride VALUES (2, 2.5)")  # rides through
    cursor.execute("SELECT * FROM ride ORDER BY id")
    assert cursor.fetchall() == [(1, 1.5), (2, 2.5)]
    assert connection.stats.recoveries == 1
    # recovery dialed in on fresh sockets: the listener accepted new
    # connections after the crash broke the old ones
    assert tcp_system.registry.net.connections_accepted > accepted_before
    connection.close()


# --------------------------------------------------------------------------
# idle-session soak
# --------------------------------------------------------------------------


def test_idle_session_soak(tcp_system):
    """SOAK_SESSIONS concurrent idle TCP sessions on one event loop:
    connect them all, hold them open, ask every session for a row, 0
    errors."""
    host, port = tcp_system.tcp.address
    transport = TcpTransport(host, port)
    metrics = repro.NetworkMetrics()
    channels = []
    try:
        for i in range(SOAK_SESSIONS):
            channel = transport.open_channel(metrics=metrics)
            response = channel.send(ConnectRequest(user=f"idle-{i}", options={}))
            channels.append((channel, response.session_id))
        assert len(tcp_system.server.sessions) >= SOAK_SESSIONS
        snap = tcp_system.registry.snapshot()["net"]
        assert snap["connections_open"] >= SOAK_SESSIONS
        for channel, session_id in channels:
            reply = channel.send(ExecuteRequest(session_id=session_id, sql="SELECT 1"))
            assert isinstance(reply, StatementResult) and reply.rows == [(1,)]
        assert metrics.errors == 0
    finally:
        for channel, _session_id in channels:
            channel.close()


# --------------------------------------------------------------------------
# an idle session across a server crash
# --------------------------------------------------------------------------


@pytest.mark.parametrize("phoenix", [False, True], ids=["plain", "phoenix"])
def test_idle_connection_across_crash(tcp_system, phoenix):
    """A connection runs a statement, then sits idle while the server
    crashes and restarts: no request was in flight, so its channel never
    saw the failure, but its server session is gone.  The next statement
    fails on a plain connection; a Phoenix connection recovers the session
    and answers on the same object — the paper's claim, with no change to
    the application."""
    connection = repro.connect(tcp_system, phoenix=phoenix)
    connection.cursor().execute("SELECT 1")
    tcp_system.server.crash()
    tcp_system.endpoint.restart_server()
    cursor = connection.cursor()
    if not phoenix:
        with pytest.raises(errors.SessionLostError):
            cursor.execute("SELECT 1")
    else:
        assert cursor.execute("SELECT 1").fetchall() == [(1,)]
        assert connection.stats.recoveries == 1
    connection.close()


# --------------------------------------------------------------------------
# PEP 249 context managers (both stacks)
# --------------------------------------------------------------------------


@pytest.mark.parametrize("phoenix", [False, True], ids=["plain", "phoenix"])
def test_connection_cm_commits_on_success(tcp_system, phoenix):
    setup = repro.connect(tcp_system, phoenix=phoenix)
    setup.cursor().execute(
        f"CREATE TABLE cm_ok_{int(phoenix)} (k INT PRIMARY KEY)"
    )
    setup.close()
    with repro.connect(tcp_system, phoenix=phoenix) as conn, conn.cursor() as cur:
        conn.begin()
        cur.execute(f"INSERT INTO cm_ok_{int(phoenix)} VALUES (1)")
        assert conn.in_transaction
    assert conn.closed  # historical contract: `with` releases the handle
    check = repro.connect(tcp_system, phoenix=phoenix)
    rows = check.cursor().execute(
        f"SELECT * FROM cm_ok_{int(phoenix)}"
    ).fetchall()
    check.close()
    assert rows == [(1,)]


@pytest.mark.parametrize("phoenix", [False, True], ids=["plain", "phoenix"])
def test_connection_cm_rolls_back_on_exception(tcp_system, phoenix):
    setup = repro.connect(tcp_system, phoenix=phoenix)
    setup.cursor().execute(
        f"CREATE TABLE cm_rb_{int(phoenix)} (k INT PRIMARY KEY)"
    )
    setup.close()
    with pytest.raises(RuntimeError):
        with repro.connect(tcp_system, phoenix=phoenix) as conn:
            conn.begin()
            conn.cursor().execute(f"INSERT INTO cm_rb_{int(phoenix)} VALUES (1)")
            raise RuntimeError("application failure")
    assert conn.closed
    check = repro.connect(tcp_system, phoenix=phoenix)
    rows = check.cursor().execute(
        f"SELECT * FROM cm_rb_{int(phoenix)}"
    ).fetchall()
    check.close()
    assert rows == []


def test_connection_cm_autocommit_block_unchanged(tcp_system):
    """No begin() inside the block: exit just closes, like before."""
    with repro.connect(tcp_system, phoenix=False) as conn:
        conn.cursor().execute("CREATE TABLE cm_auto (k INT PRIMARY KEY)")
        conn.cursor().execute("INSERT INTO cm_auto VALUES (5)")
        assert not conn.in_transaction
    assert conn.closed
    check = repro.connect(tcp_system, phoenix=False)
    assert check.cursor().execute("SELECT * FROM cm_auto").fetchall() == [(5,)]
    check.close()


# --------------------------------------------------------------------------
# lifecycle details
# --------------------------------------------------------------------------


def test_server_stop_closes_client_sockets(tcp_system):
    driver = repro.NativeDriver(TcpTransport(*tcp_system.tcp.address))
    dc = driver.connect("closing")
    tcp_system.close()
    with pytest.raises(errors.CommunicationError):
        dc.execute("SELECT 1")


def test_connect_refused_is_communication_error():
    # bind-then-close guarantees an unused port
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    driver = repro.NativeDriver(TcpTransport("127.0.0.1", port))
    with pytest.raises(errors.CommunicationError):
        driver.connect()
