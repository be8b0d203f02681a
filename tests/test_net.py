"""Network substrate tests: protocol, transport, faults, metrics."""

from __future__ import annotations

import pytest

from repro import errors
from repro.engine import DatabaseServer
from repro.net import FaultInjector, FaultKind, NetworkMetrics, ServerEndpoint
from repro.net.protocol import (
    ConnectRequest,
    ConnectResponse,
    ErrorResponse,
    ExecuteRequest,
    FetchRequest,
    PingRequest,
    PongResponse,
    ResultResponse,
    TableSchemaRequest,
    decode_message,
    encode_message,
)
from repro.net.transport import ClientChannel


@pytest.fixture()
def endpoint():
    return ServerEndpoint(DatabaseServer())


def channel(endpoint) -> ClientChannel:
    return ClientChannel(endpoint)


def connect(endpoint) -> tuple[ClientChannel, int]:
    ch = channel(endpoint)
    response = ch.send(ConnectRequest(user="tester"))
    return ch, response.session_id


# ---------------------------------------------------------------- protocol

def test_message_serialization_round_trip():
    message = ExecuteRequest(session_id=3, sql="SELECT 1", cursor_type="keyset")
    again = decode_message(encode_message(message))
    assert again == message


def test_serialization_produces_real_bytes():
    raw = encode_message(PingRequest())
    assert isinstance(raw, bytes) and len(raw) > 0


# ---------------------------------------------------------------- dispatch

def test_connect_and_execute(endpoint):
    ch, sid = connect(endpoint)
    response = ch.send(ExecuteRequest(session_id=sid, sql="SELECT 1 + 1"))
    assert isinstance(response, ResultResponse)
    assert response.rows == [(2,)]
    assert [c.name for c in response.columns]


def test_rowcount_response(endpoint):
    ch, sid = connect(endpoint)
    ch.send(ExecuteRequest(session_id=sid, sql="CREATE TABLE t (k INT)"))
    response = ch.send(ExecuteRequest(session_id=sid, sql="INSERT INTO t VALUES (1), (2)"))
    assert response.kind == "rowcount" and response.rowcount == 2


def test_cursor_flow_over_wire(endpoint):
    ch, sid = connect(endpoint)
    ch.send(ExecuteRequest(session_id=sid, sql="CREATE TABLE t (k INT PRIMARY KEY)"))
    ch.send(ExecuteRequest(session_id=sid, sql="INSERT INTO t VALUES (1), (2), (3)"))
    opened = ch.send(ExecuteRequest(session_id=sid, sql="SELECT k FROM t", cursor_type="keyset"))
    assert opened.cursor_id is not None and opened.rows == []
    fetched = ch.send(FetchRequest(session_id=sid, cursor_id=opened.cursor_id, n=2))
    assert fetched.rows == [(1,), (2,)] and not fetched.done


def test_table_schema_request(endpoint):
    ch, sid = connect(endpoint)
    ch.send(ExecuteRequest(session_id=sid, sql="CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(5))"))
    response = ch.send(TableSchemaRequest(session_id=sid, table="t"))
    assert response.primary_key == ("k",)
    assert [c.name for c in response.columns] == ["k", "v"]


def test_sql_errors_travel_in_band_and_rebuild(endpoint):
    ch, sid = connect(endpoint)
    with pytest.raises(errors.CatalogError):
        ch.send(ExecuteRequest(session_id=sid, sql="SELECT * FROM missing"))
    # channel still usable after an in-band error
    assert ch.send(PingRequest()).server_epoch == 0


def test_unknown_error_type_falls_back_to_database_error():
    from repro.net.transport import _rebuild_error

    rebuilt = _rebuild_error(ErrorResponse(error_type="NoSuchError", message="x"))
    assert isinstance(rebuilt, errors.DatabaseError)


def test_ping_reports_epoch_and_sessions(endpoint):
    ch, sid = connect(endpoint)
    pong = ch.send(PingRequest())
    assert isinstance(pong, PongResponse)
    assert pong.up_sessions == 1
    endpoint.server.crash()
    endpoint.restart_server()
    ch2 = channel(endpoint)
    assert ch2.send(PingRequest()).server_epoch == 1


# ---------------------------------------------------------------- faults

def test_crash_before_execute_loses_work(endpoint):
    ch, sid = connect(endpoint)
    ch.send(ExecuteRequest(session_id=sid, sql="CREATE TABLE t (k INT)"))
    endpoint.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE)
    with pytest.raises(errors.CommunicationError):
        ch.send(ExecuteRequest(session_id=sid, sql="INSERT INTO t VALUES (1)"))
    endpoint.restart_server()
    ch2, sid2 = connect(endpoint)
    response = ch2.send(ExecuteRequest(session_id=sid2, sql="SELECT count(*) FROM t"))
    assert response.rows == [(0,)]  # nothing executed


def test_crash_after_execute_commits_then_loses_reply(endpoint):
    ch, sid = connect(endpoint)
    ch.send(ExecuteRequest(session_id=sid, sql="CREATE TABLE t (k INT)"))
    endpoint.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "INSERT")
    with pytest.raises(errors.CommunicationError):
        ch.send(ExecuteRequest(session_id=sid, sql="INSERT INTO t VALUES (1)"))
    endpoint.restart_server()
    ch2, sid2 = connect(endpoint)
    response = ch2.send(ExecuteRequest(session_id=sid2, sql="SELECT count(*) FROM t"))
    assert response.rows == [(1,)]  # the work happened; only the reply died


def test_hang_raises_timeout_and_leaves_server_up(endpoint):
    ch, sid = connect(endpoint)
    endpoint.faults.schedule(FaultKind.HANG)
    with pytest.raises(errors.TimeoutError):
        ch.send(ExecuteRequest(session_id=sid, sql="SELECT 1"))
    assert endpoint.server.up


def test_drop_connection_leaves_server_up(endpoint):
    ch, sid = connect(endpoint)
    endpoint.faults.schedule(FaultKind.DROP_CONNECTION)
    with pytest.raises(errors.CommunicationError):
        ch.send(ExecuteRequest(session_id=sid, sql="SELECT 1"))
    assert endpoint.server.up


def test_broken_channel_stays_broken(endpoint):
    ch, sid = connect(endpoint)
    endpoint.faults.schedule(FaultKind.DROP_CONNECTION)
    with pytest.raises(errors.CommunicationError):
        ch.send(PingRequest())
    with pytest.raises(errors.CommunicationError):
        ch.send(PingRequest())  # no retry sneaks through a dead socket


def test_requests_to_down_server_refused(endpoint):
    ch, sid = connect(endpoint)
    endpoint.server.crash()
    ch2 = channel(endpoint)
    with pytest.raises(errors.ServerCrashedError):
        ch2.send(PingRequest())


def test_session_lost_error_after_fast_restart(endpoint):
    ch, sid = connect(endpoint)
    endpoint.server.crash()
    endpoint.restart_server()
    # the channel object survived, the session did not
    with pytest.raises(errors.SessionLostError):
        ch.send(ExecuteRequest(session_id=sid, sql="SELECT 1"))


def test_fault_matcher_and_after(endpoint):
    ch, sid = connect(endpoint)
    fault = endpoint.faults.schedule(
        FaultKind.HANG,
        matcher=lambda r: getattr(r, "sql", "").startswith("SELECT"),
        after=1,
    )
    ch.send(ExecuteRequest(session_id=sid, sql="SELECT 1"))  # first match skipped
    with pytest.raises(errors.TimeoutError):
        ch.send(ExecuteRequest(session_id=sid, sql="SELECT 2"))
    assert endpoint.faults.fired == [FaultKind.HANG]


def test_repeating_fault(endpoint):
    endpoint.faults.schedule(FaultKind.HANG, repeat=True)
    for _ in range(3):
        ch = channel(endpoint)
        with pytest.raises(errors.TimeoutError):
            ch.send(PingRequest())
    assert endpoint.faults.pending == 1


def test_cancel_all(endpoint):
    endpoint.faults.schedule(FaultKind.HANG)
    endpoint.faults.cancel_all()
    assert channel(endpoint).send(PingRequest())


def test_fires_remaining_counts_down(endpoint):
    fault = endpoint.faults.schedule(FaultKind.HANG, after=1)
    assert fault.fires_remaining == 1
    assert fault.matches_until_fire == 2
    ch = channel(endpoint)
    ch.send(PingRequest())
    assert fault.matches_until_fire == 1
    with pytest.raises(errors.TimeoutError):
        channel(endpoint).send(PingRequest())
    assert fault.fires_remaining == 0
    assert fault.matches_until_fire is None


def test_fires_remaining_for_repeating_and_periodic(endpoint):
    repeating = endpoint.faults.schedule(FaultKind.HANG, repeat=True)
    assert repeating.fires_remaining is None  # unbounded
    endpoint.faults.cancel_all()
    periodic = endpoint.faults.schedule(FaultKind.HANG, every=3)
    assert periodic.matches_until_fire == 3
    for _ in range(2):
        channel(endpoint).send(PingRequest())
    assert periodic.matches_until_fire == 1


def test_after_counts_matching_requests_only(endpoint):
    # `after` counts requests the matcher accepts, not all wire traffic
    fault = endpoint.faults.schedule(
        FaultKind.HANG,
        matcher=lambda r: getattr(r, "sql", "").startswith("SELECT"),
        after=1,
    )
    ch, sid = connect(endpoint)  # ConnectRequest does not match
    ch.send(ExecuteRequest(session_id=sid, sql="SELECT 1"))  # match 1: skipped
    assert fault.matches_until_fire == 1
    ch.send(PingRequest())  # non-match: no effect
    assert fault.matches_until_fire == 1
    with pytest.raises(errors.TimeoutError):
        ch.send(ExecuteRequest(session_id=sid, sql="SELECT 2"))


# ---------------------------------------------------------------- storage faults

def test_torn_wal_tail_crashes_server_and_loses_the_write(endpoint):
    ch, sid = connect(endpoint)
    ch.send(ExecuteRequest(session_id=sid, sql="CREATE TABLE t (k INT)"))
    endpoint.faults.schedule_on_sql(FaultKind.TORN_WAL_TAIL, "INSERT")
    with pytest.raises(errors.CommunicationError):
        ch.send(ExecuteRequest(session_id=sid, sql="INSERT INTO t VALUES (1)"))
    assert not endpoint.server.up  # device fault downs the server
    endpoint.restart_server()
    ch2, sid2 = connect(endpoint)
    response = ch2.send(ExecuteRequest(session_id=sid2, sql="SELECT count(*) FROM t"))
    assert response.rows == [(0,)]  # the torn commit record never took


def test_force_fail_crashes_server_with_nothing_written(endpoint):
    ch, sid = connect(endpoint)
    ch.send(ExecuteRequest(session_id=sid, sql="CREATE TABLE t (k INT)"))
    endpoint.faults.schedule_on_sql(FaultKind.FORCE_FAIL, "INSERT")
    with pytest.raises(errors.CommunicationError):
        ch.send(ExecuteRequest(session_id=sid, sql="INSERT INTO t VALUES (1)"))
    assert not endpoint.server.up
    endpoint.restart_server()
    ch2, sid2 = connect(endpoint)
    response = ch2.send(ExecuteRequest(session_id=sid2, sql="SELECT count(*) FROM t"))
    assert response.rows == [(0,)]


def test_storage_fault_then_recovery_keeps_earlier_commits(endpoint):
    ch, sid = connect(endpoint)
    ch.send(ExecuteRequest(session_id=sid, sql="CREATE TABLE t (k INT)"))
    ch.send(ExecuteRequest(session_id=sid, sql="INSERT INTO t VALUES (1)"))
    endpoint.faults.schedule_on_sql(FaultKind.TORN_WAL_TAIL, "INSERT")
    with pytest.raises(errors.CommunicationError):
        ch.send(ExecuteRequest(session_id=sid, sql="INSERT INTO t VALUES (2)"))
    endpoint.restart_server()
    # the truncated tail must not block post-restart appends
    ch2, sid2 = connect(endpoint)
    ch2.send(ExecuteRequest(session_id=sid2, sql="INSERT INTO t VALUES (3)"))
    endpoint.server.crash()
    endpoint.restart_server()
    ch3, sid3 = connect(endpoint)
    response = ch3.send(
        ExecuteRequest(session_id=sid3, sql="SELECT k FROM t ORDER BY k")
    )
    assert response.rows == [(1,), (3,)]


# ---------------------------------------------------------------- metrics

def test_metrics_count_round_trips_and_bytes(endpoint):
    metrics = NetworkMetrics()
    ch = ClientChannel(endpoint, metrics=metrics)
    ch.send(ConnectRequest())
    assert metrics.round_trips == 1
    assert metrics.bytes_sent > 0 and metrics.bytes_received > 0
    assert metrics.by_request_type["ConnectRequest"] == 1


def test_metrics_record_errors(endpoint):
    metrics = NetworkMetrics()
    ch = ClientChannel(endpoint, metrics=metrics)
    endpoint.faults.schedule(FaultKind.DROP_CONNECTION)
    with pytest.raises(errors.CommunicationError):
        ch.send(PingRequest())
    assert metrics.errors == 1
    assert metrics.round_trips == 1


def test_metrics_merge_and_reset():
    a = NetworkMetrics()
    a.record("X", 10, 20)
    b = NetworkMetrics()
    b.record("Y", 1, 2)
    a.merge(b)
    assert a.round_trips == 2 and a.bytes_sent == 11
    a.reset()
    assert a.round_trips == 0 and not a.by_request_type


def test_metrics_errors_broken_down_by_request_type(endpoint):
    metrics = NetworkMetrics()
    endpoint.faults.schedule(FaultKind.DROP_CONNECTION)
    with pytest.raises(errors.CommunicationError):
        ClientChannel(endpoint, metrics=metrics).send(PingRequest())
    endpoint.faults.schedule(FaultKind.DROP_CONNECTION)
    with pytest.raises(errors.CommunicationError):
        ClientChannel(endpoint, metrics=metrics).send(ConnectRequest())
    assert metrics.errors_by_request_type["PingRequest"] == 1
    assert metrics.errors_by_request_type["ConnectRequest"] == 1
    assert metrics.errors == 2
    assert metrics.snapshot()["errors_by_request_type"] == {
        "PingRequest": 1,
        "ConnectRequest": 1,
    }
    metrics.reset()
    assert not metrics.errors_by_request_type


def test_metrics_merge_combines_error_breakdown():
    a = NetworkMetrics()
    a.record_error("PingRequest", 5)
    b = NetworkMetrics()
    b.record_error("PingRequest", 5)
    b.record_error("ExecuteRequest", 9)
    a.merge(b)
    assert a.errors_by_request_type == {"PingRequest": 2, "ExecuteRequest": 1}


def test_recovery_ping_traffic_visible_in_system_metrics():
    import repro
    from repro.errors import CommunicationError as CE

    system = repro.make_system()
    connection = system.phoenix.connect(system.DSN)
    connection.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )
    cur = connection.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    before_pings = system.metrics.by_request_type.get("PingRequest", 0)
    system.server.crash()
    cur.execute("INSERT INTO t VALUES (1)")
    # the recovery pings ride the shared driver metrics: failed attempts in
    # the error breakdown, the successful one in the round-trip counts
    assert system.metrics.by_request_type["PingRequest"] > before_pings
    assert system.metrics.errors_by_request_type.get("PingRequest", 0) >= 1
    assert connection.stats.recovery_pings >= 1
