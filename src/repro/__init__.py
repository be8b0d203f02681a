"""repro — a full reproduction of *Persistent Client-Server Database
Sessions* (Barga, Lomet, Baby, Agrawal; EDBT 2000).

The package contains the paper's contribution — Phoenix/ODBC, an enhanced
driver manager giving applications database sessions that survive server
crashes (:mod:`repro.core`) — plus every substrate it needs, built from
scratch: a SQL engine with WAL restart recovery (:mod:`repro.engine` and
:mod:`repro.sql`), a fault-injectable client/server wire (:mod:`repro.net`),
an ODBC-like client stack (:mod:`repro.odbc`), the TPC-H workload
(:mod:`repro.workloads.tpch`), and the benchmark harness (:mod:`repro.bench`).

Quickstart (PEP 249 front door)::

    import repro

    repro.make_system(dsn="main")         # server + endpoint + both managers
    conn = repro.connect("main")          # a Phoenix session (phoenix=False
    cur = conn.cursor()                   #  for the plain, non-persistent one)
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(20))")
    cur.execute("INSERT INTO t VALUES (?, ?)", [1, "hello"])
    cur.execute("SELECT * FROM t WHERE k = ?", [1])
    print(cur.fetchall())                 # [(1, 'hello')]

The module is a PEP 249 driver: ``repro.connect(dsn)``, ``repro.apilevel``,
``repro.threadsafety``, ``repro.paramstyle``, and the full error hierarchy
live at the top level (also as attributes of every connection class).
"""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import urlsplit

from repro import errors
from repro.errors import (
    DatabaseError,
    DataError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    Warning,
)
from repro.core import PhoenixConfig, PhoenixConnection, PhoenixCursor, PhoenixDriverManager
from repro.engine import DatabaseServer
from repro.engine.storage import FileStableStorage, InMemoryStableStorage, StableStorage
from repro.net import (
    FaultInjector,
    FaultKind,
    InProcessTransport,
    NetStats,
    NetworkMetrics,
    ServerEndpoint,
    TcpServer,
    TcpTransport,
    Transport,
)
from repro.obs import MetricsRegistry
from repro.odbc import Connection, DriverManager, NativeDriver, Statement

__version__ = "1.0.0"

# --- PEP 249 module globals ----------------------------------------------------
#: DB-API 2.0 compliance level
apilevel = "2.0"
#: 1 = threads may share the module, but not connections.  Honest: one
#: connection's state (cursors, txn log, recovery) is not internally locked;
#: the *server* serves many connections concurrently, so give each thread
#: its own connection.
threadsafety = 1
#: placeholders are ``?`` (qmark), bound positionally
paramstyle = "qmark"

__all__ = [
    "errors",
    # PEP 249 surface
    "apilevel",
    "threadsafety",
    "paramstyle",
    "connect",
    "Warning",
    "Error",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    # the simulated deployment
    "DatabaseServer",
    "ServerEndpoint",
    "Transport",
    "InProcessTransport",
    "TcpServer",
    "TcpTransport",
    "FaultInjector",
    "FaultKind",
    "NetworkMetrics",
    "NetStats",
    "MetricsRegistry",
    "DriverManager",
    "NativeDriver",
    "Connection",
    "Statement",
    "PhoenixDriverManager",
    "PhoenixConnection",
    "PhoenixCursor",
    "PhoenixConfig",
    "FileStableStorage",
    "InMemoryStableStorage",
    "System",
    "make_system",
    "register_system",
]


@dataclass
class System:
    """A fully wired single-server deployment (see :func:`make_system`)."""

    server: DatabaseServer
    endpoint: ServerEndpoint
    native: NativeDriver
    plain: DriverManager
    phoenix: PhoenixDriverManager
    registry: MetricsRegistry
    DSN: str = "main"
    #: the client transport the system's own driver rides (TCP when built
    #: with ``listen=``, else in-process)
    transport: Transport | None = None
    #: the TCP front end, when built with ``listen=`` (else ``None``)
    tcp: TcpServer | None = None

    @property
    def faults(self) -> FaultInjector:
        return self.endpoint.faults

    @property
    def metrics(self) -> NetworkMetrics:
        return self.native.metrics

    @property
    def url(self) -> str:
        """``tcp://host:port/<DSN>`` — the URL-DSN of the running listener
        (raises when the system has no TCP front end)."""
        if self.tcp is None:
            raise InterfaceError(
                "system has no TCP listener: build it with make_system(listen=...)"
            )
        return f"{self.tcp.url}/{self.DSN}"

    def close(self) -> None:
        """Stop the TCP front end (if any) and end the engine's sessions:
        each executor's compiled plans go with it, so what a closed system
        held is freed with it by reference count (plans, their tables and
        their executor refer to each other)."""
        if self.tcp is not None:
            self.tcp.stop()
        self.server.end_sessions()


def make_system(
    storage: StableStorage | None = None,
    *,
    dsn: str = "main",
    config: PhoenixConfig | None = None,
    registry: MetricsRegistry | None = None,
    listen: str | None = None,
) -> System:
    """Build server + wire + driver + both driver managers, ready to use.

    ``storage`` defaults to in-memory stable storage (instant crashes); pass
    a :class:`FileStableStorage` for on-disk durability.
    ``registry`` lets a caller supply its own :class:`MetricsRegistry`; by
    default each system gets a fresh one.  The server, the TCP front end
    and the native driver all count into it, so
    ``system.registry.snapshot()`` is the one-stop observability view.

    ``listen="host:port"`` additionally starts the asyncio TCP front end
    (:class:`TcpServer`; port ``0`` binds a free port — the bound address
    is ``system.tcp.address`` and the full URL-DSN ``system.url``), and the
    system's *own* driver stack rides it — so ``repro.connect(dsn)`` against
    a listening system already crosses real sockets.  Stop the listener
    with ``system.close()``.
    """
    address = _parse_listen(listen) if listen is not None else None
    if registry is None:
        registry = MetricsRegistry()
    server = DatabaseServer(storage, registry=registry)
    endpoint = ServerEndpoint(server)
    tcp_server = None
    client_transport: Transport = InProcessTransport(endpoint)
    if address is not None:
        host, port = address
        tcp_server = TcpServer(endpoint, host, port, stats=registry.net)
        tcp_server.start()
        client_transport = TcpTransport(*tcp_server.address)
    native = NativeDriver(client_transport, metrics=registry.network)
    plain = DriverManager()
    plain.register_dsn(dsn, native)
    phoenix = PhoenixDriverManager(config)
    phoenix.register_dsn(dsn, native)
    system = System(
        server=server,
        endpoint=endpoint,
        native=native,
        plain=plain,
        phoenix=phoenix,
        registry=registry,
        DSN=dsn,
        transport=client_transport,
        tcp=tcp_server,
    )
    register_system(system)
    return system


def _parse_listen(listen: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (port 0 = pick a free one)."""
    host, sep, port = listen.rpartition(":")
    if not sep or not host:
        raise InterfaceError(
            f"invalid listen address {listen!r}: expected 'host:port'"
        )
    return host, _parse_port(port, f"listen address {listen!r}")


def _parse_port(port: str, where: str) -> int:
    """A port's text → its number, an integer in 0–65535 (0 = pick a free
    one when listening)."""
    if not port.isdecimal() or int(port) > 65535:
        raise InterfaceError(
            f"invalid {where}: port must be an integer in 0-65535"
        )
    return int(port)


#: module-level DSN → System registry backing :func:`connect`'s PEP 249
#: string form.  :func:`make_system` auto-registers each system it builds
#: (last one wins per DSN — the same overwrite rule every driver manager's
#: ``register_dsn`` uses).
_systems: dict[str, System] = {}


def register_system(system: System) -> System:
    """Make ``system`` reachable as ``repro.connect(system.DSN)``."""
    _systems[system.DSN] = system
    return system


def connect(
    dsn: System | str = "main",
    *,
    phoenix: bool = True,
    user: str = "app",
    options: dict | None = None,
    config: PhoenixConfig | None = None,
):
    """Open a database session — the PEP 249 ``connect`` entry point.

    ``dsn`` names a system built by :func:`make_system` (which registers
    itself under its DSN); passing the :class:`System` object directly also
    works.  A URL DSN — ``"tcp://host:port/<name>"`` — instead opens a
    :class:`TcpTransport` to that address and builds (and caches, per
    address) a client-side driver stack over the socket: the way a second
    process would reach a system built with ``make_system(listen=...)``,
    whose address is ``system.url``.  ``phoenix=True`` (default) returns a
    persistent :class:`PhoenixConnection`; ``phoenix=False`` the plain,
    crash-exposed :class:`Connection` — the baseline the paper compares
    against.

    DB-API deviation (documented, deliberate): sessions start in
    *autocommit* mode like the ODBC stack the paper wraps; ``commit()`` /
    ``rollback()`` require an explicit ``begin()`` (or ``BEGIN
    TRANSACTION``) and raise :class:`~repro.errors.ProgrammingError`
    otherwise, rather than silently pretending a transaction existed.
    """
    if isinstance(dsn, str) and dsn.startswith("tcp://"):
        plain_manager, phoenix_manager, name = _url_stack(dsn)
    else:
        if isinstance(dsn, System):
            system = dsn
        else:
            try:
                system = _systems[dsn]
            except KeyError:
                raise InterfaceError(
                    f"unknown DSN {dsn!r}: build one first with repro.make_system(dsn={dsn!r})"
                ) from None
        plain_manager, phoenix_manager, name = system.plain, system.phoenix, system.DSN
    if not phoenix:
        return plain_manager.connect(name, user, options)
    return phoenix_manager.connect(name, user, options, config=config)


#: ``tcp://host:port/name`` → the client-side stack for that address (one
#: TcpTransport + NativeDriver + both driver managers, shared by every
#: connect to the same URL so their channels pool on one driver's metrics)
_url_stacks: dict[str, tuple[DriverManager, PhoenixDriverManager]] = {}


def _parse_url_dsn(url: str) -> tuple[str, int, str]:
    parts = urlsplit(url)
    if parts.scheme != "tcp":
        raise InterfaceError(f"unsupported DSN scheme {parts.scheme!r} in {url!r}")
    _, sep, port = parts.netloc.rpartition(":")
    if parts.hostname is None or not sep:
        raise InterfaceError(
            f"invalid URL DSN {url!r}: expected tcp://host:port/<name>"
        )
    name = parts.path.lstrip("/") or "main"
    return parts.hostname, _parse_port(port, f"URL DSN {url!r}"), name


def _url_stack(url: str) -> tuple[DriverManager, PhoenixDriverManager, str]:
    """The (cached) client-side managers for a URL DSN, and the DSN they
    registered its driver under."""
    host, port, name = _parse_url_dsn(url)
    key = f"tcp://{host}:{port}/{name}"
    stack = _url_stacks.get(key)
    if stack is None:
        native = NativeDriver(TcpTransport(host, port))
        plain_manager = DriverManager()
        plain_manager.register_dsn(key, native)
        phoenix_manager = PhoenixDriverManager()
        phoenix_manager.register_dsn(key, native)
        stack = _url_stacks[key] = (plain_manager, phoenix_manager)
    return (*stack, key)

