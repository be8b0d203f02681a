"""Quickstart: a database session that survives a server crash.

Run:  python examples/quickstart.py
"""

import repro

# One call builds the whole deployment: a database server over in-memory
# stable storage, the wire, the native driver, and both driver managers
# (plain ODBC and Phoenix/ODBC).
system = repro.make_system()

# Connect through Phoenix — same API as the plain driver manager.
conn = repro.connect(system)  # phoenix=True is the default
cur = conn.cursor()

cur.execute("CREATE TABLE greetings (id INT PRIMARY KEY, text VARCHAR(40))")
cur.execute("INSERT INTO greetings VALUES (1, 'hello'), (2, 'world'), (3, '!')")
print("inserted:", cur.rowcount, "rows")

cur.execute("SELECT id, text FROM greetings ORDER BY id")
print("first row:", cur.fetchone())

# ----- pull the plug ---------------------------------------------------------
print("\n*** crashing the database server mid-session ***")
system.server.crash()
system.endpoint.restart_server()  # database recovery runs (WAL replay)
print("*** server restarted; the application just keeps going ***\n")

# The same cursor continues exactly where it stopped — the rows were
# materialized as a persistent server table before delivery began, so the
# crash cost nothing.
for row in cur.fetchall():
    print("resumed row:", row)

# And the session keeps working: the next statement transparently detects
# the lost session, rebuilds both underlying connections, replays the
# session context, and re-attaches the materialized state.
cur.execute("INSERT INTO greetings VALUES (4, 'still alive')")
cur.execute("SELECT count(*) FROM greetings")
print("\nrows now:", cur.fetchone()[0])
print("recoveries performed behind the scenes:", conn.stats.recoveries)
conn.close()
