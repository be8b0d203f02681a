"""The paper's §2 walkthrough: the customer / orders / invoices session.

Reproduces the eight-step example session from the paper (Figure 1) —
look up a customer named Smith, fetch their orders through a cursor,
aggregate the totals, update the invoice summary table — and injects a
server crash right in the middle of step 5 (fetching order detail rows).

Run it twice in your head: with the plain driver manager the application
dies at the crash (try ``PERSISTENT = False``); with Phoenix it finishes
and the invoice is exactly right.

Run:  python examples/customer_orders.py
"""

import repro
from repro.odbc.constants import CursorType, StatementAttr

PERSISTENT = True  # flip to False to watch the native stack fail

system = repro.make_system()

# ---- load the little order-entry database ----------------------------------
loader = system.plain.connect(system.DSN)
cur = loader.cursor()
cur.execute("""
    CREATE TABLE customer (
        c_id INT PRIMARY KEY, c_last VARCHAR(20), c_first VARCHAR(20)
    )""")
cur.execute("""
    CREATE TABLE orders (
        o_id INT PRIMARY KEY, o_cust INT, o_amount FLOAT
    )""")
cur.execute("CREATE TABLE invoices (i_cust INT PRIMARY KEY, i_total FLOAT)")
cur.execute("""
    INSERT INTO customer VALUES
        (1, 'Smith', 'Alice'), (2, 'Jones', 'Bob'), (3, 'Smith', 'Carol')""")
cur.execute("INSERT INTO orders VALUES " + ", ".join(
    f"({i}, {1 if i % 2 else 3}, {i * 10.5})" for i in range(1, 21)
))
loader.close()

# ---- the application session (paper steps 1-8) ------------------------------
# Step 1: open a connection and set application attributes.
conn = repro.connect(system, phoenix=PERSISTENT)
conn.cursor().execute("SET app_name 'order-entry'")

# Step 2: result set over the customer table for last name Smith.
customers = conn.cursor()
customers.execute("SELECT c_id, c_first FROM customer WHERE c_last = 'Smith' ORDER BY c_id")

# Step 3: fetch until the right customer is found.
target = None
while True:
    row = customers.fetchone()
    if row is None:
        raise SystemExit("no such customer")
    if row[1] == "Alice":
        target = row[0]
        break
print(f"found customer Smith, Alice → id {target}")

# Step 4: open a cursor over this customer's orders.
orders = conn.cursor()
orders.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
orders.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 3)
orders.execute(f"SELECT o_id, o_amount FROM orders WHERE o_cust = {target}")

# Step 5: fetch all matching order detail records — and the server dies
# halfway through.
total = 0.0
fetched = 0
while True:
    if fetched == 4:
        print("\n*** SERVER CRASH while fetching order details ***")
        system.server.crash()
        system.endpoint.restart_server()
        print("*** server recovered; continuing the fetch loop ***\n")
    row = orders.fetchone()
    if row is None:
        break
    fetched += 1
    total += row[1]
print(f"fetched {fetched} orders")

# Step 6: aggregate, Step 7: update the invoice summary.
invoice = conn.cursor()
invoice.execute(f"INSERT INTO invoices VALUES ({target}, {total})")
print(f"invoice written: customer {target}, total {total:.2f}")

# Verify against ground truth computed server-side.
check = conn.cursor()
check.execute(f"SELECT sum(o_amount) FROM orders WHERE o_cust = {target}")
expected = check.fetchone()[0]
assert abs(expected - total) < 1e-9, (expected, total)
print("invoice total matches the database: OK")

# Step 8: close the connection (Phoenix drops all its helper tables).
conn.close()
print("session closed cleanly; recoveries:", conn.stats.recoveries)
