"""Reference kernels for the speed index.

Two fixed pieces of work timed right beside every measured slice: one for
the processor and one for the device — append a block to a file and fsync
it, the way a log append does.  The processor's is half tight loops (integer
arithmetic, dict build and lookup, string join/split, a sort, a JSON round
trip) and half a walk through a dozen pure-Python library routines (deep
copy, pretty-printing, shell and URL splitting, templates, fractions, text
wrapping, sequence matching).  The second half is there because the program
under test is an interpreter-bound engine with a wide code footprint: when
the neighbours are busy it slows by more than tight loops do, and a kernel
of loops alone left a tenth of that in the scaled timings.  They import
nothing from the system under test and their sizes never change, so the
time they take tells how fast this box is *right now* and nothing else.  A
slice's processor time is multiplied by ``REF_NOMINAL_MS`` / (kernel time
around the slice) and the time it waited for the device by
``DEVICE_NOMINAL_MS`` / (probe time around the slice), which expresses both
"at reference speed" and cancels the slow drift a shared box imposes.
"""

from __future__ import annotations

import copy
import difflib
import fractions
import json
import os
import pprint
import shlex
import statistics
import string
import textwrap
import time
from urllib.parse import parse_qs, quote, urlsplit

#: kernel time on the calm reference box, committed once.  Changing it
#: rescales every timing metric, so it moves only together with a fresh
#: baseline.
REF_NOMINAL_MS = 10.0

#: one probe append (open, write, fsync, close) on the calm reference box,
#: committed once like the above.
DEVICE_NOMINAL_MS = 0.22

DEVICE_PROBE_APPENDS = 5
#: sizes the library half of the processor kernel to about the time of the
#: loops half
LIBRARY_ROUNDS = 56
_BLOCK = b"\0" * 1024


_TEXT = " ".join(f"word{i % 97} token{i * 7 % 131}" for i in range(600))
_TREE = {
    f"k{i}": [{"a": i, "b": str(i) * 3, "c": [i, i + 1, (i, "x")]} for _ in range(3)]
    for i in range(40)
}
_TEMPLATE = string.Template("select $cols from $table where $key = $value and $other < $limit")
_URL = "http://host.example:8080/a/b/c/../d?x=1&y=two&z=%s#frag"


def _loops() -> int:
    acc = 0
    for i in range(40_000):
        acc = (acc * 31 + i) % 1_000_003
    table = {i: str(i * 7) for i in range(8_000)}
    hits = 0
    for i in range(0, 8_000, 2):
        hits += len(table[i])
    words = ",".join(table[i] for i in range(5_000)).split(",")
    words.sort(reverse=True)
    back = json.loads(json.dumps({"w": words[:1_000], "a": acc, "h": hits}))
    if back["a"] != acc or back["h"] != hits:
        raise AssertionError("reference kernel computed a wrong value")
    return acc + hits


def _library() -> int:
    wrapped = textwrap.wrap(_TEXT, 60)
    acc = len(wrapped) + len(copy.deepcopy(_TREE))
    acc += len(pprint.pformat(_TREE["k3"], width=50))
    acc += len(json.dumps(_TREE["k5"], indent=1, sort_keys=True))
    for i in range(LIBRARY_ROUNDS):
        acc += len(shlex.split(f"cmd --flag{i} 'quoted arg {i}' plain\\ {i} \"dq {i}\""))
        parts = urlsplit(_URL % quote(f"v {i}/é"))
        acc += len(parse_qs(parts.query)) + len(parts.path)
        acc += len(
            _TEMPLATE.substitute(cols="a,b", table=f"t{i}", key="k", value=i, other="o", limit=i * 3)
        )
    value = fractions.Fraction(1, 3)
    for i in range(1, 40):
        value = value * fractions.Fraction(i, i + 2) + fractions.Fraction(1, i + 5)
    matcher = difflib.SequenceMatcher(None, wrapped[0] + wrapped[1], wrapped[1] + wrapped[2])
    return acc + value.denominator % 7 + int(matcher.ratio() * 100)


def kernel() -> float:
    """Run the fixed processor work once; returns the elapsed milliseconds."""
    start = time.perf_counter()
    if _loops() + _library() < 0:
        raise AssertionError("reference kernel computed a wrong value")
    return (time.perf_counter() - start) * 1e3


def device_probe(path: str) -> float:
    """Append a block to ``path`` and force it, a fixed number of times;
    returns the median milliseconds of one append."""
    times = []
    for _ in range(DEVICE_PROBE_APPENDS):
        start = time.perf_counter()
        with open(path, "ab") as handle:
            handle.write(_BLOCK)
            handle.flush()
            os.fsync(handle.fileno())
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)
