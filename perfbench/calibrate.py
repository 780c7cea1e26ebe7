"""Host-speed probe: one fresh interpreter that imports numpy and a few
standard modules and runs a fixed pure-Python loop, the same mix of work
as a cold ``repro`` command.

It reads no file of the program (``-I`` keeps ``PYTHONPATH`` out), so no
change to ``src/`` moves it.  ``common.calibrate`` times it; the gated
timings are scaled by it (see ``common.Scaler``).
"""

import decimal  # noqa: F401
import email.parser  # noqa: F401
import json  # noqa: F401

import numpy  # noqa: F401

table = {}
for i in range(300000):
    table[i % 997] = table.get(i % 997, 0) + i
