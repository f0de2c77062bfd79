"""A fixed unit of interpreter work that measures how fast the host runs now.

``run.py`` runs this file as its own child between the program's runs;
its median wall time over a benchmark run is the host-speed reference
that the reported times are scaled by (see ``run.py``).  It imports
nothing from the program, so no change to the program can move it.
The mix mirrors what the measured runs spend their time on: dict and
string churn, object allocation, JSON encoding of many small records,
and small NumPy operations.
"""

import json

import numpy as np

table: dict[int, tuple[int, str]] = {}
for i in range(150000):
    key = i % 40999
    table[key] = (table.get(key, (0, ""))[0] + i, str(i))
rows = [{"time": i * 0.5, "kind": "admit", "session_id": i, "title": i % 100}
        for i in range(25000)]
text = json.dumps(rows, indent=2, sort_keys=True)
if len(json.loads(text)) != len(rows):
    raise SystemExit("calibration: JSON round trip lost rows")
values = np.random.default_rng(0).random(200000)
for _ in range(100):
    values = np.sort(values[::-1])
