"""CSV result tables with provenance headers.

Every table starts with ``# key = value`` lines (at least the claim
being tested, the master seed, and ``reduction = deterministic``: each
Monte Carlo estimate is drawn from one seeded stream, whatever the
worker count), then a column header, then data rows. Floats are written with 17 significant digits
so a rewrite of the same run is byte-identical. Timing never goes into
the file; it belongs on stderr.
"""

from __future__ import annotations

import io
import numpy as np


def format_value(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


class ResultTable:
    def __init__(self, claim, seed, columns):
        self.meta = {"claim": str(claim), "seed": str(int(seed)), "reduction": "deterministic"}
        self.columns = tuple(columns)
        self.rows = []

    def add_meta(self, key, value):
        key = str(key)
        if "=" in key or "\n" in key:
            raise ValueError("metadata keys must be plain words")
        self.meta[key] = str(value)

    def append(self, *row):
        if len(row) != len(self.columns):
            raise ValueError(f"row has {len(row)} fields, table has {len(self.columns)} columns")
        self.rows.append(tuple(row))

    def render(self):
        buf = io.StringIO()
        for k, v in self.meta.items():
            buf.write(f"# {k} = {v}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(format_value(x) for x in row) + "\n")
        return buf.getvalue()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.render())
