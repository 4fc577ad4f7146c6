"""Correctness gate: compare workload outputs with references recorded at the
seed commit.

A value fails when it is more than ``TOL * max(1, |reference|)`` away from
its reference (an absolute 1e-12 for values of order one), is not finite, or
changes shape.  Verdicts, flags and counts must match exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-12
REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"
# Recorded inputs per workload; the workload seed picks one as seed % N_INPUTS.
N_INPUTS = 8


def input_index(seed):
    return seed % N_INPUTS


def load_references(path=REFERENCE_FILE):
    with open(path) as f:
        return json.load(f)


def deviations(got, ref, where=""):
    """List of human-readable mismatches between two nested records.

    Records are dicts of floats, ints, bools, strings and nested lists of
    floats (arrays).  Exact types (bool, int, str) must be equal; floats and
    arrays must agree to TOL relative to max(1, |reference|).
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(ref)}"]
        out = []
        for key in sorted(ref):
            out += deviations(got[key], ref[key], f"{where}.{key}" if where else key)
        return out
    if isinstance(ref, (int, str)):      # bool is an int
        return [] if got == ref and type(got) is type(ref) else [f"{where}: {got!r} != {ref!r}"]
    a = np.asarray(got, dtype=float)
    b = np.asarray(ref, dtype=float)
    if a.shape != b.shape:
        return [f"{where}: shape {a.shape} != {b.shape}"]
    err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    bad = ~(err <= TOL)          # NaN compares false, so it counts as bad
    if not np.any(bad):
        return []
    i = int(np.argmax(np.where(bad, np.nan_to_num(err, nan=math.inf), -1.0)))
    return [f"{where}: {int(bad.sum())} value(s) off reference, worst at flat index {i}: "
            f"{a.ravel()[i]!r} vs {b.ravel()[i]!r}"]


def as_record(x):
    """Plain JSON-compatible copy of a record with numpy values."""
    if isinstance(x, dict):
        return {k: as_record(v) for k, v in x.items()}
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, str):
        return x
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr.tolist()
