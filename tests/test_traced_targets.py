"""Every function the benchmark's traced run wraps must still exist.

perfbench/tracing.py replaces each (owner, attribute) pair in TRACED with a
timing wrapper during ``perfbench/run.py --trace 1``. A rename or deletion in
the package would otherwise show up only when that run fails.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import TRACED  # noqa: E402


def test_every_traced_target_resolves():
    for owner, attr, name, _ in TRACED:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
