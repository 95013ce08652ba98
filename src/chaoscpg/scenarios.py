"""The committed malfunction-scenario batteries.

The hexapod battery holds 21 rows: all six single-leg failures, six
two-leg failures and nine three-leg failures.  Multi-leg rows are reduced
under left/right mirroring (a row whose mirror is also a valid scenario
appears only once); the three-leg rows are exactly the sets with two right
legs and one left leg, which cover every mirror class except the
unrecoverable full-side failure.  The quadruped battery disables each leg
individually.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import FrozenSet, List

from .network import LegId, Morphology


def _load() -> dict:
    text = (resources.files("chaoscpg.data") / "batteries.json").read_text()
    return json.loads(text)


def battery(morphology: Morphology) -> List[FrozenSet[LegId]]:
    """Ordered disabled-leg sets of the committed battery."""
    raw = _load()[morphology.label]
    return [frozenset(LegId(name) for name in row) for row in raw]


def search_space_size(morphology: Morphology) -> int:
    """Number of distinct all-legs period assignments, 5 per leg."""
    return 5 ** len(morphology.legs)
