"""Choices and defaults that the command line offers and the layers own.

The planner's abstraction levels, its default node cap and the synthesis
search methods are defined here, once, so that the parser can list them
without loading :mod:`operadic.planner` or :mod:`operadic.synthesis`.
Both layers read them from here.
"""

from __future__ import annotations

import enum

DEFAULT_NODE_CAP = 2_000_000
METHODS = ("exhaustive", "anneal", "genetic")


class Level(enum.Enum):
    TIMED = "timed"
    PLAN = "plan"
    COUNTS = "counts"
