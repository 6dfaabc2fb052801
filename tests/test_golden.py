"""The command's output against the golden envelopes and help texts stored
in ``tests/golden``.

Rewriting a golden file is a deliberate step: run ``tests/golden/regen.py``
with the names of the cases to rewrite (``--check`` only prints the diffs),
and name the rewritten files, and why, in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_envelope_matches_golden(name):
    want = (GOLDEN / name).read_text()
    got = regen.golden(name)
    if got != want:
        pytest.fail(f"{name} differs from its golden file:\n{regen.diff(name, want, got)}")
