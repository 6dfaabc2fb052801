"""The command's output against the stored golden envelopes in ``tests/golden``.

Rewriting a golden file is a deliberate step: run ``tests/golden/regen.py``
and name the rewritten files, and why, in CHANGES.md.
"""

import difflib
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
        diff = "".join(difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            fromfile=f"golden/{name}", tofile="now",
        ))
        pytest.fail(f"{name} differs from its golden file:\n{diff}")
