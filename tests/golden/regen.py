"""Golden envelopes for ``operadic --json analyze soundness``.

Each case runs the command in process, in a temporary directory that holds
its inputs under fixed relative names, so the envelope's ``inputs`` keys do
not depend on where the checkout lives.  ``timing_s`` is the one field that
changes between reruns; it is dropped before the envelope is stored.  A case
whose envelope runs to megabytes stores only its SHA-256 and a few counts.

Regenerate the files with ``python tests/golden/regen.py`` from the root of
the repository.  The tier-1 test ``tests/test_golden.py`` compares the
command's output against them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).parent
DATA = HERE.parent / "data"
SRC = HERE.parents[1] / "src"


def _seeded_unsound(seed: int = 17) -> dict:
    """Requirements on ``flat_functional`` with 5,832 valid states, 3,888 of
    them listed as counterexamples.

    The grid has two values for ``beam`` and ``focus`` and three for every
    other space.  The components pin the box temperature and the bath set
    point to one value each and the chassis drive to two; the two outer
    requirements each admit two of the three ``signal`` and ``temperature``
    values, so a state may break one, the other or both.
    """
    rng = random.Random(seed)
    sizes = {"beam": 2, "signal": 3, "focus": 2, "drive": 3, "count": 3,
             "heat": 3, "temperature": 3, "flow": 3}
    grid = {space: sorted(round(rng.uniform(0.0, 5.0), 3) for _ in range(n))
            for space, n in sizes.items()}

    def spans(space: str, n: int) -> list[list[float]]:
        return [[v - 1e-4, v + 1e-4] for v in sorted(rng.sample(grid[space], n))]

    return {
        "version": 1,
        "components": [
            {"boundary": "Box", "name": "box_temp", "intervals": {"temp": spans("temperature", 1)}},
            {"boundary": "Bath", "name": "bath_set_point", "intervals": {"setPt": spans("temperature", 1)}},
            {"boundary": "Chassis", "name": "chassis_drive", "intervals": {"drive": spans("drive", 2)}},
        ],
        "outer": [
            {"boundary": "LSI", "name": "lsi_lab_temp", "intervals": {"temp1": spans("temperature", 2)}},
            {"boundary": "LSI", "name": "lsi_intensity", "intervals": {"intensity": spans("signal", 2)}},
        ],
        "grid": grid,
    }


def _lab_temp_tight() -> dict:
    """The shipped requirements with the outer band narrowed to the lab
    temperature at exactly 20.0: 16 of the 24 valid states break it."""
    data = json.loads((DATA / "lsi_requirements.json").read_text())
    data["outer"] = [
        {"boundary": "LSI", "name": "lab_temp_tight", "intervals": {"temp1": [[20.0, 20.0]]}}
    ]
    return data


# golden file name -> (makes the requirements text, store only a digest)
CASES = {
    "soundness_fixture.json": (lambda: (DATA / "lsi_requirements.json").read_text(), False),
    "soundness_lab_temp_tight.json": (lambda: json.dumps(_lab_temp_tight(), indent=2), False),
    "soundness_seeded_unsound.json": (lambda: json.dumps(_seeded_unsound(), indent=2), True),
}


def envelope(requirements_text: str) -> str:
    """The ``--json`` envelope of ``analyze soundness`` on ``flat_functional``,
    minus ``timing_s``, as the command prints it."""
    from operadic.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "lsi_wiring.json").write_text((DATA / "lsi_wiring.json").read_text())
        Path(tmp, "requirements.json").write_text(requirements_text)
        out = io.StringIO()
        try:
            os.chdir(tmp)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                main(["--json", "analyze", "soundness", "lsi_wiring.json",
                      "flat_functional", "requirements.json"])
        finally:
            os.chdir(cwd)
    doc = json.loads(out.getvalue())
    del doc["timing_s"]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def golden(name: str) -> str:
    """The text stored for the case ``name``."""
    make_input, digest_only = CASES[name]
    text = envelope(make_input())
    if not digest_only:
        return text
    report = json.loads(text)["report"]
    summary = {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "sound": report["sound"],
        "checked": report["checked"],
        "counterexamples": len(report["counterexamples"]),
    }
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def main() -> None:
    for name in CASES:
        (HERE / name).write_text(golden(name))
        print(f"wrote {HERE / name}")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    main()
