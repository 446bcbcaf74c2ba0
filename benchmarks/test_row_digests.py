"""Pin the virtual-time rows of every paper figure to committed digests.

The shape tests beside this file check that each figure keeps the
paper's ordering; this one checks that its rows stay bit-identical.
Each figure harness runs once, at the fixed parameters in ``RUNS``
(smaller than the shape tests' so the whole file takes under a minute),
and the SHA-256 of its rows as canonical JSON must equal the entry in
``row_digests.json``.

A change that is meant to alter behaviour regenerates the file, and says
why in its change notes::

    PYTHONPATH=src python benchmarks/test_row_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.fig3a import run_fig3a
from repro.experiments.fig3b import run_fig3b
from repro.experiments.fig4a import run_fig4a
from repro.experiments.fig4b import run_fig4b
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6a import run_fig6a
from repro.experiments.fig6b import run_fig6b

DIGESTS = Path(__file__).resolve().with_name("row_digests.json")

#: figure -> (harness, keyword arguments)
RUNS = {
    "fig3a": (run_fig3a, {"events_per_client": 200}),
    "fig3b": (run_fig3b, {}),
    "fig4a": (run_fig4a, {"rank_divisor": 16}),
    "fig4b": (run_fig4b, {"rank_divisor": 16}),
    "fig5": (run_fig5, {"rank_divisor": 16}),
    "fig6a": (run_fig6a, {"rank_divisor": 16}),
    "fig6b": (run_fig6b, {"rank_divisor": 16}),
}


def row_digest(rows: list[dict]) -> str:
    """SHA-256 of ``rows`` as canonical JSON (sorted keys, no spaces)."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def figure_digest(name: str) -> str:
    fn, kwargs = RUNS[name]
    return row_digest(fn(**kwargs))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rows_match_committed_digest(name):
    reference = json.loads(DIGESTS.read_text())
    assert figure_digest(name) == reference[name]


def test_digest_file_covers_every_run():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(RUNS)


if __name__ == "__main__":
    digests = {name: figure_digest(name) for name in sorted(RUNS)}
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        DIGESTS.write_text(text)
    print(text, end="")
