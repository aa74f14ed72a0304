"""Byte-level goldens for `analyze` and `verify` on a fixed corpus.

For each graph the golden records the `analyze --json` report without its
`timings_ms`, the `analyze` text without its `timings:` line, the `verify`
text, and both exit codes.  Timings are the only part of the output that
may change between runs.

Regenerate the goldens (only when an output change is intended) with:

    PYTHONPATH=src python3 tests/test_report_golden.py
"""
from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hellymetric import (
    Graph,
    build_obstruction,
    cycle_graph,
    hull,
    king_grid,
    random_connected_graph,
    to_edge_list,
)
from hellymetric.cli import main

GOLDEN = Path(__file__).parent / "golden" / "report_golden.json"


CORPUS: dict[str, Graph] = {
    "king_3x3": king_grid(3, 3),
    "king_4x5": king_grid(4, 5),
    "king_6x7": king_grid(6, 7),
    "H1_2_2": build_obstruction("H1", 2, 2).graph,
    "H2_1_1": build_obstruction("H2", 1, 1).graph,
    "H3_1_1": build_obstruction("H3", 1, 1).graph,
    "diamond": build_obstruction("H2", 0, 0).graph,
    "C5": cycle_graph(5),
    "gnp_12_4": random_connected_graph(12, 0.3, 4),
    "hull_gnp_7_2": hull(random_connected_graph(7, 0.3, 2)).graph,
}


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


def outputs(name: str, g: Graph, folder: Path) -> dict[str, object]:
    """Everything the goldens pin for one graph, timings stripped."""
    path = folder / f"{name}.edges"
    path.write_text(to_edge_list(g), encoding="utf-8")
    json_path = folder / f"{name}.json"
    analyze_rc, text = _run(["analyze", str(path), "--json", str(json_path)])
    report = json.loads(json_path.read_text(encoding="utf-8"))
    assert isinstance(report.pop("timings_ms"), dict)
    lines = text.splitlines()
    assert lines[-1].startswith("timings: ")
    verify_rc, verify_text = _run(["verify", str(path)])
    return {
        "analyze_rc": analyze_rc,
        "analyze_report": report,
        "analyze_text": lines[:-1],
        "verify_rc": verify_rc,
        "verify_text": verify_text.splitlines(),
    }


@pytest.fixture(scope="module")
def goldens() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_corpus_is_complete(goldens) -> None:
    assert sorted(goldens) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_outputs_match_golden(name: str, goldens, tmp_path) -> None:
    assert outputs(name, CORPUS[name], tmp_path) == goldens[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {name: outputs(name, g, Path(tmp)) for name, g in CORPUS.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(data)} goldens to {GOLDEN}")
