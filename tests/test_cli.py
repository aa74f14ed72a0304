"""End-to-end command-line tests, run in-process through main(argv)."""
from __future__ import annotations

import json

import pytest

from hellymetric import (
    Graph,
    HalfInt,
    InternalInconsistencyError,
    build_obstruction,
    cycle_graph,
    king_grid,
    load_graph,
    to_edge_list,
)
from hellymetric.cli import _read_graph, main
from hellymetric.families import FamilyGraph
from hellymetric.report import CLAIM_IDS


def write_graph(tmp_path, name: str, g) -> str:
    p = tmp_path / name
    p.write_text(to_edge_list(g), encoding="utf-8")
    return str(p)


def assert_no_floats(obj) -> None:
    if isinstance(obj, float):
        raise AssertionError(f"float leaked into JSON payload: {obj}")
    if isinstance(obj, dict):
        for v in obj.values():
            assert_no_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            assert_no_floats(v)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_king_grid_is_deterministic(capsys) -> None:
    assert main(["generate", "--family", "king", "--p", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--family", "king", "--p", "3", "--q", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "# king_grid(3,3) n=9 m=20" in first
    assert "# cell 0 = (0,0)" in first
    edges = [ln for ln in first.splitlines() if ln and not ln.startswith("#")]
    assert len(edges) == 20
    g = load_graph(first)
    assert g.n == 9 and g.m == 20


def test_generate_h3_writes_annotated_file(tmp_path, capsys) -> None:
    out = tmp_path / "sun.edges"
    code = main(["generate", "--family", "h3", "--k", "0", "-o", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    for tag in "abcd":
        assert f"# corner {tag}=" in text
    assert "host=(" in text
    g = load_graph(text)
    assert g.n == 8 and g.m == 14


def test_generate_rectangular_family(capsys) -> None:
    assert main(["generate", "--family", "h1", "--k", "2", "--l", "1"]) == 0
    out = capsys.readouterr().out
    assert "# H1(2,1) n=8" in out
    g = load_graph(out)
    assert g.n == 8


def test_generate_family_reads_the_host_cells_once(monkeypatch, capsys) -> None:
    # one host_cells() call per file, not one per vertex
    calls = []
    host_cells = FamilyGraph.host_cells

    def counted(self):
        calls.append(self.family)
        return host_cells(self)

    monkeypatch.setattr(FamilyGraph, "host_cells", counted)
    for fam in ("h1", "h2", "h3"):
        assert main(["generate", "--family", fam, "--k", "3"]) == 0
        out = capsys.readouterr().out
        fg = build_obstruction(fam.upper(), 3, 3)
        assert f"# cell {fg.graph.n - 1} = " in out
    assert calls == ["H1", "H2", "H3"]


def test_generate_missing_parameter_is_an_input_error(capsys) -> None:
    assert main(["generate", "--family", "h1"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["generate", "--family", "king"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["generate", "--family", "random-hull"]) == 1
    assert "error:" in capsys.readouterr().err


def test_generate_hopeless_random_hull_is_an_input_error(capsys) -> None:
    # at this prob a draw on 2,000 vertices is almost never connected
    args = ["generate", "--family", "random-hull", "--n", "2000", "--prob", "0.0025"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: no connected G(2000,0.0025)")


def test_generate_random_hull_is_deterministic(capsys) -> None:
    argv = ["generate", "--family", "random-hull", "--n", "5", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert first == capsys.readouterr().out
    assert "# base gnp(n=5, prob=0.3, seed=3)" in first
    load_graph(first)  # parses back as a connected graph


def test_generate_random_hull_refusal(capsys) -> None:
    argv = ["generate", "--family", "random-hull", "--n", "40", "--seed", "1"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hull enumeration refused: ")
    assert captured.err.count("\n") == 1


def test_generate_dot_outputs(capsys) -> None:
    assert main(["generate", "--family", "h1", "--k", "1", "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith('graph "H1(1,1)"') and dot.rstrip().endswith("}")
    assert main(["generate", "--family", "king", "--p", "3", "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith('graph "king_grid(3,3)"')


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_helly_graph(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "king33.edges", king_grid(3, 3))
    json_path = tmp_path / "report.json"
    code = main(["analyze", path, "--json", str(json_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "helly: yes" in out
    assert "hyperbolicity: 1 " in out
    assert "agree=yes" in out

    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert_no_floats(payload)
    assert payload["name"] == "king33"
    assert payload["n"] == 9 and payload["m"] == 20
    assert payload["is_helly"] is True
    assert payload["hyperbolicity_doubled"] == 2
    assert payload["thinness"] == 2
    assert payload["classifiers"]["agree"] is True
    assert payload["classifiers"]["by_obstructions_doubled"] == 2
    assert payload["classifiers"]["by_thinness_doubled"] == 2
    assert all(
        entry["within"] == (entry["threshold_doubled"] >= 2)
        for entry in payload["classifiers"]["power"]
    )
    assert payload["equivalents"] == {
        "hyperbolicity_le_half": False,
        "no_induced_c4_or_sun_tips": False,
        "g_and_square_c4_free": False,
        "thinness_le_1_no_sun_tips": False,
    }
    assert payload["probes"][-1]["fired"] is True
    assert payload["hull"]["n"] == 9  # Helly graphs are their own hulls
    assert all(payload["hull"]["checks"].values())
    assert all(isinstance(v, int) for v in payload["timings_ms"].values())


def test_analyze_non_helly_graph_warns(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "c5.edges", cycle_graph(5))
    code = main(["analyze", path])
    out = capsys.readouterr().out
    assert code == 4
    assert "helly: no" in out
    assert "counterexample disks:" in out
    assert "routes: skipped" in out
    assert "hyperbolicity: 1/2 " in out


def test_analyze_no_hull_flag(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "k33.edges", king_grid(3, 3))
    json_path = tmp_path / "r.json"
    assert main(["analyze", path, "--no-hull", "--json", str(json_path)]) == 0
    capsys.readouterr()
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["hull"] is None


def test_analyze_json_to_stdout(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "k4.edges", king_grid(2, 2))
    assert main(["analyze", path, "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert '"name": "k4"' in out


def test_analyze_decides_pseudo_modularity_on_large_input(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "king1010.edges", king_grid(10, 10))
    json_path = tmp_path / "r.json"
    assert main(["analyze", path, "--no-hull", "--json", str(json_path)]) == 0
    assert "pseudo-modular: yes" in capsys.readouterr().out
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["is_pseudo_modular"] is True
    assert payload["pseudo_modular_note"] is None


def assert_internal_inconsistency(capsys) -> None:
    err = capsys.readouterr().err
    assert err.startswith("internal inconsistency: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_analyze_exits_2_when_routes_disagree(tmp_path, capsys, monkeypatch) -> None:
    import hellymetric.detect as detect

    def disagreeing(a, **kwargs):
        raise InternalInconsistencyError("probe and scan disagree")

    path = write_graph(tmp_path, "diamond.edges", build_obstruction("H2", 0, 0).graph)
    monkeypatch.setattr(detect, "hb_by_obstructions", disagreeing)
    assert main(["analyze", path]) == 2
    assert_internal_inconsistency(capsys)


def test_analyze_exits_2_when_a_route_returns_a_wrong_value(
    tmp_path, capsys, monkeypatch
) -> None:
    import hellymetric.detect as detect

    def off_by_half(a):
        hb, _ = a.hyperbolicity
        return HalfInt(hb.doubled + 1)

    path = write_graph(tmp_path, "diamond.edges", build_obstruction("H2", 0, 0).graph)
    json_path = tmp_path / "r.json"
    monkeypatch.setattr(detect, "hb_by_thinness", off_by_half)
    assert main(["analyze", path, "--no-hull", "--json", str(json_path)]) == 2
    captured = capsys.readouterr()
    assert "routes: obstructions=1/2 thinness=1 agree=NO\n" in captured.out
    assert captured.err == ""
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["classifiers"]["agree"] is False
    assert payload["classifiers"]["by_thinness_doubled"] == 2


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def test_detect_fires_on_king_grid(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "king33.edges", king_grid(3, 3))
    json_path = tmp_path / "w.json"
    code = main(
        [
            "detect",
            path,
            "--family",
            "h1",
            "--k",
            "0",
            "--materialize",
            "--json",
            str(json_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "witness: family=H1 k=1 l=1" in out
    assert "corners: x=1 y=3 z=7 t=5" in out
    assert "materialized (5 vertices): 1 3 4 5 7" in out

    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["is_helly"] is True
    assert payload["fired"] is True
    assert payload["witness"]["family"] == "H1"
    assert payload["witness"]["materialized"] == [1, 3, 4, 5, 7]
    assert payload["note"] is None


def test_detect_certified_absence(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "king33.edges", king_grid(3, 3))
    code = main(["detect", path, "--family", "h2", "--k", "1"])
    out = capsys.readouterr().out
    assert code == 3
    assert "certified absence" in out


def test_detect_on_non_helly_input(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "c5.edges", cycle_graph(5))
    code = main(["detect", path, "--family", "h1", "--k", "0"])
    out = capsys.readouterr().out
    assert code == 4
    assert "warning: input is not Helly" in out

    path4 = write_graph(tmp_path, "c4.edges", cycle_graph(4))
    code = main(["detect", path4, "--family", "h1", "--k", "0"])
    out = capsys.readouterr().out
    assert code == 4
    assert "detector aborted on non-Helly structure" in out


# ---------------------------------------------------------------------------
# hull
# ---------------------------------------------------------------------------

def test_hull_stdout_carries_sidecar(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "c5.edges", cycle_graph(5))
    assert main(["hull", path]) == 0
    out = capsys.readouterr().out
    sidecar_lines = [ln for ln in out.splitlines() if ln.startswith("# sidecar: ")]
    assert len(sidecar_lines) == 1
    sidecar = json.loads(sidecar_lines[0].removeprefix("# sidecar: "))
    assert sidecar["n"] == 6
    assert len(sidecar["functions"]) == 6
    assert len(sidecar["embedding"]) == 5


def test_hull_file_output_writes_json_sidecar(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "c5.edges", cycle_graph(5))
    out_path = tmp_path / "hull.edges"
    assert main(["hull", path, "-o", str(out_path)]) == 0
    hg = load_graph(out_path.read_text(encoding="utf-8"))
    assert hg.n == 6 and hg.m == 10
    sidecar = json.loads((tmp_path / "hull.edges.json").read_text(encoding="utf-8"))
    assert set(sidecar) == {"n", "functions", "embedding"}
    assert sidecar["n"] == 6


def test_hull_budget_refusal(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.setenv("HELLYMETRIC_HULL_BUDGET", "10")
    path = write_graph(tmp_path, "c6.edges", cycle_graph(6))
    assert main(["hull", path]) == 4
    assert "hull enumeration refused" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["abc", "0", "-5"])
@pytest.mark.parametrize("command", ["analyze", "hull"])
def test_bad_hull_budget_is_an_input_error(
    tmp_path, capsys, monkeypatch, command, bad
) -> None:
    monkeypatch.setenv("HELLYMETRIC_HULL_BUDGET", bad)
    path = write_graph(tmp_path, "c6.edges", cycle_graph(6))
    assert main([command, path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: HELLYMETRIC_HULL_BUDGET: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "missing.edges"],
        ["hull", "missing.edges"],
        ["generate", "--family", "random-hull"],  # no --n
    ],
)
def test_bad_hull_budget_is_reported_before_input_errors(
    tmp_path, capsys, monkeypatch, argv
) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HELLYMETRIC_HULL_BUDGET", "abc")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: HELLYMETRIC_HULL_BUDGET: not an integer: 'abc'\n"


def test_analyze_without_hull_ignores_the_hull_budget(
    tmp_path, capsys, monkeypatch
) -> None:
    path = write_graph(tmp_path, "king3.edges", king_grid(3, 3))
    assert main(["analyze", path, "--no-hull"]) == 0
    clean = capsys.readouterr()
    monkeypatch.setenv("HELLYMETRIC_HULL_BUDGET", "abc")
    assert main(["analyze", path, "--no-hull"]) == 0
    out, err = capsys.readouterr()
    assert err == clean.err == ""
    assert out.splitlines()[:-1] == clean.out.splitlines()[:-1]  # all but timings


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------

def test_power_emits_the_squared_graph(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "c5.edges", cycle_graph(5))
    assert main(["power", path, "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "# c5^2 n=5 m=10" in out
    g = load_graph(out)
    assert g.n == 5 and g.m == 10  # the square of C5 is complete


def test_power_requires_positive_k(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "c5.edges", cycle_graph(5))
    assert main(["power", path, "--k", "0"]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_helly_graph(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "king33.edges", king_grid(3, 3))
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == len(CLAIM_IDS)
    assert all(ln.startswith("PASS") for ln in lines)
    for claim in CLAIM_IDS:
        assert claim in out


def test_verify_skips_on_non_helly_graph(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "c9.edges", cycle_graph(9))
    assert main(["verify", path]) == 4
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == len(CLAIM_IDS)
    assert all(ln.startswith("SKIP") for ln in lines)


VERIFY_KING_4X5 = {
    "Thm3-window": "PASS Thm3-window       2h=3, tau=3, odd-probe fired=False",
    "Thm4-int": "PASS Thm4-int          k=0..2",
    "Thm4-half": "PASS Thm4-half         k=0..2",
    "Thm5-powers": "PASS Thm5-powers       thresholds 0..5/2",
    "Cor2-parity": "PASS Cor2-parity       thinness route gives 3/2, direct 3/2, tau=3",
    "Cor3-equivalents": "PASS Cor3-equivalents  hyperbolicity_le_half=False, "
    "no_induced_c4_or_sun_tips=False, g_and_square_c4_free=False, "
    "thinness_le_1_no_sun_tips=False",
}

VERIFY_KING_2X4 = {
    "Thm3-window": "PASS Thm3-window       2h=1, tau=1, odd-probe fired=False",
    "Thm4-int": "PASS Thm4-int          k=0..1",
    "Thm4-half": "PASS Thm4-half         k=0..1",
    "Thm5-powers": "PASS Thm5-powers       thresholds 0..3/2",
    "Cor2-parity": "PASS Cor2-parity       thinness route gives 1/2, direct 1/2, tau=1",
    "Cor3-equivalents": "PASS Cor3-equivalents  hyperbolicity_le_half=True, "
    "no_induced_c4_or_sun_tips=True, g_and_square_c4_free=True, "
    "thinness_le_1_no_sun_tips=True",
}


def _flip_probe(monkeypatch, flip_td: int) -> None:
    from hellymetric.detect import Analysis

    probe = Analysis.probe

    def flipped(self, td):
        w = probe(self, td)
        if td != flip_td:
            return w
        return None if w is not None else object()

    monkeypatch.setattr(Analysis, "probe", flipped)


def _flip_power(monkeypatch, flip: HalfInt) -> None:
    import hellymetric.detect as detect

    power = detect.power_characterization

    def flipped(a, threshold):
        within = power(a, threshold)
        return not within if threshold == flip else within

    monkeypatch.setattr(detect, "power_characterization", flipped)


def _thinness_off_by_half(monkeypatch) -> None:
    import hellymetric.report as report

    by_thinness = report.hb_by_thinness
    monkeypatch.setattr(
        report, "hb_by_thinness", lambda a: HalfInt(by_thinness(a).doubled + 1)
    )


def _one_equivalent_false(monkeypatch) -> None:
    import hellymetric.report as report

    equivalents = report.half_hyperbolic_equivalents

    def one_false(a):
        return {**equivalents(a), "g_and_square_c4_free": False}

    monkeypatch.setattr(report, "half_hyperbolic_equivalents", one_false)


@pytest.mark.parametrize(
    "shape, patch, expected",
    [
        # the even probe at k=1 misses
        (
            (4, 5),
            lambda mp: _flip_probe(mp, 2),
            {"Thm4-int": "FAIL Thm4-int          k=0..2, mismatched at k=1"},
        ),
        # the odd probe at tau fires: three claims read it
        (
            (4, 5),
            lambda mp: _flip_probe(mp, 3),
            {
                "Thm3-window": "FAIL Thm3-window       2h=3, tau=3, "
                "odd-probe fired=True",
                "Thm4-half": "FAIL Thm4-half         k=0..2, mismatched at k=1",
                "Cor2-parity": "FAIL Cor2-parity       thinness route gives 2, "
                "direct 3/2, tau=3",
            },
        ),
        (
            (4, 5),
            lambda mp: _flip_power(mp, HalfInt(2)),
            {
                "Thm5-powers": "FAIL Thm5-powers       thresholds 0..5/2, "
                "mismatched at 1"
            },
        ),
        (
            (4, 5),
            _thinness_off_by_half,
            {
                "Cor2-parity": "FAIL Cor2-parity       thinness route gives 2, "
                "direct 3/2, tau=3"
            },
        ),
        (
            (2, 4),
            _one_equivalent_false,
            {
                "Cor3-equivalents": "FAIL Cor3-equivalents  "
                "hyperbolicity_le_half=True, no_induced_c4_or_sun_tips=True, "
                "g_and_square_c4_free=False, thinness_le_1_no_sun_tips=True"
            },
        ),
    ],
    ids=["probe-even", "probe-odd", "power", "thinness", "equivalents"],
)
def test_verify_fails_each_claim_a_wrong_route_breaks(
    tmp_path, capsys, monkeypatch, shape, patch, expected
) -> None:
    # each patch breaks one route; exactly the claims that read it FAIL,
    # with the mismatch named, and verify exits 2
    path = write_graph(tmp_path, "king.edges", king_grid(*shape))
    base = VERIFY_KING_4X5 if shape == (4, 5) else VERIFY_KING_2X4
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == "".join(f"{ln}\n" for ln in base.values())
    patch(monkeypatch)
    assert main(["verify", path]) == 2
    want = {**base, **expected}
    assert capsys.readouterr().out == "".join(f"{ln}\n" for ln in want.values())


# ---------------------------------------------------------------------------
# input errors and environment
# ---------------------------------------------------------------------------

def test_missing_file_is_an_input_error(capsys) -> None:
    assert main(["analyze", "/nonexistent/graph.edges"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_file_is_an_input_error(tmp_path, capsys) -> None:
    p = tmp_path / "bad.edges"
    p.write_text("0 1\n2\n", encoding="utf-8")
    assert main(["analyze", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_disconnected_file_is_an_input_error(tmp_path, capsys) -> None:
    p = tmp_path / "disc.edges"
    p.write_text("0 1\n2 3\n", encoding="utf-8")
    assert main(["analyze", str(p)]) == 1
    assert "not connected" in capsys.readouterr().err


def test_huge_stray_vertex_id_is_an_input_error(tmp_path, capsys) -> None:
    p = tmp_path / "stray.edges"
    p.write_text("0 1\n0 4000000000\n", encoding="utf-8")
    assert main(["analyze", str(p)]) == 1
    assert "input graph is not connected" in capsys.readouterr().err


def exit_code(argv: list[str]) -> int:
    """The code of the SystemExit that argument parsing raises."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "g.edges", "--threads", "abc"],
        ["analyze", "g.edges", "--threads", "0"],
        ["analyze", "g.edges", "--threads", "-3"],
        ["analyze"],
        ["analyze", "g.edges", "--no-such-flag"],
        ["bogus"],
        [],
        ["generate", "--family", "king", "--p", "x"],
    ],
)
def test_argument_errors_are_input_errors(argv, capsys) -> None:
    assert exit_code(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_threads_error_names_the_bound(capsys) -> None:
    assert exit_code(["analyze", "g.edges", "--threads", "0"]) == 1
    assert "--threads: must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["verify", "-h"]])
def test_help_exits_0(argv, capsys) -> None:
    assert exit_code(argv) == 0
    assert "usage:" in capsys.readouterr().out


def test_oversize_file_is_an_input_error(tmp_path, capsys) -> None:
    # the path on 32,769 vertices has a distance past the int16 matrix
    p = tmp_path / "path.edges"
    p.write_text("".join(f"{v} {v + 1}\n" for v in range(32_768)), encoding="utf-8")
    assert main(["analyze", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_read_graph_builds_the_graph_once(tmp_path, monkeypatch) -> None:
    # each Graph holds one bitmask per vertex, so a second copy doubles the
    # memory an oversize input takes before apsp refuses it
    path = write_graph(tmp_path, "king_3x4.edges", king_grid(3, 4))
    built: list[int] = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs) -> None:
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    g = _read_graph(path)
    assert len(built) == 1
    assert g.name == "king_3x4"
    assert sorted(g.edges()) == sorted(king_grid(3, 4).edges())


def test_threads_flag_changes_no_output(tmp_path, capsys) -> None:
    path = write_graph(tmp_path, "king45.edges", king_grid(4, 5))
    runs = []
    for threads in ("1", "4"):
        json_path = tmp_path / f"report{threads}.json"
        assert main(["analyze", path, "--threads", threads, "--json", str(json_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        del payload["timings_ms"]
        runs.append(([line for line in lines if not line.startswith("timings:")], payload))
    assert runs[0] == runs[1]
