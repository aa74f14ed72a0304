"""Graph ingest: the exact error texts of ``load_graph`` and ``Graph``, the
numpy parse and constructor against the line loop and set-based oracles,
and the constructor's memory bound."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import line_loop_load_graph, set_graph_adjacency

from hellymetric import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    cycle_graph,
    king_grid,
    load_graph,
    random_connected_graph,
    to_edge_list,
)
from hellymetric import graphs


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("0 1\n0 1 2\n", GraphError, "line 2: expected 'u v', got '0 1 2'"),
        ("0 1\n\n7\n", GraphError, "line 3: expected 'u v', got '7'"),
        ("# h\n0 1\na 1\n", GraphError, "line 3: non-integer token in 'a 1'"),
        ("0 1\n1 2.0\n", GraphError, "line 2: non-integer token in '1 2.0'"),
        ("0 1\r\n1 -2\r\n", GraphError, "line 2: negative vertex id in '1 -2'"),
        ("0 1\n1 1\n", GraphError, "line 2: self-loop at vertex 1"),
        ("0 1\n1 2\n2 3\n3 3\n", GraphError, "line 4: self-loop at vertex 3"),
        ("0 1\n  2\t2  \n", GraphError, "line 2: self-loop at vertex 2"),
        ("# h\n0 1\n\n# 2 2\n1 1\n", GraphError, "line 5: self-loop at vertex 1"),
        ("# only comments\n\n", GraphError, "empty edge set"),
        ("", GraphError, "empty edge set"),
        ("\n \t\n", GraphError, "empty edge set"),
        ("0 1\n0 100000\n", DisconnectedGraphError, "input graph is not connected"),
        ("0 1\n2 3\n1 0\n", DisconnectedGraphError, "input graph is not connected"),
        ("0 1\n2 3\n4 5\n", DisconnectedGraphError, "input graph is not connected"),
    ],
)
def test_load_graph_error_texts(text: str, error: type, message: str) -> None:
    with pytest.raises(error) as info:
        load_graph(text)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        # each document holds several bad lines; the first one is reported
        ("0 1\n2 2\nx y\n3\n", "line 2: self-loop at vertex 2"),
        ("0 1\nx y\n2 2\n", "line 2: non-integer token in 'x y'"),
        ("0 1\n1 -1\n1 2 3\n", "line 2: negative vertex id in '1 -1'"),
        ("0 1\n1 2 3\n1 -1\n", "line 2: expected 'u v', got '1 2 3'"),
        ("0 1\n1 2\n5 5\n2 2\n", "line 3: self-loop at vertex 5"),
        # a long run of good lines must not make the document check backtrack
        ("0 1\n" * 3000 + "7\n", "line 3001: expected 'u v', got '7'"),
    ],
)
def test_load_graph_reports_the_first_bad_line(text: str, message: str) -> None:
    with pytest.raises(GraphError) as info:
        load_graph(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (0, [], "graph needs at least one vertex"),
        (3, [(0, 1.5)], "vertex ids must be ints, got (0, 1.5)"),
        (3, [(0, 1), ("1", 2)], "vertex ids must be ints, got ('1', 2)"),
        (3, [(None, 2)], "vertex ids must be ints, got (None, 2)"),
        (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
        (3, [(0, 5)], "edge (0,5) out of range for n=3"),
        (3, [(-1, 0)], "edge (-1,0) out of range for n=3"),
        (3, [(0, 10**30)], f"edge (0,{10**30}) out of range for n=3"),
        (3, [(0, 3)], "edge (0,3) out of range for n=3"),
        # the first bad edge decides, whatever is wrong with the later ones
        (3, [(0, 1), (1, 1), (0, 9), (0, "x")], "self-loop at vertex 1"),
        (3, [(0, 1), (0, 9), (1, 1), (0, "x")], "edge (0,9) out of range for n=3"),
        (3, [(0, 1), (0, "x"), (0, 9), (1, 1)], "vertex ids must be ints, got (0, 'x')"),
        (3, [(7, 7)], "self-loop at vertex 7"),
    ],
)
def test_graph_error_texts(n: int, edges: list, message: str) -> None:
    with pytest.raises(GraphError) as info:
        Graph(n, edges)
    assert type(info.value) is GraphError
    assert str(info.value) == message


def test_graph_checks_its_edges_before_its_labels() -> None:
    with pytest.raises(GraphError) as info:
        Graph(3, [(0, 1)], vertex_labels=["a", "b"])
    assert str(info.value) == "vertex_labels length must equal n"
    with pytest.raises(GraphError) as info:
        Graph(3, [(0, 4)], vertex_labels=["a", "b"])
    assert str(info.value) == "edge (0,4) out of range for n=3"


def test_graph_checks_its_labels_before_building_the_adjacency(monkeypatch) -> None:
    # a wrong-length label list is refused before any adjacency row is packed
    def no_build(mask):
        raise AssertionError("the adjacency was built")

    monkeypatch.setattr(graphs, "bit_rows", no_build)
    with pytest.raises(GraphError) as info:
        Graph(3, [(0, 1), (1, 2)], vertex_labels=["a", "b"])
    assert str(info.value) == "vertex_labels length must equal n"


def adjacency(g: Graph) -> tuple:
    return g.m, g.neighbors, g.adj_bits


def outcome(build) -> tuple:
    try:
        return "ok", build()
    except (GraphError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


# Python's int() reads these digits too; the numpy parse must leave them to the loop
_DIGIT_SETS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")


@st.composite
def id_token(draw, vertex: int) -> str:
    """``vertex`` spelled plainly or in one of the spellings int() accepts."""
    plain = str(vertex)
    style = draw(st.sampled_from(
        ["plain"] * 6 + ["zeros", "plus", "underscore", "unicode", "twenty"]
    ))
    if style == "zeros":
        return "00" + plain
    if style == "plus":
        return "+" + plain
    if style == "underscore" and len(plain) > 1:
        return plain[0] + "_" + plain[1:]
    if style == "unicode":
        digits = draw(st.sampled_from(_DIGIT_SETS))
        return plain.translate(str.maketrans("0123456789", digits))
    if style == "twenty":
        return plain.zfill(20)
    return plain


# comment texts, some holding a line break other than "\n" that str.splitlines
# counts, which ends the comment there; a document holds one of them, so that
# the numpy parse is tried against each break on its own
_COMMENTS = (
    "#", "#0 0", "# a\rb", "# a\x0bb", "# a\x1db", "# a\x85b", "# a\u2028b"
)


@st.composite
def edge_documents(draw) -> str:
    """Edge lists of small graphs: plain documents and documents with '#'
    comments and blank lines, which take the numpy parse, and documents with
    every variation the line loop reads."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=24
    ))
    if not draw(st.booleans()):  # no self-loop, so most documents parse
        pairs = [(u, v) for u, v in pairs if u != v] or [(0, 1)]
    if draw(st.booleans()):  # a spanning path: most documents are connected
        pairs += [(i, i + 1) for i in range(n - 1)]
        pairs = draw(st.permutations(pairs))
    if draw(st.integers(0, 9)) == 0:  # a stray id of 20 digits
        pairs.append((0, 10**19 + n))
    style = draw(st.sampled_from(["plain", "simple", "varied"]))
    comment = draw(st.sampled_from(_COMMENTS))
    lines = []
    for u, v in pairs:
        if style == "plain":
            lines.append(f"{u} {v}")
            continue
        if style == "simple":
            blank = draw(st.sampled_from([" ", "\t", " \t"]))
            lines.append(f"{u}{blank}{v}")
            extra = draw(st.sampled_from([None, None, None, "", "# comment", comment]))
            if extra is not None:
                lines.insert(draw(st.integers(0, len(lines))), extra)
            continue
        blank = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        line = draw(id_token(u)) + blank + draw(id_token(v))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line
                     + draw(st.sampled_from(["", " "])))
        extra = draw(st.sampled_from(["", "", "", "", "# comment", "  # x", "   ",
                                      "x y", "1 2 3", "-1 2", "7"]))
        if extra:
            lines.insert(draw(st.integers(0, len(lines))), extra)
    if style == "plain":
        return "".join(line + "\n" for line in lines)
    if style == "simple":
        return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300, deadline=None)
@given(edge_documents())
def test_load_graph_matches_the_line_loop(text: str) -> None:
    def build() -> tuple:
        g = load_graph(text)
        return g.n, adjacency(g)

    assert outcome(build) == outcome(lambda: line_loop_load_graph(text))


def test_edge_documents_reach_both_parses() -> None:
    for simple in ("0 1\n1 2\n", "0 1\n1 2", "# c\n0 1\n", "\n0\t1\n\n", "#\n",
                   "0 \t " + "9" * 18 + "\n"):
        assert graphs._SIMPLE_EDGES.fullmatch(simple), simple
    for other in ("0 1\r\n", "0 +1\n", "0 1_0\n", "0 ١\n", "0 " + "1".zfill(19) + "\n",
                  "0\n", " 0 1\n", "0 1 \n", "  # c\n", " \n", "0 1 # c\n",
                  "# a\rb\n0 1\n", "# a\u2028b\n", "0\xa01\n"):
        assert not graphs._SIMPLE_EDGES.fullmatch(other), other
    # self-loops are left to the loop, which names their line
    assert graphs._simple_ids("0 1\n1 1\n") is None
    # every document the package writes takes the numpy parse
    g = king_grid(3, 4)
    for header in ((), ("king grid 3x4", "n=12"), ("",)):
        ids = graphs._simple_ids(to_edge_list(g, header=header))
        assert ids is not None and ids.tolist() == [list(e) for e in g.edges()]


# mostly ints, some out of range for the drawn n; now and then a non-int, a
# bool (which the set constructor takes as an int) or an id past int64
_IDS = st.one_of(
    st.integers(-2, 9),
    st.integers(-2, 9),
    st.integers(-2, 9),
    st.sampled_from([1.5, 2.0, "1", None, True, 10**20]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.lists(st.tuples(_IDS, _IDS), max_size=20))
def test_graph_matches_the_set_constructor(n: int, edges: list) -> None:
    expected = outcome(lambda: set_graph_adjacency(n, edges))
    assert outcome(lambda: adjacency(Graph(n, edges))) == expected
    assert outcome(lambda: adjacency(Graph(n, iter(edges)))) == expected
    if all(type(x) is int and abs(x) < 2**62 for pair in edges for x in pair):
        for dtype in (np.int64, np.int32):
            arr = np.array(edges, dtype).reshape(-1, 2)
            assert outcome(lambda: adjacency(Graph(n, arr))) == expected
            # pairs of numpy ints are not int pairs, in a list: the first
            # pair names the error, whether or not a later one is bad
            scalars = [(dtype(u), dtype(v)) for u, v in edges]
            assert outcome(lambda: adjacency(Graph(n, scalars))) == outcome(
                lambda: set_graph_adjacency(n, scalars)
            )


@pytest.mark.parametrize("cap", [1, 40, 1000, 1 << 22])
def test_row_blocks_build_the_same_graph(monkeypatch, cap: int) -> None:
    # caps of 1, 40 and 1000 cells cut each graph into blocks of 1 to 28
    # rows, so the two directions of an edge often land in different blocks;
    # the default cap keeps each graph in one block
    monkeypatch.setattr(graphs, "_GATHER_BYTES", cap)
    for g in (king_grid(5, 7), random_connected_graph(60, 0.1, 2), cycle_graph(9)):
        edges = g.edges()
        edges += [(v, u) for u, v in edges[::3]]  # reversed duplicates
        built = Graph(g.n, np.array(edges[::-1]))
        assert adjacency(built) == set_graph_adjacency(g.n, edges)
        nbrs, offsets = built._csr
        assert nbrs.tolist() == [v for row in g.neighbors for v in row]
        assert offsets.tolist() == [0, *np.cumsum([len(r) for r in g.neighbors])]


def test_load_graph_holds_no_square_temporary() -> None:
    # the bit rows of a 20,000-cycle take about 24 MB; an n x n boolean
    # temporary would take 400 MB
    text = to_edge_list(cycle_graph(20_000))
    tracemalloc.start()
    try:
        g = load_graph(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.n, g.m) == (20_000, 20_000)
    assert g.neighbors[0] == (1, 19_999)
    assert peak < 48 << 20
