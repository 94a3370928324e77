import io
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import discountcast as dc
import discountcast.graph as graph_module
from discountcast.graph import DiscountMenu
from discountcast.rng import as_stream


def test_menu_rates_must_increase():
    with pytest.raises(dc.ValidationError):
        DiscountMenu(rates=(2.0, 1.0))
    with pytest.raises(dc.ValidationError):
        DiscountMenu(rates=(1.0, 1.0))
    with pytest.raises(dc.ValidationError):
        DiscountMenu(rates=(0.0, 1.0))
    with pytest.raises(dc.ValidationError):
        DiscountMenu(rates=())


@pytest.mark.parametrize("rates", [(1.0, math.inf), (math.nan,), (1.0, math.nan, 2.0), (-math.inf, 1.0)])
def test_menu_rates_must_be_finite(rates):
    with pytest.raises(dc.ValidationError, match=r"^discount rates must be finite, got (-?inf|nan)$"):
        DiscountMenu(rates=rates)


def test_menu_lookup():
    menu = DiscountMenu(rates=(0.5, 2.0))
    assert menu.d_max == 2.0
    assert menu.index_of(0.5) == 0
    assert menu.index_of(2.0) == 1
    with pytest.raises(dc.ValidationError):
        menu.index_of(1.0)


def test_graph_rejects_bad_edges():
    labels = ("a", "b")
    with pytest.raises(dc.ValidationError):
        dc.SocialGraph(2, labels, (dc.Edge(0, 0, 0.5),))  # self loop
    with pytest.raises(dc.ValidationError):
        dc.SocialGraph(2, labels, (dc.Edge(0, 2, 0.5),))  # out of range
    with pytest.raises(dc.ValidationError):
        dc.SocialGraph(2, labels, (dc.Edge(0, 1, 1.5),))  # bad probability
    with pytest.raises(dc.ValidationError):
        dc.SocialGraph(2, labels, (dc.Edge(0, 1, 0.5), dc.Edge(0, 1, 0.4)))  # duplicate


def test_load_graph_headerless_first_seen_order(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\nx y 0.5\n\nz x 0.25  # trailing comment\n")
    g = dc.load_graph(p)
    assert g.labels == ("x", "y", "z")
    assert g.node_count == 3
    assert g.edges == (dc.Edge(0, 1, 0.5), dc.Edge(2, 0, 0.25))


def test_load_graph_header_declares_isolated_nodes(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("nodes 4\n0 1 1\n")
    g = dc.load_graph(p)
    assert g.node_count == 4
    assert g.labels == ("0", "1", "2", "3")
    assert g.out_edges[2] == () and g.out_edges[3] == ()


def test_load_graph_header_requires_integer_labels(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("nodes 3\na b 0.5\n")
    with pytest.raises(dc.ParseError):
        dc.load_graph(p)


def test_load_graph_parse_errors_carry_location(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("a b 0.5\na b\n")
    with pytest.raises(dc.ParseError) as exc:
        dc.load_graph(p)
    assert "2" in str(exc.value) and str(p) in str(exc.value)
    p.write_text("a b nope\n")
    with pytest.raises(dc.ParseError):
        dc.load_graph(p)
    p.write_text("a b 1.5\n")
    with pytest.raises((dc.ParseError, dc.ValidationError)):
        dc.load_graph(p)


def test_load_adoption_wildcard_and_override(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("a b 0.5\n")
    ad = tmp_path / "ad.txt"
    ad.write_text("* 1 0.3\n* 2 0.6\nb 1 0.1\nb 2 0.9\n")
    graph, model = dc.load_instance(g, ad, (1.0, 2.0))
    assert model.prob(graph.index("a"), 0) == 0.3
    assert model.prob(graph.index("b"), 0) == 0.1
    assert model.prob(graph.index("b"), 1) == 0.9


def test_load_adoption_missing_entry(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("a b 0.5\n")
    ad = tmp_path / "ad.txt"
    ad.write_text("a 1 0.3\na 2 0.6\nb 1 0.3\n")
    with pytest.raises(dc.ValidationError) as exc:
        dc.load_instance(g, ad, (1.0, 2.0))
    assert "b" in str(exc.value)


def test_load_adoption_rejects_unknown_rate_and_node(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("a b 0.5\n")
    ad = tmp_path / "ad.txt"
    ad.write_text("* 3 0.3\n")
    with pytest.raises(dc.ValidationError):
        dc.load_instance(g, ad, (1.0, 2.0))
    ad.write_text("* 1 0.3\n* 2 0.6\nq 1 0.5\n")
    with pytest.raises(dc.ValidationError):
        dc.load_instance(g, ad, (1.0, 2.0))


def test_adoption_rows_must_be_monotone():
    menu = DiscountMenu(rates=(1.0, 2.0))
    with pytest.raises(dc.ValidationError):
        dc.AdoptionModel(menu=menu, probs=((0.6, 0.4),))


def test_min_rate_index_boundaries(fig1):
    model = fig1.model
    # row is (0.5, 1.0) for every node
    assert model.min_rate_index(0, 0.0) == 0  # zero threshold takes the cheapest rate
    assert model.min_rate_index(0, 0.5) == 0  # ties accept
    assert model.min_rate_index(0, 0.500001) == 1
    assert model.min_rate_index(0, 1.0) == 1
    menu = DiscountMenu(rates=(1.0,))
    model2 = dc.AdoptionModel(menu=menu, probs=((0.4,),))
    assert model2.min_rate_index(0, 0.7) is None  # above every rate: never accepts


def test_instance_round_trip_fig1(tmp_path, fig1):
    files = dc.write_instance(fig1, tmp_path)
    graph, model = dc.load_instance(files["graph"], files["adoption"], files["discounts"])
    assert graph == fig1.graph
    assert model == fig1.model


def test_instance_round_trip_with_isolated_nodes(tmp_path):
    inst = dc.worstcase_instance(6)
    files = dc.write_instance(inst, tmp_path)
    graph, model = dc.load_instance(files["graph"], files["adoption"], files["discounts"])
    assert graph == inst.graph
    assert model == inst.model


def test_instance_round_trip_random(tmp_path):
    inst = dc.random_instance(30, 0.1, 5, rates=(0.25, 1.5))
    files = dc.write_instance(inst, tmp_path)
    graph, model = dc.load_instance(files["graph"], files["adoption"], files["discounts"])
    assert graph == inst.graph
    assert model == inst.model


def csr_reference(node_count, edges):
    """Out-edges grouped by source in edge-list order, zero-probability edges dropped."""
    rows = [[e for e in edges if e.src == u and e.prob > 0.0] for u in range(node_count)]
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return indptr, [e.dst for row in rows for e in row], [e.prob for row in rows for e in row]


@pytest.mark.parametrize("case", ["edgeless", "zero_probability", "shuffled_random"])
def test_csr_view_matches_a_loop_reference(case):
    if case == "edgeless":
        graph = dc.SocialGraph(4, ("a", "b", "c", "d"), ())
    elif case == "zero_probability":
        edges = (dc.Edge(2, 0, 0.0), dc.Edge(0, 1, 0.5), dc.Edge(2, 1, 0.25), dc.Edge(0, 2, 0.0), dc.Edge(1, 0, 1.0))
        graph = dc.SocialGraph(3, ("a", "b", "c"), edges)
    else:
        graph = dc.random_instance(40, 0.1, 6, prob_range=(0.0, 0.5)).graph
        edges = list(graph.edges)
        np.random.default_rng(6).shuffle(edges)
        graph = dc.SocialGraph(graph.node_count, graph.labels, tuple(edges))
    csr = graph.csr
    indptr, dst, prob = csr_reference(graph.node_count, graph.edges)
    assert (csr.indptr.tolist(), csr.dst.tolist(), csr.prob.tolist()) == (indptr, dst, prob)
    assert (csr.indptr.dtype, csr.dst.dtype, csr.prob.dtype) == (np.int64, np.int64, np.float64)


def test_random_instance_past_one_jump_chunk():
    # 400 * 399 * 0.5 = 79,800 expected edges: more than one 65,536-draw chunk of jumps
    n, p = 400, 0.5
    graph = dc.random_instance(n, p, 8).graph
    pairs = {(e.src, e.dst) for e in graph.edges}
    assert len(pairs) == len(graph.edges)
    assert all(src != dst for src, dst in pairs)
    mean = n * (n - 1) * p
    assert abs(len(pairs) - mean) < 5 * math.sqrt(mean * (1 - p))


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=5, unique=True))
@settings(max_examples=50, deadline=None)
def test_menu_indexes_every_rate(rates):
    menu = DiscountMenu(rates=tuple(sorted(rates)))
    for i, r in enumerate(menu.rates):
        assert menu.index_of(r) == i
    assert menu.d_max == max(rates)


@given(
    st.integers(1, 3),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    st.floats(0.0, 1.0),
)
@example(2, [0.3, 0.6, 0.9], 0.7)  # above every rate: never accepts, index len(menu)
@example(2, [0.3, 0.6, 0.9], 0.6)  # a tie accepts
@settings(max_examples=100, deadline=None)
def test_min_rate_index_is_cheapest_acceptable(n_rates, raw_row, g):
    row = tuple(sorted(raw_row))[:n_rates]
    menu = DiscountMenu(rates=tuple(1.0 + i for i in range(n_rates)))
    model = dc.AdoptionModel(menu=menu, probs=(row,))
    idx = model.min_rate_index(0, g)
    if idx is None:
        assert all(p < g for p in row)
    else:
        assert row[idx] >= g
        assert all(p < g for p in row[:idx])
    seeding = dc.SeedingRealization.of(model, [g])
    assert seeding.thresholds == (g,)
    assert seeding.min_rate_idx == (n_rates if idx is None else idx,)
    assert [seeding.accepts(0, i) for i in range(n_rates)] == [p >= g for p in row]


_GRAPH_ERRORS = [
    ("header-after-edges", "a b 0.5\nnodes 3\n", "{path}:2: 'nodes' header must precede all edges"),
    ("duplicate-header", "nodes 3\nnodes 3\n", "{path}:2: duplicate 'nodes' header"),
    ("header-fields", "nodes 3 4\n", "{path}:1: expected 'nodes <count>'"),
    ("bad-count", "nodes three\n", "{path}:1: node count 'three' is not an integer"),
    ("negative-count", "# two nodes\nnodes -2\n", "{path}:2: node count must be non-negative"),
    ("outside-range", "nodes 2\n0 1 0.5\n0 2 0.5\n", "{path}:3: node 2 outside declared range 0..1"),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in _GRAPH_ERRORS],
                         ids=[case[0] for case in _GRAPH_ERRORS])
def test_load_graph_rejects(tmp_path, text, message):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(dc.ParseError) as exc:
        dc.load_graph(p)
    assert str(exc.value) == message.format(path=p)


_GRAPH_EDGE_ERRORS = [
    ("self-loop", "nodes 3\n0 1 0.5\n2 2 0.5\n", "{path}:3: self-loop on node 2"),
    ("duplicate", "# edges\na b 0.5\n\nb c 0.1\na b 0.4\n", "{path}:5: duplicate edge a -> b"),
    ("prob-above-one", "nodes 2\n0 1 1.5\n", "{path}:2: edge probability 1.5 outside [0, 1]"),
    ("prob-below-zero", "x y -0.25\n", "{path}:1: edge probability -0.25 outside [0, 1]"),
    ("prob-nan", "x y 0.5\ny x nan\n", "{path}:2: edge probability nan outside [0, 1]"),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in _GRAPH_EDGE_ERRORS],
                         ids=[case[0] for case in _GRAPH_EDGE_ERRORS])
def test_load_graph_rejects_bad_edges_at_their_line(tmp_path, text, message):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(dc.ValidationError) as exc:
        dc.load_graph(p)
    assert str(exc.value) == message.format(path=p)


def load_outcome(load):
    """What `load()` returns, or the type and message of the ValueError it raises."""
    try:
        return load()
    except ValueError as exc:
        return type(exc), str(exc)


def outcomes_of_both_paths(monkeypatch, load):
    """What `load()` returns or raises with bulk parsing tried on a file of any
    size, then with the line-by-line parsers alone."""
    outcomes = []
    for min_rows in (0, 10**9):
        monkeypatch.setattr(graph_module, "BULK_MIN_ROWS", min_rows)
        outcomes.append(load_outcome(load))
    return outcomes


def bulk_taken(monkeypatch, path, bulk) -> bool:
    """Whether the bulk parser `bulk` takes the file at `path`, at any size."""
    monkeypatch.setattr(graph_module, "BULK_MIN_ROWS", 0)
    return graph_module._load(path, bulk, lambda *_: None) is not None


# (id, file text, whether the bulk parser takes it)
_GRAPH_FILES = [
    ("plain", "nodes 3\n0 1 0.5\n1 2 0.25\n", True),
    ("leading-zero", "nodes 8\n07 1 0.5\n", True),
    ("plus-sign", "nodes 4\n+3 1 0.5\n", True),
    ("underscore", "nodes 11\n1_0 1 0.5\n", False),  # numpy reads no `_` in a number
    ("unicode-digit", "nodes 4\n\u0663 1 0.5\n", False),  # nor a non-ASCII digit
    ("exponent", "nodes 2\n0 1 1e-3\n1 0 5E-1\n", True),
    ("crlf", "nodes 3\r\n0 1 0.5\r\n1 2 0.25\r\n", True),
    ("no-final-newline", "nodes 3\n0 1 0.5\n1 2 0.25", True),
    ("blank-lines", "nodes 3\n\n0 1 0.5\n   \n\n1 2 0.25\n\n", True),
    ("tabs", "nodes 3\n0\t1\t0.5\n 1 \t2  0.25\t\n", True),
    ("vertical-tab-ends-a-line", "nodes 3\n0 1 0.5\x0b1 2 0.25\n", False),
    ("cr-newlines", "nodes 3\r0 1 0.5\r1 2 0.25\r", True),
    ("nbsp-separators", "nodes 3\n0\xa01\xa00.5\n", True),
    ("ideographic-space-separators", "nodes 3\n0\u30001\u30000.5\n", True),
    ("form-feed-separators", "nodes 3\n0\x0c1\x0c0.5\n", False),  # str.splitlines ends a line there
    ("file-separator-separators", "nodes 3\n0\x1c1\x1c0.5\n", False),
    ("form-feed-line-end", "nodes 3\n0 1 0.5\x0c\n", False),
    ("nul-in-prob", "nodes 3\n0 1 0.5\x00\n", False),
    ("no-edges", "nodes 2\n", True),
    ("inf", "nodes 2\n0 1 inf\n", False),
    ("nan", "nodes 2\n0 1 0.5\n1 0 nan\n", False),
    ("self-loop", "nodes 3\n0 1 0.5\n2 2 0.5\n", False),
    ("duplicate", "nodes 3\n0 1 0.5\n1 2 0.5\n0 1 0.4\n", False),
    ("outside-range", "nodes 2\n0 2 0.5\n", False),
    ("negative-label", "nodes 2\n-1 0 0.5\n", False),
    ("huge-label", "nodes 2\n99999999999999999999 1 0.5\n", False),
    ("float-label", "nodes 2\n0.0 1 0.5\n", False),
    ("bad-prob", "nodes 2\n0 1 x\n", False),
    ("two-then-four-fields", "nodes 5\n0 1\n0.5 2 3 0.5\n", False),
    ("second-header", "nodes 2\nnodes 2\n", False),
    ("negative-count", "nodes -1\n", False),
    ("header-as-edge", "nodes 3\nnodes 1 0.5\n", False),
    ("comment", "nodes 3\n0 1 0.5  # note\n", False),
    ("hash-glued", "nodes 3\n0 1 0.5#x\n", False),
    ("hash-spaced", "nodes 3\n0 1 0.5 # note\n", False),
    ("header-extra-fields", "nodes 3 7\n0 1 0.5\n", False),
    ("float-prob-spellings", "nodes 3\n0 1 +.5\n1 2 5E-1\n2 0 1.\n", True),
    ("header-after-blank", "\nnodes 3\n0 1 0.5\n", False),
    ("headerless", "a b 0.5\nb c 0.25\n", False),
    ("empty", "", False),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text,bulk", [case[1:] for case in _GRAPH_FILES], ids=[case[0] for case in _GRAPH_FILES])
def test_graph_bulk_and_line_parsers_agree(tmp_path, monkeypatch, text, bulk):
    p = tmp_path / "g.txt"
    p.write_bytes(text.encode())
    fast, slow = outcomes_of_both_paths(monkeypatch, lambda: dc.load_graph(p))
    assert fast == slow
    if isinstance(fast, dc.SocialGraph):
        assert (fast.labels, fast.edges) == (slow.labels, slow.edges)
    assert bulk_taken(monkeypatch, p, graph_module._bulk_graph) == bulk


# (id, file text, whether the bulk parser takes it), against the graph
# "nodes 3" with menu (1, 2); every cell is listed once unless said otherwise
_ADOPTION_FILES = [
    ("plain", "0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n", True),
    ("any-row-order", "2 2 0.6\n0 1 0.1\n1 2 0.4\n2 1 0.5\n0 2 0.2\n1 1 0.3\n", True),
    ("rate-spellings", "0 1e0 0.1\n0 2.00 0.2\n1 +1 0.3\n1 2_0e-1 0.4\n2 1. 0.5\n2 2 1e-3\n", False),  # `_`
    ("numpy-rate-spellings", "0 1e0 0.1\n0 2.00 0.2\n1 +1 0.3\n1 20e-1 0.4\n2 1. 0.5\n2 2 1e-3\n", True),
    ("cr-newlines", "0 1 0.1\r0 2 0.2\r1 1 0.3\r1 2 0.4\r2 1 0.5\r2 2 0.6\r", True),
    ("nbsp-separators", "0\xa01 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2\u30002 0.6\n", True),
    ("form-feed-separator", "0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2\x0c2 0.6\n", False),
    ("crlf-tabs-blanks", "0\t1 0.1\r\n0 2 0.2\r\n\r\n1 1 0.3\r\n1 2\t0.4\r\n2 1 0.5\r\n2 2 0.6", True),
    ("leading-zero-node", "00 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n", False),
    ("plus-sign-node", "0 1 0.1\n0 2 0.2\n+1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n", False),
    ("underscore-node", "0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2_0 1 0.5\n2 2 0.6\n", False),
    ("minus-zero-node", "-0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n", False),
    ("unicode-digit-node", "0 1 0.1\n0 2 0.2\n\u0661 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n", False),
    ("unknown-node", "0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n3 2 0.6\n", False),
    ("long-node", "0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n100 1 0.5\n", False),
    ("nul-after-node", "0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2\x00 2 0.6\n", False),
    ("duplicate-cell", "0 1 0.1\n0 2 0.2\n1 1 0.3\n1 1 0.4\n2 1 0.5\n2 2 0.6\n", False),
    ("missing-cell", "0 1 0.1\n0 2 0.2\n1 1 0.3\n2 1 0.5\n2 2 0.6\n", False),
    ("unknown-rate", "0 1 0.1\n0 3 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n", False),
    ("nan-rate", "0 1 0.1\n0 nan 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n", False),
    ("bad-prob", "0 1 0.1\n0 2 high\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n", False),
    ("nan-prob", "0 1 0.1\n0 2 nan\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n", True),
    ("prob-above-one", "0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 inf\n", True),
    ("not-monotone", "0 1 0.1\n0 2 0.2\n1 1 0.4\n1 2 0.3\n2 1 0.5\n2 2 0.6\n", True),
    ("wildcard", "* 1 0.1\n* 2 0.2\n1 1 0.3\n1 2 0.4\n", False),
    ("field-count", "0 1 0.1\n0 2 0.2 x\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n", False),
    ("comment", "0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6  # last\n", False),
    ("hash-glued", "0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6#x\n", False),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text,bulk", [case[1:] for case in _ADOPTION_FILES],
                         ids=[case[0] for case in _ADOPTION_FILES])
def test_adoption_bulk_and_line_parsers_agree(tmp_path, monkeypatch, text, bulk):
    g = tmp_path / "g.txt"
    g.write_text("nodes 3\n0 1 0.5\n1 2 0.5\n")
    ad = tmp_path / "ad.txt"
    ad.write_bytes(text.encode())
    fast, slow = outcomes_of_both_paths(monkeypatch, lambda: dc.load_instance(g, ad, (1.0, 2.0)))
    assert fast == slow
    menu = DiscountMenu(rates=(1.0, 2.0))
    for min_rows in (0, 10**9):  # the graph read in bulk (nodes numbered), then line by line (labelled)
        monkeypatch.setattr(graph_module, "BULK_MIN_ROWS", min_rows)
        graph = dc.load_graph(g)
        assert ("labels" in vars(graph)) == bool(min_rows)
        try:
            taken = bulk_taken(monkeypatch, ad, lambda f: graph_module._bulk_adoption(f, graph, menu))
        except dc.ValidationError:  # AdoptionModel's own checks, the same on both paths
            taken = True
        assert taken == bulk


def bulk_read(token: str, field: str):
    """What the bulk reader makes of `token` as the `src` or `prob` field of an edge row, or None."""
    row = f"{token} 1 0.5\n" if field == "src" else f"0 1 {token}\n"
    rows = graph_module._bulk_rows(io.StringIO(row), graph_module._EDGE_ROW)
    return None if rows is None else rows[field][0].item()


def test_numpy_reads_number_tokens_as_int_and_float_do():
    for token in ("0", "07", "+3", "-2", "-0", "12345678901234", "9223372036854775807"):
        assert bulk_read(token, "src") == int(token)
    for token in ("0.1", "1e-3", "+.5", "5.", "-0", "inf", "-Infinity", "+INF", "nan", "NaN", "1e400", "-1e-400",
                  "0.30000000000000004", "5e-324", "1E5"):
        assert bulk_read(token, "prob").hex() == float(token).hex()
    # `int` and `float` read these and numpy does not: their files load line by line
    for token in ("1_0", "\u0663", "\uff11", "99999999999999999999"):
        int(token)
        assert bulk_read(token, "src") is None
    for token in ("1_0.5", "\u0663.\u0665", "\uff11e0"):
        float(token)
        assert bulk_read(token, "prob") is None
    for token in ("1.0", "1e3", "0x1", "_1", "x", "1#"):
        with pytest.raises(ValueError):
            int(token)
        assert bulk_read(token, "src") is None
    for token in ("0x1p3", "1e", ".", "1__0", "infinit", "0.5#x"):
        with pytest.raises(ValueError):
            float(token)
        assert bulk_read(token, "prob") is None


# signs, ASCII and non-ASCII digits, `_`, `.`, exponents and inf/nan spellings
_TOKEN_PARTS = st.sampled_from(["+", "-", "0", "1", "7", "9", "\u0663", "\uff11", "\u0e51", "_", ".", "e", "E",
                                "inf", "Infinity", "nan", "NaN", "iNF"])
_TOKENS = st.lists(_TOKEN_PARTS, min_size=1, max_size=6).map("".join)


@given(_TOKENS)
@example("-nan")
@example("1_0")
@settings(max_examples=400, deadline=None)
def test_numpy_reads_a_token_as_int_and_float_do_or_not_at_all(token):
    value = bulk_read(token, "src")
    if value is not None:
        assert value == int(token)
    value = bulk_read(token, "prob")
    if value is not None:
        assert value.hex() == float(token).hex()


# whitespace that str.split and numpy both split on, line ends of both, and
# characters where they disagree (str.splitlines ends a line at \x0b, \x0c,
# \x1c, \x85 and \u2028; numpy reads them as spaces)
_SEPARATORS = st.sampled_from([" ", "\t", " \t ", "\xa0", "\u3000", "\x1f", "\x0b", "\x0c", "\x1c", "\x85",
                               "\u2028"])
_LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\n \n", "#x\n", " # note\n", "\x00\n"])
_FIELDS = st.one_of(st.sampled_from(["0", "1", "2", "1.0", "2.0", "0.5", "0.25", "1e0", "*", "00", "+2"]), _TOKENS)


@st.composite
def _three_field_rows(draw) -> str:
    rows = draw(st.lists(st.lists(_FIELDS, min_size=3, max_size=3) | st.lists(_FIELDS, min_size=2, max_size=4),
                         max_size=8))
    return "".join(draw(_SEPARATORS).join(row) + draw(_LINE_ENDS) for row in rows)


@given(_three_field_rows())
@example("0 1 0.5\n1 2 0.25\n")
@example("0\x0c1\x0c0.5\n")
@settings(max_examples=200, deadline=None)
def test_a_three_field_file_loads_the_same_on_both_paths(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("files")
    g, ad = tmp / "g.txt", tmp / "ad.txt"
    g.write_bytes(("nodes 3\n" + rows).encode())
    ad.write_bytes(rows.encode())
    small = tmp / "small.txt"
    small.write_text("nodes 3\n0 1 0.5\n1 2 0.5\n")
    with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
        warnings.simplefilter("error")
        fast, slow = outcomes_of_both_paths(monkeypatch, lambda: dc.load_graph(g))
        assert fast == slow
        fast, slow = outcomes_of_both_paths(monkeypatch, lambda: dc.load_instance(small, ad, (1.0, 2.0)))
        assert fast == slow


def _spellings(value: int) -> st.SearchStrategy[str]:
    """Tokens that `int` or `float` read as `value`, most of them plainly written."""
    plain = str(value)
    return st.sampled_from([plain] * 40 + ["0" + plain, "+" + plain, "-" + plain, plain + ".", plain + "e0",
                                          plain + "0e-1", plain + "_0e-1", chr(0x660 + value)])


@st.composite
def _adoption_rows(draw) -> str:
    """An adoption file for nodes 0..2 at rates 1 and 2: each cell once, in any order, with
    spelled tokens, and now and then a cell dropped, repeated or set by a wildcard."""
    cells = draw(st.permutations([(v, r) for v in range(3) for r in (1, 2)]))
    change = draw(st.sampled_from(["none"] * 4 + ["drop", "repeat", "wildcard"]))
    if change == "drop":
        cells = cells[1:]
    elif change == "repeat":
        cells = cells + cells[:1]
    elif change == "wildcard":
        cells = [("*", r) for r in (1, 2)] + cells[2:]
    separator, end = draw(_SEPARATORS), draw(_LINE_ENDS)
    probs = st.floats(0.0, 1.0).map(repr) | st.sampled_from(["0", "1", "1e-3", "nan", "1.5", "-0.0", "0_5e-1"])
    return "".join(separator.join((str(v) if v == "*" else draw(_spellings(v)), draw(_spellings(r)), draw(probs)))
                   + end for v, r in cells)


@given(_adoption_rows())
@example("0 1 0.1\n0 2 0.2\n1 1 0.3\n1 2 0.4\n2 1 0.5\n2 2 0.6\n")
@settings(max_examples=300, deadline=None)
def test_a_spelled_adoption_table_loads_the_same_on_both_paths(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("files")
    g, ad = tmp / "g.txt", tmp / "ad.txt"
    g.write_text("nodes 3\n0 1 0.5\n1 2 0.5\n")
    ad.write_bytes(rows.encode())
    menu = DiscountMenu(rates=(1.0, 2.0))
    with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(graph_module, "BULK_MIN_ROWS", 10**9)
        labelled = dc.load_graph(g)
        expected = load_outcome(lambda: dc.load_adoption(ad, labelled, menu))
        monkeypatch.setattr(graph_module, "BULK_MIN_ROWS", 0)
        for graph in (dc.load_graph(g), labelled):  # nodes numbered, then labelled
            assert load_outcome(lambda: dc.load_adoption(ad, graph, menu)) == expected


def relabeled(inst: dc.Instance, seed: int) -> dc.Instance:
    """The same instance under a seeded node permutation and edge order."""
    rng = np.random.default_rng(seed)
    graph, model = inst.graph, inst.model
    perm = rng.permutation(graph.node_count).tolist()
    edges = [dc.Edge(perm[e.src], perm[e.dst], e.prob) for e in graph.edges]
    edges = [edges[i] for i in rng.permutation(len(edges)).tolist()]
    probs = [None] * graph.node_count
    for v, row in enumerate(model.probs):
        probs[perm[v]] = row
    return dc.Instance(dc.SocialGraph(graph.node_count, graph.labels, edges),
                       dc.AdoptionModel(model.menu, tuple(probs)))


def test_generated_instance_loads_the_same_on_both_paths(tmp_path, monkeypatch):
    inst = relabeled(dc.random_instance(2000, 5 / 1999, 31, rates=(0.5, 1.0)), 4)
    files = dc.write_instance(inst, tmp_path)
    bulk = dc.load_instance(files["graph"], files["adoption"], files["discounts"])
    assert "edges" not in vars(bulk[0])  # the bulk path built arrays only
    monkeypatch.setattr(graph_module, "BULK_MIN_ROWS", 10**9)
    line = dc.load_instance(files["graph"], files["adoption"], files["discounts"])
    assert bulk == line == (inst.graph, inst.model)
    assert bulk[0].edges == line[0].edges == inst.graph.edges
    for name in ("indptr", "dst", "prob"):
        a, b = getattr(bulk[0].csr, name), getattr(line[0].csr, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


_EDGE_PROBS = st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5, 1.5, math.nan, math.inf])


@given(st.integers(0, 5), st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5), _EDGE_PROBS), max_size=40))
@example(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 1, 0.25)])  # a duplicate after another edge
@example(2, [(0, 1, 0.5), (1, 0, 0.5)] * 20)  # long runs of one key, past numpy's small-sort size
@example(3, [(0, 1, 0.5), (0, 1, 0.25), (2, 2, 0.5)])  # a duplicate and a self-loop
@settings(max_examples=300, deadline=None)
def test_numpy_and_loop_edge_checks_agree(n, raw):
    labels = tuple(f"v{i}" for i in range(n))
    edges = tuple(dc.Edge(*e) for e in raw)
    fault = graph_module._edge_fault(n, labels, edges)
    assert graph_module._edges_valid(n, **graph_module._edge_arrays(edges)) == (fault is None)
    try:
        dc.SocialGraph(n, labels, edges)
    except dc.ValidationError as exc:
        assert fault is not None and str(exc) == fault[1]
    else:
        assert fault is None


def test_graph_checks_edges_before_building_arrays():
    ring = [dc.Edge(v, (v + 1) % 40, 0.5) for v in range(40)]
    for bad in (dc.Edge(2**64, 1, 0.5), dc.Edge(1, -2**70, 0.5)):
        with pytest.raises(dc.ValidationError) as exc:
            dc.SocialGraph(40, tuple(map(str, range(40))), ring + [bad])
        assert str(exc.value) == f"edge {bad} references an unknown node"


def test_graph_edge_arrays_are_read_only(tmp_path):
    inst = dc.random_instance(60, 3 / 59, 7)
    files = dc.write_instance(inst, tmp_path)
    loaded = dc.load_graph(files["graph"])
    for graph in (inst.graph, loaded, pickle.loads(pickle.dumps(loaded))):
        for name in ("src", "dst", "prob"):
            with pytest.raises(ValueError):
                getattr(graph, name)[0] = 0
    assert loaded == inst.graph


def test_graph_equality_is_by_value_and_graphs_are_unhashable(tmp_path):
    inst = dc.random_instance(60, 3 / 59, 7)
    files = dc.write_instance(inst, tmp_path)
    loaded = dc.load_graph(files["graph"])
    assert "edges" not in vars(loaded) and "src" in vars(inst.graph) and loaded == inst.graph
    edges = list(inst.graph.edges)
    for changed in (
        dc.SocialGraph(61, inst.graph.labels + ("60",), edges),
        dc.SocialGraph(60, tuple(f"n{v}" for v in range(60)), edges),
        dc.SocialGraph(60, inst.graph.labels, edges[:-1]),
        dc.SocialGraph(60, inst.graph.labels, edges[:-1] + [edges[-1]._replace(prob=edges[-1].prob / 2)]),
        dc.SocialGraph(60, inst.graph.labels, edges[1:] + edges[:1]),
    ):
        assert changed != loaded and loaded != changed
    assert loaded != "graph"
    with pytest.raises(TypeError):
        hash(loaded)
    with pytest.raises(AttributeError):
        loaded.node_count = 3
    copy = pickle.loads(pickle.dumps(loaded))
    assert copy == loaded and copy.edges == inst.graph.edges


def test_bulk_loaded_graph_serves_mc_work_from_its_arrays(tmp_path):
    inst = dc.random_instance(400, 4 / 399, 12, rates=(0.5, 1.0))
    files = dc.write_instance(inst, tmp_path)
    loaded = dc.Instance.from_files(files["graph"], files["adoption"], files["discounts"])
    spec = dc.BudgetSpec(budget=3.0, mode="hard")
    evaluator = dc.MCEvaluator(loaded, samples=50, stream=as_stream(3))
    config = dc.hill_climbing(loaded, spec, evaluator)
    value = evaluator.value(config)
    assert not {"edges", "out_edges", "edge_index"} & set(vars(loaded.graph))
    reference = dc.MCEvaluator(inst, samples=50, stream=as_stream(3))
    assert dc.hill_climbing(inst, spec, reference) == config
    assert reference.value(config).hex() == value.hex()


def test_bulk_loaded_instance_reports_do_not_depend_on_worker_count(tmp_path):
    inst = dc.random_instance(60, 3 / 59, 7, rates=(0.1, 0.5))
    files = dc.write_instance(inst, tmp_path)
    loaded = dc.Instance.from_files(files["graph"], files["adoption"], files["discounts"])
    assert "edges" not in vars(loaded.graph)
    spec = dc.BudgetSpec(budget=0.6, mode="hard")
    factory = dc.GreedyFactory(loaded, spec, dc.EstimatorConfig(mode="mc", samples=30))
    reports = [dc.evaluate_policy(factory, loaded, spec, 192, stream=2, workers=w) for w in (1, 2)]
    assert reports[0] == reports[1]
    assert reports[0] == dc.evaluate_policy(dc.GreedyFactory(inst, spec, dc.EstimatorConfig(mode="mc", samples=30)),
                                            inst, spec, 192, stream=2)


_ADOPTION_ERRORS = [
    ("field-count", "* 1 0.3 x\n", dc.ParseError, "{path}:1: expected '<node> <rate> <prob>', got 4 fields"),
    ("rate-not-a-number", "* one 0.3\n", dc.ParseError, "{path}:1: rate 'one' is not a number"),
    ("prob-not-a-number", "* 1 0.3\n* 2 high\n", dc.ParseError, "{path}:2: probability 'high' is not a number"),
    ("duplicate-wildcard", "* 1 0.3\n* 1 0.4\n", dc.ValidationError, "{path}:2: duplicate wildcard row for rate 1.0"),
    ("duplicate-explicit", "* 1 0.3\n* 2 0.6\na 2 0.5\na 2 0.7\n", dc.ValidationError,
     "{path}:4: duplicate adoption row for node a at rate 2.0"),
    ("prob-above-one", "* 1 0.3\n* 2 0.6\nb 2 1.5\n", dc.ValidationError,
     "node 1: adoption probability 1.5 outside [0, 1]"),
    ("prob-below-zero", "* 1 -0.1\n* 2 0.6\n", dc.ValidationError,
     "node 0: adoption probability -0.1 outside [0, 1]"),
]


@pytest.mark.parametrize("text,error,message", [case[1:] for case in _ADOPTION_ERRORS],
                         ids=[case[0] for case in _ADOPTION_ERRORS])
def test_load_adoption_rejects(tmp_path, text, error, message):
    g = tmp_path / "g.txt"
    g.write_text("a b 0.5\n")
    ad = tmp_path / "ad.txt"
    ad.write_text(text)
    with pytest.raises(error) as exc:
        dc.load_instance(g, ad, (1.0, 2.0))
    assert str(exc.value) == message.format(path=ad)


def test_adoption_model_is_the_same_from_tuples_arrays_and_either_loader(tmp_path, monkeypatch):
    inst = dc.random_instance(80, 3 / 79, 5, rates=(0.5, 1.0))
    assert "probs" not in vars(inst.model)  # the generator handed over its array
    files = dc.write_instance(inst, tmp_path)
    rows = tuple(tuple(row) for row in inst.model.table.tolist())
    from_tuples = dc.AdoptionModel(inst.menu, rows)
    assert from_tuples.probs is rows and "table" not in vars(from_tuples)
    models = [inst.model, from_tuples, dc.AdoptionModel(inst.menu, np.array(rows))]
    for min_rows in (0, 10**9):
        monkeypatch.setattr(graph_module, "BULK_MIN_ROWS", min_rows)
        models.append(dc.load_instance(files["graph"], files["adoption"], files["discounts"])[1])
    assert "probs" not in vars(models[-2]) and "table" not in vars(models[-1])  # read in bulk, then line by line
    hexes = [[p.hex() for p in row] for row in rows]
    for model in models:
        assert model == from_tuples and from_tuples == model
        assert [[p.hex() for p in row] for row in model.probs] == hexes
        assert model.table.dtype == np.float64 and model.table.shape == (80, 2)
        assert model.node_count == 80
    assert models[-2].probs == rows and models[-2].probs is models[-2].probs  # built once, on first read


def test_adoption_models_differ_by_menu_and_value_and_are_unhashable():
    menu = DiscountMenu(rates=(1.0, 2.0))
    model = dc.AdoptionModel(menu, np.array([[0.25, 0.5], [0.5, 1.0]]))
    assert model == dc.AdoptionModel(menu, ((0.25, 0.5), (0.5, 1.0)))
    for changed in (
        dc.AdoptionModel(DiscountMenu(rates=(1.0, 3.0)), ((0.25, 0.5), (0.5, 1.0))),
        dc.AdoptionModel(menu, ((0.25, 0.5), (0.5, 0.75))),
        dc.AdoptionModel(menu, ((0.25, 0.5),)),
    ):
        assert changed != model and model != changed
    assert model != "model"
    with pytest.raises(TypeError):
        hash(model)
    with pytest.raises(AttributeError):
        model.menu = menu
    assert dc.AdoptionModel(menu, ()) == dc.AdoptionModel(menu, np.empty((0, 2)))


def test_adoption_table_is_read_only_after_a_pickle_round_trip(tmp_path):
    inst = dc.random_instance(60, 3 / 59, 7)
    files = dc.write_instance(inst, tmp_path)
    loaded = dc.load_instance(files["graph"], files["adoption"], files["discounts"])[1]
    source = np.array(inst.model.probs)
    from_array = dc.AdoptionModel(inst.menu, source)
    from_tuples = dc.AdoptionModel(inst.menu, inst.model.probs)
    for model in (inst.model, loaded, from_array, from_tuples):
        for copy in (model, pickle.loads(pickle.dumps(model))):
            with pytest.raises(ValueError):
                copy.table[0, 0] = 0.0
            assert copy == inst.model
    source[0, 0] = 0.0  # the model keeps its own copy
    assert from_array == inst.model


_MODEL_FAULTS = [
    ("row-length", ((0.1,), (0.2,)), "node 0: expected 2 adoption probabilities, got 1"),
    ("above-one", ((0.1, 0.2), (0.3, 1.5)), "node 1: adoption probability 1.5 outside [0, 1]"),
    ("below-zero", ((0.1, 0.2), (-0.25, 0.5)), "node 1: adoption probability -0.25 outside [0, 1]"),
    ("nan", ((0.1, 0.2), (math.nan, 0.5)), "node 1: adoption probability nan outside [0, 1]"),
    ("inf", ((0.1, math.inf),), "node 0: adoption probability inf outside [0, 1]"),
    ("decreasing", ((0.1, 0.2), (0.6, 0.4)),
     "node 1: adoption probability must be non-decreasing in the rate (0.6 at rate 1.0, 0.4 at rate 2.0)"),
    ("first-fault-wins", ((0.1, 0.2), (0.5, 0.4), (2.0, 0.1)),
     "node 1: adoption probability must be non-decreasing in the rate (0.5 at rate 1.0, 0.4 at rate 2.0)"),
]


@pytest.mark.parametrize("rows,message", [case[1:] for case in _MODEL_FAULTS], ids=[case[0] for case in _MODEL_FAULTS])
def test_adoption_model_words_a_fault_the_same_from_an_array(rows, message):
    menu = DiscountMenu(rates=(1.0, 2.0))
    for probs in (rows, np.array(rows)):
        with pytest.raises(dc.ValidationError) as exc:
            dc.AdoptionModel(menu, probs)
        assert str(exc.value) == message


@given(st.integers(0, 4), st.integers(1, 3),
       st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.0, -0.5, 1.5, math.nan, math.inf, -math.inf]),
                min_size=12, max_size=12))
@settings(max_examples=300, deadline=None)
def test_adoption_model_checks_an_array_as_it_checks_tuples(n, m, cells):
    menu = DiscountMenu(rates=tuple(float(r) for r in range(1, m + 1)))
    rows = tuple(tuple(cells[v * m:(v + 1) * m]) for v in range(n))
    outcomes = []
    for probs in (rows, np.array(rows).reshape(n, m)):
        try:
            outcomes.append(dc.AdoptionModel(menu, probs).probs)
        except dc.ValidationError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
