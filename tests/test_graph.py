import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import discountcast as dc
from discountcast.graph import DiscountMenu


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
