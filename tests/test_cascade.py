import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import discountcast as dc
import discountcast.cascade as cascade
from discountcast.adaptive import CascadeOutcomes
from discountcast.cascade import accept_index, offer_totals, sample_worlds
from discountcast.rng import as_stream, child

from conftest import tiny_instance


def brute_spread(graph: dc.SocialGraph, seeds, restrict=None) -> float:
    """Independent oracle: enumerate live/blocked states of every edge."""
    allowed = set(range(graph.node_count)) if restrict is None else set(restrict)
    seeds = [s for s in seeds if s in allowed]
    total = 0.0
    for states in itertools.product((False, True), repeat=len(graph.edges)):
        w = 1.0
        for e, live in zip(graph.edges, states):
            w *= e.prob if live else 1.0 - e.prob
        if w == 0.0:
            continue
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            u = frontier.pop()
            for i, e in enumerate(graph.edges):
                if e.src == u and states[i] and e.dst in allowed and e.dst not in seen:
                    seen.add(e.dst)
                    frontier.append(e.dst)
        total += w * len(seen)
    return total


def test_spread_exact_fig1_singletons(fig1):
    g = fig1.graph
    expected = {"a": 1.609, "b": 1.55, "c": 1.55, "d": 1.1, "e": 1.0}
    for lbl, val in expected.items():
        assert dc.spread_exact(g, [g.index(lbl)]) == pytest.approx(val, abs=1e-9)


def test_spread_exact_matches_brute_enumeration(fig1):
    g = fig1.graph
    for seeds in ([0], [1], [0, 1], [0, 3], [1, 2, 4]):
        assert dc.spread_exact(g, seeds) == pytest.approx(brute_spread(g, seeds), abs=1e-12)


def test_spread_exact_matches_brute_on_random_instances():
    for seed in range(12):
        inst, _ = tiny_instance(seed)
        g = inst.graph
        rng = np.random.default_rng(seed)
        seeds = sorted(rng.choice(g.node_count, size=rng.integers(1, 3), replace=False).tolist())
        assert dc.spread_exact(g, seeds) == pytest.approx(brute_spread(g, seeds), abs=1e-12)


def test_spread_exact_respects_blocked(fig1):
    g = fig1.graph
    blocked = 0b11  # after a and b are spoken for
    assert dc.spread_exact(g, [2], blocked=blocked) == pytest.approx(1.55, abs=1e-9)
    assert dc.spread_exact(g, [3], blocked=blocked) == pytest.approx(1.1, abs=1e-9)
    assert dc.spread_exact(g, [2], blocked=blocked) == pytest.approx(
        brute_spread(g, [2], {2, 3, 4}), abs=1e-12
    )


def test_spread_exact_counts_only_uncertain_edges():
    # 20 certain edges, past the 16-edge cap, enumerate nothing
    edges = tuple(dc.Edge(0, j, 1.0) for j in range(1, 21))
    g = dc.SocialGraph(21, tuple(str(i) for i in range(21)), edges)
    assert cascade.MAX_UNCERTAIN_EDGES < 20
    assert dc.spread_exact(g, [0]) == 21.0


def test_spread_exact_cap():
    # a chain of 17 uncertain edges: the cap counts edges deep in the closure, and
    # refuses before a single live-edge state is walked
    edges = tuple(dc.Edge(j, j + 1, 0.5) for j in range(17))
    g = dc.SocialGraph(18, tuple(str(i) for i in range(18)), edges)
    with mock.patch.object(cascade, "_reach", side_effect=AssertionError("enumerated")), \
            pytest.raises(dc.TooLargeError) as exc:
        dc.spread_exact(g, [0])
    assert str(exc.value) == ('exact spread needs more than 16 uncertain edges enumerated; sample instead '
                              'with mode="mc" (CLI: --estimator mc; --evaluator mc for nonadaptive)')


def test_spread_exact_default_cap_refuses_seventeen_uncertain_edges():
    # 2^17 Python reach walks take seconds; the default cap sends them to sampling up front
    edges = tuple(dc.Edge(0, j, 0.5) for j in range(1, 18))
    g = dc.SocialGraph(18, tuple(str(i) for i in range(18)), edges)
    with pytest.raises(dc.TooLargeError, match='more than 16 uncertain edges.*mode="mc"'):
        dc.spread_exact(g, [0])


def test_spread_mc_agrees_with_exact(fig1):
    g = fig1.graph
    val = dc.spread_mc(g, [0], 200_000, as_stream(3))
    assert val == pytest.approx(1.609, abs=0.02)


def test_spread_mc_deterministic(fig1):
    g = fig1.graph
    a = dc.spread_mc(g, [0, 3], 5000, as_stream(11))
    b = dc.spread_mc(g, [0, 3], 5000, as_stream(11))
    assert a == b
    c = dc.spread_mc(g, [0, 3], 5000, as_stream(12))
    assert a != c  # different substream, almost surely different estimate


def test_spread_mc_loop_path_matches_exact():
    # a dense cyclic graph: within one BFS level a node is often reached
    # along several live edges at once
    rng = np.random.default_rng(0)
    edges = []
    for i in range(4):
        for j in range(4):
            if i != j:
                edges.append(dc.Edge(i, j, round(float(rng.uniform(0.2, 0.8)), 3)))
    g = dc.SocialGraph(4, ("0", "1", "2", "3"), tuple(edges))
    assert len(edges) == 12
    g_big = dc.SocialGraph(5, tuple(str(i) for i in range(5)), tuple(edges) + (dc.Edge(3, 4, 0.5),))
    exact = dc.spread_exact(g_big, [0])
    est = dc.spread_mc(g_big, [0], 100_000, as_stream(21))
    assert est == pytest.approx(exact, abs=0.05)


def test_spread_mc_repeats_after_other_calls_reuse_the_buffer(fig1):
    g = dc.random_instance(300, 4 / 299, 5).graph
    first = dc.spread_mc(g, [0, 7], 2000, as_stream(4))
    dc.spread_mc(g, [1, 2, 3], 5000, as_stream(5))
    dc.spread_mc(fig1.graph, [0], 1000, as_stream(6))
    dc.spread_mc(g, [7, 9], 3000, as_stream(7))
    assert dc.spread_mc(g, [0, 7], 2000, as_stream(4)) == first


def test_spread_mc_across_many_blocks(fig1):
    # fig1's edges among 2**16 nodes: a block holds only 2**22 // 2**16 = 64
    # replicates, so 20,001 samples run in 313 blocks, the last one partial
    n = 1 << 16
    g = dc.SocialGraph(n, tuple(str(i) for i in range(n)), fig1.graph.edges)
    est = dc.spread_mc(g, [0], 20_001, as_stream(19))
    assert est == pytest.approx(dc.spread_exact(g, [0]), abs=0.03)


@functools.lru_cache(maxsize=4)
def live_rows(worlds) -> np.ndarray:
    return np.unpackbits(worlds.live, axis=1, count=worlds.edges, bitorder="little").astype(bool)


def world_reach(graph, worlds, w, seeds, blocked=()):
    """Independent oracle: nodes reached from `seeds` along world w's live edges, by a plain walk."""
    live = live_rows(worlds)[w]
    indptr, dst = graph.csr.indptr, graph.csr.dst
    seen = {s for s in seeds if s not in blocked}
    stack = list(seen)
    while stack:
        u = stack.pop()
        for pos in range(indptr[u], indptr[u + 1]):
            x = int(dst[pos])
            if live[pos] and x not in seen and x not in blocked:
                seen.add(x)
                stack.append(x)
    return len(seen)


def world_total(graph, worlds, seeds) -> int:
    """The world kernel's total over every world: `_mc_total` with a `worlds` set."""
    n, seeds = graph.node_count, np.array(sorted(seeds), dtype=np.int64)

    def block_seeds(done, r):
        return (np.arange(0, r * n, n, dtype=np.int64)[:, None] + seeds).ravel()

    return cascade._mc_total(graph, worlds.samples, None, block_seeds, worlds)


def test_masked_reach_on_worlds_matches_a_plain_walk():
    # 2**16 nodes hold a block of only 4 worlds in the world kernel, so 150 worlds run
    # there in 38 blocks and each block must read its own worlds; the masks search
    # all 150 at once
    small = dc.random_instance(40, 3 / 39, 12, prob_range=(0.2, 0.8)).graph
    n = 1 << 16
    g = dc.SocialGraph(n, tuple(str(i) for i in range(n)), small.edges)
    worlds = sample_worlds(g, 150, as_stream(3))
    assert cascade._WORLD_CELLS // n == 4
    assert worlds.accept is None and worlds.live.shape == (150, (g.csr.prob.size + 7) // 8)
    masks = cascade.WorldMasks(g, worlds)
    for v in (0, 2, 7, 11):
        want = sum(world_reach(g, worlds, w, [v], {1, 5, 9, 30}) for w in range(150))
        assert cascade.masked_reach(masks, v, 1 << 1 | 1 << 5 | 1 << 9 | 1 << 30) == want
        assert world_total(g, worlds, [v]) == sum(world_reach(g, worlds, w, [v]) for w in range(150))


def masks_cases():
    certain_and_dead = (dc.Edge(0, 1, 1.0), dc.Edge(1, 2, 1.0), dc.Edge(2, 0, 0.5), dc.Edge(2, 3, 0.0),
                        dc.Edge(3, 4, 0.0), dc.Edge(5, 3, 0.7), dc.Edge(5, 6, 1.0), dc.Edge(3, 5, 0.4))
    rng = np.random.default_rng(0)
    dense = tuple(dc.Edge(i, j, round(float(rng.uniform(0.2, 0.8)), 3)) for i in range(4) for j in range(4) if i != j)
    return {
        # p = 1 edges are live in every world and p = 0 edges in none; 4 and 6 have no out-edges
        "certain_and_dead": dc.SocialGraph(7, tuple(map(str, range(7))), certain_and_dead),
        # every node reaches every other, so rows keep gaining bits along cycles
        "dense_cyclic": dc.SocialGraph(5, tuple(map(str, range(5))), dense + (dc.Edge(3, 4, 0.5),)),
        "random": dc.random_instance(40, 3 / 39, 12, prob_range=(0.2, 0.8)).graph,
    }


@pytest.mark.parametrize("cells", [None, 1], ids=["one_block", "blocks_of_8_edges"])
@pytest.mark.parametrize("samples", [1, 7, 8, 9, 200])
@pytest.mark.parametrize("case", sorted(masks_cases()))
def test_masked_reach_equals_the_world_kernel(case, samples, cells, monkeypatch):
    # mask widths that are and are not whole bytes, so the packed rows' padding bits show
    # if they leak; with cells=1 the transpose runs 8 edges at a time. The reference is a
    # plain walk in each world.
    g = masks_cases()[case]
    n = g.node_count
    worlds = sample_worlds(g, samples, as_stream(samples))
    with monkeypatch.context() as m:
        if cells is not None:
            m.setattr(cascade, "_WORLD_CELLS", cells)
        masks = cascade.WorldMasks(g, worlds)
    assert [d for row in masks.out for _, d in row] == [
        int("".join("1" if x else "0" for x in col[::-1]), 2) for col in live_rows(worlds).T if col.any()]
    rng = np.random.default_rng(samples)
    for v in range(n):
        for trial in range(4):
            blocked = rng.random(n) < (0.0, 0.2, 0.4, 0.7)[trial]
            blocked[v] = False
            nodes = set(np.flatnonzero(blocked).tolist())
            got = cascade.masked_reach(masks, v, sum(1 << u for u in nodes))
            want = sum(world_reach(g, worlds, w, [v], nodes) for w in range(samples))
            assert (got / samples).hex() == (want / samples).hex(), (v, trial)
            assert not any(masks.reach) and not any(masks.done)  # the scratch rows are clean for the next call
        assert cascade.masked_reach(masks, v, 1 << v) == 0  # a blocked source reaches nothing


def test_worlds_draw_live_edge_rows_in_stream_order(fig1):
    # one uniform per CSR edge, row by row, then one threshold row per world: so a
    # world set without a model holds exactly the rows an older draw order gave
    g = fig1.graph
    prob = g.csr.prob
    gen = np.random.default_rng(as_stream(4))
    rows = [gen.random(prob.size) < prob for _ in range(30)]
    thresholds = [gen.random(g.node_count) for _ in range(30)]
    worlds = sample_worlds(g, 30, as_stream(4), fig1.model)
    world, pos = np.indices((30, prob.size)).reshape(2, -1)
    assert worlds.is_live(world, pos).reshape(30, -1).tolist() == np.array(rows).tolist()
    assert worlds.accept.dtype == np.uint8
    assert worlds.accept.tolist() == [list(dc.SeedingRealization.of(fig1.model, t).min_rate_idx) for t in thresholds]
    assert sample_worlds(g, 30, as_stream(4)).live.tolist() == worlds.live.tolist()


def test_accept_index_matches_the_scalar_rule():
    # thresholds exactly at a probability accept (ties accept); 0 always accepts the
    # cheapest rate and a threshold above every probability accepts none
    rng = np.random.default_rng(6)
    for m in (1, 2, 3):
        probs = np.sort(rng.choice([0.0, 0.25, 0.5, 1.0, *rng.random(4)], size=(200, m)), axis=1)
        model = dc.AdoptionModel(dc.DiscountMenu(rates=tuple(range(1, m + 1))), tuple(map(tuple, probs.tolist())))
        for g in (rng.random(200), probs[np.arange(200), rng.integers(0, m, 200)], np.zeros(200), np.ones(200)):
            want = dc.SeedingRealization.of(model, g.tolist()).min_rate_idx
            assert accept_index(np.ascontiguousarray(probs.T), g).tolist() == list(want)
            assert [model.min_rate_index(v, x) for v, x in enumerate(g.tolist())] == [
                None if i == m else i for i in want]


def test_world_sets_past_the_cap_are_refused_before_drawing():
    # an edgeless 10k-node graph: 26,844 worlds hold 268,440,000 acceptance bytes, past the
    # 2**28 cap, and the refusal comes before anything that size is allocated
    g = dc.SocialGraph(10_000, tuple(str(v) for v in range(10_000)), ())
    model = dc.AdoptionModel(dc.DiscountMenu(rates=(1.0,)), ((0.5,),) * 10_000)
    assert 26_844 * 10_000 > cascade.MAX_WORLD_BYTES >= 26_843 * 10_000
    with pytest.raises(dc.TooLargeError, match=r"^26844 sampled worlds would take about 256 MB, cap is 256 MB; "
                                               r"draw fewer \(CLI: --samples\)$"):
        sample_worlds(g, 26_844, as_stream(0), model)
    # criterion 11's scale at the CLI's default 1,000 samples stays far below the cap
    assert 1000 * (10_000 + 50_000 // 8) < cascade.MAX_WORLD_BYTES
    # a spread estimator's live-edge rows alone are not capped: here they take no bytes
    assert sample_worlds(g, 26_844, as_stream(0)).live.shape == (26_844, 0)


def test_spread_certain_edges_always_fire():
    g = dc.SocialGraph(3, ("0", "1", "2"), (dc.Edge(0, 1, 1.0), dc.Edge(1, 2, 0.0)))
    assert dc.spread_exact(g, [0]) == pytest.approx(2.0, abs=1e-12)
    assert dc.spread_mc(g, [0], 100, as_stream(0)) == pytest.approx(2.0, abs=1e-12)


def assert_table_matches_plain_walks(inst, samples, stream):
    """Every single offer's table entry equals, by float.hex, the mean over the same
    worlds of a plain walk from the node wherever it accepts the rate."""
    g, m = inst.graph, len(inst.menu)
    worlds = sample_worlds(g, samples, stream, inst.model)
    table = offer_totals(g, worlds, m)
    reach = [[world_reach(g, worlds, w, [v]) for w in range(samples)] for v in range(g.node_count)]
    ev = dc.MCEvaluator(inst, samples, stream)
    for v in range(g.node_count):
        for i, rate in enumerate(inst.menu.rates):
            want = sum(r for w, r in enumerate(reach[v]) if worlds.accept[w, v] <= i)
            assert table[v, i] == want, (v, i)
            assert ev.value(dc.Configuration.of((v, rate))).hex() == (want / samples).hex()
    return table


def with_model(graph, rates=(1.0, 2.0), seed=0):
    rows = np.sort(np.random.default_rng(seed).uniform(0.1, 0.9, size=(graph.node_count, len(rates))), axis=1)
    return dc.Instance(graph, dc.AdoptionModel(dc.DiscountMenu(rates=rates), tuple(map(tuple, rows.tolist()))))


def test_offer_table_matches_plain_walks_on_fig1(fig1):
    table = assert_table_matches_plain_walks(fig1, 400, as_stream(8))
    assert table[4].tolist() == [np.sum(sample_worlds(fig1.graph, 400, as_stream(8), fig1.model).accept[:, 4] <= i)
                                 for i in range(2)]  # e has no out-edges


def test_offer_table_matches_plain_walks_with_certain_and_dead_edges():
    # p = 1 edges fire in every world and p = 0 edges never; nodes 4 and 6 have no
    # out-edges. The cycle 0-1-2 dies out, so a lost visited test shows here as a wrong
    # table rather than as a cascade that never ends.
    edges = (dc.Edge(0, 1, 1.0), dc.Edge(1, 2, 1.0), dc.Edge(2, 0, 0.5), dc.Edge(2, 3, 0.0),
             dc.Edge(3, 4, 0.0), dc.Edge(5, 3, 0.7), dc.Edge(5, 6, 1.0), dc.Edge(3, 5, 0.4))
    inst = with_model(dc.SocialGraph(7, tuple(str(i) for i in range(7)), edges), rates=(0.5, 1.0, 2.0))
    table = assert_table_matches_plain_walks(inst, 300, as_stream(2))
    worlds = sample_worlds(inst.graph, 300, as_stream(2), inst.model)
    assert table[0, 2] == 3 * np.sum(worlds.accept[:, 0] <= 2)


def test_offer_table_matches_plain_walks_where_cascades_revisit():
    # the dense cyclic graph of test_spread_mc_loop_path_matches_exact
    rng = np.random.default_rng(0)
    edges = [dc.Edge(i, j, round(float(rng.uniform(0.2, 0.8)), 3)) for i in range(4) for j in range(4) if i != j]
    inst = with_model(dc.SocialGraph(5, tuple(str(i) for i in range(5)), tuple(edges) + (dc.Edge(3, 4, 0.5),)))
    assert_table_matches_plain_walks(inst, 300, as_stream(21))


def test_offer_table_matches_plain_walks_across_blocks(monkeypatch):
    # 3 worlds per block, so 119 worlds run in 40 blocks, the last one partial
    inst = dc.random_instance(40, 3 / 39, 12, prob_range=(0.3, 0.9), rates=(0.5, 1.0, 1.5))
    monkeypatch.setattr(cascade, "_TABLE_CELLS", 3 * 40)
    assert_table_matches_plain_walks(inst, 119, as_stream(6))


def deep_sources(graph, worlds, w) -> list[int]:
    """Independent oracle: the nodes with a live edge in world w to a node that has a live out-edge."""
    live, indptr, dst = live_rows(worlds)[w], graph.csr.indptr, graph.csr.dst
    relays = {u for u in range(graph.node_count) if live[indptr[u]:indptr[u + 1]].any()}
    return [u for u in range(graph.node_count)
            if any(live[p] and int(dst[p]) in relays for p in range(indptr[u], indptr[u + 1]))]


def test_offer_table_matches_plain_walks_across_many_sources():
    # 300 nodes at a mean out-degree of 4: the first block of 54 worlds at the default
    # constants batches thousands of sources, hundreds of them deep, into one search
    inst = dc.random_instance(300, 4 / 299, 5, prob_range=(0.05, 0.3), rates=(0.5, 1.0))
    assert cascade._TABLE_CELLS // 300 == 54
    with mock.patch.object(cascade, "_source_reach", wraps=cascade._source_reach) as search:
        assert_table_matches_plain_walks(inst, 60, as_stream(4))
    assert search.call_args_list[0].args[2] == 54 * 300 and search.call_args_list[0].args[3].size > 300


@pytest.mark.parametrize("pairs, blocks", [(1 << 18, [2, 4, 8, 6]), (8000, [2, 4, 4, 8, 2])])
def test_offer_table_searches_from_deep_sources_only(pairs, blocks):
    # Only a source with a live target that relays is searched; the rest are counted off
    # their live edges. Blocks start at 2 worlds and double, up to 8, after a search that
    # keeps under pairs / 8 keys: at 8,000 pairs the first block of 4 keeps 1,602 and the
    # next stays at 4, whose search keeps 960.
    inst = dc.random_instance(40, 3 / 39, 11, prob_range=(0.2, 0.6), rates=(0.5, 1.0))
    g, n = inst.graph, inst.graph.node_count
    worlds = sample_worlds(g, 20, as_stream(9), inst.model)
    with mock.patch.object(cascade, "_TABLE_CELLS", 2 * n), mock.patch.object(cascade, "_TABLE_GROWN", 8 * n), \
            mock.patch.object(cascade, "_TABLE_PAIRS", pairs), \
            mock.patch.object(cascade, "_source_reach", wraps=cascade._source_reach) as search:
        table = offer_totals(g, worlds, 2)
    assert [c.args[2] // n for c in search.call_args_list] == blocks
    assert np.array_equal(table, offer_totals(g, worlds, 2))
    live, indptr, start, searched = live_rows(worlds), g.csr.indptr, 0, 0
    for c, r in zip(search.call_args_list, blocks):
        deep = [w * n + v for w in range(r) for v in deep_sources(g, worlds, start + w)]
        assert c.args[3].tolist() == deep
        start, searched = start + r, searched + len(deep)
    sources = sum(bool(live[w, indptr[v]:indptr[v + 1]].any()) for w in range(20) for v in range(n))
    assert (searched, sources) == (450, 560)  # 110 shallow sources are counted off their edges


@pytest.mark.parametrize("edges, source, reach", [
    (((0, 1), (1, 0)), 0, 2),  # the only target links back
    (((0, 1), (0, 2), (1, 3), (2, 3)), 0, 4),  # a diamond reaches its sink once
])
def test_offer_table_counts_each_node_once(edges, source, reach):
    n = 1 + max(max(e) for e in edges)
    inst = with_model(dc.SocialGraph(n, tuple(str(i) for i in range(n)), tuple(dc.Edge(a, b, 1.0) for a, b in edges)))
    table = assert_table_matches_plain_walks(inst, 50, as_stream(1))
    accept = sample_worlds(inst.graph, 50, as_stream(1), inst.model).accept[:, source]
    assert table[source].tolist() == [reach * int(np.sum(accept <= i)) for i in range(2)]


@st.composite
def small_digraphs(draw, max_nodes=7, arcs_per_node=4):
    n = draw(st.integers(1, max_nodes))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=arcs_per_node * n))
    arcs = {(a, b): None for a, b in pairs if a != b}  # no self-loops or duplicates, in drawn order
    probs = draw(st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=len(arcs), max_size=len(arcs)))
    return dc.SocialGraph(n, tuple(str(i) for i in range(n)),
                          tuple(dc.Edge(a, b, p) for (a, b), p in zip(arcs, probs)))


_TWO_CYCLES = dc.SocialGraph(4, tuple("0123"), (dc.Edge(0, 1, 0.7), dc.Edge(1, 0, 0.7), dc.Edge(1, 2, 1.0),
                                                dc.Edge(2, 1, 0.3), dc.Edge(3, 2, 0.0)))
_DIAMONDS = dc.SocialGraph(5, tuple("01234"), (dc.Edge(0, 1, 1.0), dc.Edge(0, 2, 0.7), dc.Edge(1, 3, 0.3),
                                               dc.Edge(2, 3, 1.0), dc.Edge(3, 4, 0.7), dc.Edge(4, 0, 0.3)))


@given(small_digraphs(max_nodes=6, arcs_per_node=2), st.data())
@settings(max_examples=150, deadline=None)
def test_blocked_nodes_neither_seed_nor_relay(graph, data):
    # seeds may lie inside the mask; blocked seeds add nothing, and a blocked node's
    # cascade outcome is the empty mask
    n = graph.node_count
    blocked = data.draw(st.integers(0, (1 << n) - 1), label="blocked")
    seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="seeds")
    open_nodes = [v for v in range(n) if not (blocked >> v) & 1]
    assert dc.spread_exact(graph, seeds, blocked=blocked) == pytest.approx(
        brute_spread(graph, seeds, open_nodes), abs=1e-12)
    one_rate = dc.AdoptionModel(menu=dc.DiscountMenu(rates=(1.0,)), probs=((0.5,),) * n)
    for v in range(n):
        outcomes = CascadeOutcomes(dc.Instance(graph=graph, model=one_rate)).of(blocked, v)
        assert all(not added & blocked and (added >> v) & 1 == (v in open_nodes) for added, *_ in outcomes)
        assert sum(w for _, w, *_ in outcomes) == pytest.approx(1.0, abs=1e-12)
        # one rate: a packed belief's floor fields are 1 bit each, node u's at bit n + u
        assert all(size == added.bit_count() and ~keep == added << n for added, _, size, keep in outcomes)


@given(small_digraphs(), st.integers(1, 17), st.sampled_from([1 << 18, 6]), st.integers(0, 2**16))
@example(_TWO_CYCLES, 13, 1 << 18, 0)
@example(_DIAMONDS, 17, 6, 1)
@settings(max_examples=200, deadline=None)
def test_offer_table_matches_plain_walks_on_small_digraphs(graph, samples, pairs, seed):
    # One world in the first block, growing to four, so the last block is partial for most
    # sample counts; at 6 pairs most sorted searches give up and the dense path takes over.
    n = graph.node_count
    with mock.patch.object(cascade, "_TABLE_CELLS", n), mock.patch.object(cascade, "_TABLE_GROWN", 4 * n), \
            mock.patch.object(cascade, "_TABLE_PAIRS", pairs):
        assert_table_matches_plain_walks(with_model(graph, seed=seed), samples, as_stream(seed))


@pytest.mark.parametrize("block", [0, 2])
def test_offer_table_matches_plain_walks_after_a_search_gives_up(monkeypatch, block):
    # 20 isolated nodes, then a core of 60 with near-certain edges: a core cascade
    # reaches about 55 nodes, and over 500 of a block's 800 keys are deep sources.
    # The sorted search of a block of 10 worlds gives up, at the pair limit in the
    # first block or forced in the third after two were counted, and from that
    # block on the deep sources search in chunks of 7 dense slots. Counts are kept
    # per node and menu interval, 80 * 4 of them: past a uint8.
    core = dc.random_instance(60, 3 / 59, 9, prob_range=(0.9, 1.0)).graph
    edges = tuple(dc.Edge(e.src + 20, e.dst + 20, e.prob) for e in core.edges)
    inst = with_model(dc.SocialGraph(80, tuple(str(i) for i in range(80)), edges), rates=(0.5, 1.0, 2.0))
    monkeypatch.setattr(cascade, "_TABLE_CELLS", 10 * 80)
    monkeypatch.setattr(cascade, "_TABLE_GROWN", 10 * 80)
    monkeypatch.setattr(cascade, "_VISITED_CELLS", 7 * 10 * 80)
    calls, search = itertools.count(), cascade._source_reach
    if block == 0:
        monkeypatch.setattr(cascade, "_TABLE_PAIRS", 400)
        batch = search
    else:
        def batch(*args):  # offer_totals runs twice below, each in 3 blocks
            return None if next(calls) % 3 == block else search(*args)
    with mock.patch.object(cascade, "_source_reach", side_effect=batch) as batched, \
            mock.patch.object(cascade, "_dense_reach", wraps=cascade._dense_reach) as dense:
        table = assert_table_matches_plain_walks(inst, 30, as_stream(3))
    assert batched.call_count == 2 * (block + 1)
    seeds = [c.args[3] for c in dense.call_args_list]
    worlds = sample_worlds(inst.graph, 30, as_stream(3), inst.model)
    deep = [w % 10 * 80 + v for w in range(10 * block, 30) for v in deep_sources(inst.graph, worlds, w)]
    assert len(deep) >= (3 - block) * 500  # 500+ deep sources a block
    assert max(map(len, seeds)) == 7 and sorted(k % 800 for chunk in seeds for k in chunk.tolist()) == sorted(2 * deep)
    assert table[:20, 1].tolist() == np.sum(worlds.accept[:, :20] <= 1, axis=0).tolist()
    assert table.max() > 50 * 10


def test_hoeffding_radius_shrinks():
    r1 = dc.hoeffding_radius(10, 1000)
    r2 = dc.hoeffding_radius(10, 4000)
    assert r2 == pytest.approx(r1 / 2)
    assert dc.hoeffding_radius(10, 1000, delta=0.01) > r1


def test_sample_realization_deterministic(fig1):
    r1 = dc.sample_realization(fig1, as_stream(5))
    r2 = dc.sample_realization(fig1, as_stream(5))
    assert r1 == r2


def test_reveal_cascade_scripted(fig1):
    real = dc.fig2_realization(fig1)
    newly, revealed = dc.reveal_cascade(fig1.graph, real.diffusion, 0, 0)
    assert newly == (0, 1)
    # out-edges of a and b are now known: a->b, a->c, b->d
    assert revealed == ((0, True), (1, False), (2, False))
    newly2, revealed2 = dc.reveal_cascade(fig1.graph, real.diffusion, 0b11, 3)
    assert newly2 == (3, 4)
    # c->d stays hidden: its source never became influenced
    assert revealed2 == ((4, True),)
    # a live edge into an influenced node carries nothing new
    assert dc.reveal_cascade(fig1.graph, real.diffusion, 0b10, 0) == ((0,), ((0, True), (1, False)))
    with pytest.raises(dc.ValidationError, match="^node 1 is already influenced$"):
        dc.reveal_cascade(fig1.graph, real.diffusion, 0b11, 1)


def test_conditional_spread_on_residual_graph(fig1):
    real = dc.fig2_realization(fig1)
    newly, _ = dc.reveal_cascade(fig1.graph, real.diffusion, 0, 0)
    influenced = set(newly)
    est = dc.SpreadEstimator(fig1.graph)
    assert est.residual_spread(influenced, 2) == pytest.approx(1.55, abs=1e-9)
    assert est.residual_spread(influenced, 3) == pytest.approx(1.1, abs=1e-9)
    with pytest.raises(dc.ValidationError):
        est.residual_spread(influenced, 0)  # already influenced
    mc = dc.SpreadEstimator(fig1.graph, mode="mc", samples=100_000, stream=as_stream(2))
    assert mc.residual_spread(influenced, 2) == pytest.approx(1.55, abs=0.02)


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_residual_spread_refuses_unknown_nodes(fig1, mode):
    est = dc.SpreadEstimator(fig1.graph, mode=mode, samples=10, stream=as_stream(2))
    for v in (-1, fig1.graph.node_count):
        with pytest.raises(dc.ValidationError, match=f"^residual spread references unknown node {v}$"):
            est.residual_spread(0, v)


def test_realization_round_trip(tmp_path, fig1):
    real = dc.sample_realization(fig1, as_stream(9))
    path = tmp_path / "real.txt"
    dc.write_realization(path, fig1, real)
    loaded = dc.load_realization(path, fig1)
    assert loaded.seeding.min_rate_idx == real.seeding.min_rate_idx
    assert loaded.diffusion == real.diffusion


def test_load_realization_validates(tmp_path, fig1):
    real = dc.fig2_realization(fig1)
    path = tmp_path / "real.txt"
    dc.write_realization(path, fig1, real)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")  # drop one edge line
    with pytest.raises(dc.ValidationError):
        dc.load_realization(path, fig1)
    path.write_text("\n".join(text + [text[-1]]) + "\n")  # duplicate edge line
    with pytest.raises(dc.ValidationError):
        dc.load_realization(path, fig1)
    bad = [ln for ln in text]
    bad[0] = "threshold a 1.5"
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(dc.ValidationError):
        dc.load_realization(path, fig1)


# fig2's file: thresholds for a-e on lines 1-5, then edges a->b, a->c, b->d, c->d, d->e on lines 6-10
_REALIZATION_ERRORS = [
    ("threshold-fields", lambda ls: ["threshold a", *ls[1:]], dc.ParseError,
     "{path}:1: expected 'threshold <node> <g>'"),
    ("edge-fields", lambda ls: [*ls[:5], "edge a b", *ls[6:]], dc.ParseError,
     "{path}:6: expected 'edge <src> <dst> <live|blocked>'"),
    ("edge-state", lambda ls: [*ls[:5], "edge a b maybe", *ls[6:]], dc.ParseError,
     "{path}:6: expected 'edge <src> <dst> <live|blocked>'"),
    ("threshold-not-a-number", lambda ls: ["threshold a low", *ls[1:]], dc.ParseError,
     "{path}:1: threshold 'low' is not a number"),
    ("duplicate-threshold", lambda ls: [*ls, "threshold a 0.5"], dc.ValidationError,
     "{path}:11: duplicate threshold for node a"),
    ("unknown-record", lambda ls: [*ls, "weight a 1"], dc.ParseError, "{path}:11: unknown record 'weight'"),
    ("edge-not-in-graph", lambda ls: [*ls, "edge a e live"], dc.ValidationError,
     "{path}:11: edge a -> e is not in the graph"),
    ("threshold-unknown-node", lambda ls: [*ls, "threshold z 0.5"], dc.ValidationError,
     "{path}:11: unknown node label 'z'"),
    ("edge-unknown-node", lambda ls: [*ls, "edge d q live"], dc.ValidationError,
     "{path}:11: unknown node label 'q'"),
    ("missing-thresholds", lambda ls: [ls[0], *ls[2:4], *ls[5:]], dc.ValidationError,
     "{path}: missing thresholds for nodes ['b', 'e']"),
]


@pytest.mark.parametrize("edit,error,message", [case[1:] for case in _REALIZATION_ERRORS],
                         ids=[case[0] for case in _REALIZATION_ERRORS])
def test_load_realization_rejects(tmp_path, fig1, edit, error, message):
    path = tmp_path / "real.txt"
    dc.write_realization(path, fig1, dc.fig2_realization(fig1))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(error) as exc:
        dc.load_realization(path, fig1)
    assert str(exc.value) == message.format(path=path)


def test_fig2_realization_thresholds(fig1):
    real = dc.fig2_realization(fig1)
    assert real.seeding.thresholds == (0.25, 0.60, 0.75, 0.25, 0.90)
    # a and d clear the cheap rate; b, c, e need the full one
    assert real.seeding.min_rate_idx == (0, 1, 1, 0, 1)
    assert real.seeding.accepts(0, 0) and real.seeding.accepts(3, 0)
    assert not real.seeding.accepts(2, 0)
    assert real.seeding.accepts(2, 1)
