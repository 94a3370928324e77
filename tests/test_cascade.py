import itertools
import math
from unittest import mock

import numpy as np
import pytest

import discountcast as dc
import discountcast.cascade as cascade
from discountcast.cascade import live_edge_snapshots, singleton_spreads
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


def test_spread_exact_respects_restrict(fig1):
    g = fig1.graph
    allowed = {2, 3, 4}  # after a and b are spoken for
    assert dc.spread_exact(g, [2], restrict=allowed) == pytest.approx(1.55, abs=1e-9)
    assert dc.spread_exact(g, [3], restrict=allowed) == pytest.approx(1.1, abs=1e-9)
    assert dc.spread_exact(g, [2], restrict=allowed) == pytest.approx(
        brute_spread(g, [2], allowed), abs=1e-12
    )


def test_spread_exact_counts_only_uncertain_edges():
    # 14 certain edges do not hit the enumeration cap
    edges = tuple(dc.Edge(0, j, 1.0) for j in range(1, 15))
    g = dc.SocialGraph(15, tuple(str(i) for i in range(15)), edges)
    assert dc.spread_exact(g, [0], max_uncertain_edges=2) == pytest.approx(15.0, abs=1e-12)


def test_spread_exact_cap():
    edges = tuple(dc.Edge(0, j, 0.5) for j in range(1, 15))
    g = dc.SocialGraph(15, tuple(str(i) for i in range(15)), edges)
    with pytest.raises(dc.TooLargeError, match='mode="mc".*--estimator mc'):
        dc.spread_exact(g, [0], max_uncertain_edges=10)


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
    dc.spread_mc(g, [7, 9], 3000, as_stream(7), restrict=range(0, 300, 2))
    assert dc.spread_mc(g, [0, 7], 2000, as_stream(4)) == first


def test_spread_mc_respects_restrict(fig1):
    g = fig1.graph
    for seeds, allowed in (([2], {2, 3, 4}), ([1, 2], {1, 2, 3, 4}), ([0, 4], {0, 2, 3})):
        exact = dc.spread_exact(g, seeds, restrict=allowed)
        est = dc.spread_mc(g, seeds, 200_000, as_stream(13), restrict=allowed)
        assert est == pytest.approx(exact, abs=0.02)


def test_spread_mc_across_many_blocks(fig1):
    # fig1's edges among 2**16 nodes: a block holds only 2**22 // 2**16 = 64
    # replicates, so 20,001 samples run in 313 blocks, the last one partial
    n = 1 << 16
    g = dc.SocialGraph(n, tuple(str(i) for i in range(n)), fig1.graph.edges)
    est = dc.spread_mc(g, [0], 20_001, as_stream(19))
    assert est == pytest.approx(dc.spread_exact(g, [0]), abs=0.03)


def test_spread_mc_on_snapshots_matches_a_plain_walk():
    # 2**16 nodes hold a block of only 64 replicates, so 150 snapshots run
    # in three blocks and each block must read its own rows
    small = dc.random_instance(40, 3 / 39, 12, prob_range=(0.2, 0.8)).graph
    n = 1 << 16
    g = dc.SocialGraph(n, tuple(str(i) for i in range(n)), small.edges)
    snaps = live_edge_snapshots(g, 150, as_stream(3))
    assert snaps.shape == (150, len(small.edges)) and snaps.dtype == bool
    indptr, dst = g.csr.indptr, g.csr.dst
    blocked = np.zeros(n, dtype=bool)
    blocked[[1, 5, 9, 30]] = True

    def reach(row, v):
        seen, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for pos in range(indptr[u], indptr[u + 1]):
                w = int(dst[pos])
                if row[pos] and w not in seen and not blocked[w]:
                    seen.add(w)
                    stack.append(w)
        return len(seen)

    for v in (0, 2, 7, 11):
        want = sum(reach(row, v) for row in snaps) / 150
        assert dc.spread_mc(g, [v], 150, None, blocked=blocked, snapshots=snaps) == want
    with pytest.raises(dc.ValidationError):
        dc.spread_mc(g, [0], 100, None, snapshots=snaps)
    # a blocked mask and the restrict= node set name the same blocking
    allowed = [u for u in range(40) if not blocked[u]]
    assert dc.spread_mc(small, [0, 2], 300, as_stream(4), restrict=allowed) == \
        dc.spread_mc(small, [0, 2], 300, as_stream(4), blocked=blocked[:40])


def test_spread_certain_edges_always_fire():
    g = dc.SocialGraph(3, ("0", "1", "2"), (dc.Edge(0, 1, 1.0), dc.Edge(1, 2, 0.0)))
    assert dc.spread_exact(g, [0]) == pytest.approx(2.0, abs=1e-12)
    assert dc.spread_mc(g, [0], 100, as_stream(0)) == pytest.approx(2.0, abs=1e-12)


def assert_table_matches_lone_runs(g, samples, stream):
    """singleton_spreads, batched throughout, agrees with one spread_mc run per node, on
    substream (v,), bit for bit."""
    with mock.patch.object(cascade, "_mc_total", wraps=cascade._mc_total) as lone:
        table = singleton_spreads(g, samples, stream)
    assert not lone.called  # no group fell back to lone runs
    runs = [dc.spread_mc(g, [v], samples, child(stream, v)) for v in range(g.node_count)]
    assert [x.hex() for x in table] == [x.hex() for x in runs]
    return table


def test_singleton_spreads_match_lone_runs_on_fig1(fig1):
    table = assert_table_matches_lone_runs(fig1.graph, 2000, as_stream(8))
    assert table[4] == 1.0  # e has no out-edges
    assert table[0] == pytest.approx(1.609, abs=0.05)


def test_singleton_spreads_match_lone_runs_with_certain_and_dead_edges():
    # p = 1 edges fire in every replicate and p = 0 edges never; nodes 4 and 6 have no
    # out-edges. The cycle 0-1-2 dies out, so a lost visited test shows here as a wrong
    # table rather than as a cascade that never ends.
    edges = (dc.Edge(0, 1, 1.0), dc.Edge(1, 2, 1.0), dc.Edge(2, 0, 0.5), dc.Edge(2, 3, 0.0),
             dc.Edge(3, 4, 0.0), dc.Edge(5, 3, 0.7), dc.Edge(5, 6, 1.0), dc.Edge(3, 5, 0.4))
    g = dc.SocialGraph(7, tuple(str(i) for i in range(7)), edges)
    table = assert_table_matches_lone_runs(g, 500, as_stream(2))
    assert table[0] == 3.0
    assert table[4] == table[6] == 1.0


def test_singleton_spreads_match_lone_runs_where_cascades_revisit():
    # the dense cyclic graph of test_spread_mc_loop_path_matches_exact
    rng = np.random.default_rng(0)
    edges = [dc.Edge(i, j, round(float(rng.uniform(0.2, 0.8)), 3)) for i in range(4) for j in range(4) if i != j]
    g = dc.SocialGraph(5, tuple(str(i) for i in range(5)), tuple(edges) + (dc.Edge(3, 4, 0.5),))
    table = assert_table_matches_lone_runs(g, 1000, as_stream(21))
    assert table[0] == pytest.approx(dc.spread_exact(g, [0]), abs=0.1)


def test_singleton_spreads_match_lone_runs_across_blocks(monkeypatch):
    # 3 replicates per block, so 20 samples run in 7 blocks, the last one partial
    g = dc.random_instance(40, 3 / 39, 12, prob_range=(0.2, 0.8)).graph
    monkeypatch.setattr(cascade, "_VISITED_CELLS", 3 * 40)
    assert_table_matches_lone_runs(g, 20, as_stream(6))


def test_singleton_spreads_match_lone_runs_across_node_groups(monkeypatch):
    g = dc.random_instance(300, 4 / 299, 5).graph
    # 300 samples at a mean out-degree of 4 put about 27 nodes in each default group
    assert np.sum(300 * np.maximum(np.diff(g.csr.indptr), 1)) > 10 * cascade._GROUP_EDGES
    assert_table_matches_lone_runs(g, 300, as_stream(4))
    # groups of a node or two, across blocks
    monkeypatch.setattr(cascade, "_GROUP_EDGES", 64)
    monkeypatch.setattr(cascade, "_VISITED_CELLS", 25 * 300)
    assert_table_matches_lone_runs(g, 60, as_stream(4))


@pytest.mark.parametrize("limit", [("_GROUP_KEYS", 4000), ("_SLOT_KEYS", 2000)])
def test_singleton_spreads_match_lone_runs_after_a_group_overflows(monkeypatch, limit):
    # 20 isolated nodes, then a core of 60 with near-certain edges: a core cascade reaches
    # about 55 nodes, so a core slot holds about 2,750 keys at 50 samples and a group of
    # core nodes passes either limit, while groups of isolated nodes (50 keys a slot) fit
    core = dc.random_instance(60, 3 / 59, 9, prob_range=(0.9, 1.0)).graph
    edges = tuple(dc.Edge(e.src + 20, e.dst + 20, e.prob) for e in core.edges)
    g = dc.SocialGraph(80, tuple(str(i) for i in range(80)), edges)
    monkeypatch.setattr(cascade, "_GROUP_EDGES", 400)
    monkeypatch.setattr(cascade, *limit)
    with mock.patch.object(cascade, "_mc_total", wraps=cascade._mc_total) as lone:
        table = singleton_spreads(g, 50, as_stream(3))
    # the isolated nodes, and any core node sharing their group, stay batched; from the
    # first group that passes its limit on, every node runs lone
    assert 0 < lone.call_count <= 60
    assert [x.hex() for x in table] == [dc.spread_mc(g, [v], 50, child(as_stream(3), v)).hex() for v in range(80)]
    assert table[:20] == [1.0] * 20 and max(table) > 50


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
    obs = dc.PartialObservation()
    newly, revealed = dc.reveal_cascade(fig1.graph, real.diffusion, obs, 0)
    assert set(newly) == {0, 1}
    assert obs.influenced == {0, 1}
    # out-edges of a and b are now known: a->b, a->c, b->d
    assert dict(revealed) == {0: True, 1: False, 2: False}
    newly2, revealed2 = dc.reveal_cascade(fig1.graph, real.diffusion, obs, 3)
    assert set(newly2) == {3, 4}
    # c->d stays hidden: its source never became influenced
    assert dict(revealed2) == {4: True}
    assert obs.influenced == {0, 1, 3, 4}


def test_conditional_spread_on_residual_graph(fig1):
    real = dc.fig2_realization(fig1)
    obs = dc.PartialObservation()
    dc.reveal_cascade(fig1.graph, real.diffusion, obs, 0)
    est = dc.SpreadEstimator(fig1.graph)
    assert est.residual_spread(obs.influenced, 2) == pytest.approx(1.55, abs=1e-9)
    assert est.residual_spread(obs.influenced, 3) == pytest.approx(1.1, abs=1e-9)
    with pytest.raises(dc.ValidationError):
        est.residual_spread(obs.influenced, 0)  # already influenced
    mc = dc.SpreadEstimator(fig1.graph, mode="mc", samples=100_000, stream=as_stream(2))
    assert mc.residual_spread(obs.influenced, 2) == pytest.approx(1.55, abs=0.02)


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


def test_fig2_realization_thresholds(fig1):
    real = dc.fig2_realization(fig1)
    assert real.seeding.thresholds == (0.25, 0.60, 0.75, 0.25, 0.90)
    # a and d clear the cheap rate; b, c, e need the full one
    assert real.seeding.min_rate_idx == (0, 1, 1, 0, 1)
    assert real.seeding.accepts(0, 0) and real.seeding.accepts(3, 0)
    assert not real.seeding.accepts(2, 0)
    assert real.seeding.accepts(2, 1)
