import hashlib
import json
import random

import pytest

from clutterkit.clutter import Clutter, all_d_subsets
from clutterkit.graphs import (
    Polynomial,
    WeightedGraph,
    chromatic_polynomial_dc,
    chromatic_polynomial_product,
    enumerate_chordal_graphs,
    graph_connected,
    graph_from_edge_mask,
    is_chordal_classic,
    kruskal_mst,
    mst_by_erasures,
    perfect_elimination_ordering,
    properly_exposed_subgraph,
    random_connected_chordal,
)


def complete_graph(n: int) -> Clutter:
    return Clutter.complete(n, 2)


def test_is_chordal_classic_examples(tailed_triangle, four_cycle):
    assert is_chordal_classic(tailed_triangle)
    assert not is_chordal_classic(four_cycle)
    assert is_chordal_classic(complete_graph(6))
    with pytest.raises(ValueError, match="size guard"):
        is_chordal_classic(Clutter.empty(13, 2))


def test_perfect_elimination_ordering_examples(tailed_triangle, four_cycle):
    peo = perfect_elimination_ordering(tailed_triangle)
    assert peo is not None
    assert peo.order == (1, 2, 3, 4, 5)
    assert peo.degrees == (1, 1, 2, 1, 0)

    assert perfect_elimination_ordering(four_cycle) is None

    edgeless = perfect_elimination_ordering(Clutter.empty(4, 2))
    assert edgeless is not None and edgeless.degrees == (0, 0, 0, 0)


def test_peo_matches_classic_chordality_exhaustively():
    for n in range(2, 6):
        pairs = all_d_subsets(n, 2)
        for gmask in range(1 << len(pairs)):
            graph = graph_from_edge_mask(n, gmask)
            assert (perfect_elimination_ordering(graph) is not None) == is_chordal_classic(graph)


def test_chromatic_product_examples(tailed_triangle):
    falling = Polynomial.from_coeffs((0, 1))
    for k in range(1, 4):
        falling = falling * Polynomial.from_coeffs((-k, 1))
    assert chromatic_polynomial_product(complete_graph(4)) == falling

    chi = chromatic_polynomial_product(tailed_triangle)
    expected = Polynomial.from_coeffs((0, 1))
    for root in (1, 1, 1, 2):
        expected = expected * Polynomial.from_coeffs((-root, 1))
    assert chi == expected

    assert chromatic_polynomial_product(Clutter.empty(3, 2)).coeffs == (0, 0, 0, 1)

    with pytest.raises(ValueError):
        chromatic_polynomial_product(Clutter.from_circuits(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)]))


def test_chromatic_dc_examples(tailed_triangle, four_cycle):
    triangle = Clutter.from_circuits(3, 2, [(1, 2), (1, 3), (2, 3)])
    assert chromatic_polynomial_dc(triangle).coeffs == (0, 2, -3, 1)

    # cycle formula: (t-1)^4 + (t-1)
    c4 = chromatic_polynomial_dc(four_cycle)
    assert [c4(t) for t in range(5)] == [(t - 1) ** 4 + (t - 1) for t in range(5)]

    assert chromatic_polynomial_dc(tailed_triangle) == chromatic_polynomial_product(tailed_triangle)

    with pytest.raises(ValueError, match="size guard"):
        chromatic_polynomial_dc(Clutter.empty(11, 2))


def test_chromatic_agreement_exhaustive_small():
    for n in range(2, 6):
        for gmask in sorted(enumerate_chordal_graphs(n)):
            graph = graph_from_edge_mask(n, gmask)
            assert chromatic_polynomial_product(graph) == chromatic_polynomial_dc(graph)


def test_chromatic_counts_colorings():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(2, 5)
        graph = random_connected_chordal(n, rng)
        chi = chromatic_polynomial_product(graph)
        for t in range(4):
            colorings = 0
            for assignment in range(t**n if t else 0):
                colors = [(assignment // t**i) % t for i in range(n)]
                if all(colors[u - 1] != colors[v - 1] for u, v in graph.circuits):
                    colorings += 1
            assert chi(t) == colorings


def test_polynomial_str():
    assert str(Polynomial.from_coeffs((0, 2, -3, 1))) == "t^3 - 3t^2 + 2t"
    assert str(Polynomial.from_coeffs((0,))) == "0"
    assert str(Polynomial.from_coeffs((-1, 1))) == "t - 1"


def test_mst_triangle_keeps_light_edges():
    weighted = WeightedGraph.from_edges(3, [(1, 2, 1), (1, 3, 2), (2, 3, 3)])
    edges, weight = mst_by_erasures(weighted)
    assert edges == {(1, 2), (1, 3)} and weight == 3


def test_mst_tree_is_returned_unchanged():
    weighted = WeightedGraph.from_edges(4, [(1, 2, 5), (2, 3, 1), (3, 4, 9)])
    edges, weight = mst_by_erasures(weighted)
    assert edges == {(1, 2), (2, 3), (3, 4)} and weight == 15


def test_mst_matches_kruskal_on_random_chordal():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(3, 8)
        graph = random_connected_chordal(n, rng)
        weights = rng.sample(range(1, 500), len(graph.circuits))
        weighted = WeightedGraph.from_edges(
            n, [(u, v, w) for (u, v), w in zip(graph.circuits, weights)]
        )
        mine, my_weight = mst_by_erasures(weighted)
        oracle, oracle_weight = kruskal_mst(weighted)
        assert my_weight == oracle_weight
        assert mine == oracle  # distinct weights: unique tree


def test_mst_intermediate_states_stay_connected_chordal():
    rng = random.Random(3)
    graph = random_connected_chordal(6, rng, target_edges=12)
    weights = rng.sample(range(1, 100), len(graph.circuits))
    weighted = WeightedGraph.from_edges(
        6, [(u, v, w) for (u, v), w in zip(graph.circuits, weights)]
    )
    # replay the greedy loop by hand, checking every intermediate graph
    edges = dict(zip(weighted.graph.circuits, weighted.weights))
    current = weighted.graph
    while len(current.circuits) > 5:
        candidates = [
            e
            for e in current.circuits
            if (s := current.exposed_status(e)).exposed and s.proper
        ]
        best = max(candidates, key=lambda e: (edges[e], [-v for v in e]))
        current = current.without(best)
        assert graph_connected(current) and is_chordal_classic(current)


def test_mst_rejects_bad_input(four_cycle):
    disconnected = WeightedGraph.from_edges(4, [(1, 2, 1)])
    with pytest.raises(ValueError, match="connected"):
        mst_by_erasures(disconnected)
    cyclic = WeightedGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
    with pytest.raises(ValueError, match="chordal"):
        mst_by_erasures(cyclic)


def test_properly_exposed_subgraph_examples(tailed_triangle):
    report = properly_exposed_subgraph(complete_graph(4))
    assert report.edges == all_d_subsets(4, 2)
    assert report.components == (((1, 2, 3, 4), True),)

    tree = Clutter.from_circuits(4, 2, [(1, 2), (2, 3), (2, 4)])
    assert properly_exposed_subgraph(tree).edges == ()

    report = properly_exposed_subgraph(tailed_triangle)
    assert report.edges == ((3, 4), (3, 5), (4, 5))
    assert report.components == (((3, 4, 5), True),)


def test_properly_exposed_subgraph_non_chordal_is_reported(four_cycle):
    report = properly_exposed_subgraph(four_cycle)
    assert not report.input_chordal
    assert report.edges == ()


def test_graph_connected():
    assert graph_connected(complete_graph(3))
    assert not graph_connected(Clutter.from_circuits(3, 2, [(1, 2)]))
    assert not graph_connected(Clutter.empty(2, 2))


def test_random_chordal_generator_is_deterministic_and_chordal():
    a = random_connected_chordal(7, random.Random(42))
    b = random_connected_chordal(7, random.Random(42))
    assert a == b
    for seed in range(25):
        graph = random_connected_chordal(6, random.Random(seed))
        assert graph_connected(graph)
        assert is_chordal_classic(graph)


def test_enumerate_chordal_graphs_counts():
    # labeled chordal graph counts, cross-checked against the classic test
    assert len(enumerate_chordal_graphs(2)) == 2
    assert len(enumerate_chordal_graphs(3)) == 8
    assert len(enumerate_chordal_graphs(4)) == 61
    expected = {
        gmask
        for gmask in range(1 << 10)
        if is_chordal_classic(graph_from_edge_mask(5, gmask))
    }
    assert enumerate_chordal_graphs(5) == expected


def test_enumerate_matches_general_reachability():
    # the enumeration is the complement of the d = 2 erasure closure by
    # definition; test_enumerate_chordal_graphs_counts is the independent check
    from clutterkit.erasures import erasure_reachable_set

    for n in (3, 4, 5, 6):
        nedges = n * (n - 1) // 2
        full = (1 << nedges) - 1
        removed = erasure_reachable_set(n, 2)
        assert {full ^ state for state in removed} == enumerate_chordal_graphs(n)


def test_chordality_criteria_agree_on_random_sample():
    # classic scan vs greedy elimination on 10^4 random graphs with up to 8
    # vertices; erasure reachability joins in wherever it is tractable
    # (set membership for n <= 7, per-instance search on n = 8 positives).
    from clutterkit.erasures import find_erasure_sequence

    rng = random.Random(1234)
    chordal_by_n = {n: enumerate_chordal_graphs(n) for n in range(2, 8)}
    for _ in range(10_000):
        n = rng.randint(2, 8)
        nedges = n * (n - 1) // 2
        gmask = rng.getrandbits(nedges)
        graph = graph_from_edge_mask(n, gmask)
        classic = is_chordal_classic(graph)
        assert classic == (perfect_elimination_ordering(graph) is not None)
        if n <= 7:
            assert classic == (gmask in chordal_by_n[n])
        elif classic:
            assert find_erasure_sequence(graph) is not None


def test_boundary_components_match_networkx_bridges():
    # every graph on n <= 5 vertices and a seeded sample on 7: a component
    # is 2-edge-connected iff networkx finds no bridge in it
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    cases = [(n, g) for n in range(2, 6) for g in range(1 << n * (n - 1) // 2)]
    cases += [(7, rng.getrandbits(21)) for _ in range(500)]
    checked = bridged = 0
    for n, gmask in cases:
        try:
            report = properly_exposed_subgraph(graph_from_edge_mask(n, gmask))
        except RuntimeError:
            pytest.fail(f"a chordal graph's boundary grew a bridge: n={n}, mask={gmask}")
        boundary = nx.Graph(report.edges)
        expected = {
            tuple(sorted(comp)): not nx.has_bridges(boundary.subgraph(comp))
            for comp in nx.connected_components(boundary)
        }
        assert dict(report.components) == expected
        bridged += list(expected.values()).count(False)
        checked += len(expected)
    assert checked > 1000 and bridged > 10


def test_graph_erasure_outputs_are_pinned():
    # The boundary of every graph on n <= 5, erasure spanning trees on a
    # seeded sample of connected 7-vertex chordal graphs with distinct
    # weights, and random_connected_chordal for seeds 0-199, as the graph
    # loops returned them when each wrote its own proper-exposure test.
    rows = []
    for n in range(2, 6):
        for gmask in range(1 << n * (n - 1) // 2):
            report = properly_exposed_subgraph(graph_from_edge_mask(n, gmask))
            rows.append([n, gmask, report.edges, report.components, report.input_chordal])
    rng = random.Random(18)
    trees = 0
    while trees < 200:
        graph = graph_from_edge_mask(7, rng.getrandbits(21))
        if not graph_connected(graph) or perfect_elimination_ordering(graph) is None:
            continue
        weights = rng.sample(range(1, 1000), len(graph.circuits))
        weighted = WeightedGraph.from_edges(
            7, [(u, v, w) for (u, v), w in zip(graph.circuits, weights)]
        )
        tree, weight = mst_by_erasures(weighted)
        rows.append([graph.circuits, weights, sorted(tree), str(weight)])
        trees += 1
    for seed in range(200):
        rows.append(random_connected_chordal(3 + seed % 6, random.Random(seed)).circuits)
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "de56381faa1c1876b1d82bf9ed170358ad5151d7f50e7047bfef57a66871e9aa"


def test_chordal_products_and_boundaries_are_pinned():
    # The elimination product's coefficients and the full boundary report for
    # every chordal graph on 6 vertices and 1,000 seeded chordal graphs on 7,
    # as they were before the product was memoized on sorted later degrees,
    # the boundary read chordality off its link table and triangle edges
    # skipped the bridge search.
    rng = random.Random(21)
    sample = []
    while len(sample) < 1000:
        gmask = rng.getrandbits(21)
        if perfect_elimination_ordering(graph_from_edge_mask(7, gmask)) is not None:
            sample.append(gmask)
    rows = []
    for n, gmask in [(6, g) for g in sorted(enumerate_chordal_graphs(6))] + [(7, g) for g in sample]:
        graph = graph_from_edge_mask(n, gmask)
        report = properly_exposed_subgraph(graph)
        rows.append([
            n, gmask, chromatic_polynomial_product(graph).coeffs,
            report.edges, report.components, report.input_chordal,
        ])
    assert len(rows) == 18_154 + 1000
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "02b220e5af0994f883e5a8230ace7835949109215f531e525ce6ab2ae2d9dea9"
