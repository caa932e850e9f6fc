import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_lab import whitney
from continuum_lab.continua import (build_continuum, enumerate_subcontinua,
                                    incidence_table)
from continuum_lab.errors import DomainError
from continuum_lab.metric_core import DEFAULT_TOL, FinitePointSet
from continuum_lab.psi import build_psi_model
from continuum_lab.suite import _convex_size, _noise_size
from continuum_lab.whitney import (SIZE_BLOCK_FLOATS, WhitneyMap,
                                   build_whitney_map, check_whitney_axioms,
                                   equal_level_refinement, fsum_rows,
                                   hyperspace_distance_matrices,
                                   whitney_distance, whitney_distance_matrix,
                                   whitney_level)
from test_psi import reference_vertices


def reference_mu(mu, a):
    """One set's size as WhitneyMap once computed it, without the memo."""
    a = frozenset(a)
    if not a:
        raise DomainError("mu is defined on non-empty sets")
    idx = np.fromiter(a, dtype=int)
    if idx.min() < 0 or idx.max() >= mu.n_points:
        raise DomainError("set contains vertices outside the ambient")
    cols = mu.F[:, idx]
    span = cols.max(axis=1) - cols.min(axis=1)
    return math.fsum((mu.weights * span).tolist())


SIZE_MODELS = [("path", {"n": n}) for n in (10, 16, 22)] + \
    [("cycle", {"n": n}) for n in (8, 12, 16)] + \
    [("star", {"legs": 5, "leg_length": 2}), ("cantor_fan", {"depth": 2})]


@pytest.mark.parametrize("kind, params", SIZE_MODELS)
def test_batch_sizes_equal_the_per_set_sizes(kind, params):
    g = build_continuum(kind, **params)
    subs = enumerate_subcontinua(g)
    for seed in (None, 5):
        mu = build_whitney_map(g, ordering_seed=seed)
        got = mu.sizes(subs)
        assert got.dtype == np.float64
        assert np.array_equal(got, [reference_mu(mu, s) for s in subs])


@pytest.mark.parametrize("block", [1, 5, 300])
def test_batch_sizes_do_not_depend_on_the_block(block, monkeypatch):
    g = build_continuum("cycle", n=9)
    subs = enumerate_subcontinua(g)
    sets = subs + [a | b for a in subs[:20] for b in subs[-20:]]
    monkeypatch.setattr(whitney, "SIZE_BLOCK_FLOATS", block)
    mu = build_whitney_map(g)
    assert np.array_equal(mu.sizes(sets), [reference_mu(mu, s) for s in sets])


def test_batch_sizes_of_unions_equal_the_per_set_sizes():
    g = build_continuum("path", n=16)
    subs = enumerate_subcontinua(g)
    unions = [a | b for i, a in enumerate(subs) for b in subs[i:]]
    mu = build_whitney_map(g)
    assert np.array_equal(mu.sizes(unions),
                          [reference_mu(mu, s) for s in unions])


@pytest.mark.parametrize("m, level", [(3, 1), (6, 2), (12, 2), (6, 3),
                                      (24, 2), (12, 3), (24, 3)])
def test_psi_element_sizes_equal_the_per_set_sizes(m, level):
    model = build_psi_model(m=m, fiber_level=level)
    fresh = WhitneyMap(model.points)
    assert np.array_equal(
        model.sizes,
        [reference_mu(fresh, reference_vertices(model, e))
         for e in model.elements])


def sum_rows(table, parts=1):
    """fsum_rows over a 2-D table split into ``parts`` column blocks; also
    returns how often the kernel read the blocks."""
    reads = []

    def blocks():
        reads.append(1)
        return np.array_split(np.asarray(table, dtype=float).T, parts)
    return fsum_rows(blocks, len(table)), len(reads)


# non-negative float64 terms from 1 down into the subnormals
TERMS = st.one_of(
    st.floats(0.0, 1.0, allow_subnormal=True).map(abs),
    st.integers(0, 1100).map(lambda e: 2.0 ** -e),
    st.sampled_from([0.0, 5e-324, 2.0 ** -1022, 1.0, 2.0 ** -53]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda rows: st.integers(1, 12).flatmap(
    lambda n: st.lists(st.lists(TERMS, min_size=n, max_size=n),
                       min_size=rows, max_size=rows))),
       st.integers(1, 3))
def test_fsum_rows_equals_fsum_on_drawn_terms(table, parts):
    got, _ = sum_rows(table, parts)
    assert got.dtype == np.float64
    assert got.tolist() == [math.fsum(row) for row in table]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 720), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1.0, 2.0 ** -1000, 2.0 ** -1070]))
def test_fsum_rows_equals_fsum_row_by_row(rows, n, parts, seed, scale):
    # terms spread over 60 binades, some zero, some rows all zero; scaled
    # to 2^-1070 they are subnormal
    rng = np.random.default_rng(seed)
    table = rng.random((rows, n)) * 2.0 ** -rng.integers(0, 60, (rows, n))
    table[rng.random((rows, n)) < 0.2] = 0.0
    table[rng.random(rows) < 0.2] = 0.0
    table *= scale
    assert sum_rows(table, parts)[0].tolist() == \
        [math.fsum(row) for row in table.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 60)),
                min_size=1, max_size=40))
def test_fsum_rows_on_two_term_rows(pairs):
    # x, x * 2^-e: rounding ties and near-ties are common
    table = [[x, x * 2.0 ** -e] for x, e in pairs]
    assert sum_rows(table)[0].tolist() == [math.fsum(r) for r in table]


def test_fsum_rows_falls_back_to_fsum_on_a_tie():
    tie = [1.0, 2.0 ** -53]  # 1 + 2^-53 lies halfway between two floats
    assert math.fsum(tie) == 1.0 and 1.0 + 2.0 ** -53 == 1.0
    got, reads = sum_rows([tie, [0.5, 0.25], [0.0, 0.0]], parts=2)
    assert got.tolist() == [1.0, 0.75, 0.0] and reads == 2
    assert sum_rows([[1.0, 2.0 ** -52], [0.5, 0.25]])[1] == 1
    # sigma = 1 - 2^-53 and the float error sum q = 2^-54 put sigma + q on
    # the tie below 1, a power of two; the exact error sum is 2^-109 less,
    # so the true sum rounds down, which only the lower gap's test sees
    below = [1 - 2.0 ** -53, 2.0 ** -55, 2.0 ** -55 - 2.0 ** -108, 2.0 ** -109]
    got, reads = sum_rows([below])
    assert got.tolist() == [math.fsum(below)] == [1 - 2.0 ** -53]
    assert reads == 2
    above = [1.0, 2.0 ** -53, 2.0 ** -105]  # just past the tie: rounds up
    assert sum_rows([above])[0].tolist() == [math.fsum(above)] == \
        [1.0 + 2.0 ** -52]


def test_fsum_rows_of_no_rows_and_no_columns():
    assert fsum_rows(lambda: [np.zeros((3, 0))], 0).shape == (0,)
    assert fsum_rows(lambda: [], 2).tolist() == [0.0, 0.0]
    assert sum_rows([[5e-324]])[0].tolist() == [5e-324]


def test_batch_sizes_honour_and_fill_the_memo():
    g = build_continuum("path", n=8)
    mu = build_whitney_map(g)
    a, b, c = frozenset([1, 2]), frozenset([2, 3, 4]), frozenset([0, 7])
    mu._cache[a] = 0.5
    got = mu.sizes([a, b, c, b])
    assert got.tolist() == [0.5, reference_mu(mu, b), reference_mu(mu, c),
                            reference_mu(mu, b)]
    assert set(mu._cache) == {a, b, c}
    assert mu(b) == mu._cache[b] and mu(a) == 0.5
    mu.F = np.zeros_like(mu.F)  # memo hits read nothing else
    assert mu.sizes([c, b]).tolist() == got[[2, 1]].tolist()
    assert mu.sizes([]).shape == (0,)


@pytest.mark.parametrize("sets, message", [
    ([frozenset()], "mu is defined on non-empty sets"),
    ([frozenset([0, 1]), frozenset()], "mu is defined on non-empty sets"),
    ([frozenset([99])], "set contains vertices outside the ambient"),
    ([frozenset([0]), frozenset([5, 99])],
     "set contains vertices outside the ambient"),
    ([frozenset([-1, 0])], "set contains vertices outside the ambient"),
])
def test_batch_sizes_refuse_what_a_single_call_refuses(sets, message):
    mu = build_whitney_map(build_continuum("path", n=10))
    with pytest.raises(DomainError, match=message):
        mu.sizes(sets)
    with pytest.raises(DomainError, match=message):
        for s in sets:
            mu(s)
    with pytest.raises(DomainError, match=message):
        reference_mu(mu, sets[-1])


@st.composite
def single_set_cases(draw):
    """A Whitney map on a graph or a planar point set, and a non-empty
    vertex set: a subcontinuum of the graph, or any set of vertices."""
    kind = draw(st.sampled_from(["path", "cycle", "star", "cantor_fan",
                                 "points"]))
    if kind == "points":
        pts = draw(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                            min_size=1, max_size=14))
        ambient, n, subs = FinitePointSet(points=pts), len(pts), []
    else:
        params = {"path": {"n": draw(st.integers(1, 16))},
                  "cycle": {"n": draw(st.integers(3, 12))},
                  "star": {"legs": 3, "leg_length": draw(st.integers(1, 3))},
                  "cantor_fan": {"depth": draw(st.integers(1, 2))}}[kind]
        ambient = build_continuum(kind, **params)
        n, subs = ambient.n, enumerate_subcontinua(ambient)
    sets = st.frozensets(st.integers(0, n - 1), min_size=1)
    s = draw(st.sampled_from(subs) | sets if subs else sets)
    seed = draw(st.none() | st.integers(min_value=0, max_value=10**6))
    return ambient, seed, s


@settings(max_examples=150, deadline=None)
@given(single_set_cases())
def test_a_single_miss_equals_the_batch_and_the_reference(case):
    ambient, seed, s = case
    mu = build_whitney_map(ambient, ordering_seed=seed)
    got = mu(s)
    assert type(got) is float and mu._cache == {s: got}
    batch = build_whitney_map(ambient, ordering_seed=seed).sizes([s])
    assert batch.tolist() == [got] == [reference_mu(mu, s)]


def test_a_single_miss_equals_the_batch_on_a_tie(monkeypatch):
    # terms 1 and 2^-53 of the set {0, 1}: the sum is a rounding tie, which
    # fsum_rows cannot certify, so the batch reads its blocks again
    def tied():
        mu = build_whitney_map(FinitePointSet(points=[(0, 0), (1, 0),
                                                      (2, 0)]))
        mu.F = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        mu.weights = np.array([1.0, 2.0 ** -53, 0.0])
        return mu
    reads = []

    def spy(blocks, rows):
        def seen():
            reads.append(rows)
            yield from blocks()
        return fsum_rows(seen, rows)
    monkeypatch.setattr(whitney, "fsum_rows", spy)
    s = frozenset([0, 1])
    assert tied().sizes([s]).tolist() == [1.0] and len(reads) == 2
    assert tied()(s) == 1.0 == math.fsum([1.0, 2.0 ** -53])
    assert reference_mu(tied(), s) == 1.0


def test_union_table_and_meets_pass_bounded_batches(monkeypatch):
    g = build_continuum("path", n=16)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    cells, sums = [], []

    def spy(blocks, rows):
        def seen():
            for block in blocks():
                cells.append(block.size)
                yield block
        sums.append(rows)
        return fsum_rows(seen, rows)
    monkeypatch.setattr(whitney, "fsum_rows", spy)
    u = whitney._union_sizes(mu, subs)
    assert sum(sums) == len(subs) * (len(subs) + 1) // 2
    assert len(cells) > 1 and max(cells) <= SIZE_BLOCK_FLOATS
    assert np.array_equal(u, [[reference_mu(mu, a | b) for b in subs]
                              for a in subs])
    cells.clear()
    assert check_whitney_axioms(mu, subs).all_ok
    assert len(cells) > 1 and max(cells) <= SIZE_BLOCK_FLOATS


def test_batch_sizes_gather_bounded_point_blocks(monkeypatch):
    # path 40: 820 sets padded to 40 members, so two points per gather
    g = build_continuum("path", n=40)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    points = []

    def spy(blocks, rows):
        def seen():
            for block in blocks():
                points.append(len(block))
                yield block
        return fsum_rows(seen, rows)
    monkeypatch.setattr(whitney, "fsum_rows", spy)
    got = mu.sizes(subs)
    assert sum(points) == 40 and max(points) * 40 * len(subs) <= \
        SIZE_BLOCK_FLOATS
    assert np.array_equal(got, [reference_mu(mu, s) for s in subs])


def test_family_tables_read_the_size_table_not_the_memo():
    g = build_continuum("path", n=8)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    u = whitney._union_sizes(mu, subs)
    assert mu._cache == {}
    mu._cache[subs[3]] = 0.0
    assert np.array_equal(whitney._union_sizes(mu, subs), u)


@pytest.mark.parametrize("block", [1, 5, 300])
def test_family_tables_do_not_depend_on_the_block(block, monkeypatch):
    g = build_continuum("cycle", n=9)
    fam = enumerate_subcontinua(g)[::3] + [frozenset([0, 4]),
                                          frozenset([1, 5, 8])]
    mu = build_whitney_map(g)
    want = whitney._union_sizes(mu, fam)
    dists = hyperspace_distance_matrices(g, mu, fam)
    report = check_whitney_axioms(mu, fam, tol=0.02)
    monkeypatch.setattr(whitney, "SIZE_BLOCK_FLOATS", block)
    assert np.array_equal(whitney._union_sizes(mu, fam), want)
    assert all(map(np.array_equal, hyperspace_distance_matrices(g, mu, fam),
                   dists))
    assert check_whitney_axioms(mu, fam, tol=0.02) == report


@pytest.mark.parametrize("bad, message", [
    ([frozenset()], "mu is defined on non-empty sets"),
    ([frozenset([99])], "set contains vertices outside the ambient"),
    ([frozenset([-1, 0])], "set contains vertices outside the ambient"),
    ([frozenset([10]), frozenset()], "mu is defined on non-empty sets"),
])
@pytest.mark.parametrize("table", [
    lambda g, mu, fam: check_whitney_axioms(mu, fam),
    lambda g, mu, fam: whitney_distance_matrix(mu, fam),
    hyperspace_distance_matrices,
], ids=["axioms", "distances", "hyperspace"])
def test_family_tables_refuse_what_sizes_refuses(bad, message, table):
    g = build_continuum("path", n=10)
    mu = build_whitney_map(g)
    subs = enumerate_subcontinua(g)
    fam = subs[:5] + bad + subs[5:8]
    with pytest.raises(DomainError, match=message):
        mu.sizes(fam)
    with pytest.raises(DomainError, match=message):
        table(g, mu, fam)


@st.composite
def envelope_families(draw):
    """A Whitney map and a family on a path, cycle, star or cantor fan:
    subcontinua shuffled and subsampled, plus a few arbitrary non-empty
    vertex sets (mostly not connected)."""
    kind = draw(st.sampled_from(["path", "cycle", "star", "cantor_fan"]))
    if kind == "path":
        g = build_continuum("path", n=draw(st.integers(1, 19)))
    elif kind == "cycle":
        g = build_continuum("cycle", n=draw(st.integers(3, 10)))
    elif kind == "star":
        g = build_continuum("star", legs=draw(st.integers(3, 5)),
                            leg_length=draw(st.integers(1, 3)))
    else:
        g = build_continuum("cantor_fan", depth=draw(st.integers(1, 2)))
    subs = draw(st.permutations(enumerate_subcontinua(g)))
    fam = subs[:draw(st.integers(0, min(len(subs), 30)))]
    fam += draw(st.lists(st.frozensets(st.integers(0, g.n - 1), min_size=1),
                         max_size=6))
    fam = draw(st.permutations(fam))
    seed = draw(st.none() | st.integers(min_value=0, max_value=10**6))
    return build_whitney_map(g, ordering_seed=seed), fam


@settings(max_examples=80, deadline=None)
@given(envelope_families())
def test_union_and_meet_tables_equal_the_per_set_sizes(case):
    mu, fam = case
    assert np.array_equal(whitney._union_sizes(mu, fam).reshape(-1),
                          [reference_mu(mu, a | b) for a in fam for b in fam])
    inc = incidence_table(fam)
    ii, jj = np.nonzero(np.triu(inc @ inc.T > 0))
    assert np.array_equal(whitney._meet_sizes(mu, fam, inc, ii, jj),
                          [reference_mu(mu, fam[i] & fam[j])
                           for i, j in zip(ii.tolist(), jj.tolist())])


def reference_vertex_distances(g):
    """Embedded vertex distances by the broadcast formula whitney once had."""
    pts = np.array(g.pos, dtype=float)
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))


@pytest.mark.parametrize("kind, params", [
    ("path", {"n": 16}), ("cycle", {"n": 13}),
    ("star", {"legs": 5, "leg_length": 3}), ("cantor_fan", {"depth": 2})])
def test_size_table_uses_the_planar_distance_kernel(kind, params):
    g = build_continuum(kind, **params)
    mu = build_whitney_map(g)
    d = reference_vertex_distances(g)
    assert np.array_equal(mu.F, 1.0 / (1.0 + d[mu.order, :]))
    fam = enumerate_subcontinua(g)[:40]
    d_h = hyperspace_distance_matrices(g, mu, fam)[0]
    near = np.array([[d[sorted(a)][:, sorted(b)].min(axis=1).max()
                      for b in fam] for a in fam])
    assert np.array_equal(d_h, np.maximum(near, near.T))


def reference_axioms(mu, family, tol):
    """The Whitney axiom checks as plain nested loops over the family."""
    fam = [frozenset(s) for s in family]
    single, mono, subadd, diff = [], [], [], []
    for s in fam:
        if len(s) == 1 and abs(mu(s)) > tol:
            single.append(s)
    for a in fam:
        for b in fam:
            if a < b and mu(b) - mu(a) <= tol:
                mono.append((a, b))
    for i, a in enumerate(fam):
        for b in fam[i:]:
            inter = a & b
            if inter and mu(a | b) > mu(a) + mu(b) - mu(inter) + tol:
                subadd.append((a, b))
    for a in fam:
        for b in fam:
            if a <= b:
                base = mu(b) - mu(a)
                for c in fam:
                    if mu(b | c) - mu(a | c) > base + tol:
                        diff.append((a, b, c))
    return single, mono, subadd, diff


def reference_distances(g, mu, family):
    """(d_H, d_mu) one pair at a time from the members' coordinates."""
    fam = [frozenset(s) for s in family]
    coords = [np.array([g.pos[v] for v in sorted(s)], dtype=float)
              for s in fam]
    k = len(fam)
    dh = np.zeros((k, k))
    dm = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            diff = coords[i][:, None, :] - coords[j][None, :, :]
            d = np.sqrt((diff ** 2).sum(axis=2))
            dh[i, j] = dh[j, i] = max(d.min(axis=1).max(),
                                      d.min(axis=0).max())
            dm[i, j] = dm[j, i] = whitney_distance(mu, fam[i], fam[j])
    return dh, dm


@pytest.fixture(scope="module")
def path10():
    g = build_continuum("path", n=10)
    return g, enumerate_subcontinua(g), build_whitney_map(g)


def test_golden_whole_value_path5():
    g = build_continuum("path", n=5)
    mu = build_whitney_map(g)
    assert mu(frozenset(range(5))) == 0.7427083333333334


def test_axioms_hold_exhaustively(path10):
    g, subs, mu = path10
    rep = check_whitney_axioms(mu, subs, tol=DEFAULT_TOL)
    assert rep.all_ok


def test_singletons_are_zero(path10):
    g, subs, mu = path10
    for v in range(g.n):
        assert mu(frozenset([v])) == 0.0


def test_strict_monotonicity(path10):
    g, subs, mu = path10
    for a in subs:
        for b in subs:
            if a < b:
                assert mu(a) < mu(b)


def test_values_in_unit_range(path10):
    g, subs, mu = path10
    whole = frozenset(range(g.n))
    assert 0.0 < mu(whole) < 1.0
    for s in subs:
        assert 0.0 <= mu(s) <= mu(whole)


def test_seeded_maps_differ_but_stay_whitney():
    g = build_continuum("path", n=6)
    subs = enumerate_subcontinua(g)
    mu0 = build_whitney_map(g, ordering_seed=0)
    mu3 = build_whitney_map(g, ordering_seed=3)
    assert any(mu0(s) != mu3(s) for s in subs)
    assert check_whitney_axioms(mu3, subs).all_ok


def test_distance_nested_pair_is_size_difference(path10):
    g, subs, mu = path10
    a, b = frozenset([3]), frozenset([2, 3, 4])
    assert whitney_distance(mu, a, b) == mu(b) - mu(a)


def test_distance_to_inner_point_is_size(path10):
    g, subs, mu = path10
    for a in subs[:20]:
        for x in a:
            assert abs(whitney_distance(mu, a, frozenset([x])) - mu(a)) \
                <= DEFAULT_TOL


def test_distance_of_disconnected_union():
    # the union {0, 5} is not a subcontinuum; mu is evaluated on it anyway
    g = build_continuum("path", n=6)
    mu = build_whitney_map(g)
    assert whitney_distance(mu, frozenset([0]), frozenset([5])) > 0


def test_whitney_level_membership():
    g = build_continuum("path", n=8)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    t = mu(frozenset([2, 3]))
    members = whitney_level(mu, subs, t)
    assert frozenset([2, 3]) in members
    assert frozenset(range(8)) not in members


def test_equal_level_refinement_covers_each_member():
    g = build_continuum("path", n=8)
    mu = build_whitney_map(g)
    halves = [frozenset(range(4)), frozenset(range(4, 8))]
    t0 = min(mu(h) for h in halves) / 2
    out = equal_level_refinement(g, mu, halves, t0)
    for piece in out:
        covered = set()
        for s in piece.pieces:
            assert s <= piece.member
            assert abs(mu(s) - t0) <= piece.tol + DEFAULT_TOL
            covered |= s
        assert covered == set(piece.member)


def test_equal_level_refinement_validates_input():
    g = build_continuum("path", n=6)
    mu = build_whitney_map(g)
    with pytest.raises(DomainError):
        equal_level_refinement(g, mu, [frozenset(range(5))], 0.1)
    with pytest.raises(DomainError):
        equal_level_refinement(g, mu, [frozenset(range(6))], 2.0)


def test_metrics_uniformly_comparable():
    g = build_continuum("path", n=8)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    dh, dm = hyperspace_distance_matrices(g, mu, subs)
    for eps in (0.05, 0.1, 0.5):
        # d_mu >= eps only on pairs apart in d_H, and the other way round
        assert (dh[dm >= eps] > 0).all() and (dm[dh >= eps] > 0).all()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0,
                                                          max_value=100))
def test_axioms_hold_for_any_seed_and_size(n, seed):
    g = build_continuum("path", n=n)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g, ordering_seed=seed)
    assert check_whitney_axioms(mu, subs, tol=DEFAULT_TOL).all_ok


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=3, max_value=8))
def test_cycle_maps_are_whitney(n):
    g = build_continuum("cycle", n=n)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    assert check_whitney_axioms(mu, subs, tol=DEFAULT_TOL).all_ok


@st.composite
def sized_families(draw):
    """A path or cycle, its subcontinua, and a size function on them.

    The size function is a Whitney map (any ordering seed), one with a
    single perturbed value, or one of the suite's two adversarial maps.
    """
    model = draw(st.sampled_from(["path", "cycle"]))
    n = draw(st.integers(min_value=2 if model == "path" else 3,
                         max_value=10))
    g = build_continuum(model, n=n)
    subs = enumerate_subcontinua(g)
    kind = draw(st.sampled_from(["whitney", "perturbed", "convex", "noise"]))
    if kind == "convex":
        return g, subs, _convex_size
    if kind == "noise":
        return g, subs, _noise_size
    mu = build_whitney_map(g, ordering_seed=draw(
        st.none() | st.integers(min_value=0, max_value=10**6)))
    if kind == "perturbed":
        target = subs[draw(st.integers(min_value=0, max_value=len(subs) - 1))]
        value = mu(target)
        return g, subs, perturbed(mu, target, draw(st.sampled_from(
            [0.0, value - 0.05, value - 1e-3, value + 1e-3, value + 0.05])))
    return g, subs, mu


def perturbed(mu, target, value):
    """mu with the size of one set replaced, as a plain size function: the
    family tables of a WhitneyMap read its size table, not its memo."""
    return lambda a: value if frozenset(a) == target else mu(a)


@settings(max_examples=60, deadline=None)
@given(sized_families(), st.sampled_from([DEFAULT_TOL, 0.0, -1e-9, 0.02]))
def test_axiom_tables_match_nested_loops(case, tol):
    g, subs, mu = case
    rep = check_whitney_axioms(mu, subs, tol=tol)
    single, mono, subadd, diff = reference_axioms(mu, subs, tol)
    assert rep.singleton_violations == single
    assert rep.monotone_violations == mono
    assert rep.subadd_violations == subadd
    assert rep.diff_violations == diff


@settings(max_examples=40, deadline=None)
@given(sized_families())
def test_distance_tables_match_pair_loop(case):
    g, subs, mu = case
    dh, dm = hyperspace_distance_matrices(g, mu, subs)
    ref_dh, ref_dm = reference_distances(g, mu, subs)
    assert np.array_equal(dh, ref_dh)
    assert np.array_equal(dm, ref_dm)


def test_equal_sizes_violate_strict_monotonicity():
    g = build_continuum("path", n=6)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    a, b = frozenset([2, 3]), frozenset([2, 3, 4])
    mu = perturbed(mu, a, mu(b))
    rep = check_whitney_axioms(mu, subs, tol=0.0)
    assert (a, b) in rep.monotone_violations
    assert rep.monotone_violations == reference_axioms(mu, subs, 0.0)[1]


@pytest.mark.parametrize("mu,counts", [
    (_convex_size, [0, 0, 35, 504]),
    (_noise_size, [0, 28, 4, 301]),
])
def test_adversarial_violation_counts(mu, counts):
    # the suite's subadditivity-agreement family: the arc with 6 vertices
    subs = enumerate_subcontinua(build_continuum("path", n=6))
    rep = check_whitney_axioms(mu, subs)
    assert [len(rep.singleton_violations), len(rep.monotone_violations),
            len(rep.subadd_violations), len(rep.diff_violations)] == counts


@pytest.mark.parametrize("model,n,members", [
    ("path", 22, 22 * 23 // 2),     # intervals [i, j]: n(n + 1) / 2
    ("cycle", 16, 16 * 15 + 1),     # proper arcs n(n - 1), and the circle
])
def test_axioms_hold_on_the_ladder(model, n, members):
    g = build_continuum(model, n=n)
    subs = enumerate_subcontinua(g)
    assert len(subs) == members
    assert check_whitney_axioms(build_whitney_map(g), subs).all_ok


F = frozenset


# Formerly `whitney check --seed 3 --tol=-1e-9` golden runs, now that the CLI
# refuses a negative --tol: a negative slack makes every axiom test strict,
# so zero-size singletons and the equality cases of subadditivity and of
# the difference axiom fail.  The CLI listed the first five of each.
@pytest.mark.parametrize("model, n, subadd", [
    ("path", 10, [(F({0}), F({0})), (F({0}), F({0, 1})),
                  (F({0}), F({0, 1, 2})), (F({0}), F({0, 1, 2, 3})),
                  (F({0}), F({0, 1, 2, 3, 4}))]),
    ("cycle", 8, [(F({0}), F({0})), (F({0}), F({0, 1})),
                  (F({0}), F({0, 7})), (F({0}), F({0, 1, 2})),
                  (F({0}), F({0, 1, 7}))]),
])
def test_negative_tolerance_makes_every_axiom_strict(model, n, subadd):
    g = build_continuum(model, n=n)
    mu = build_whitney_map(g, ordering_seed=3)
    rep = check_whitney_axioms(mu, enumerate_subcontinua(g), tol=-1e-9)
    assert rep.singleton_violations[:5] == [F({v}) for v in range(5)]
    assert rep.monotone_violations == []
    assert rep.subadd_violations[:5] == subadd
    assert rep.diff_violations[:5] == [(F({0}), F({0}), F({v}))
                                       for v in range(5)]
