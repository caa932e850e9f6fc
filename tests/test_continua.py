import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continuum_lab import continua, errors
from continuum_lab.continua import (GraphContinuum, Hyperspace, Triod,
                                    build_continuum, circle_arc_to_disk,
                                    detect_triod, disk_to_circle_arc,
                                    enumerate_subcontinua, hyperspace,
                                    interval_arc_to_triangle, is_terminal,
                                    order_arcs_between, packed_rows,
                                    row_classes, row_groups,
                                    triangle_to_interval_arc, unpacked_rows)
from continuum_lab.errors import DomainError, ResourceError
from continuum_lab.psi import build_psi_model, filament_covers


def reference_triod(g, family):
    """The triod search as the plain triple loop over the family."""
    fam = list(family)
    n = len(fam)
    for i in range(n):
        for j in range(i + 1, n):
            core = fam[i] & fam[j]
            if not core or core == fam[i] or core == fam[j]:
                continue
            if not g.is_connected(frozenset(core)):
                continue
            for l in range(j + 1, n):
                c = fam[l]
                if core < c and (fam[i] & c) == core and (fam[j] & c) == core:
                    return Triod(a=fam[i], b=fam[j], c=c, core=frozenset(core))
    return None


def reference_incidence(family):
    """The axiom checker's row loop: one assignment per member."""
    fam = [frozenset(s) for s in family]
    verts = {v: j for j, v in enumerate(sorted(set().union(*fam)))}
    inc = np.zeros((len(fam), len(verts)), dtype=np.int64)
    for i, a in enumerate(fam):
        inc[i, [verts[v] for v in a]] = 1
    return inc


def assert_tables_match_the_row_loop(rec, family):
    """The record's tables against loops over the members: its words are
    the family's incidence table, packed."""
    fam = [frozenset(s) for s in family]
    assert list(rec) == fam
    assert rec.card.tolist() == [len(s) for s in fam]
    assert rec.flat.tolist() == [v for s in fam for v in s]
    assert rec.verts.tolist() == sorted(set().union(*fam))
    for table in (rec.card, rec.flat, rec.verts):
        assert table.dtype == np.int64
    ref = reference_incidence(fam)
    assert rec.words.shape == (len(fam), -(-ref.shape[1] // 64))
    assert np.array_equal(unpacked_rows(rec.words, ref.shape[1]), ref)


@pytest.mark.parametrize("kind, params", [
    ("path", {"n": 12}), ("cycle", {"n": 9}),
    ("star", {"legs": 4, "leg_length": 2}), ("cantor_fan", {"depth": 2})])
def test_incidence_table_matches_the_row_loop_on_models(kind, params):
    fam = enumerate_subcontinua(build_continuum(kind, **params))
    assert_tables_match_the_row_loop(fam, fam)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.frozensets(st.integers(-5, 40), max_size=8), max_size=10))
def test_incidence_table_matches_the_row_loop(family):
    # arbitrary ids, empty members and the empty family included
    assert_tables_match_the_row_loop(hyperspace(family), family)


@st.composite
def connected_graphs(draw):
    """A random tree on up to 8 vertices plus some extra edges."""
    n = draw(st.integers(min_value=1, max_value=8))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v)
             for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=6)))
    return GraphContinuum(n=n, edges=tuple(sorted(edges)),
                          pos=tuple((float(v), 0.0) for v in range(n)))


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.randoms(use_true_random=False))
def test_triod_search_matches_the_triple_loop(g, rnd):
    fam = list(enumerate_subcontinua(g))
    assert detect_triod(g, fam) == reference_triod(g, fam)
    rnd.shuffle(fam)
    assert detect_triod(g, fam) == reference_triod(g, fam)


def test_triod_search_skips_disconnected_cores():
    # a theta graph: three arcs from 0 to 1 pairwise meet in {0, 1}
    g = GraphContinuum(n=5, edges=((0, 2), (2, 1), (0, 3), (3, 1), (0, 4),
                                   (4, 1)),
                       pos=tuple((float(v), 0.0) for v in range(5)))
    arcs = [frozenset({0, 1, v}) for v in (2, 3, 4)]
    assert detect_triod(g, arcs) is None
    legs = [frozenset({0, v}) for v in (2, 3, 4)]
    w = detect_triod(g, arcs + legs)
    assert w == reference_triod(g, arcs + legs)
    assert w.core == frozenset({0})


@pytest.mark.parametrize("kind, params", [
    *[("path", {"n": n}) for n in range(1, 17)],
    *[("cycle", {"n": n}) for n in range(3, 17)],
    *[("star", {"legs": legs, "leg_length": k})
      for legs in (3, 4, 5) for k in (1, 2)],
    ("cantor_fan", {"depth": 1}), ("cantor_fan", {"depth": 2})])
def test_triod_search_matches_the_triple_loop_on_models(kind, params):
    g = build_continuum(kind, **params)
    fam = enumerate_subcontinua(g)
    got = detect_triod(g, fam)
    assert got == reference_triod(g, fam)
    # these models are arcs, circles or fans of arcs: a triod needs a branch
    branch = max(map(len, g.neighbors)) >= 3
    assert (got is not None) == branch


# Six 22-vertex runs of a 132-vertex path: members built from them span three
# 64-bit words, and two cores can share their first word and differ later.
RUNS = [frozenset(range(22 * t, 22 * t + 22)) for t in range(6)]
LONG_PATH = build_continuum("path", n=132)


def runs(*ts):
    return frozenset().union(*(RUNS[t] for t in ts))


@st.composite
def run_families(draw):
    """Unions of runs, some with a stray vertex: empty, disconnected and
    repeated members included."""
    member = st.builds(lambda ts, extra: runs(*ts) | extra,
                       st.sets(st.integers(0, 5)),
                       st.frozensets(st.integers(0, 131), max_size=1))
    return draw(st.lists(member, max_size=14))


@settings(max_examples=300, deadline=None)
@given(run_families(), st.randoms(use_true_random=False))
def test_triod_search_matches_the_triple_loop_on_multiword_families(fam,
                                                                     rnd):
    assert detect_triod(LONG_PATH, fam) == reference_triod(LONG_PATH, fam)
    rnd.shuffle(fam)
    assert detect_triod(LONG_PATH, fam) == reference_triod(LONG_PATH, fam)


@pytest.mark.parametrize("fam, want", [
    # F_0 & F_1 = run 0 while F_0 & F_2 adds run 4 (second word): only
    # F_3 completes the triod
    ([runs(0, 1, 4), runs(0, 2), runs(0, 3, 4), runs(0, 5)], (0, 1, 3)),
    # pair (0, 1) finds its partner after pair (0, 2) does: the witness
    # goes by (i, j), not by l
    ([runs(0, 1), runs(0, 2, 3), runs(0, 3), runs(0, 2, 4), runs(0, 5)],
     (0, 1, 4))])
def test_triod_witness_on_cores_past_the_first_word(fam, want):
    got = detect_triod(LONG_PATH, fam)
    assert got == reference_triod(LONG_PATH, fam)
    assert got == Triod(*(fam[x] for x in want), core=RUNS[0])


@pytest.mark.parametrize("block", [1, 5, 64])
def test_triod_search_in_small_blocks(monkeypatch, block):
    # one-row blocks and partner lists cut to a few pairs keep the witness
    monkeypatch.setattr(errors, "SIZE_BLOCK_FLOATS", block)
    rnd = np.random.default_rng(block)
    for kind, params in [("cycle", {"n": 8}), ("star", {"legs": 4,
                          "leg_length": 2}), ("cantor_fan", {"depth": 2})]:
        g = build_continuum(kind, **params)
        fam = enumerate_subcontinua(g)
        fam = [fam[x] for x in rnd.permutation(len(fam))]
        assert detect_triod(g, fam) == reference_triod(g, fam)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 150), max_size=12), max_size=12))
def test_packed_rows_hold_one_bit_per_column(family):
    rec = hyperspace(family)
    inc, words = reference_incidence(family), rec.words
    assert words.dtype == np.dtype("<u8")
    assert words.shape == (len(family), -(-len(rec.verts) // 64))
    cols = np.arange(len(rec.verts))
    bits = (words[:, cols // 64] >> (cols % 64).astype(np.uint64)) & 1
    assert np.array_equal(bits, inc)
    assert not np.unpackbits(words.view(np.uint8), axis=1,
                             bitorder="little")[:, len(rec.verts):].any()


def reference_words(lists, col, width):
    """The packer as a loop: row r sets bit c % 64 of word c // 64 for each
    column c = col[i] below ``width`` of the i in ``lists[r]``."""
    words = [[0] * -(-width // 64) for _ in lists]
    for r, idx in enumerate(lists):
        for c in (col[i] for i in idx):
            if c < width:
                words[r][c // 64] |= 1 << (c % 64)
    return np.array(words, dtype=np.uint64).reshape(len(lists),
                                                    -(-width // 64))


def pack_lists(lists, col, width):
    ptr = np.cumsum([0] + [len(idx) for idx in lists], dtype=np.int64)
    indices = np.array([i for idx in lists for i in idx], dtype=np.int64)
    return packed_rows(ptr, indices, np.array(col, dtype=np.int64), width)


def packer_case(width):
    """(width, col, lists): columns up to the spare one, width, and rows of
    indices into col, some empty and some repeating an index."""
    return st.lists(st.integers(0, width), min_size=1, max_size=40).flatmap(
        lambda col: st.tuples(st.just(width), st.just(col), st.lists(
            st.lists(st.integers(0, len(col) - 1), max_size=12),
            max_size=10)))


# rows with no entries, with repeated entries and with entries in the
# spare column (col[0] and col[4])
FIXED_ROWS = [[], [0], [1, 1, 2], [], [4, 3, 0, 3], [0, 4], []]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 63, 64, 65, 129]).flatmap(packer_case),
       st.sampled_from([errors.SIZE_BLOCK_FLOATS, 1, 200]))
@example((1, [1, 0, 0, 0, 1], FIXED_ROWS), 1)
@example((63, [63, 62, 0, 31, 63], FIXED_ROWS), 200)
@example((64, [64, 63, 0, 32, 64], FIXED_ROWS), 1)
@example((65, [65, 64, 0, 63, 65], FIXED_ROWS), 200)
@example((129, [129, 128, 0, 64, 129], FIXED_ROWS), 1)
def test_packed_rows_equal_the_loop(case, block):
    # small budgets cut the rows into blocks of one row or a few
    width, col, lists = case
    with mock.patch.object(errors, "SIZE_BLOCK_FLOATS", block):
        words = pack_lists(lists, col, width)
    assert words.dtype == np.dtype("<u8")
    assert np.array_equal(words, reference_words(lists, col, width))


def test_the_empty_family_packs_no_words():
    assert hyperspace([]).words.shape == (0, 0)
    assert pack_lists([], [], 5).shape == (0, 1)


def test_packed_tables_do_not_depend_on_the_block(monkeypatch):
    fams = [enumerate_subcontinua(build_continuum(kind, **params))
            for kind, params in [("path", {"n": 10}), ("cycle", {"n": 8}),
                                 ("star", {"legs": 3, "leg_length": 3})]]
    models = [build_psi_model(6, 2), build_psi_model(6, 3)]
    want = ([fam.words for fam in fams], list(map(filament_covers, models)))
    monkeypatch.setattr(errors, "SIZE_BLOCK_FLOATS", 64)
    words = [Hyperspace(fam).words for fam in fams]
    assert all(map(np.array_equal, words, want[0]))
    for got, ref in zip(map(filament_covers, models), want[1]):
        assert all(map(np.array_equal, got, ref))


word = st.sampled_from([0, 1, 2, 2 ** 63, 2 ** 64 - 1])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(word, min_size=width, max_size=width), min_size=1,
    max_size=30)), st.data())
def test_row_groups_equal_unique_rows(rows, data):
    keys = np.array(rows, dtype=np.uint64)
    order, edge = row_groups(keys)
    back = np.empty(len(keys), dtype=np.int64)
    back[order] = np.cumsum(edge) - 1
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    assert np.array_equal(keys[order[edge]], uniq)
    assert np.array_equal(back, inverse.ravel())
    # a leading key sorts first; equal keys keep their order
    lead = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(keys),
                                       max_size=len(keys))))
    order, edge = row_groups(keys, lead)
    want = sorted(range(len(keys)), key=lambda r: (lead[r], rows[r]))
    assert order.tolist() == want
    assert edge.tolist() == [p == 0 or (lead[want[p]], rows[want[p]]) !=
                             (lead[want[p - 1]], rows[want[p - 1]])
                             for p in range(len(want))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 63, 64, 65, 130]), st.data())
def test_row_classes_and_unpacked_rows_invert_packed_rows(width, data):
    pool = data.draw(st.lists(st.lists(st.booleans(), min_size=width,
                                       max_size=width), min_size=1,
                              max_size=4))
    pick = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                              max_size=40))
    table = np.array([pool[p] for p in pick], dtype=bool)
    rows, cols = np.nonzero(table)  # each row's index list, in row order
    words = packed_rows(np.searchsorted(rows, np.arange(len(table) + 1)),
                        cols, np.arange(width), width)
    back = unpacked_rows(words, width)
    assert back.dtype == bool and np.array_equal(back, table)
    first, cls = row_classes(words)
    assert np.array_equal(cls[first], np.arange(len(first)))
    # np.unique's partition up to relabelling, each class led by its first row
    _, lead, inverse = np.unique(table, axis=0, return_index=True,
                                 return_inverse=True)
    assert len(set(zip(cls, inverse.ravel()))) == len(first) == len(lead)
    assert np.array_equal(np.sort(first), np.sort(lead))


def test_subcontinua_counts_match_brute_force():
    # counts verified against independent subset enumeration
    assert len(enumerate_subcontinua(build_continuum("path", n=5))) == 15
    assert len(enumerate_subcontinua(build_continuum("cycle", n=4))) == 13
    assert len(enumerate_subcontinua(build_continuum("path", n=10))) == 55
    assert len(enumerate_subcontinua(build_continuum("cycle", n=6))) == 31


def test_path_subcontinua_are_intervals():
    g = build_continuum("path", n=6)
    for s in enumerate_subcontinua(g):
        lo, hi = min(s), max(s)
        assert s == frozenset(range(lo, hi + 1))


@pytest.fixture
def kept(monkeypatch):
    """An empty store of kept families, under the default cap."""
    monkeypatch.delenv("CONTINUUM_LAB_MAX_ELEMENTS", raising=False)
    store = {}
    monkeypatch.setattr(continua, "_kept", store)
    return store


def test_a_kept_family_is_one_immutable_record(kept):
    g = build_continuum("cycle", n=7)
    first = enumerate_subcontinua(g)
    assert isinstance(first, Hyperspace) and len(kept) == 1
    assert first == continua._connected_sets(g, errors._max_elements())
    with pytest.raises(TypeError):
        first[0] = frozenset([99])
    assert not hasattr(first, "append") and not hasattr(first, "clear")
    for name in ("card", "flat", "verts", "words"):
        table = getattr(first, name)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
        assert getattr(first, name) is table  # built once, kept
    # equal graphs get the one kept record; a plain copy packs anew, equal
    again = enumerate_subcontinua(build_continuum("cycle", n=7))
    assert again is first and hyperspace(first) is first
    copy = hyperspace(list(first))
    assert copy == first and copy is not first
    assert np.array_equal(copy.words, first.words)


def test_equal_graphs_share_one_kept_family(kept, monkeypatch):
    grown = []
    real = continua._connected_sets
    monkeypatch.setattr(continua, "_connected_sets",
                        lambda g, cap: grown.append(g) or real(g, cap))
    a, b = build_continuum("path", n=9), build_continuum("path", n=9)
    custom = [GraphContinuum(n=4, edges=((0, 1), (1, 2), (1, 3)),
                             pos=((0.0, 0.0),) * 4) for _ in range(2)]
    assert a is not b and custom[0] is not custom[1]
    assert enumerate_subcontinua(a) == enumerate_subcontinua(b)
    assert enumerate_subcontinua(custom[0]) == enumerate_subcontinua(
        custom[1])
    assert grown == [a, custom[0]]
    assert list(kept) == [(a, errors.DEFAULT_MAX_ELEMENTS),
                          (custom[0], errors.DEFAULT_MAX_ELEMENTS)]


def test_a_kept_family_is_refused_under_a_lower_cap(kept, monkeypatch):
    # path 10 has 55 subcontinua
    g = build_continuum("path", n=10)
    assert len(enumerate_subcontinua(g)) == 55
    monkeypatch.setenv("CONTINUUM_LAB_MAX_ELEMENTS", "54")
    with pytest.raises(ResourceError,
                       match=r"^subcontinuum enumeration exceeds cap 54$"
                       ) as exc:
        enumerate_subcontinua(g)
    assert exc.value.achievable == 54
    assert list(kept) == [(g, errors.DEFAULT_MAX_ELEMENTS)]


def test_a_raised_cap_enumerates_a_refused_graph(kept, monkeypatch):
    g = build_continuum("cycle", n=6)
    monkeypatch.setenv("CONTINUUM_LAB_MAX_ELEMENTS", "30")
    with pytest.raises(ResourceError) as exc:
        enumerate_subcontinua(g)
    assert exc.value.achievable == 30 and kept == {}
    monkeypatch.setenv("CONTINUUM_LAB_MAX_ELEMENTS", "31")
    assert len(enumerate_subcontinua(g)) == 31
    assert list(kept) == [(g, 31)]


@pytest.mark.parametrize("kind, n, cells, least", [
    ("path", 10, 220, 220), ("cycle", 8, 232, 120)])
def test_a_family_over_the_cell_bound_is_not_kept(kind, n, cells, least,
                                                  kept, monkeypatch):
    # path n has n(n+1)(n+2)/6 cells, the least of any graph on n
    # vertices; cycle n has n + n * n(n-1)/2
    g = build_continuum(kind, n=n)
    assert sum(map(len, enumerate_subcontinua(g))) == cells
    kept.clear()
    monkeypatch.setattr(errors, "SIZE_BLOCK_FLOATS", cells - 1)
    want = continua._connected_sets(g, errors._max_elements())
    assert enumerate_subcontinua(g) == want and kept == {}
    monkeypatch.setattr(errors, "SIZE_BLOCK_FLOATS", cells)
    assert enumerate_subcontinua(g) == want and len(kept) == 1
    kept.clear()
    # under the least cells of n vertices the graph is not even hashed
    monkeypatch.setattr(errors, "SIZE_BLOCK_FLOATS", least - 1)
    small = build_continuum("path", n=2)
    enumerate_subcontinua(small)  # a store that is not empty hashes a key
    monkeypatch.setattr(GraphContinuum, "__hash__", None)
    assert enumerate_subcontinua(g) == want
    assert list(kept) == [(small, errors.DEFAULT_MAX_ELEMENTS)]


def test_the_store_never_holds_more_than_its_bound(kept, monkeypatch):
    monkeypatch.setattr(continua, "KEPT_HYPERSPACES", 3)
    graphs = [build_continuum("path", n=n) for n in range(1, 7)]
    for i, g in enumerate(graphs):
        enumerate_subcontinua(g)
        assert [k[0] for k in kept] == graphs[max(0, i - 2):i + 1]
    enumerate_subcontinua(graphs[3])  # a use moves a family last
    enumerate_subcontinua(graphs[0])
    assert [k[0] for k in kept] == [graphs[5], graphs[3], graphs[0]]


def test_order_arcs_have_unit_steps():
    g = build_continuum("path", n=5)
    arcs = order_arcs_between(g, frozenset([2]), frozenset(range(5)))
    assert arcs
    for arc in arcs:
        assert arc[0] == frozenset([2])
        assert arc[-1] == frozenset(range(5))
        for a, b in zip(arc, arc[1:]):
            assert a < b and len(b - a) == 1
    # from the middle of a 5-path: interleave 2 left and 2 right extensions
    assert len(arcs) == math.comb(4, 2)


def reference_order_arcs(g, a, b):
    """The order arcs from a to b by plain recursion, one list per chain."""
    arcs = []

    def grow(chain):
        top = chain[-1]
        if top == b:
            arcs.append(tuple(chain))
            if len(arcs) > continua.MAX_ORDER_ARCS:
                raise ResourceError("too many order arcs",
                                    achievable=continua.MAX_ORDER_ARCS)
            return
        for w in sorted(g.neighbors_of_set(top) & b):
            grow(chain + [top | {w}])

    grow([a])
    return arcs


@pytest.mark.parametrize("kind, params", [
    ("path", {"n": 1}), ("path", {"n": 7}), ("cycle", {"n": 3}),
    ("cycle", {"n": 6}), ("star", {"legs": 3, "leg_length": 1}),
    ("star", {"legs": 3, "leg_length": 2}), ("cantor_fan", {"depth": 1}),
])
def test_order_arcs_match_the_recursion(kind, params):
    g = build_continuum(kind, **params)
    subs = enumerate_subcontinua(g)
    pairs = [(a, b) for a in subs for b in subs if a <= b]
    for a, b in pairs:
        assert order_arcs_between(g, a, b) == reference_order_arcs(g, a, b)


@pytest.mark.parametrize("kind, params", [
    ("path", {"n": 8}), ("cycle", {"n": 6}),
    ("star", {"legs": 3, "leg_length": 2}), ("cantor_fan", {"depth": 1}),
])
def test_order_arcs_refuse_where_the_recursion_does(kind, params,
                                                    monkeypatch):
    g = build_continuum(kind, **params)
    a, b = frozenset([0]), frozenset(range(g.n))
    count = len(reference_order_arcs(g, a, b))
    monkeypatch.setattr(continua, "MAX_ORDER_ARCS", count)
    assert order_arcs_between(g, a, b) == reference_order_arcs(g, a, b)
    monkeypatch.setattr(continua, "MAX_ORDER_ARCS", count - 1)
    for search in (order_arcs_between, reference_order_arcs):
        with pytest.raises(ResourceError) as err:
            search(g, a, b)
        assert err.value.achievable == count - 1


def test_order_arcs_grow_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    g = build_continuum("path", n=n)
    arcs = order_arcs_between(g, frozenset([0]), frozenset(range(n)))
    assert arcs == [tuple(frozenset(range(i + 1)) for i in range(n))]


def test_order_arcs_validate_endpoints():
    g = build_continuum("path", n=4)
    with pytest.raises(DomainError):
        order_arcs_between(g, frozenset([0, 2]), frozenset(range(4)))
    with pytest.raises(DomainError):
        order_arcs_between(g, frozenset([3]), frozenset([0, 1]))
    for ids in ([99], [-1]):
        with pytest.raises(DomainError, match="endpoints must be"):
            order_arcs_between(g, frozenset(ids), frozenset(ids))


def test_no_triod_in_path_or_cycle():
    assert detect_triod(build_continuum("path", n=6)) is None
    assert detect_triod(build_continuum("cycle", n=6)) is None
    # 820 and 871 subcontinua searched in full
    assert detect_triod(build_continuum("path", n=40)) is None
    assert detect_triod(build_continuum("cycle", n=30)) is None


def test_star_reads_leg_length_and_rejects_unknown_parameters():
    g = build_continuum("star", legs=3, leg_length=5)
    assert g.n == 16 and g.kind == "star-3x5"
    assert build_continuum("star").n == 4
    with pytest.raises(DomainError):
        build_continuum("star", leg_len=5)
    with pytest.raises(DomainError):
        build_continuum("path", n=4, legs=3)
    with pytest.raises(DomainError):
        build_continuum("disk", n=4)


@pytest.mark.parametrize("kind, fits, over, largest", [
    ("path", {"n": 50}, {"n": 51}, 50),
    ("cycle", {"n": 50}, {"n": 51}, 50),
    ("star", {"legs": 3, "leg_length": 16}, {"legs": 3, "leg_length": 17}, 49),
    ("cantor_fan", {"depth": 3}, {"depth": 4}, 3)])
def test_graphs_over_the_vertex_cap_are_refused(kind, fits, over, largest,
                                                monkeypatch):
    # under a cap of 50 vertices; cantor_fan depth d has 1 + (d + 1) * 2^d
    monkeypatch.setenv("CONTINUUM_LAB_MAX_ELEMENTS", "50")
    g = build_continuum(kind, **fits)
    assert g.n == (largest if kind != "cantor_fan" else 33)
    with pytest.raises(ResourceError,
                       match="exceeds the vertex cap 50") as exc:
        build_continuum(kind, **over)
    assert exc.value.achievable == largest


def test_huge_graphs_are_refused_before_building(monkeypatch):
    # depth 14 has 245,761 vertices; 2^depth is never formed
    monkeypatch.delenv("CONTINUUM_LAB_MAX_ELEMENTS", raising=False)
    for kind, params in (("path", {"n": 10 ** 8}), ("cycle", {"n": 200_001}),
                         ("cantor_fan", {"depth": 14}),
                         ("cantor_fan", {"depth": 10 ** 18})):
        with pytest.raises(ResourceError) as exc:
            build_continuum(kind, **params)
        assert exc.value.achievable == (13 if kind == "cantor_fan"
                                        else 200_000)


def test_adjacency_is_built_once_and_read_by_connectivity():
    g = build_continuum("star", legs=3, leg_length=2)
    assert g.neighbors is g.neighbors and g.order is g.order
    assert g.neighbors[0] == frozenset({1, 3, 5})
    assert g == build_continuum("star", legs=3, leg_length=2)
    assert g.is_connected(frozenset({0, 1, 2}))
    assert not g.is_connected(frozenset({1, 3}))
    assert g.neighbors_of_set(frozenset({0, 1})) == frozenset({2, 3, 5})
    # an id that is no vertex has no neighbors
    assert g.is_connected(frozenset({99}))
    assert not g.is_connected(frozenset({5, 99}))
    assert not g.is_connected(frozenset())


def test_one_walk_refuses_disconnected_graphs_and_reads_edges_once():
    pos = tuple((float(v), 0.0) for v in range(4))
    with pytest.raises(DomainError, match="^graph must be connected$"):
        GraphContinuum(n=4, edges=((0, 1), (2, 3)), pos=pos)
    with pytest.raises(DomainError, match="^graph must be connected$"):
        GraphContinuum(n=2, edges=(), pos=pos[:2])
    once = GraphContinuum(n=3, edges=((0, 1), (1, 2)), pos=pos[:3])
    twice = GraphContinuum(n=3, edges=((0, 1), (1, 0), (1, 2)), pos=pos[:3])
    assert twice.neighbors == once.neighbors == (
        frozenset({1}), frozenset({0, 2}), frozenset({1}))
    assert twice.order == once.order == (0, 1, 2)
    one = GraphContinuum(n=1, edges=(), pos=pos[:1])
    assert one.neighbors == (frozenset(),) and one.order == (0,)
    assert one.is_connected(frozenset({0}))


def reference_is_connected(g, vertices):
    """Subset connectivity as a depth-first walk over a dict of neighbour
    sets, in which an id that is no vertex has no neighbours."""
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    if not vertices:
        return False
    start = min(vertices)
    seen, stack = {start}, [start]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w in vertices and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.data())
def test_subset_connectivity_equals_the_dict_walk(g, data):
    # ids from -2 to n + 1: a table indexed by vertex must not read -1 as
    # the last vertex, nor n as anything
    ids = st.integers(-2, g.n + 1)
    for vertices in data.draw(st.lists(st.frozensets(ids, max_size=6),
                                       max_size=8)):
        assert g.is_connected(vertices) == \
            reference_is_connected(g, vertices)


def test_star_contains_triod_witness():
    g = build_continuum("star", legs=3, leg_length=2)
    w = detect_triod(g)
    assert w is not None
    assert w.core == w.a & w.b == w.a & w.c == w.b & w.c
    for big in (w.a, w.b, w.c):
        assert w.core < big


def test_terminal_in_arc_family():
    g = build_continuum("path", n=5)
    subs = enumerate_subcontinua(g)
    # singletons and the whole space are terminal; nondegenerate proper
    # intervals overlap a shifted interval non-comparably
    assert is_terminal(frozenset([0]), subs)
    assert is_terminal(frozenset(range(5)), subs)
    assert not is_terminal(frozenset([0, 1]), subs)
    assert not is_terminal(frozenset([1, 2]), subs)


# -- classic homeomorphisms -------------------------------------------------


def test_interval_map_special_values_exact():
    assert interval_arc_to_triangle(0.3, 0.3) == (0.3, 0.0)
    assert interval_arc_to_triangle(0.0, 1.0) == (0.5, 1.0)


def test_interval_map_rejects_bad_input():
    with pytest.raises(DomainError):
        interval_arc_to_triangle(0.5, 0.4)
    with pytest.raises(DomainError):
        triangle_to_interval_arc(0.0, 0.5)  # sticks out on the left


def test_full_circle_hits_center_exactly():
    for alpha in (0.0, 1.0, -2.5, math.pi / 3):
        assert circle_arc_to_disk(alpha, alpha + 2 * math.pi) == (0.0, 0.0)


def test_disk_center_is_full_circle():
    a, b = disk_to_circle_arc(0.0, 0.0)
    assert b - a == pytest.approx(2 * math.pi, abs=1e-15)


def test_circle_point_arcs_on_boundary():
    x, y = circle_arc_to_disk(0.5, 0.5)
    assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-15)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_interval_maps_of_floats_return_floats():
    for pair in (interval_arc_to_triangle(0.2, 0.8),
                 triangle_to_interval_arc(0.5, 0.6),
                 triangle_to_interval_arc(np.float64(0.5), np.float64(1.0))):
        assert all(type(x) is float for x in pair)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=50))
def test_interval_maps_of_arrays_equal_the_scalar_calls(pairs):
    a, b = np.sort(np.array(pairs).T, axis=0)
    u, v = interval_arc_to_triangle(a, b)
    a2, b2 = triangle_to_interval_arc(u, v)
    want = [(*interval_arc_to_triangle(x, y),
             *triangle_to_interval_arc(*interval_arc_to_triangle(x, y)))
            for x, y in zip(a.tolist(), b.tolist())]
    got = np.array([u, v, a2, b2]).T
    assert got.tobytes() == np.array(want).tobytes()


def test_interval_maps_of_arrays_refuse_one_bad_element():
    with pytest.raises(DomainError):
        interval_arc_to_triangle(np.array([0.1, 0.5]), np.array([0.2, 0.4]))
    with pytest.raises(DomainError):
        triangle_to_interval_arc(np.array([0.5, 0.0]), np.array([0.2, 0.5]))


# The circle maps as they stood before they took arrays: pure math on
# floats, kept as the reference for the array form.


def reference_circle_arc_to_disk(alpha, beta):
    width = beta - alpha
    if width < 0 or width > 2.0 * math.pi + 1e-12:
        raise DomainError("need 0 <= beta - alpha <= 2*pi")
    if width >= 2.0 * math.pi - 1e-12:
        return (0.0, 0.0)
    r = 1.0 - width / (2.0 * math.pi)
    mid = (alpha + beta) / 2.0
    return (r * math.cos(mid), r * math.sin(mid))


def reference_disk_to_circle_arc(x, y):
    r = math.hypot(x, y)
    if r > 1.0 + 1e-12:
        raise DomainError("point lies outside the unit disk")
    r = min(r, 1.0)
    width = 2.0 * math.pi * (1.0 - r)
    mid = math.atan2(y, x) if r > 0 else 0.0
    if mid <= -math.pi:
        mid = math.pi
    return (mid - width / 2.0, mid + width / 2.0)


def _circle_samples():
    """10,000 seeded arcs and disk points, then the edge cases: full circles
    within an ulp of 2*pi, point arcs, the centre with either zero sign, the
    negative real axis (atan2 = -pi) and points a rounding outside the
    boundary."""
    rng = np.random.default_rng(11)
    alpha = rng.uniform(-math.pi, math.pi, 10_000)
    width = rng.uniform(0, 2 * math.pi, 10_000)
    xy = rng.uniform(-0.7, 0.7, (2, 10_000))
    two_pi = 2 * math.pi
    edge_alpha = np.array([0.0, -2.5, 1.0, 3.0, -math.pi, 0.5])
    edge_width = np.array([two_pi, two_pi, np.nextafter(two_pi, 0),
                           two_pi - 1e-12, two_pi + 1e-12, 0.0])
    edge_xy = np.array([[0.0, -0.0, 0.0, -0.0, -1.0, -0.5, 1.0 + 1e-13, 0.6],
                        [0.0, 0.0, -0.0, -0.0, -0.0, -0.0, 0.0, -0.8]])
    return (np.concatenate([alpha, edge_alpha]),
            np.concatenate([alpha + width, edge_alpha + edge_width]),
            np.concatenate([xy, edge_xy], axis=1))


def test_circle_maps_of_arrays_equal_the_scalar_calls():
    alpha, beta, (x, y) = _circle_samples()
    for fn, ref, args in ((circle_arc_to_disk, reference_circle_arc_to_disk,
                           (alpha, beta)),
                          (disk_to_circle_arc, reference_disk_to_circle_arc,
                           (x, y)),
                          (disk_to_circle_arc, reference_disk_to_circle_arc,
                           circle_arc_to_disk(alpha, beta))):
        want = [ref(*pair) for pair in zip(*(a.tolist() for a in args))]
        got = fn(*args)
        assert np.array(got).T.tobytes() == np.array(want).tobytes()
        scalar = [fn(*pair) for pair in zip(*(a.tolist() for a in args))]
        assert all(type(v) is float for pair in scalar for v in pair)
        assert np.array(scalar).tobytes() == np.array(want).tobytes()


def test_circle_maps_of_arrays_refuse_one_bad_element():
    with pytest.raises(DomainError, match="beta - alpha"):
        circle_arc_to_disk(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    with pytest.raises(DomainError, match="beta - alpha"):
        circle_arc_to_disk(np.zeros(2), np.array([1.0, 2 * math.pi + 1e-11]))
    with pytest.raises(DomainError, match="unit disk"):
        disk_to_circle_arc(np.array([0.5, 0.8]), np.array([0.5, 0.8]))


@settings(max_examples=200, deadline=None)
@given(unit, unit)
def test_interval_roundtrip(a, b):
    a, b = min(a, b), max(a, b)
    u, v = interval_arc_to_triangle(a, b)
    a2, b2 = triangle_to_interval_arc(u, v)
    assert abs(a2 - a) < 1e-12 and abs(b2 - b) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
       st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False))
def test_circle_roundtrip(alpha, width):
    x, y = circle_arc_to_disk(alpha, alpha + width)
    a2, b2 = disk_to_circle_arc(x, y)
    assert abs((b2 - a2) - width) < 1e-9 or width > 2 * math.pi - 1e-9
    if width < 2 * math.pi - 1e-9:
        mid_err = math.remainder((a2 + b2) / 2 - (alpha + width / 2),
                                 2 * math.pi)
        assert abs(mid_err) < 1e-9
