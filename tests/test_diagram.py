"""Diagram construction, heights, telescoping and explicit path words."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli import (
    CapExceeded,
    DimensionMismatch,
    PathWord,
    StationaryDiagram,
    check_path,
    enumerate_paths,
    heights,
    positivity_power,
    telescope,
    telescope_to_primitive,
    validate,
)
from bratteli import diagram
from bratteli.diagram import vertex_sequences


def test_rejects_non_square_incidence():
    with pytest.raises(DimensionMismatch):
        StationaryDiagram(((1, 2),))


def test_rejects_an_empty_diagram():
    with pytest.raises(DimensionMismatch, match="at least one vertex"):
        StationaryDiagram(())


def test_rejects_negative_entries():
    with pytest.raises(ValueError):
        StationaryDiagram(((1, -1), (0, 1)))


def test_rejects_duplicate_or_blank_labels():
    with pytest.raises(ValueError):
        StationaryDiagram(((1,),), labels=("",))
    # labels the order section could not read back
    for labels in (("a:", "b"), ("#a", "b"), ("x", "order:")):
        with pytest.raises(ValueError):
            StationaryDiagram(((1, 0), (0, 1)), labels=labels)
    with pytest.raises(ValueError):
        StationaryDiagram(((1, 0), (0, 1)), labels=("a", "a"))
    with pytest.raises(DimensionMismatch):
        StationaryDiagram(((1, 0), (0, 1)), labels=("a",))


def test_effective_labels_default_to_one_based_numbers(b1):
    assert b1.effective_labels == ("1", "2")
    named = StationaryDiagram(b1.incidence, labels=("u", "v"))
    assert named.effective_labels == ("u", "v")
    assert named.vertex_named("v") == 1
    with pytest.raises(KeyError):
        named.vertex_named("w")


def test_validate_flags_empty_rows_and_columns():
    no_in = validate(StationaryDiagram(((0, 0), (1, 1))))
    assert ("no-incoming", 0) in {(diag.kind, diag.vertex) for diag in no_in}
    no_out = validate(StationaryDiagram(((0, 1), (0, 1))))
    assert ("no-outgoing", 0) in {(diag.kind, diag.vertex) for diag in no_out}
    assert not validate(StationaryDiagram(((1, 1), (1, 1))))


def test_heights_start_at_one_everywhere(b2):
    assert heights(b2, 1) == (1, 1, 1)


def test_heights_follow_incidence_recursion(wm_a):
    # closed form for this diagram: (2**n, 3**(n+1) - 2**(n+1))
    for n in range(1, 9):
        assert heights(wm_a.base, n + 1) == (2 ** n, 3 ** (n + 1) - 2 ** (n + 1))


def test_heights_reject_level_zero(b1):
    with pytest.raises(ValueError):
        heights(b1, 0)


def test_telescope_squares_incidence(b1):
    assert telescope(b1, 2).incidence == ((4, 0), (4, 4))
    assert telescope(b1, 1).incidence == b1.incidence
    with pytest.raises(ValueError):
        telescope(b1, 0)


def test_telescope_cap_counts_edges_per_level_before_forming_the_power():
    assert telescope(StationaryDiagram(((1000,),)), 2).incidence == ((10 ** 6,),)
    for d, k in ((StationaryDiagram(((1001,),)), 2), (StationaryDiagram(((2,),)), 10 ** 9),
                 (StationaryDiagram(((0,),)), 10 ** 6 + 1)):
        with pytest.raises(CapExceeded, match=f"telescoping by {k} is above the cap"):
            telescope(d, k)
    # the automatic powers read patterns or class structure, not F**q
    big = StationaryDiagram(((0, 10 ** 7), (10 ** 7, 0)))
    assert positivity_power(big) == 2
    with pytest.raises(CapExceeded):
        telescope_to_primitive(big)


def test_path_word_shape_checks():
    with pytest.raises(ValueError):
        PathWord(())
    with pytest.raises(DimensionMismatch):
        PathWord((0, 1), ())
    p = PathWord((0, 1, 1), (0, 2))
    assert p.level == 3
    assert p.terminal == 1
    assert p.prefix(2) == PathWord((0, 1), (0,))


def test_path_edges_include_implicit_root_edge():
    p = PathWord((1, 0), (3,))
    assert p.edges == ((1, None, 1, 0), (2, 1, 0, 3))


def test_check_path_accepts_real_paths_only(b1):
    check_path(b1, PathWord((0, 1), (0,)))
    with pytest.raises(ValueError):
        check_path(b1, PathWord((0, 1), (1,)))  # bundle 1->2 has one edge
    with pytest.raises(ValueError):
        check_path(b1, PathWord((1, 0), (0,)))  # no edge from 2 up to 1
    with pytest.raises(DimensionMismatch):
        check_path(b1, PathWord((0, 5), (0,)))


def test_enumerate_paths_counts_match_heights(b2):
    for v in range(3):
        for n in range(1, 5):
            paths = enumerate_paths(b2, v, n)
            assert len(paths) == heights(b2, n)[v]
            assert len(set(paths)) == len(paths)
            for p in paths:
                assert p.terminal == v and p.level == n
                check_path(b2, p)


def test_enumerate_paths_orders_sources_before_bundle_indices(b1):
    paths = enumerate_paths(b1, 1, 2)
    assert [(p.vertices, p.indices) for p in paths] == [
        ((0, 1), (0,)),
        ((1, 1), (0,)),
        ((1, 1), (1,)),
    ]


def _recursive_paths(d, target, lvl):
    """The paths to target at level lvl as a recursion over the levels
    builds them: the reference order of enumerate_paths."""
    if lvl == 1:
        return [PathWord((target,))]
    out = []
    for w in range(d.n_vertices):
        bundle = d.incidence[target][w]
        if bundle == 0:
            continue
        for p in _recursive_paths(d, w, lvl - 1):
            for j in range(bundle):
                out.append(PathWord(p.vertices + (target,), p.indices + (j,)))
    return out


def test_enumerate_paths_keeps_the_recursive_order():
    # zero rows and columns included, so some sequences end short of level 1
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 4)
        d = StationaryDiagram(tuple(tuple(rng.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(n))
                                    for _ in range(n)))
        v, lvl = rng.randrange(n), rng.randint(1, 6)
        want = _recursive_paths(d, v, lvl)
        assert enumerate_paths(d, v, lvl) == want
        assert list(vertex_sequences(d, v, lvl)) == list(dict.fromkeys(p.vertices for p in want))


def test_enumerate_paths_refuses_past_cap(b1, monkeypatch):
    # the count is read from the heights, so the refusal builds no path
    monkeypatch.setattr(diagram, "PATH_CAP", 1000)
    with pytest.raises(CapExceeded) as exc:
        enumerate_paths(b1, 1, 30)
    assert (exc.value.required, exc.value.cap) == (heights(b1, 30)[1], 1000)
    assert len(enumerate_paths(b1, 1, 6)) == heights(b1, 6)[1] <= 1000


@st.composite
def small_diagrams(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        min_size=n, max_size=n))
    # keep every vertex alive in both directions
    for i in range(n):
        if sum(rows[i]) == 0:
            rows[i][draw(st.integers(0, n - 1))] = 1
        if sum(r[i] for r in rows) == 0:
            rows[draw(st.integers(0, n - 1))][i] = 1
    return StationaryDiagram(tuple(tuple(r) for r in rows))


@settings(max_examples=50, deadline=None)
@given(small_diagrams(), st.integers(1, 3), st.integers(1, 3))
def test_telescoped_heights_sample_the_original_tower(d, k, m):
    assert heights(telescope(d, k), m) == heights(d, (m - 1) * k + 1)


@settings(max_examples=50, deadline=None)
@given(small_diagrams(), st.integers(1, 4))
def test_heights_satisfy_matrix_recursion(d, n):
    nxt = heights(d, n + 1)
    cur = heights(d, n)
    assert nxt == tuple(sum(row[w] * cur[w] for w in range(d.n_vertices))
                        for row in d.incidence)
