"""Successor dynamics, diamonds, return-time sequences, eigenvalue tests."""

import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli import (
    CapExceeded,
    Diamond,
    EndpointMismatch,
    Leg,
    NotAperiodicError,
    NonmixingReport,
    NotDistinguishedError,
    OrderedDiagram,
    PathWord,
    PrimitivityError,
    StationaryDiagram,
    candidate_count,
    candidate_thetas,
    decompose,
    distinguished_classes,
    distinguished_eigenvector,
    default_window,
    eigenvalue_check,
    eigenvalue_search,
    enumerate_diamonds,
    heights,
    is_decisive,
    is_maximal,
    make_diamond,
    max_path,
    min_path,
    nonmixing_witness,
    p_sequence,
    p_value,
    path_rank,
    positivity_power,
    q_steps,
    rational_eigenvalue_sufficient,
    recurrence_coefficients,
    successor,
    telescope,
    telescope_ordered,
)
from bratteli import linalg
from bratteli.diagram import height_table
from bratteli.vershik import (WINDOW_CAP, _class_window, _p_tables, _spanning_diamonds, _step,
                              _window_gcds)

from conftest import (aperiodic_corpus, block_chain, dense_ordered, random_diagram, random_order,
                      random_path, seeded_orders, successor_by_rebuild, tower_by_successor,
                      window_gcds_by_middles)

ORDERED_FIXTURES = ("two_odometer", "b1_ordered", "wm_a", "eig_chain", "wm_b")


def _fixtures_and_seeded_orders(request):
    return [request.getfixturevalue(name) for name in ORDERED_FIXTURES] + seeded_orders()


def _lists(p):
    return list(p.vertices), list(p.indices)


class TestOrderedDiagram:
    def test_order_words_must_match_bundles(self, b1):
        with pytest.raises(ValueError):
            OrderedDiagram(b1, ((0,), (0, 1, 1)))  # vertex 0 has two edges
        with pytest.raises(ValueError):
            OrderedDiagram(b1, ((0, 0), (0, 1)))  # vertex 1 needs two 1-edges
        with pytest.raises(ValueError):
            OrderedDiagram(b1, ((0, 5), (0, 1, 1)))
        with pytest.raises(ValueError, match="need one order word per vertex"):
            OrderedDiagram(b1, ((0,),))

    def test_rank_tables_round_trip(self, b1_ordered):
        od = b1_ordered
        assert od.edge_at(1, 0) == (0, 0)
        assert od.edge_at(1, 2) == (1, 1)
        assert od.bundle_rank(1, 1, 1) == 2
        for v in range(od.n_vertices):
            for pos in range(len(od.order[v])):
                s, m = od.edge_at(v, pos)
                assert od.bundle_rank(v, s, m) == pos


class TestSuccessor:
    def test_extreme_paths(self, two_odometer):
        assert min_path(two_odometer, 0, 3) == PathWord((0, 0, 0), (0, 0))
        assert max_path(two_odometer, 0, 3) == PathWord((0, 0, 0), (1, 1))
        assert is_maximal(two_odometer, max_path(two_odometer, 0, 3))
        assert not is_maximal(two_odometer, min_path(two_odometer, 0, 3))

    def test_odometer_counts_in_binary(self, two_odometer):
        p = min_path(two_odometer, 0, 3)
        seen = [p.indices]
        while (p := successor(two_odometer, p)) is not None:
            seen.append(p.indices)
        # least significant digit at the bottom level
        assert seen == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_walk_visits_each_path_once_in_rank_order(self, b1_ordered):
        p = min_path(b1_ordered, 1, 3)
        rank = 0
        while p is not None:
            assert path_rank(b1_ordered, p) == rank
            rank += 1
            p = successor(b1_ordered, p)
        assert rank == heights(b1_ordered.base, 3)[1]

    def test_q_steps_is_a_signed_rank_difference(self, two_odometer):
        lo = min_path(two_odometer, 0, 4)
        hi = max_path(two_odometer, 0, 4)
        assert q_steps(two_odometer, lo, hi) == 7
        assert q_steps(two_odometer, hi, lo) == -7

    def test_q_steps_requires_shared_endpoint(self, b1_ordered):
        with pytest.raises(EndpointMismatch):
            q_steps(b1_ordered, PathWord((0,)), PathWord((1,)))
        with pytest.raises(EndpointMismatch):
            q_steps(b1_ordered, PathWord((0,)), PathWord((0, 0), (0,)))


class TestStep:
    """``_step`` against ``tower_by_successor``, the walk that rebuilds a
    path per step, on every (vertex, level <= 7) tower of the ordered
    fixtures and of 200 seeded random orders."""

    def test_walks_every_tower_like_the_reference(self, request):
        """Path by path up to 2,000 paths.  Up to 10^4 paths, the largest
        tower verify walks, by count and last path, which for the reference
        are the height and the maximal path.  Above that, one step from
        each of 20 random paths and from the same paths with their lowest
        k edges made bundle-maximal, for every k."""
        rng = random.Random(8)
        kinds = [0, 0, 0]
        for od in _fixtures_and_seeded_orders(request):
            h = height_table(od.base, 7)
            for n in range(1, 8):
                for v in range(od.n_vertices):
                    vertices, mults = _lists(min_path(od, v, n))
                    if h[n][v] <= 2000:
                        kinds[0] += 1
                        for p in tower_by_successor(od, v, n):
                            assert (vertices, mults) == _lists(p)
                            moved = _step(od, vertices, mults)
                        assert not moved
                    elif h[n][v] <= 10 ** 4:
                        kinds[1] += 1
                        count = 1
                        while _step(od, vertices, mults):
                            count += 1
                        assert count == h[n][v]
                        assert (vertices, mults) == _lists(max_path(od, v, n))
                    else:
                        kinds[2] += 1
                        for _ in range(20):
                            p = random_path(rng, od, v, n)
                            for k in range(n):
                                top = max_path(od, p.vertices[k], k + 1)
                                q = PathWord(top.vertices + p.vertices[k + 1:],
                                             top.indices + p.indices[k:])
                                nxt = successor_by_rebuild(od, q)
                                vertices, mults = _lists(q)
                                assert _step(od, vertices, mults) == (nxt is not None)
                                assert (vertices, mults) == _lists(nxt or q)
                                assert successor(od, q) == nxt
        assert min(kinds) > 0

    def test_stops_at_the_maximal_path_untouched(self, request):
        for od in _fixtures_and_seeded_orders(request):
            for n in range(1, 8):
                for v in range(od.n_vertices):
                    top = max_path(od, v, n)
                    vertices, mults = _lists(top)
                    assert not _step(od, vertices, mults)
                    assert (vertices, mults) == _lists(top)
                    assert successor(od, top) is None


class TestDiamonds:
    def test_leg_and_diamond_validation(self):
        with pytest.raises(ValueError):
            Leg((0,), ())
        with pytest.raises(ValueError):
            Diamond(Leg((0, 0), (0,)), Leg((0, 0, 0), (0, 0)))
        with pytest.raises(ValueError):
            Diamond(Leg((0, 0), (0,)), Leg((0, 1), (0,)))
        with pytest.raises(ValueError):
            Diamond(Leg((0, 0), (0,)), Leg((0, 0), (0,)))

    def test_make_diamond_canonicalizes_leg_order(self, two_odometer):
        a, b = Leg((0, 0), (0,)), Leg((0, 0), (1,))
        assert make_diamond(two_odometer, a, b) == make_diamond(two_odometer, b, a)

    def test_odometer_has_one_diamond(self, two_odometer):
        (dm,) = enumerate_diamonds(two_odometer)
        assert dm.length == 1
        assert dm.vertices_visited == frozenset({0})

    def test_class_restriction(self, wm_a):
        inside = enumerate_diamonds(wm_a, 1)
        assert len(inside) == 3  # three unordered pairs of the 3-bundle
        assert all(dm.vertices_visited == frozenset({1}) for dm in inside)
        everything = enumerate_diamonds(wm_a)
        assert len(everything) == 29
        assert len(set(everything)) == 29

    def test_length_cap(self, wm_a):
        # no length knob: the length-1 diamonds are a filter on the listing
        short = [dm for dm in enumerate_diamonds(wm_a) if dm.length == 1]
        assert len(short) == 5
        assert all(dm.leg_a.vertices == dm.leg_b.vertices for dm in short)
        assert max(dm.length for dm in enumerate_diamonds(wm_a)) == 2

    @pytest.mark.parametrize("length", (0, -1))
    def test_lengths_below_one_are_refused(self, b1_ordered, length):
        # no listed diamond is that short, and no leg of that length is built
        assert not [dm for dm in enumerate_diamonds(b1_ordered) if dm.length <= length]
        with pytest.raises(ValueError):
            Leg((0,) * (length + 1), (0,) * length)

    def test_lengths_are_one_and_two(self, wm_a):
        # the length-1 pairs of each bundle come first: 1 + 1 + 3 on wm_a
        lengths = [dm.length for dm in enumerate_diamonds(wm_a)]
        assert lengths == [1] * 5 + [2] * 24

    def test_count_cap_is_exact_and_checked_first(self, wm_a):
        assert len(enumerate_diamonds(wm_a, cap=29)) == 29
        with pytest.raises(CapExceeded) as exc:
            enumerate_diamonds(wm_a, cap=28)
        assert (exc.value.required, exc.value.cap) == (29, 28)
        assert sum(dm.length == 1 for dm in enumerate_diamonds(wm_a, cap=29)) == 5


class TestReturnTimes:
    def test_adjacent_pair_return_times(self, wm_a):
        dm = make_diamond(wm_a, Leg((1, 1), (0,)), Leg((1, 1), (1,)))
        assert [p_value(wm_a, dm, n) for n in range(1, 5)] == [1, 5, 19, 65]
        assert all(p_value(wm_a, dm, n) == 3 ** n - 2 ** n for n in range(1, 9))

    def test_recurrence_coefficients_negate_the_char_poly(self, wm_a):
        assert recurrence_coefficients(wm_a.base) == (5, -6)

    def test_p_sequence_obeys_its_recurrence(self, wm_a):
        dm = make_diamond(wm_a, Leg((1, 1), (0,)), Leg((1, 1), (2,)))
        seq = p_sequence(wm_a, dm, 6)
        assert seq.coefficients == (5, -6)
        for n in range(3, 7):
            assert seq.value(n) == 5 * seq.value(n - 1) - 6 * seq.value(n - 2)
        assert seq.extended(3).values[:6] == seq.values
        assert seq.extended(3).values[6] == 5 * seq.values[5] - 6 * seq.values[4]

    def test_levels_are_1_based(self, b1_ordered):
        dm = enumerate_diamonds(b1_ordered)[0]
        seq = p_sequence(b1_ordered, dm, 4)
        assert seq.values == (1, 2, 4, 8)
        assert seq.value(1) == 1
        for n in (0, -1):
            # not read from the end of the values
            with pytest.raises(ValueError, match="1-based"):
                seq.value(n)
            with pytest.raises(ValueError, match="1-based"):
                p_value(b1_ordered, dm, n)
        for n_max in (0, -1, -2):
            with pytest.raises(ValueError, match="1-based"):
                p_sequence(b1_ordered, dm, n_max)

    def test_value_beyond_the_computed_levels_points_to_extended(self, b1_ordered):
        dm = enumerate_diamonds(b1_ordered)[0]
        seq = p_sequence(b1_ordered, dm, 4)
        with pytest.raises(IndexError, match=r"P_5 is beyond the 4 computed levels; extended\(1\)"):
            seq.value(5)
        assert seq.extended(1).value(5) == 16

    def test_odometer_return_times_are_dyadic(self, two_odometer):
        (dm,) = enumerate_diamonds(two_odometer)
        assert [p_value(two_odometer, dm, n) for n in range(1, 6)] == [1, 2, 4, 8, 16]


class TestEigenvalues:
    def test_integers_always_pass(self, wm_a):
        assert eigenvalue_check(wm_a, 1, 0).passed
        assert eigenvalue_check(wm_a, 1, 2).passed

    def test_failures_carry_a_witness(self, wm_a):
        adjacent = make_diamond(wm_a, Leg((1, 1), (0,)), Leg((1, 1), (1,)), 1)
        verdict = eigenvalue_check(wm_a, 1, Fraction(1, 5), window=(2, 6))
        assert not verdict
        assert verdict.fail_n == 3  # P_3 = 19 breaks divisibility by 5
        assert verdict.fail_diamond == adjacent
        verdict = eigenvalue_check(wm_a, 1, Fraction(1, 3))
        assert (verdict.fail_n, verdict.fail_diamond) == (2, adjacent)

    def test_window_shifts_expose_dyadic_eigenvalues(self, two_odometer):
        assert eigenvalue_search(two_odometer, 0, 8, window=(2, 4)) == [0, Fraction(1, 2)]
        assert eigenvalue_search(two_odometer, 0, 8, window=(3, 5)) == [
            0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]

    def test_search_matches_check(self, wm_a):
        found = eigenvalue_search(wm_a, 1, 12)
        assert found == [0]
        for theta in candidate_thetas(6):
            assert eigenvalue_check(wm_a, 1, theta).passed == (theta in found)

    def test_five_adic_tower_passes_exactly_the_five_powers(self, eig_chain):
        found = eigenvalue_search(eig_chain, 2, 25, window=(6, 12))
        assert len(found) == 25
        assert {t.denominator for t in found} == {1, 5, 25}

    def test_requires_positive_blocks(self):
        # the second is checked before F**2 = I is found not aperiodic
        for f, order in ((((1, 1), (1, 0)), ((0, 1), (0,))), (((0, 1), (1, 0)), ((1,), (0,)))):
            od = OrderedDiagram(StationaryDiagram(f), order)
            with pytest.raises(PrimitivityError, match="telescope by 2 first") as exc:
                eigenvalue_check(od, 0, Fraction(1, 2))
            assert exc.value.power == 2

    def test_every_vershik_entry_point_requires_an_aperiodic_diagram(self):
        # one path, no diamond: without the gate G = 0 and every theta passes
        od = OrderedDiagram(StationaryDiagram(((1,),)), ((0,),))
        dm = Diamond(Leg((0, 0), (0,)), Leg((0, 0), (1,)))
        for call in (lambda: eigenvalue_search(od, 0, 12),
                     lambda: eigenvalue_check(od, 0, Fraction(1, 2)),
                     lambda: rational_eigenvalue_sufficient(od, 0, Fraction(1, 2)),
                     lambda: nonmixing_witness(od, 0, dm)):
            with pytest.raises(NotAperiodicError,
                               match="^not aperiodic: initial class 0 has Perron value 1$"):
                call()

    def test_requires_a_distinguished_class(self, b1_ordered):
        with pytest.raises(NotDistinguishedError):
            eigenvalue_search(b1_ordered, 1, 4)
        with pytest.raises(NotDistinguishedError, match="class 1 is not distinguished"):
            rational_eigenvalue_sufficient(b1_ordered, 1, Fraction(1, 2))

    def test_height_divisibility_is_the_orderless_sufficient_check(self, eig_chain):
        assert rational_eigenvalue_sufficient(eig_chain, 2, Fraction(1, 5),
                                              window=(6, 12)).passed
        verdict = rational_eigenvalue_sufficient(eig_chain, 2, Fraction(1, 2),
                                                 window=(6, 12))
        assert not verdict and verdict.fail_vertex == 2

    def test_candidate_thetas(self):
        assert candidate_thetas(3) == [0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
        cs = candidate_thetas(12)
        assert cs == sorted(set(cs))
        assert all(0 <= c < 1 for c in cs)

    def test_candidate_count_is_the_totient_sum(self):
        widest = candidate_thetas(200)
        for q in range(1, 201):
            assert candidate_count(q) == sum(t.denominator <= q for t in widest)
        for q in [*range(40), 97, 128, 200]:
            assert candidate_count(q) == len(candidate_thetas(q))

    def test_failure_is_named_without_listing_diamonds(self, two_odometer, monkeypatch):
        import bratteli.vershik as vershik

        def refuse(*args, **kwargs):
            raise AssertionError("eigenvalue_check listed the diamonds")

        monkeypatch.setattr(vershik, "enumerate_diamonds", refuse)
        monkeypatch.setattr(vershik, "_p_tables", refuse)
        od = dense_ordered(16)      # class 0 lists 16,085,471 diamonds
        verdict = eigenvalue_check(od, 0, Fraction(1, 2))
        assert not verdict and verdict.fail_n == 16
        assert p_value(od, verdict.fail_diamond, 16) % 2 == 1
        assert eigenvalue_check(two_odometer, 0, Fraction(1, 2), (2, 4)).passed

    def test_window_policy(self, b1):
        assert default_window(b1) == (2, 6)
        assert is_decisive(b1, (2, 6))
        assert is_decisive(b1, (3, 6))
        assert not is_decisive(b1, (1, 6))
        assert not is_decisive(b1, (2, 4))


# classes listing more diamonds than this are left out of the oracle
# comparison: the listing is the slow path the window gcd replaces, and
# the next class up (21681 diamonds) takes about 3 s per order
ORACLE_DIAMONDS = 5_000


def _oracle_windows(n):
    return (n, 3 * n), (1, 2), (2, 5)


# Beside the corpus: wm_a and eig_chain, whose singleton classes sit
# between other sources (a single middle adds no level-(n+1) spread), a
# positive 2x2 block whose level-(n+1) spreads no other term implies, and
# one without parallel edges, where only the cross-middle terms count;
# then the only two of 763 classes (600 telescoped random_order draws from
# random.Random(7)) whose G_n the spanning diamonds miss without, in turn,
# kind (iii) at i = i0 and the second leg pair of kind (ii).
EXTRA_ORACLE = (
    (((2, 0), (2, 3)), ((0, 0), (0, 1, 1, 1, 0))),
    (((5, 0, 0), (2, 3, 0), (0, 2, 25)), ((0,) * 5, (0, 0, 1, 1, 1), (1, 1) + (2,) * 25)),
    (((1, 2), (2, 2)), ((1, 0, 1), (1, 0, 1, 0))),
    (((1, 1), (1, 1)), ((1, 0), (0, 1))),
    (((1, 1), (2, 1)), ((0, 1), (0, 1, 0))),
    (((1, 1), (2, 1)), ((1, 0), (0, 1, 0))),
)


@pytest.fixture(scope="module")
def oracle_cases():
    """Every aperiodic_corpus() diagram telescoped to positive blocks, with
    orders drawn from random.Random(0..5), then EXTRA_ORACLE; one case per
    (ordered diagram, class): (ordered diagram, class, P table rows over
    levels 1..top).  Also the number of pairs skipped for
    listing more than ORACLE_DIAMONDS diamonds."""
    ordered = []
    for d in aperiodic_corpus():
        t = telescope(d, positivity_power(d))
        ordered.extend(random_order(random.Random(seed), t) for seed in range(6))
    ordered.extend(OrderedDiagram(StationaryDiagram(f), order) for f, order in EXTRA_ORACLE)
    cases, skipped = [], 0
    for od in ordered:
        top = max(w[1] for w in _oracle_windows(od.n_vertices))
        for cls in od._decomposition.classes:
            try:
                enumerate_diamonds(od, cls.index, cap=ORACLE_DIAMONDS)
            except CapExceeded:
                skipped += 1
                continue
            # P_n of a diamond does not depend on the window it is read in
            cases.append((od, cls, _p_tables(od, cls.index, (1, top))))
    return cases, skipped


class TestWindowGcd:
    """The per-level gcds equal those of the listed diamonds' P values."""

    def test_matches_the_p_tables_on_the_corpus(self, oracle_cases):
        cases, skipped = oracle_cases
        assert (len(cases), skipped) == (87, 72)
        nonzero = 0
        for od, cls, rows in cases:
            # one row per listed diamond, in listing order: no dedupe
            listed = enumerate_diamonds(od, cls.index, cap=ORACLE_DIAMONDS)
            assert len(rows) == len(listed)
            assert [dm for dm, _ in rows] == listed
            table = dict(rows)
            spanning = list(_spanning_diamonds(od, cls.index))
            assert all(dm in table for dm in spanning)
            for n1, n2 in _oracle_windows(od.n_vertices):
                want = [math.gcd(*(values[n - 1] for _, values in rows))
                        for n in range(n1, n2 + 1)]
                assert _window_gcds(od, cls.index, (n1, n2)) == want
                assert [math.gcd(*(table[dm][n - 1] for dm in spanning))
                        for n in range(n1, n2 + 1)] == want
                nonzero += any(want)
        assert nonzero >= 150

    def test_search_matches_a_brute_theta_sweep(self, oracle_cases):
        thetas = [Fraction(p, q) for q in range(1, 31) for p in range(q)
                  if math.gcd(p, q) == 1]
        for od, cls, rows in oracle_cases[0]:
            if not cls.distinguished:
                continue
            for n1, n2 in _oracle_windows(od.n_vertices):
                brute = sorted(t for t in thetas
                               if all(t.numerator * pn % t.denominator == 0
                                      for _, values in rows for pn in values[n1 - 1:n2]))
                assert eigenvalue_search(od, cls.index, 30, (n1, n2)) == brute

    def test_matches_the_middles_reference_on_random_orders(self):
        # every class with a positive block of 600 random orders, telescoped:
        # 318 of the 747 classes have one vertex
        rng = random.Random(7)
        windows = 0
        for _ in range(600):
            od = random_order(rng, random_diagram(rng, n_max=5, entry_max=3))
            od = telescope_ordered(od, positivity_power(od.base))
            n = od.n_vertices
            for cls in od._decomposition.classes:
                if cls.is_zero:
                    continue
                for window in ((n, 3 * n), (1, 2), (5, 9)):
                    assert (_window_gcds(od, cls.index, window)
                            == window_gcds_by_middles(od, cls.index, window))
                    windows += 1
        assert windows == 2241

    @pytest.mark.parametrize("n", (8, 12, 16))
    def test_matches_the_middles_reference_on_dense_classes(self, n):
        od = dense_ordered(n)
        for window in ((n, 3 * n), (1, 2)):
            assert _window_gcds(od, 0, window) == window_gcds_by_middles(od, 0, window)


class TestClassWindow:
    """The one preamble of the eigenvalue tests checks the window as the
    command line does, and refuses blocks that are not positive."""

    WINDOW_ENTRY_POINTS = {
        "eigenvalue_search": lambda od, w: eigenvalue_search(od, 0, 8, w),
        "eigenvalue_check": lambda od, w: eigenvalue_check(od, 0, Fraction(1, 2), w),
        "rational_eigenvalue_sufficient":
            lambda od, w: rational_eigenvalue_sufficient(od, 0, Fraction(1, 2), w),
    }

    @pytest.mark.parametrize("window", [(3, 1), (0, 3), (-2, 3)])
    @pytest.mark.parametrize("entry", WINDOW_ENTRY_POINTS)
    def test_windows_outside_one_to_b_are_refused(self, b1_ordered, entry, window):
        # (3, 1) once passed every candidate: the gcd of no levels is 0
        with pytest.raises(ValueError, match=r"1 <= a <= b"):
            self.WINDOW_ENTRY_POINTS[entry](b1_ordered, window)

    @pytest.mark.parametrize("entry", WINDOW_ENTRY_POINTS)
    def test_windows_above_the_cap_are_refused(self, b1_ordered, entry):
        with pytest.raises(CapExceeded) as exc:
            self.WINDOW_ENTRY_POINTS[entry](b1_ordered, (1, WINDOW_CAP + 1))
        assert (exc.value.required, exc.value.cap) == (WINDOW_CAP + 1, WINDOW_CAP)
        self.WINDOW_ENTRY_POINTS[entry](b1_ordered, (1, 1))

    def test_positivity_refusal_matches_the_block_scan(self):
        """positivity_power(d) > 1 exactly when some non-zero class block
        has a zero entry, and the refusal names that power."""

        def outcome(call):
            try:
                return call()
            except PrimitivityError as e:
                return str(e), e.power

        def block_scan(decomp):
            for cls in decomp.classes:
                if not cls.is_zero and any(x == 0 for row in cls.block for x in row):
                    q = positivity_power(decomp.diagram)
                    raise PrimitivityError(
                        f"some diagonal block has zero entries; telescope by {q} first",
                        power=q)

        def preamble(decomp):
            f = decomp.diagram.incidence
            od = OrderedDiagram(decomp.diagram, [[s for s in range(len(f)) for _ in range(f[v][s])]
                                                 for v in range(len(f))])
            try:
                _class_window(od, 0, (1, 1))
            except (NotAperiodicError, NotDistinguishedError):
                pass

        rng = random.Random(34)
        refused = 0
        for _ in range(4000):
            decomp = decompose(random_diagram(rng, n_max=6))
            want = outcome(lambda: block_scan(decomp))
            assert outcome(lambda: preamble(decomp)) == want
            refused += want is not None
        assert refused == 2760


class TestOneDecomposition:
    """An ordered diagram carries its class data: every Vershik entry point
    reads the one decomposition of its base."""

    @pytest.fixture
    def decompositions(self, monkeypatch):
        import bratteli.vershik as vershik

        seen = []
        monkeypatch.setattr(vershik, "decompose", lambda d: seen.append(d) or decompose(d))
        return seen

    def test_one_decomposition_across_the_entry_points(self, decompositions):
        od = OrderedDiagram(StationaryDiagram(((2, 0), (2, 3))), ((0, 0), (0, 1, 1, 1, 0)))
        dm = enumerate_diamonds(od, 1)[0]
        eigenvalue_check(od, 1, Fraction(1, 3))
        assert eigenvalue_search(od, 1, 12) == [0]
        rational_eigenvalue_sufficient(od, 1, Fraction(1, 3))
        nonmixing_witness(od, 1, dm)
        assert decompositions == [od.base]
        assert od._decomposition.diagram is od.base

    def test_a_telescoped_order_decomposes_its_own_base(self, decompositions, wm_a):
        eigenvalue_search(wm_a, 1, 12)
        t = telescope_ordered(wm_a, 2)
        eigenvalue_search(t, 1, 12)
        assert decompositions == [wm_a.base, t.base]

    def test_the_decomposition_is_outside_eq_hash_and_repr(self, wm_a):
        other = OrderedDiagram(wm_a.base, wm_a.order)
        wm_a._decomposition
        assert "_decomposition" in vars(wm_a) and "_decomposition" not in vars(other)
        assert wm_a == other and hash(wm_a) == hash(other) and repr(wm_a) == repr(other)

    @pytest.mark.parametrize("entry", [enumerate_diamonds, eigenvalue_check, eigenvalue_search,
                                       rational_eigenvalue_sufficient, nonmixing_witness])
    def test_a_plain_diagram_is_refused_by_type(self, entry, wm_a):
        # a diagram has no order: a TypeError naming the ordered diagram, not
        # a bare AttributeError from reading an attribute it lacks
        args = {enumerate_diamonds: (1,), eigenvalue_check: (1, Fraction(1, 3)),
                eigenvalue_search: (1, 12), rational_eigenvalue_sufficient: (1, Fraction(1, 3)),
                nonmixing_witness: (1, enumerate_diamonds(wm_a, 1)[0])}[entry]
        entry(wm_a, *args)
        for plain in (wm_a.base, decompose(wm_a.base)):
            with pytest.raises(TypeError, match="^takes an OrderedDiagram, not a "):
                entry(plain, *args)

    @pytest.mark.parametrize("entry", [enumerate_diamonds, eigenvalue_check, eigenvalue_search,
                                       rational_eigenvalue_sufficient, nonmixing_witness])
    def test_no_entry_point_takes_a_decomposition(self, entry):
        # a decomposition of another diagram once gave wrong answers
        assert "decomp" not in inspect.signature(entry).parameters


class TestNonmixing:
    """The exact limit r_inf of the overlap ratios along a diamond, and the
    first cylinder whose mass is below it."""

    def test_the_limit_on_a_two_vertex_class(self):
        # the overlap ratios of [0] and of [1] at n = 10, 20, 40 tend to 1/6
        od = OrderedDiagram(StationaryDiagram(((2, 1), (1, 2))), ((0, 0, 1), (0, 1, 1)))
        dm = make_diamond(od, Leg((0, 0), (0,)), Leg((0, 0), (1,)))
        report = nonmixing_witness(od, 0, dm)
        assert (report.limit, report.path, report.mass) == (
            Fraction(1, 6), min_path(od, 0, 3), Fraction(1, 18))

    def test_a_mass_equal_to_the_limit_certifies_nothing(self, wm_a):
        # level 1 has mass 1/3 = r_inf, so the witness is on level 2
        dm = make_diamond(wm_a, Leg((1, 1), (0,)), Leg((1, 1), (1,)))
        report = nonmixing_witness(wm_a, 1, dm)
        assert report == NonmixingReport(1, dm, Fraction(1, 3), min_path(wm_a, 1, 2),
                                         Fraction(1, 9))
        assert all(type(x) is Fraction for x in (report.limit, report.mass))

    @staticmethod
    def _overlap_errors(od, alpha, report, n):
        """|r / r_inf - 1| for r = xi_j' A^N[i][j] / (lam^(N+k) xi_i), A^N in
        integers, at each i with xi_i > 0: (error, i in alpha) pairs."""
        decomp = decompose(od.base)
        xi = distinguished_eigenvector(decomp, alpha).xi
        lam = decomp.classes[alpha].rho.value
        leg = report.diamond.leg_a
        power = linalg.mat_pow([list(row) for row in decomp.a_matrix], n)
        return [(abs(xi[leg.range] * power[i][leg.source] / (lam ** (n + leg.length) * x)
                     / report.limit - 1), decomp.class_of[i] == alpha)
                for i, x in enumerate(xi) if x]

    def test_the_limit_holds_inside_and_outside_the_class(self):
        """Seeded block chains, every distinguished class with a diamond:
        at N = 240 the overlap ratio is within 1e-12 of r_inf from every
        vertex with access to the class, 181 of 698 of them outside it."""
        rng = random.Random(6)
        reports, errors = 0, []
        for _ in range(100):
            od = random_order(rng, block_chain(rng, exact=True))
            for alpha in distinguished_classes(od._decomposition):
                diamonds = enumerate_diamonds(od, alpha)
                if not diamonds:
                    continue
                report = nonmixing_witness(od, alpha, diamonds[0])
                errors += self._overlap_errors(od, alpha, report, 240)
                reports += 1
                xi = distinguished_eigenvector(od._decomposition, alpha).xi
                i, m = report.path.terminal, report.path.level
                lam = od._decomposition.classes[alpha].rho.value
                assert xi[i] == min(x for x in xi if x) and report.path == min_path(od, i, m)
                assert report.mass == xi[i] / lam ** (m - 1) < report.limit
                assert m == 1 or report.limit <= lam * report.mass
        assert (reports, len(errors), sum(not inside for _, inside in errors)) == (259, 698, 181)
        assert max(e for e, _ in errors) < Fraction(1, 10 ** 12)

    def test_the_limit_on_one_class_diagrams(self):
        """200 seeded one-class diagrams, 2 to 4 vertices, equal column sums
        3..7 of F (so lam is an integer): on the 134 with a double self-loop,
        its diamond's r_inf is the overlap ratio at N = 200 within 1e-30."""
        rng = random.Random(5)
        errors = []
        for _ in range(200):
            n = rng.randint(2, 4)
            total = rng.randint(max(3, n), 7)
            cols = [[hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
                    for cuts in (sorted(rng.sample(range(1, total), n - 1)) for _ in range(n))]
            od = random_order(rng, StationaryDiagram(tuple(zip(*cols))))
            loops = [v for v in range(n) if od.base.incidence[v][v] >= 2]
            if loops:
                v = loops[0]
                dm = make_diamond(od, Leg((v, v), (0,)), Leg((v, v), (1,)))
                errors.append(self._overlap_errors(od, 0, nonmixing_witness(od, 0, dm), 200))
        assert len(errors) == 134
        assert max(e for case in errors for e, _ in case) < Fraction(1, 10 ** 30)

    def test_a_class_below_a_class_of_perron_value_1_is_refused(self):
        # class 1 (lam 3) is distinguished and has a certificate; the gate
        # refuses the diagram for its initial class 0, whose block is (1)
        od = OrderedDiagram(StationaryDiagram(((1, 0), (1, 3))), ((0,), (0, 1, 1, 1)))
        dm = make_diamond(od, Leg((1, 1), (0,)), Leg((1, 1), (1,)))
        with pytest.raises(NotAperiodicError, match="initial class 0 has Perron value 1$"):
            nonmixing_witness(od, 1, dm)

    def test_diamond_must_live_in_the_class(self, wm_a):
        dm = make_diamond(wm_a, Leg((1, 1), (0,)), Leg((1, 1), (1,)))
        with pytest.raises(ValueError, match="diamond must live inside the carrying class"):
            nonmixing_witness(wm_a, 0, dm)

    def test_a_class_that_is_not_distinguished_is_refused(self, b1_ordered):
        dm = make_diamond(b1_ordered, Leg((1, 1), (0,)), Leg((1, 1), (1,)))
        with pytest.raises(NotDistinguishedError, match="class 1 is not distinguished"):
            nonmixing_witness(b1_ordered, 1, dm)


class TestTelescopeOrdered:
    def test_composite_order_words(self, b1_ordered):
        t = telescope_ordered(b1_ordered, 2)
        assert t.base.incidence == ((4, 0), (4, 4))
        assert t.order == ((0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 1, 1))

    def test_rank_of_maximal_path_matches_collapsed_heights(self, two_odometer):
        t = telescope_ordered(two_odometer, 2)
        assert path_rank(t, max_path(t, 0, 2)) == heights(two_odometer.base, 3)[0] - 1

    def test_power_one_is_identity(self, b1_ordered):
        assert telescope_ordered(b1_ordered, 1) == b1_ordered
        with pytest.raises(ValueError):
            telescope_ordered(b1_ordered, 0)

    def test_squaring_matches_one_level_at_a_time(self):
        def stepwise(od, k):
            words = od.order
            for _ in range(k - 1):
                words = tuple(tuple(letter for s in od.order[v] for letter in words[s])
                              for v in range(od.n_vertices))
            return words

        rng = random.Random(7)
        for _ in range(400):
            n = rng.randint(1, 3)
            # zero rows allowed: empty order words
            d = StationaryDiagram(tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                                        for _ in range(n)))
            od = random_order(rng, d)
            k = rng.randint(1, 8)
            t = telescope_ordered(od, k)
            assert t.base == telescope(d, k)
            assert t.order == stepwise(od, k)

    def test_a_composition_over_the_cap_is_refused_before_it_is_built(self):
        m = 2000        # the words of F**2 would hold m * m letters
        od = OrderedDiagram(StationaryDiagram(((0, 0, 0), (m, 0, 0), (0, m, 0))),
                            ((), (0,) * m, (1,) * m))
        with pytest.raises(CapExceeded) as exc:
            telescope_ordered(od, 3)
        assert "power 2" in str(exc.value)
        assert telescope_ordered(od, 1) == od


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_successor_walk_is_a_bijection_on_small_random_diagrams(seed):
    import random

    rng = random.Random(seed)
    d = random_diagram(rng, n_max=3, entry_max=2)
    od = random_order(rng, d)
    n = 3
    for v in range(d.n_vertices):
        expected = heights(d, n)[v]
        p = min_path(od, v, n)
        seen = set()
        while p is not None:
            assert p not in seen
            seen.add(p)
            p = successor(od, p)
        assert len(seen) == expected
        assert max_path(od, v, n) in seen
