"""Ergodic probability measures, convex combinations, sigma-finite tails."""

import functools
import gc
import hashlib
import math
import random
from fractions import Fraction

import pytest

from bratteli import (
    CapExceeded,
    InvariantMeasure,
    NotAperiodicError,
    NotInDomainError,
    PathWord,
    StationaryDiagram,
    ZeroBlockError,
    aperiodicity_check,
    borel_invariant,
    decompose,
    distinguished_classes,
    distinguished_eigenvector,
    enumerate_ergodic,
    enumerate_infinite,
    heights,
    measure_from_point,
    measure_of_cylinder,
    minimal_components,
    parse_diagram,
    substitution_measures,
    support_classes,
    tail_valuation,
    telescope_to_primitive,
)
from bratteli import linalg, measures
from bratteli.errors import AmbiguousComparison, PrimitivityError
from bratteli.measures import _ClassMeasure
from bratteli.spectral import NumericValue, nv_compare

from conftest import aperiodic_corpus, block_chain, dominance_family, random_diagram
from test_float_path import IRRATIONAL_DOC


class TestErgodicEnumeration:
    def test_triangular_chain_has_one_measure(self, b1):
        (mu,) = enumerate_ergodic(b1)
        assert mu.class_id == 0
        assert mu.lam.value == 2
        assert mu.xi == (1, 0)
        assert mu.support == frozenset({0})
        assert not mu.full_support

    def test_cylinder_values_scale_with_level(self, b1):
        (mu,) = enumerate_ergodic(b1)
        for n in range(1, 8):
            assert mu.value(n, 0) == Fraction(1, 2 ** (n - 1))
            assert mu.value(n, 1) == 0

    def test_measure_of_cylinder_checks_the_path(self, b1):
        (mu,) = enumerate_ergodic(b1)
        assert measure_of_cylinder(mu, PathWord((0, 0), (1,))) == Fraction(1, 2)
        with pytest.raises(ValueError):
            measure_of_cylinder(mu, PathWord((1, 0), (0,)))

    def test_source_class_measure_ignores_the_funnels(self, b2):
        (mu,) = enumerate_ergodic(b2)
        assert mu.class_id == 1
        assert mu.xi == (0, 1, 0)

    def test_three_measures_in_class_order(self, double_morse):
        mus = enumerate_ergodic(double_morse)
        assert [m.class_id for m in mus] == [0, 1, 2]
        assert [m.xi for m in mus] == [
            (Fraction(1, 2), Fraction(1, 2), 0, 0, 0),
            (0, 0, Fraction(1, 2), Fraction(1, 2), 0),
            (Fraction(2, 9), Fraction(1, 9), Fraction(2, 9), Fraction(1, 9), Fraction(1, 3)),
        ]
        assert [m.lam.value for m in mus] == [2, 2, 3]
        assert support_classes(mus[0]) == ((0,), False)
        assert support_classes(mus[2]) == ((0, 1, 2), True)

    def test_dominated_class_carries_no_probability_measure(self, mixed_chain):
        mus = enumerate_ergodic(mixed_chain)
        assert [m.class_id for m in mus] == [0, 1, 3]
        assert mus[1].xi == (Fraction(4, 9), Fraction(2, 9), Fraction(1, 3), 0, 0)
        assert mus[2].xi == (Fraction(1, 4), Fraction(1, 8), Fraction(1, 4),
                             Fraction(1, 8), Fraction(1, 4))

    def test_level_totals_are_one(self, double_morse, mixed_chain):
        for d in (double_morse, mixed_chain):
            for mu in enumerate_ergodic(d):
                for n in range(1, 7):
                    h = heights(d, n)
                    assert sum(h[v] * mu.value(n, v) for v in range(5)) == 1

    def test_periodic_diagram_is_refused(self):
        with pytest.raises(NotAperiodicError) as exc:
            enumerate_ergodic(StationaryDiagram(((1,),)))
        assert exc.value.witness_class == 0


class TestInvariantCombinations:
    def test_point_on_an_extreme_ray(self, double_morse):
        mu = measure_from_point(double_morse, (Fraction(2, 9), Fraction(1, 9),
                                               Fraction(2, 9), Fraction(1, 9),
                                               Fraction(1, 3)))
        assert mu.coefficients == (0, 0, 1)
        assert mu.is_exact

    def test_mixture_recovers_its_coefficients(self, double_morse):
        p = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), 0)
        mu = measure_from_point(double_morse, p)
        assert mu.coefficients == (Fraction(1, 2), Fraction(1, 2), 0)
        assert mu.p_vector(1) == p

    def test_p_vectors_chain_down_through_the_incidence(self, double_morse):
        p = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), 0)
        mu = measure_from_point(double_morse, p)
        a = decompose(double_morse).a_matrix
        for n in range(1, 6):
            nxt = mu.p_vector(n + 1)
            cur = mu.p_vector(n)
            assert tuple(sum(a[v][w] * nxt[w] for w in range(5))
                         for v in range(5)) == cur

    def test_rejects_vectors_off_the_simplex(self, double_morse):
        with pytest.raises(NotInDomainError):
            measure_from_point(double_morse, (1, 1, 0, 0, 0))  # mass 2
        with pytest.raises(NotInDomainError):
            measure_from_point(double_morse, (1, 0, 0, 0, 0))  # outside the cone

    def test_combination_validation(self, b1):
        (mu,) = enumerate_ergodic(b1)
        with pytest.raises(ValueError):
            InvariantMeasure((mu,), (Fraction(1, 2),))
        with pytest.raises(ValueError):
            InvariantMeasure((mu,), (1, 1))


class TestSigmaFinite:
    def test_divergent_funnel_above_the_carrying_class(self, b1):
        (nu,) = enumerate_infinite(b1)
        assert nu.class_id == 1
        assert nu.lam.value == 2
        assert nu.base == (math.inf, 1)
        assert not nu.atomic
        assert nu.kind == "sigma-finite"
        for n in range(1, 8):
            assert nu.value(n, 1) == Fraction(1, 2 ** (n - 1))
            assert nu.value(n, 0) == math.inf

    def test_two_tails_around_a_central_source(self, b2):
        tails = enumerate_infinite(b2)
        assert [(nu.class_id, nu.base) for nu in tails] == [
            (0, (1, math.inf, 0)),
            (2, (0, math.inf, 1)),
        ]

    def test_fully_distinguished_diagram_has_no_tails(self, double_morse):
        assert enumerate_infinite(double_morse) == []

    def test_dominated_middle_class(self, mixed_chain):
        (nu,) = enumerate_infinite(mixed_chain)
        assert nu.class_id == 2
        assert nu.base == (math.inf, math.inf, 0, 1, 0)
        assert measure_of_cylinder(nu, PathWord((3,))) == 1

    def test_single_loop_class_gives_an_atomic_tail(self, atomic_tail):
        (nu,) = enumerate_infinite(atomic_tail)
        assert nu.atomic
        assert nu.kind == "sigma-finite-atomic"
        assert nu.base == (math.inf, 1)
        assert nu.lam.value == 1
        assert [nu.value(n, 1) for n in (1, 3, 9)] == [1, 1, 1]
        assert enumerate_infinite(atomic_tail, include_atomic=False) == []

    def test_zero_block_classes_are_skipped_but_passed_through(self):
        # vertex 1 lies on no cycle: its class has the zero block
        d = StationaryDiagram(((2, 1, 0), (0, 0, 1), (0, 0, 2)))
        dec = decompose(d)
        assert [c.is_zero for c in dec.classes] == [False, True, False]
        (nu,) = enumerate_infinite(d)
        assert nu.class_id == 0
        assert nu.base == (1, Fraction(1, 2), math.inf)
        with pytest.raises(ZeroBlockError):
            tail_valuation(d, 1)

    def test_valuation_on_a_distinguished_class_matches_its_ray(self, b1):
        lam, y, base = tail_valuation(b1, 0)
        assert lam.value == 2 and y == (1,) and base == (1, 0)

    def test_valuation_is_a_multiple_of_the_ray_on_exact_distinguished_classes(self):
        checked = extended = 0
        for d in aperiodic_corpus():
            dec = decompose(d)
            for alpha in distinguished_classes(dec):
                if not dec.classes[alpha].rho.is_exact:
                    continue
                base = tail_valuation(d, alpha)[2]
                xi = distinguished_eigenvector(dec, alpha).xi
                (ratio,) = {b / x for b, x in zip(base, xi) if x}
                assert ratio > 0
                assert all(b == 0 for b, x in zip(base, xi) if not x)
                checked += 1
                extended += len(dec.accessors_of(alpha)) > 0
        assert (checked, extended) == (9, 1)


@functools.cache
def dominance_decompositions():
    """The decompositions of ``dominance_family``, ties refused left out."""
    out = []
    for d in dominance_family():
        try:
            out.append(decompose(d))
        except AmbiguousComparison:
            pass
    return tuple(out)


def divergent_by_nested_loop(decomp, alpha, compare=nv_compare):
    """The classes that tail_valuation made +inf with a loop over every pair
    (g, b): g has access to alpha and is divergent when some b != alpha
    with g >= b >= alpha and a non-zero block has Perron value >= lam."""
    k = len(decomp.classes)
    lam = decomp.classes[alpha].rho
    divergent = set()
    for g in range(k):
        if g == alpha or not decomp.access[g][alpha]:
            continue
        for b in range(k):
            if (b != alpha and decomp.access[g][b] and decomp.access[b][alpha]
                    and not decomp.classes[b].is_zero
                    and compare(decomp.classes[b].rho, lam) >= 0):
                divergent.add(g)
                break
    return divergent


class TestDominanceWalk:
    """``tail_valuation`` walks the accessors of alpha nearest first, on the
    seeded family of ``dominance_family``."""

    def test_infinite_classes_are_those_of_the_nested_loop(self):
        classes = 0
        for dec in dominance_decompositions():
            for cls in dec.classes:
                if cls.is_zero:
                    continue
                base = tail_valuation(dec.diagram, cls.index)[2]
                infinite = {dec.class_of[v] for v, x in enumerate(base) if x == math.inf}
                assert infinite == divergent_by_nested_loop(dec, cls.index), dec.diagram
                classes += 1
        assert classes == 7076

    def test_the_diagram_form_gives_what_the_decomposition_form_gave(self):
        """tail_valuation took a decomposition until it took the diagram
        alone; the digest of its triples on the family and the corpus was
        recorded from ``tail_valuation(decompose(d), alpha)``."""
        digest, count = hashlib.sha256(), 0
        for d in [dec.diagram for dec in dominance_decompositions()] + aperiodic_corpus():
            for cls in decompose(d).classes:
                if not cls.is_zero:
                    digest.update(repr(tail_valuation(d, cls.index)).encode())
                    count += 1
        assert count == 7101
        assert digest.hexdigest() == (
            "66c720d5c79548b4f25a3044522b95cb78b6a16841094f80dc0b1297f3e15978")

    def test_each_comparison_is_one_the_nested_loop_makes(self, monkeypatch):
        """So no tie can be refused that the loop did not refuse: the only
        other comparison is of a zero block's exact 0 with lam >= 1.  And
        each accessor of alpha is compared at most once."""
        calls = []
        monkeypatch.setattr(measures, "nv_compare",
                            lambda a, b: calls.append((a, b)) or nv_compare(a, b))
        zero = NumericValue.exact(0)
        for dec in dominance_decompositions():
            for cls in dec.classes:
                if cls.is_zero:
                    continue
                calls.clear()
                tail_valuation(dec.diagram, cls.index)
                asked = []
                divergent_by_nested_loop(dec, cls.index,
                                         lambda a, b: asked.append((a, b)) or nv_compare(a, b))
                assert all(call in asked or call == (zero, cls.rho) for call in calls)
                assert len(calls) <= len(dec.accessors_of(cls.index))


class TestLevelCache:
    """``value`` keeps the values of two levels; they are the formula's."""

    def test_cached_values_are_the_formula_values(self):
        count = 0
        for d in aperiodic_corpus():
            t = telescope_to_primitive(d)[0]
            for m in enumerate_ergodic(t) + enumerate_infinite(t):
                for level in range(1, 9):
                    expected = [m._value(level, v) for v in range(len(m.vector))]
                    for _ in range(2):  # the second pass reads the cache
                        got = [m.value(level, v) for v in range(len(expected))]
                        assert ([(repr(x), type(x)) for x in got]
                                == [(repr(x), type(x)) for x in expected]), (d, level)
                count += 1
        assert count == 25

    def test_mixture_values_are_the_p_vector_entries(self, double_morse):
        count = 0
        for d in [double_morse, *aperiodic_corpus()]:
            measures = tuple(enumerate_ergodic(telescope_to_primitive(d)[0]))
            k = len(measures)
            for coefficients in ((Fraction(1, k),) * k, (1 / k,) * k):
                mix = InvariantMeasure(measures, coefficients)
                for level in range(1, 9):
                    expected = mix.p_vector(level)
                    assert expected == tuple(mix._value(level, v) for v in range(len(expected)))
                    for _ in range(2):  # the second pass reads the cache
                        got = tuple(mix.value(level, v) for v in range(len(expected)))
                        assert ([(repr(x), type(x)) for x in got]
                                == [(repr(x), type(x)) for x in expected]), (d, level)
                count += 1
        assert count == 42

    def test_cache_is_outside_equality_hash_and_repr(self, b1):
        (fresh,), (used,) = enumerate_ergodic(b1), enumerate_ergodic(b1)
        (tail,), (used_tail,) = enumerate_infinite(b1), enumerate_infinite(b1)
        mix, used_mix = InvariantMeasure((fresh,), (1,)), InvariantMeasure((used,), (1,))
        used.value(3, 0)
        used_tail.value(3, 0)
        used_mix.value(3, 0)
        for a, b in ((fresh, used), (tail, used_tail), (mix, used_mix)):
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_repeated_reads_return_the_same_object(self, b1):
        # verify reuses a path's verdict for the object the previous path
        # got, so a read at the kept level must not price the vertex again
        (mu,), (tail,) = enumerate_ergodic(b1), enumerate_infinite(b1)
        exact, approximate = InvariantMeasure((mu,), (1,)), InvariantMeasure((mu,), (1.0,))
        assert exact.is_exact and not approximate.is_exact
        for m in (mu, tail, exact, approximate):
            for level in (1, 4, 4, 2):
                first = [m.value(level, v) for v in range(2)]
                again = [m.value(level, v) for v in range(2)]
                assert all(a is b for a, b in zip(first, again)), (m.kind, level)
                assert first == [m._value(level, v) for v in range(2)]

    def test_the_level_read_before_is_kept_too(self, b1, monkeypatch):
        # verify reads levels n, n + 1 and n again, so the third read must
        # price nothing; a third level replaces the older of the two
        (mu,), (tail,) = enumerate_ergodic(b1), enumerate_infinite(b1)
        mix = InvariantMeasure(tuple(enumerate_ergodic(b1)), (1,))
        priced = []

        def counting(value):
            def counted(self, level, vertex):
                priced.append((id(self), level, vertex))
                return value(self, level, vertex)
            return counted

        for cls in (_ClassMeasure, InvariantMeasure):
            monkeypatch.setattr(cls, "_value", counting(cls._value))
        for m in (mu, tail, mix):
            first = {level: [m.value(level, v) for v in range(2)] for level in (3, 4)}
            for level in (3, 4, 3, 4):
                again = [m.value(level, v) for v in range(2)]
                assert all(a is b for a, b in zip(first[level], again)), (m.kind, level)
            m.value(5, 0)
            m.value(3, 0)
            assert [p[1:] for p in priced if p[0] == id(m)] == [
                (3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (3, 0)], m.kind


class TestFloatRange:
    """Float cylinder values are refused with CapExceeded at the first
    level where one overflows or falls below the normal float range."""

    # the golden mean class {0, 1} (rho about 1.618) is fed by the class
    # {2} of rho 3, so it carries a float tail measure as well
    FED_GOLDEN_MEAN = StationaryDiagram(((1, 1, 1), (1, 0, 0), (0, 0, 3)))

    NORMAL_MIN = 2.2250738585072014e-308  # the least normal float

    def test_ergodic_and_mixture_values_stop_at_the_first_subnormal(self):
        (mu,) = enumerate_ergodic(StationaryDiagram(((1, 1), (1, 0))))
        mix = InvariantMeasure((mu,), (1.0,))
        for m in (mu, mix):
            assert min(m.value(1471, 0), m.value(1471, 1)) >= self.NORMAL_MIN
            for _ in range(2):  # a refusal is never kept by the level cache
                with pytest.raises(CapExceeded, match="level 1472 is beyond float range"):
                    m.value(1472, 1)
            with pytest.raises(CapExceeded, match="level 1600 is beyond float range"):
                m.value(1600, 0)
        # a mixture refuses only the vertices whose own terms leave float range
        assert mix.value(1472, 0) == mu.value(1472, 0) >= self.NORMAL_MIN

    def test_tail_values_stop_at_the_first_subnormal(self):
        (tail,) = enumerate_infinite(self.FED_GOLDEN_MEAN)
        assert not tail.is_exact and tail.base[2] == math.inf
        assert tail.value(1471, 1) >= self.NORMAL_MIN and tail.value(1472, 2) == math.inf
        for _ in range(2):  # a refusal is never kept by the level cache
            with pytest.raises(CapExceeded, match="level 1472 is beyond float range"):
                tail.value(1472, 1)


class TestInvariants:
    def test_minimal_components_are_the_unreached_classes(self, b1, b2, double_morse):
        assert minimal_components(b1) == (0,)
        assert minimal_components(b2) == (1,)
        assert minimal_components(double_morse) == (0, 1)

    def test_borel_invariant_counts_distinguished_classes(
            self, b1, b2, double_morse, mixed_chain):
        assert borel_invariant(b1) == 1
        assert borel_invariant(b2) == 1
        assert borel_invariant(double_morse) == 3
        assert borel_invariant(mixed_chain) == 3

    def test_borel_invariant_requires_aperiodicity(self):
        with pytest.raises(NotAperiodicError):
            borel_invariant(StationaryDiagram(((1,),)))


# every public function of the module, given the diagram alone
DIAGRAM_ENTRY_POINTS = {
    "enumerate_ergodic": enumerate_ergodic,
    "enumerate_infinite": enumerate_infinite,
    "measure_from_point": lambda d: measure_from_point(d, enumerate_ergodic(d)[0].xi),
    "tail_valuation": lambda d: tail_valuation(d, 2),
    "minimal_components": minimal_components,
    "borel_invariant": borel_invariant,
}


def _held_decompositions(got):
    """The decompositions a result holds: a measure holds its own, a
    combination those of its terms, anything else none."""
    got = got if isinstance(got, list) else [got]
    terms = [m for g in got for m in (g.measures if isinstance(g, InvariantMeasure) else [g])]
    return [m.decomp for m in terms if hasattr(m, "decomp")]


class TestTheDiagramAlone:
    """A diagram carries its decomposition, so each function takes the
    diagram alone, and reads the decomposition the diagram holds."""

    @pytest.mark.parametrize("entry", DIAGRAM_ENTRY_POINTS)
    def test_a_decomposed_diagram_answers_as_a_fresh_equal_one(self, mixed_chain, entry):
        call = DIAGRAM_ENTRY_POINTS[entry]
        d = StationaryDiagram(mixed_chain.incidence)
        dec = decompose(d)
        got = call(d)
        assert got == call(StationaryDiagram(mixed_chain.incidence))
        assert decompose(d) is dec
        assert all(held is dec for held in _held_decompositions(got))

    @pytest.mark.parametrize("entry", DIAGRAM_ENTRY_POINTS)
    def test_the_decomposition_lives_as_long_as_the_result_holds_it(self, mixed_chain, entry):
        """The measures returned hold it; a valuation, a class tuple or a
        count does not, and the diagram's weak hold keeps nothing alive."""
        d = StationaryDiagram(mixed_chain.incidence)
        measure_kind = entry in ("enumerate_ergodic", "enumerate_infinite", "measure_from_point")
        gc.disable()
        try:
            got = DIAGRAM_ENTRY_POINTS[entry](d)
            held = _held_decompositions(got)
            alive = vars(d)["_decomposition"]() is not None
            del got, held
            dead = vars(d)["_decomposition"]() is None
        finally:
            gc.enable()
        assert alive == measure_kind and dead


@functools.cache
def exact_diagrams():
    """Seeded aperiodic diagrams with primitive blocks whose every Perron
    value is exact: those among ``random_diagram(Random(s), 6, 3)`` for
    s < 400, and 40 exact block chains (the cone-library shape)."""
    out = []
    for s in range(400):
        d = random_diagram(random.Random(s), n_max=6, entry_max=3)
        dec = decompose(d)
        try:
            if all(c.rho.is_exact for c in dec.classes) and aperiodicity_check(dec):
                out.append(d)
        except PrimitivityError:
            pass
    rng = random.Random(38)
    return tuple(out + [block_chain(rng, exact=True) for _ in range(40)])


def fraction_extension(decomp, alpha, y, classes):
    """The extension of y from class alpha over ``classes`` as it was solved
    before the exact path went fraction-free: one ``Fraction`` Gaussian
    elimination, ``linalg.solve_square``, per class, down the reversed
    triangular order, 0 elsewhere."""
    a = decomp.a_matrix
    lam = decomp.classes[alpha].rho.value
    s = [Fraction(0)] * len(a)
    for v, x in zip(decomp.classes[alpha].vertices, y):
        s[v] = x
    for b in reversed(dict.fromkeys(decomp.class_of[v] for v in decomp.fnf_permutation)):
        if b == alpha or b not in classes:
            continue
        verts = decomp.classes[b].vertices
        lhs = [[Fraction((lam if i == j else 0) - a[v][w]) for j, w in enumerate(verts)]
               for i, v in enumerate(verts)]
        rhs = [sum(a[v][j] * s[j] for j in range(len(a)) if decomp.class_of[j] != b)
               for v in verts]
        for v, x in zip(verts, linalg.solve_square(lhs, rhs)):
            s[v] = x
    return s


class TestExactExtension:
    """An integer Perron value extends its vector in integers, each entry
    made a ``Fraction`` once; the values are those of the Fraction solves."""

    def test_vectors_match_the_fraction_solves(self):
        counts = {"ergodic": 0, "ergodic solved": 0, "tail": 0, "tail solved": 0}
        for d in exact_diagrams():
            dec = decompose(d)
            a = dec.a_matrix
            for m in enumerate_ergodic(d):
                cls = dec.classes[m.class_id]
                xi = fraction_extension(dec, cls.index, cls.perron, m.support)
                assert m.xi == tuple(x / sum(xi) for x in xi), d
                assert all(type(x) is Fraction for x in m.xi)
                assert linalg.mat_vec(a, m.xi) == [m.lam.value * x for x in m.xi]
                assert sum(m.xi) == 1
                counts["ergodic"] += 1
                counts["ergodic solved"] += len(m.support) > 1
            for m in enumerate_infinite(d):
                alpha = m.class_id
                y = tuple(x / sum(dec.classes[alpha].perron) for x in dec.classes[alpha].perron)
                divergent = divergent_by_nested_loop(dec, alpha)
                finite = [g for g in range(len(dec.classes))
                          if dec.access[g][alpha] and g not in divergent]
                base = fraction_extension(dec, alpha, y, finite)
                for g in divergent:
                    for v in dec.classes[g].vertices:
                        base[v] = math.inf
                assert (m.y, m.base) == (y, tuple(base)), d
                assert all(type(x) is Fraction for x in m.base if x != math.inf)
                counts["tail"] += 1
                counts["tail solved"] += len(finite) > 1
        assert counts == {"ergodic": 194, "ergodic solved": 44, "tail": 70, "tail solved": 11}

    def test_exact_measures_make_no_square_solve(self, monkeypatch, double_morse_substitution,
                                                 mixed_chain_substitution, thue_morse):
        """The Fraction elimination is left to the float path: with it made
        to raise, exact diagrams give the answers they gave, and the
        irrational fixture of the float-path tests still solves with it."""
        substitutions = (double_morse_substitution, mixed_chain_substitution, thue_morse)

        def answers():
            out = []
            for f in [d.incidence for d in exact_diagrams()]:
                d = StationaryDiagram(f)
                ergodic = enumerate_ergodic(d)
                p1 = [sum(m.xi[v] for m in ergodic) / len(ergodic) for v in range(d.n_vertices)]
                out.append((ergodic, enumerate_infinite(d), measure_from_point(d, p1)))
            return out, [substitution_measures(s) for s in substitutions]

        expected = answers()
        solves = []
        solve_square = linalg.solve_square

        def refuse(a, b):
            raise AssertionError("solve_square called on the exact path")

        monkeypatch.setattr(linalg, "solve_square", refuse)
        assert answers() == expected
        monkeypatch.setattr(linalg, "solve_square",
                            lambda a, b: solves.append(len(a)) or solve_square(a, b))
        irrational = parse_diagram(IRRATIONAL_DOC).base
        enumerate_ergodic(irrational)
        enumerate_infinite(irrational)
        assert solves == [1, 1]
