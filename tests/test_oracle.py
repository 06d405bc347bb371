"""First-principles cross-checks: the oracles that validate the formulas."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (aperiodic_corpus, random_diagram, random_path, seeded_orders,
                      successor_by_rebuild)

from bratteli import (
    CapExceeded,
    DimensionMismatch,
    EndpointMismatch,
    InvarianceReport,
    NotAperiodicError,
    PrimitivityError,
    PathWord,
    SizeRefused,
    StationaryDiagram,
    brute_force_Q,
    check_path,
    core_membership,
    core_preimage_oracle,
    decompose,
    empirical_orbit_frequency,
    enumerate_ergodic,
    enumerate_infinite,
    enumerate_paths,
    heights,
    max_path,
    measure_of_cylinder,
    min_path,
    q_steps,
    telescope_to_primitive,
    verify_invariance,
)
from bratteli import oracle
from bratteli.diagram import height_table, vertex_sequences
from bratteli.measures import _ClassMeasure


class _Counting:
    """A measure that counts its value(level, vertex) calls."""

    def __init__(self, measure):
        self.measure = measure
        self.diagram = measure.diagram
        self.calls = Counter()

    def value(self, level, vertex):
        self.calls[level, vertex] += 1
        return self.measure.value(level, vertex)


class _ConstantStub:
    """Fake measure assigning every cylinder mass 1; violates everything."""

    def __init__(self, diagram):
        self.diagram = diagram

    def value(self, level, vertex):
        return 1


class _Drifting:
    """Fake measure whose mass changes from call to call: NaN on every
    k-th call, 1 otherwise."""

    def __init__(self, diagram, every):
        self.diagram = diagram
        self.every = every
        self.calls = 0

    def value(self, level, vertex):
        self.calls += 1
        return math.nan if self.calls % self.every == 0 else 1


class _Skewed:
    """Fake measure with float masses that cancel: 1e16, 1.0, -1e16."""

    def __init__(self, diagram):
        self.diagram = diagram

    def value(self, level, vertex):
        return (1e16, 1.0, -1e16)[vertex]


class TestInvariance:
    def test_ergodic_measure_passes(self, b1):
        (mu,) = enumerate_ergodic(b1)
        report = verify_invariance(b1, mu, n_max=5)
        assert report.ok
        assert report.violations == ()
        assert report.skipped == ()
        assert report.checks_run > 50

    def test_infinite_measure_skips_the_total_mass_check(self, b1):
        (nu,) = enumerate_infinite(b1)
        report = verify_invariance(b1, nu, n_max=4)
        assert report.ok
        assert any("total mass skipped" in s for s in report.skipped)

    def test_bogus_measure_is_caught(self, b1):
        report = verify_invariance(b1, _ConstantStub(b1), n_max=3)
        assert not report.ok
        assert any(v.startswith("(b)") for v in report.violations)
        assert any("total mass" in v for v in report.violations)

    def test_every_enumerated_path_is_priced(self, eig_chain, monkeypatch):
        # each measure walks each (level, vertex) once, over the distinct
        # vertex tuples of enumerate_paths' list in order, no path of the
        # measures' own diagram goes through check_path, and each measure
        # asks value() once per path on top of the calls a walk with every
        # vertex skipped (cap 0, so no sequence is walked) makes
        d = eig_chain.base
        validated = []
        walked = []

        def counted(diagram, p):
            validated.append((diagram, p))
            return check_path(diagram, p)

        def listed(d, v, n):
            sequences = list(vertex_sequences(d, v, n))
            walked.append(((n, v), sequences))
            return iter(sequences)

        monkeypatch.setattr(oracle, "check_path", counted)
        monkeypatch.setattr(oracle, "vertex_sequences", listed)
        levels = range(1, 4)
        want = [((lvl, v), enumerate_paths(d, v, lvl))
                for lvl in levels for v in range(d.n_vertices)]
        paths = [p for _, batch in want for p in batch]
        assert len(paths) == sum(sum(heights(d, lvl)) for lvl in levels)
        measures = enumerate_ergodic(d) + enumerate_infinite(d)
        assert len(measures) == 3
        bare = [_Counting(m) for m in measures]
        [verify_invariance(d, m, 3, cap=0) for m in bare]
        assert validated == walked == []
        full = [_Counting(m) for m in measures]
        assert all(verify_invariance(d, m, 3).ok for m in full)
        assert validated == []
        sequences = [(key, list(dict.fromkeys(p.vertices for p in batch)))
                     for key, batch in want]
        assert walked == sequences * len(measures)
        priced = Counter((p.level, p.terminal) for p in paths)
        for m, skipping in zip(full, bare):
            assert m.calls == skipping.calls + priced

    def test_one_comparison_per_walked_vertex(self, eig_chain, monkeypatch):
        # a real measure gives every path to one (level, vertex) the same
        # object, so the walk compares its first path only.  On top of a
        # walk that skips every vertex, each (level, vertex) adds two _close
        # calls: one for its paths and one for its extension sum
        d = eig_chain.base
        close = oracle._close
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return close(a, b)

        monkeypatch.setattr(oracle, "_close", counted)
        mu = enumerate_ergodic(d)[0]
        assert verify_invariance(d, mu, 4, cap=0).ok
        bare = len(calls)
        calls.clear()
        assert verify_invariance(d, mu, 4).ok
        assert len(calls) == bare + 2 * 4 * d.n_vertices

    def test_each_level_vertex_is_priced_once(self, eig_chain, monkeypatch):
        # verify reads level n, then n + 1, then walks n again: each measure
        # prices the 3 vertices of levels 1..5 once, 15 _value calls, where
        # keeping one level priced 36
        d = eig_chain.base
        measures = enumerate_ergodic(d) + enumerate_infinite(d)
        priced = Counter()
        value = _ClassMeasure._value

        def counted(self, level, vertex):
            priced[id(self), level, vertex] += 1
            return value(self, level, vertex)

        monkeypatch.setattr(_ClassMeasure, "_value", counted)
        assert all(verify_invariance(d, m, 4).ok for m in measures)
        assert sorted(priced) == sorted((id(m), lvl, v) for m in measures
                                        for lvl in range(1, 6) for v in range(3))
        assert set(priced.values()) == {1}

    def test_the_walk_holds_no_paths(self):
        # masses are priced per vertex sequence and no path object is
        # built, so the walk's traced peak stays far below one (level,
        # vertex)'s paths: a list of PathWords to level 10 takes megabytes
        d = StationaryDiagram(((1, 1, 0, 0), (1, 0, 0, 0), (1, 0, 2, 1), (0, 0, 1, 1)))
        measures = enumerate_ergodic(d)
        tracemalloc.start()
        try:
            reports = [verify_invariance(d, m, 10) for m in measures]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.ok for r in reports)
        assert peak < 2 ** 19

    def test_each_path_gets_its_own_verdict(self, eig_chain):
        # masses that change from path to path, NaN among them, give the
        # reference's violations, and most paths pass; a verdict is reused
        # only for the object the previous path got
        for d in (eig_chain.base, StationaryDiagram(((1, 2), (1, 0)))):
            for every in (3, 5, 7):
                want = _sequential_reference(d, _Drifting(d, every), 4, 10 ** 6)
                got = verify_invariance(d, _Drifting(d, every), 4)
                assert got == want
                failed = sum(v.startswith("(a) path") for v in got.violations)
                assert 0 < failed < got.checks_run / 2

    def test_sums_run_left_to_right(self):
        # from Python 3.12 on, sum() of floats is compensated and would
        # print 1.0 here
        d = StationaryDiagram(((1, 1, 1),) * 3)
        report = verify_invariance(d, _Skewed(d), n_max=1)
        assert "(b) (A p(2))[0] = 0.0 != p(1)[0] = 1e+16" in report.violations
        assert ("(a) extensions of vertex 0 level 1 sum to 0.0, cylinder mass is 1e+16"
                in report.violations)
        assert "(c) total mass at level 1 is 0.0" in report.violations

    @pytest.mark.parametrize("other", [
        ((5, 0, 0), (2, 2, 0), (0, 2, 25)),  # the bundle 2 -> 2 one edge short
        ((5, 0, 0), (2, 3, 0), (0, 2, 24)),  # the bundle 3 -> 3 one edge short
        ((5, 0), (2, 3)),  # vertex 3 missing
    ])
    def test_paths_off_the_measure_diagram_raise_as_the_reference(self, eig_chain, other):
        d = eig_chain.base
        stub = _ConstantStub(StationaryDiagram(other))
        mu = enumerate_ergodic(d)[0]
        for measures in ((stub,), (mu, stub)):
            want = _outcome(lambda: [_sequential_reference(d, m, 3, 10 ** 6)
                                     for m in measures])
            assert want[0] in (ValueError, DimensionMismatch)
            assert _outcome(lambda: [verify_invariance(d, m, 3) for m in measures]) == want

    def test_float_range_is_refused_in_measure_order(self):
        # (c) on measure 0 leaves float range at level 738, measure 1's
        # values at 735; checked in measure order, the first one decides
        d = StationaryDiagram(((1, 1, 0, 0), (1, 0, 0, 0), (1, 0, 2, 1), (0, 0, 1, 1)))
        m0, m1 = enumerate_ergodic(d)
        with pytest.raises(CapExceeded, match="^level 738 is beyond float range$"):
            verify_invariance(d, m0, 738, cap=50)
        with pytest.raises(CapExceeded, match="^level 735 is beyond float range$"):
            verify_invariance(d, m1, 738, cap=50)
        with pytest.raises(CapExceeded, match="^level 738 "):
            [verify_invariance(d, m, 738, cap=50) for m in (m0, m1)]
        with pytest.raises(CapExceeded, match="^level 735 "):
            [verify_invariance(d, m, 738, cap=50) for m in (m1, m0)]
        assert all(verify_invariance(d, m, 733, cap=50).ok for m in (m0, m1))

    def test_cap_produces_skips_not_failures(self, b1):
        (mu,) = enumerate_ergodic(b1)
        report = verify_invariance(b1, mu, n_max=8, cap=10)
        assert report.ok
        assert any("exceeds cap" in s for s in report.skipped)


def _sequential_reference(d, m, n_max, cap):
    """verify_invariance as one walk of enumerate_paths' paths per
    measure, each priced with measure_of_cylinder: the reference for the
    walk by vertex sequence."""
    a = [list(col) for col in zip(*d.incidence)]
    n = d.n_vertices
    violations = []
    skipped = []
    checks = 0
    is_finite = not any(isinstance(m.value(1, v), float) and math.isinf(m.value(1, v))
                        for v in range(n))

    for lvl in range(1, n_max + 1):
        h = heights(d, lvl)
        p_now = [m.value(lvl, v) for v in range(n)]
        p_next = [m.value(lvl + 1, v) for v in range(n)]

        for v in range(n):
            try:
                paths = enumerate_paths(d, v, lvl, cap)
            except CapExceeded:
                skipped.append(f"path enumeration at level {lvl} vertex {v} "
                               f"exceeds cap {cap}")
                continue
            for p in paths:
                checks += 1
                got = measure_of_cylinder(m, p)
                if not oracle._close(got, p_now[v]):
                    violations.append(
                        f"(a) path {p.vertices} mass {got} != vertex mass "
                        f"{p_now[v]} at level {lvl}")
            extension_mass = sum(d.incidence[w][v] * p_next[w] for w in range(n)
                                 if d.incidence[w][v])
            checks += 1
            if not oracle._close(extension_mass, p_now[v]):
                violations.append(
                    f"(a) extensions of vertex {v} level {lvl} sum to "
                    f"{extension_mass}, cylinder mass is {p_now[v]}")

        for v in range(n):
            checks += 1
            lhs = sum(a[v][w] * p_next[w] for w in range(n) if a[v][w])
            if not oracle._close(lhs, p_now[v]):
                violations.append(
                    f"(b) (A p({lvl + 1}))[{v}] = {lhs} != p({lvl})[{v}] "
                    f"= {p_now[v]}")

        if is_finite:
            checks += 1
            total = sum(hv * p for hv, p in zip(h, p_now))
            if not oracle._close(total, 1):
                violations.append(f"(c) total mass at level {lvl} is {total}")
        elif lvl == 1:
            skipped.append("(c) total mass skipped for an infinite measure")

    return InvarianceReport(n_max, checks, tuple(violations), tuple(skipped))


def _outcome(run):
    try:
        return repr(run())
    except Exception as exc:
        return type(exc), exc.args


def test_sweep_matches_the_sequential_reference():
    """verify_invariance gives the report, or raises the exception, of one
    reference walk per measure, on random diagrams with their measures
    (when aperiodic) and a measure that violates every check; in a
    quarter of the draws a measure of the previous diagram, whose paths
    may fail check_path, joins at a random place."""
    rng = random.Random(5)
    place = random.Random(6)
    walked = 0
    previous = None
    for _ in range(400):
        d = random_diagram(rng, n_max=4, entry_max=3)
        depth = rng.randint(1, 6)
        cap = rng.choice((5, 50, 10 ** 6))
        try:
            measures = enumerate_ergodic(d) + enumerate_infinite(d)
        except (NotAperiodicError, PrimitivityError):
            measures = []
        measures.append(_ConstantStub(d))
        if previous is not None and place.random() < 0.25:
            measures.insert(place.randint(0, len(measures)), _ConstantStub(previous))
        previous = d
        want = _outcome(lambda: [_sequential_reference(d, m, depth, cap) for m in measures])
        assert _outcome(lambda: [verify_invariance(d, m, depth, cap) for m in measures]) == want
        walked += len(measures)
    assert walked > 400


class TestBruteForceSteps:
    def test_odometer_span(self, two_odometer):
        lo = min_path(two_odometer, 0, 4)
        hi = max_path(two_odometer, 0, 4)
        assert brute_force_Q(two_odometer, lo, hi) == 7
        assert brute_force_Q(two_odometer, hi, lo) == -7
        assert brute_force_Q(two_odometer, lo, lo) == 0

    def test_agrees_with_rank_arithmetic(self, b1_ordered):
        paths = enumerate_paths(b1_ordered.base, 1, 3)
        for e in paths:
            for e2 in paths:
                assert brute_force_Q(b1_ordered, e, e2) == q_steps(b1_ordered, e, e2)

    def test_endpoint_mismatch(self, b1_ordered):
        with pytest.raises(EndpointMismatch):
            brute_force_Q(b1_ordered, PathWord((0,)), PathWord((1,)))

    def test_agrees_with_q_steps_on_seeded_orders(self):
        """Every ordered pair of paths in each tower of at most 64 paths, at
        levels <= 7, of the first 10 seeded orders; q_steps is read as the
        difference of the two ranks it subtracts."""
        pairs = 0
        for od in seeded_orders()[:10]:
            h = height_table(od.base, 7)
            for n in range(1, 8):
                for v in range(od.n_vertices):
                    if h[n][v] <= 64:
                        paths = enumerate_paths(od.base, v, n)
                        ranks = [q_steps(od, paths[0], e) for e in paths]
                        for e, r in zip(paths, ranks):
                            for e2, r2 in zip(paths, ranks):
                                assert brute_force_Q(od, e, e2) == r2 - r
                        pairs += len(paths) ** 2
        assert pairs > 40_000

    def test_edge_outside_its_bundle_is_refused(self, eig_chain):
        # a path compared with itself is still checked against the diagram
        p = PathWord((0, 0, 0), (0, 9))
        with pytest.raises(ValueError, match="no edge 9"):
            q_steps(eig_chain, p, p)
        with pytest.raises(ValueError, match="no edge 9"):
            brute_force_Q(eig_chain, p, p)

    def test_unknown_terminal_vertex_is_a_dimension_mismatch(self, eig_chain):
        p = PathWord((0, 7), (0,))
        with pytest.raises(DimensionMismatch):
            brute_force_Q(eig_chain, p, p)

    def test_tower_cap(self, two_odometer, monkeypatch):
        lo = min_path(two_odometer, 0, 21)
        hi = max_path(two_odometer, 0, 21)
        with pytest.raises(CapExceeded) as exc:
            brute_force_Q(two_odometer, lo, hi)
        assert exc.value.required == 2 ** 20

        def refuse(*args):
            raise AssertionError("walked a tower above the cap")
        monkeypatch.setattr(oracle, "_step", refuse)
        for cap in (2 ** 20 - 1, 5):  # the tower size is computed once, then read
            with pytest.raises(CapExceeded) as exc:
                brute_force_Q(two_odometer, lo, hi, cap)
            assert (exc.value.required, exc.value.cap) == (2 ** 20, cap)


class TestCorePreimage:
    def test_feasible_point_comes_with_a_preimage(self, b1):
        result = core_preimage_oracle(decompose(b1).a_matrix, (Fraction(1), Fraction(0)), k=1)
        assert result.feasible
        assert result.preimage == (Fraction(1, 2), 0)
        assert result.certificate is None

    def test_infeasible_point_comes_with_a_certificate(self, b1):
        a = decompose(b1).a_matrix
        result = core_preimage_oracle(a, (0, 1), k=1)
        assert not result.feasible
        assert result.preimage is None
        z = result.certificate
        assert all(sum(z[i] * a[i][j] for i in range(2)) <= 0 for j in range(2))
        assert z[1] > 0  # z . x > 0 with x = (0, 1)

    def test_accepts_raw_matrices(self, b1):
        raw = decompose(b1).a_matrix
        assert core_preimage_oracle(raw, (1, 0), k=4).feasible

    def test_size_refusals(self, b1):
        a = decompose(b1).a_matrix
        with pytest.raises(SizeRefused):
            core_preimage_oracle(a, (1, 0), k=0)
        with pytest.raises(SizeRefused):
            core_preimage_oracle(a, (1, 0), k=5)
        big = [[1] * 13 for _ in range(13)]
        with pytest.raises(SizeRefused):
            core_preimage_oracle(big, (1,) * 13, k=1)
        with pytest.raises(ValueError):
            core_preimage_oracle(a, (1, 0, 0), k=1)

    def test_float_vector_is_refused(self, b1):
        # the simplex is exact; like core_membership it takes no floats
        with pytest.raises(TypeError):
            core_preimage_oracle(decompose(b1).a_matrix, (0.5, 1.0), k=1)

    def test_oracle_refines_an_unknown_membership(self, b1):
        # (2, 1) admits preimages through k = 4 but not k = 5, so the
        # default-depth search cannot classify it
        dec = decompose(b1)
        assert core_membership(dec, (2, 1)).kind == "unknown"
        deeper = core_membership(dec, (2, 1), k_max=8)
        assert deeper.kind == "not-in-core" and deeper.k == 5
        assert core_preimage_oracle(dec.a_matrix, (2, 1), k=4).feasible


def _unique_combination(cols, x):
    """The unique c with sum_j c_j cols[j] = x, by Fraction Gauss-Jordan;
    None when the columns are dependent or x is outside their span."""
    n, s = len(x), len(cols)
    rows = [[Fraction(col[i]) for col in cols] + [Fraction(x[i])] for i in range(n)]
    for c in range(s):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    if any(rows[r][s] != 0 for r in range(s, n)):
        return None
    return [rows[r][s] for r in range(s)]


def _in_power_cone(a, k, x):
    """x in A^k R+^n, without bratteli.linalg: by Caratheodory, some
    independent subset of the columns of A^k reaches x with weights >= 0."""
    n = len(a)
    power = a
    for _ in range(k - 1):
        power = [[sum(power[i][m] * a[m][j] for m in range(n)) for j in range(n)]
                 for i in range(n)]
    cols = [[power[i][j] for i in range(n)] for j in range(n)]
    if all(v == 0 for v in x):
        return True
    for size in range(1, n + 1):
        for subset in itertools.combinations(cols, size):
            c = _unique_combination(subset, x)
            if c is not None and all(v >= 0 for v in c):
                return True
    return False


def test_cone_oracle_agrees_with_caratheodory_subsets():
    """core_preimage_oracle runs the exact simplex, and so does
    core_membership when A is singular and x passes its left-kernel test
    (an invertible A takes an integer sign test on A^-k x instead); an
    independent decision of x in A^k R+^n
    checks both of them on the telescoped corpus, at k = 1 and at the
    verdict's k (2N without one)."""
    rng = random.Random(314159)
    corpus = aperiodic_corpus()
    checks = 0
    for d in corpus:
        primitive, _ = telescope_to_primitive(d)
        decomp = decompose(primitive)
        a = decomp.a_matrix
        n = len(a)
        assert n <= 4
        for _ in range(20):
            if rng.random() < 0.3:
                y = [rng.randint(0, 3) for _ in range(n)]
                x = tuple(Fraction(sum(a[i][j] * y[j] for j in range(n))) for i in range(n))
            else:
                x = tuple(Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
                          for _ in range(n))
            verdict = core_membership(decomp, x)
            k = verdict.k if verdict.kind == "not-in-core" else 2 * n
            for kk in (1, k):
                inside = _in_power_cone(a, kk, x)
                assert core_preimage_oracle(a, x, kk).feasible == inside
                checks += 1
            if verdict.kind == "not-in-core":
                assert not _in_power_cone(a, k, x)
                assert k == 1 or _in_power_cone(a, k - 1, x)
            else:
                assert _in_power_cone(a, 2 * n, x)
    assert checks == 2 * 20 * len(corpus)


def _orbit_reference(od, start, steps, target):
    """(visits, steps, exhausted, working level) of the orbit of start,
    extended upward and stepped as path objects by ``successor_by_rebuild``,
    as ``empirical_orbit_frequency`` walked it before it stepped in place."""
    working = max(start.level, target.level + 4)
    cur = start
    while cur.level < working:
        w = cur.terminal
        v = next(u for u in range(od.base.n_vertices) if od.base.incidence[u][w])
        cur = PathWord(cur.vertices + (v,), cur.indices + (0,))
    visits = taken = 0
    exhausted = False
    for _ in range(steps):
        taken += 1
        if cur.prefix(target.level) == target:
            visits += 1
        cur = successor_by_rebuild(od, cur)
        if cur is None:
            exhausted = taken < steps
            break
    return visits, taken, exhausted, working


class TestOrbitFrequency:
    def test_odometer_halves(self, two_odometer):
        target = PathWord((0, 0), (0,))
        report = empirical_orbit_frequency(two_odometer, PathWord((0,)), 32, target)
        assert report.working_level == 6
        assert report.frequency == Fraction(1, 2)
        assert not report.exhausted

    def test_partial_orbit_is_flagged(self, two_odometer):
        target = PathWord((0, 0), (1,))
        report = empirical_orbit_frequency(two_odometer, PathWord((0,)), 50, target)
        assert report.exhausted
        assert report.steps == 32
        assert report.frequency == Fraction(1, 2)

    def test_unknown_start_vertex_is_a_dimension_mismatch(self, eig_chain):
        with pytest.raises(DimensionMismatch):
            empirical_orbit_frequency(eig_chain, PathWord((7,)), 5, PathWord((0,)))

    def test_matches_the_successor_walk_on_seeded_orders(self):
        """Random start paths, targets and step counts on the 200 seeded
        orders, against the orbit walked by ``successor_by_rebuild``."""
        rng = random.Random(9)
        visits = exhausted = 0
        for od in seeded_orders():
            start = random_path(rng, od, rng.randrange(od.n_vertices), rng.randint(1, 3))
            target = random_path(rng, od, rng.randrange(od.n_vertices), rng.randint(1, 3))
            steps = rng.randint(1, 300)
            report = empirical_orbit_frequency(od, start, steps, target)
            want = _orbit_reference(od, start, steps, target)
            assert (report.visits, report.steps, report.exhausted, report.working_level) == want
            visits += report.visits
            exhausted += report.exhausted
        assert visits > 1000 and exhausted > 10

    def test_step_validation(self, two_odometer):
        target = PathWord((0,))
        with pytest.raises(ValueError):
            empirical_orbit_frequency(two_odometer, PathWord((0,)), 0, target)
        with pytest.raises(CapExceeded):
            empirical_orbit_frequency(two_odometer, PathWord((0,)), 10 ** 6 + 1, target)
