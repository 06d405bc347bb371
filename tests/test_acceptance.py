"""Acceptance gate: ten end-to-end checks, one test and one printed
verdict line per criterion.

Golden values are exact rationals throughout; the only tolerances are the
certified-float gap for irrational Perron values (criterion 3), the 5%
margin of a test-local float overlap sequence (criterion 8), and a 1e-9 relative
slack on float-mode normalization sums (criterion 10).
"""

import contextlib
import io
import math
import random
from fractions import Fraction

from conftest import aperiodic_corpus, random_order

from bratteli import (
    Leg,
    OrderedDiagram,
    PathWord,
    StationaryDiagram,
    Substitution,
    borel_invariant,
    brute_force_Q,
    core_membership,
    core_preimage_oracle,
    decompose,
    default_window,
    diagram_from_substitution,
    eigenvalue_check,
    eigenvalue_search,
    enumerate_diamonds,
    enumerate_ergodic,
    enumerate_infinite,
    heights,
    is_decisive,
    is_maximal,
    make_diamond,
    measure_of_cylinder,
    min_path,
    nonmixing_witness,
    p_sequence,
    p_value,
    parse_diagram,
    parse_substitution,
    recurrence_coefficients,
    serialize_diagram,
    serialize_substitution,
    substitution_from_diagram,
    substitution_measures,
    successor,
    tail_valuation,
    telescope,
    telescope_to_primitive,
    verify_invariance,
)
from bratteli.cli import main as cli_main


def _passed(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_1_double_pair_substitution_measures(
        double_morse_substitution):
    """Five-letter two-pair substitution: exactly three ergodic measures
    with eigenvalues (2, 2, 3) and exact rational eigenvectors."""
    res = substitution_measures(double_morse_substitution)
    assert len(res.ergodic) == 3 and not res.infinite
    assert [m.lam.value for m in res.ergodic] == [2, 2, 3]
    assert res.ergodic[0].xi == (Fraction(1, 2), Fraction(1, 2), 0, 0, 0)
    assert res.ergodic[1].xi == (0, 0, Fraction(1, 2), Fraction(1, 2), 0)
    assert res.ergodic[2].xi == (Fraction(2, 9), Fraction(1, 9),
                                 Fraction(2, 9), Fraction(1, 9),
                                 Fraction(1, 3))
    assert all(m.lam.is_exact and all(isinstance(x, Fraction) for x in m.xi)
               for m in res.ergodic)
    _passed("criterion 1: three ergodic measures, eigenvalues (2,2,3), "
            "exact eigenvectors")


def test_criterion_2_mixed_chain_substitution_measures(
        mixed_chain_substitution):
    """Five-letter chain substitution: three ergodic measures with
    eigenvalues (2, 3, 4); the first and third eigenvectors are the
    published ones verbatim, the middle one up to the 8/9 normalization
    (the published vector sums to 9/8); exactly one sigma-finite measure,
    carried by the diagonal-2 singleton class."""
    res = substitution_measures(mixed_chain_substitution)
    assert len(res.ergodic) == 3
    assert [m.lam.value for m in res.ergodic] == [2, 3, 4]
    assert res.ergodic[0].xi == (Fraction(1, 2), Fraction(1, 2), 0, 0, 0)
    assert res.ergodic[2].xi == (Fraction(1, 4), Fraction(1, 8),
                                 Fraction(1, 4), Fraction(1, 8),
                                 Fraction(1, 4))
    published_p2 = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), 0, 0)
    assert sum(published_p2) == Fraction(9, 8)
    assert res.ergodic[1].xi == tuple(Fraction(8, 9) * v
                                      for v in published_p2)
    assert len(res.infinite) == 1
    tail = res.infinite[0]
    assert tail.lam.value == 2
    assert sorted(tail.decomp.classes[tail.class_id].vertices) == [3]
    _passed("criterion 2: eigenvalues (2,3,4), published eigenvectors "
            "(middle up to 8/9), one sigma-finite measure at the "
            "diagonal-2 class")


def test_criterion_3_unique_vs_double_ergodicity(intro_sigma, intro_tau):
    """Changing one rule letter count flips the verdict from uniquely
    ergodic to two ergodic measures, decided cleanly even though the
    minimal component's eigenvalue 1+sqrt(2) is irrational."""
    res_sigma = substitution_measures(intro_sigma)
    res_tau = substitution_measures(intro_tau)
    assert len(res_sigma.ergodic) == 1 and res_sigma.unique_ergodic
    assert len(res_tau.ergodic) == 2 and not res_tau.unique_ergodic
    lam = res_sigma.ergodic[0].lam
    assert not lam.is_exact
    assert abs(lam.as_float - (1 + math.sqrt(2))) < 1e-9
    exact = [m for m in res_tau.ergodic if m.lam.is_exact]
    approx = [m for m in res_tau.ergodic if not m.lam.is_exact]
    assert len(exact) == 1 and exact[0].lam.value == 3
    assert len(approx) == 1
    assert abs(approx[0].lam.as_float - (1 + math.sqrt(2))) < 1e-9
    _passed("criterion 3: 1 vs 2 ergodic measures across the one-letter "
            "rule change, irrational eigenvalue 1+sqrt(2) certified")


def test_criterion_4_borel_invariant_pair(b1, b2, tmp_path):
    """Two diagrams with the same Borel invariant (one finite measure
    each) but different sigma-finite counts; both facts appear in the
    analyze output."""
    assert len(enumerate_ergodic(b1)) == 1
    assert len(enumerate_infinite(b1)) == 1
    assert len(enumerate_ergodic(b2)) == 1
    assert len(enumerate_infinite(b2)) == 2
    assert borel_invariant(b1) == 1
    assert borel_invariant(b2) == 1

    docs = {
        "one.txt": "n: 2\nincidence:\n2 0\n1 2\n",
        "two.txt": "n: 3\nincidence:\n2 1 0\n0 2 0\n0 1 2\n",
    }
    outputs = []
    for name, text in docs.items():
        p = tmp_path / name
        p.write_text(text)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(["analyze", str(p)]) == 0
        outputs.append(buf.getvalue())
    assert "borel invariant: 1\n" in outputs[0]
    assert "borel invariant: 1\n" in outputs[1]
    assert ("summary: 1 ergodic probability measure; 1 sigma-finite"
            " measure\n") in outputs[0]
    assert ("summary: 1 ergodic probability measure; 2 sigma-finite"
            " measures\n") in outputs[1]
    _passed("criterion 4: equal Borel invariant 1, sigma-finite counts "
            "1 vs 2, both printed by analyze")


def test_criterion_5_height_and_return_time_closed_forms(wm_a):
    """Big-integer exactness to n = 40: heights (2^n, 3^(n+1)-2^(n+1)),
    return times P_n = 3^n - 2^n, and the order-2 recurrence
    P_(n+2) = 5 P_(n+1) - 6 P_n."""
    for n in range(0, 41):
        assert heights(wm_a.base, n + 1) == (
            2 ** n, 3 ** (n + 1) - 2 ** (n + 1))
    diamond = make_diamond(wm_a, Leg((1, 1), (0,)), Leg((1, 1), (1,)))
    seq = p_sequence(wm_a, diamond, 40)
    assert seq.values == tuple(3 ** n - 2 ** n for n in range(1, 41))
    assert seq.coefficients == (5, -6)
    assert recurrence_coefficients(wm_a.base) == (5, -6)
    assert all(seq.values[n + 1] == 5 * seq.values[n] - 6 * seq.values[n - 1]
               for n in range(1, 39))
    _passed("criterion 5: exact heights and P_n = 3^n - 2^n to n = 40 "
            "with recurrence P_(n+2) = 5P_(n+1) - 6P_n")


def test_criterion_6_exhaustive_eigenvalue_searches(wm_a, wm_b, eig_chain):
    """Exact modular searches: the two weak-mixing candidates admit no
    nontrivial rational eigenvalue with denominator up to 64 on the
    standard window, while the three-block chain passes every theta with
    denominator 5^k, k <= 4, and rejects denominator 5^5."""
    win_a = default_window(wm_a.base)
    assert win_a == (2, 6) and is_decisive(wm_a.base, win_a)
    assert eigenvalue_search(wm_a, 1, 64, window=win_a) == [0]

    win_b = default_window(wm_b.base)
    assert win_b == (3, 9) and is_decisive(wm_b.base, win_b)
    assert eigenvalue_search(wm_b, 2, 64, window=win_b) == [0]

    window = (6, 12)
    assert is_decisive(eig_chain.base, window)
    fives = sorted(Fraction(p, 5 ** 4) for p in range(5 ** 4))
    assert eigenvalue_search(eig_chain, 2, 5 ** 4, window=window) == fives
    deeper = eigenvalue_check(eig_chain, 2, Fraction(1, 5 ** 5),
                              window=window)
    assert not deeper and deeper.fail_n == 6
    assert deeper.fail_diamond == make_diamond(eig_chain, Leg((2, 2), (0,)),
                                               Leg((2, 2), (1,)), 2)
    _passed("criterion 6: only theta=0 passes at q<=64 on both "
            "weak-mixing candidates; all 625 five-power thetas pass on "
            "the chain and 1/3125 fails")


def test_criterion_7_randomized_oracle_equivalence():
    """Randomized cross-validation on 20 aperiodic diagrams (N <= 4,
    entries <= 3): rank-formula return times equal brute-force successor
    counts at n <= 5, successor walks visit exactly h_v^(n) paths,
    invariance verification passes at depth 5 for every ergodic measure,
    and cone membership agrees with the exact preimage oracle on 100
    random vectors per diagram.  Towers above 3000 paths are skipped to
    bound the brute force; the performed-check counters keep the sample
    honest."""
    corpus = aperiodic_corpus()
    assert len(corpus) >= 20
    rng = random.Random(271828)

    formula_checks = tower_checks = 0
    for d in corpus:
        od = random_order(rng, d)
        for diamond in enumerate_diamonds(od)[:4]:
            source = diamond.leg_a.source
            for n in range(1, 6):
                tower = heights(d, n + diamond.length)
                if tower[diamond.leg_a.range] > 3000:
                    continue
                below = min_path(od, source, n)
                lower = PathWord(
                    below.vertices + diamond.leg_a.vertices[1:],
                    below.indices + diamond.leg_a.mults)
                upper = PathWord(
                    below.vertices + diamond.leg_b.vertices[1:],
                    below.indices + diamond.leg_b.mults)
                assert p_value(od, diamond, n) == brute_force_Q(od, lower,
                                                                upper)
                formula_checks += 1
        for v in range(d.n_vertices):
            tower = heights(d, 3)[v]
            if tower > 3000:
                continue
            cur, seen, last = min_path(od, v, 3), set(), None
            while cur is not None:
                seen.add(cur)
                last = cur
                cur = successor(od, cur)
            assert len(seen) == tower and is_maximal(od, last)
            tower_checks += 1
    assert formula_checks >= 200 and tower_checks >= 40

    invariance_checks = 0
    for d in corpus:
        primitive, _ = telescope_to_primitive(d)
        for m in enumerate_ergodic(primitive):
            report = verify_invariance(primitive, m, 5)
            assert not report.violations
            invariance_checks += 1
    assert invariance_checks >= len(corpus)

    core_checks = 0
    for d in corpus:
        primitive, _ = telescope_to_primitive(d)
        decomp = decompose(primitive)
        a = decomp.a_matrix
        n = len(a)
        for _ in range(100):
            if rng.random() < 0.3:
                y = [Fraction(rng.randint(0, 3)) for _ in range(n)]
                x = tuple(sum(a[i][j] * y[j] for j in range(n))
                          for i in range(n))
            else:
                x = tuple(Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
                          for _ in range(n))
            verdict = core_membership(decomp, x)
            if verdict.kind == "in-core":
                assert core_preimage_oracle(a, x, 1).feasible
                assert core_preimage_oracle(a, x, 2 * n).feasible
            elif verdict.kind == "not-in-core":
                assert not core_preimage_oracle(a, x, verdict.k).feasible
            else:
                assert core_preimage_oracle(a, x, 2 * n).feasible
            core_checks += 1
    assert core_checks == 100 * len(corpus)
    _passed(f"criterion 7: {formula_checks} return-time, {tower_checks} "
            f"tower, {invariance_checks} invariance and {core_checks} "
            "cone-membership cross-checks agree")


def test_criterion_8_nonmixing_certificate(wm_a):
    """The second measure is not mixing, decided exactly: along a unit
    diamond the overlap ratios tend to r_inf = 1/3, and the cylinder at
    vertex 1 on level 2 has mass 1/9 < r_inf.  A test-local float
    sequence r_n, for cylinders at both vertices and every n in [10, 30],
    sits within 5% of r_inf and approaches it."""
    diamond = make_diamond(wm_a, Leg((1, 1), (0,)), Leg((1, 1), (1,)))
    mu2 = enumerate_ergodic(wm_a.base)[1]
    assert mu2.class_id == 1 and mu2.lam.value == 3

    report = nonmixing_witness(wm_a, 1, diamond)
    assert (report.limit, report.path, report.mass) == (
        Fraction(1, 3), min_path(wm_a, 1, 2), Fraction(1, 9))
    assert report.mass == measure_of_cylinder(mu2, report.path) < report.limit

    # r_n = xi_1 A^N[i][1] / (3^(N+1) xi_i), N = n + 1 - m, for the leg 1 -> 1
    xi, a = [float(x) for x in mu2.xi], decompose(wm_a.base).a_matrix
    powers, power = [], ((1, 0), (0, 1))    # A^0 .. A^30 in integers
    for _ in range(31):
        powers.append(power)
        power = [[sum(power[r][t] * a[t][c] for t in range(2)) for c in range(2)]
                 for r in range(2)]
    for i, m in ((1, 1), (1, 2), (0, 1), (0, 2)):
        ratios = [xi[1] * powers[n + 1 - m][i][1] / (3.0 ** (n + 2 - m) * xi[i])
                  for n in range(10, 31)]
        gaps = [abs(r / float(report.limit) - 1) for r in ratios]
        assert max(gaps) <= 0.05 and gaps[-1] <= gaps[0], (i, m, ratios)
    _passed("criterion 8: r_inf = 1/3 exactly and a witness cylinder of mass 1/9 "
            "certify non-mixing; float r_n on n in [10,30] within 5% of r_inf")


def test_criterion_9_tail_measure_valuation(b1, double_morse):
    """The sigma-finite measure of the upper-triangular pair takes the
    exact value 2^(1-n) on level-n cylinders at the second vertex and
    +inf at the first; running the same valuation on a distinguished
    class reproduces the ergodic measure up to one global constant on
    ten cylinders."""
    tail = enumerate_infinite(b1)[0]
    assert tail.base == (math.inf, 1)
    for n in range(1, 41):
        value = tail.value(n, 1)
        assert isinstance(value, Fraction) and value == Fraction(2) ** (1 - n)
        assert tail.value(n, 0) == math.inf

    lam, _, base = tail_valuation(double_morse, 2)
    assert lam.value == 3
    mu = [m for m in enumerate_ergodic(double_morse) if m.class_id == 2][0]
    cylinders = [(n, v) for n in (1, 2) for v in range(5)]
    assert len(cylinders) == 10
    constants = {Fraction(base[v]) * Fraction(3) ** (1 - n) / mu.value(n, v)
                 for n, v in cylinders}
    assert constants == {Fraction(3)}
    _passed("criterion 9: tail values 2^(1-n)/+inf exact to n = 40; "
            "distinguished-class valuation = 3 x ergodic measure on 10 "
            "cylinders")


def test_criterion_10_exact_property_suite(b1, b1_ordered, double_morse,
                                           eig_chain, thue_morse):
    """Structural laws, all exact: serialization round trips, the
    substitution/diagram bridge, the telescoping composition law, the
    support law of eigenvectors, and level normalization
    sum_v h_v^(n) p_v^(n) = 1 for n <= 12."""
    corpus = aperiodic_corpus()[:10]

    for d in [b1, double_morse, eig_chain.base] + corpus:
        assert parse_diagram(serialize_diagram(d)) == d
    for od in (b1_ordered, eig_chain):
        assert parse_diagram(serialize_diagram(od)) == od

    for s in (thue_morse,):
        assert parse_substitution(serialize_substitution(s)) == s
        assert substitution_from_diagram(diagram_from_substitution(s)) == s
    bridged = diagram_from_substitution(substitution_from_diagram(eig_chain))
    assert bridged.base.incidence == eig_chain.base.incidence
    assert bridged.order == eig_chain.order
    assert (bridged.base.effective_labels
            == eig_chain.base.effective_labels)

    for d in [b1, double_morse] + corpus[:6]:
        assert telescope(telescope(d, 2), 3) == telescope(d, 6)
        assert telescope(d, 1) == d
        for m in (2, 3):
            assert (heights(telescope(d, 4), m)
                    == heights(d, (m - 1) * 4 + 1))

    normalization_checks = 0
    for d in [b1, double_morse] + corpus:
        primitive, _ = telescope_to_primitive(d)
        decomp = decompose(primitive)
        vertex_class = {v: g for g, cls in enumerate(decomp.classes)
                        for v in cls.vertices}
        for m in enumerate_ergodic(primitive):
            for v, x in enumerate(m.xi):
                reaches = (vertex_class[v] == m.class_id
                           or decomp.access[vertex_class[v]][m.class_id])
                assert (x > 0) == reaches
            exact = m.lam.is_exact
            for n in range(1, 13):
                h = heights(primitive, n)
                total = sum(hv * m.value(n, v) for v, hv in enumerate(h))
                if exact:
                    assert total == 1
                else:
                    assert abs(total - 1) <= 1e-9
                normalization_checks += 1
    assert normalization_checks >= 12 * 12
    _passed("criterion 10: round trips, telescoping law, eigenvector "
            "support law and level normalization all exact "
            f"({normalization_checks} normalization checks)")
