"""Exact linear algebra kernel: the foundation everything else trusts."""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli import linalg

from conftest import horner, scaled_inverse_by_solves


def test_mat_pow_matches_repeated_multiplication():
    m = [[2, 1], [1, 3]]
    expected = m
    for k in range(2, 8):
        expected = linalg.mat_mul(expected, m)
        assert linalg.mat_pow(m, k) == expected


def test_mat_pow_identity():
    assert linalg.mat_pow([[5, 1], [0, 2]], 0) == [[1, 0], [0, 1]]


def test_mat_pow_refuses_negative_powers():
    with pytest.raises(ValueError):
        linalg.mat_pow([[1]], -1)


def _generator_mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _generator_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _generator_clipped_mul(a, b, limit):
    bits = limit.bit_length() + 1
    bt = list(zip(*b))
    return [[limit if any(x and y and x.bit_length() + y.bit_length() > bits
                          for x, y in zip(row, col))
             else min(sum(x * y for x, y in zip(row, col)), limit) for col in bt]
            for row in a]


def _bits(values):
    """Each entry's type and exact value; a float by ``float.hex``."""
    return [_bits(x) if isinstance(x, list) else (type(x), x.hex() if type(x) is float else x)
            for x in values]


def test_products_give_the_generator_form_bit_for_bit():
    """The same products summed in the same order by the same ``sum``: int,
    Fraction and float entries, float products of magnitude 1e-300 to
    1e300 that cancel, where the order of a sum shows in its bits."""
    rng = random.Random(3100)
    draws = {
        int: lambda: rng.randint(-10 ** 30, 10 ** 30) // 10 ** rng.randint(0, 30),
        Fraction: lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
        float: lambda: (rng.choice((-1, 1)) * (1 + rng.random())
                        * 10.0 ** rng.choice((-150, 0, 0, 0, 150))),
    }
    reordered = 0
    for kind, draw in draws.items():
        for _ in range(40):
            n, k, m = rng.randint(1, 7), rng.randint(3, 7), rng.randint(1, 7)
            a = [[draw() for _ in range(k)] for _ in range(n)]
            b = [[draw() for _ in range(m)] for _ in range(k)]
            v = [draw() for _ in range(k)]
            assert _bits(linalg.mat_mul(a, b)) == _bits(_generator_mat_mul(a, b)), kind
            assert _bits(linalg.mat_vec(a, v)) == _bits(_generator_mat_vec(a, v)), kind
            mixed = [float(x) for x in v] if kind is int else v  # int rows, float vector
            assert _bits(linalg.mat_vec(a, mixed)) == _bits(_generator_mat_vec(a, mixed))
            if kind is float:
                reordered += any(linalg.left_sum(map(mul, row[::-1], v[::-1])).hex() != s.hex()
                                 for row, s in zip(a, linalg.mat_vec(a, v)))
    # a sum in another order, or uncompensated from 3.12 on, fails in 12 of
    # the 40 float draws (6 from 3.12 on)
    assert reordered >= 5
    for _ in range(200):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        top = 2 ** rng.randint(1, 80)
        a = [[rng.choice((0, rng.randint(0, 9), rng.randint(0, top))) for _ in range(k)]
             for _ in range(n)]
        b = [[rng.choice((0, rng.randint(0, 9), rng.randint(0, top))) for _ in range(m)]
             for _ in range(k)]
        limit = rng.randint(1, 2 ** rng.randint(1, 60))
        want = _generator_clipped_mul(a, b, limit)
        assert _bits(linalg._clipped_mul(a, b, limit)) == _bits(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
           lambda n: st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                              min_size=n, max_size=n)),
       st.integers(0, 12), st.integers(1, 10 ** 4))
def test_clipped_mat_pow_is_the_clipped_power(a, k, limit):
    clipped = [[min(x, limit) for x in row] for row in linalg.mat_pow(a, k)]
    assert linalg.mat_pow(a, k, limit) == clipped


def test_char_poly_companion_matrix():
    # companion of z^3 - 4z^2 + z - 7
    m = [[4, -1, 7], [1, 0, 0], [0, 1, 0]]
    assert linalg.char_poly(m) == [1, -4, 1, -7]


def test_char_poly_roots_annihilate():
    m = [[2, 0], [2, 3]]
    coeffs = linalg.char_poly(m)
    assert horner(coeffs, 2) == 0
    assert horner(coeffs, 3) == 0
    assert horner(coeffs, 5) != 0


def test_kernel_basis_rank_one():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    basis = linalg.kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + 2 * v[1] == 0


def test_solve_exact_consistent_and_inconsistent():
    a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert linalg.solve_exact(a, [Fraction(3), Fraction(6)]) is not None
    assert linalg.solve_exact(a, [Fraction(3), Fraction(7)]) is None


def test_solve_square_fraction_and_float():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = linalg.solve_square(a, [Fraction(5), Fraction(10)])
    assert [sum(r * v for r, v in zip(row, x)) for row in a] == [5, 10]
    xf = linalg.solve_square([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
    assert abs(xf[0] - 1.0) < 1e-12 and abs(xf[1] - 3.0) < 1e-12


def test_positive_divisors():
    assert linalg.positive_divisors(12) == [1, 2, 3, 4, 6, 12]
    assert linalg.positive_divisors(-12) == [1, 2, 3, 4, 6, 12]


def test_lp_nonneg_solve_feasible_returns_witness():
    a = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(1)]]
    y, cert = linalg.lp_nonneg_solve(a, [Fraction(5), Fraction(1)])
    assert cert is None
    assert all(v >= 0 for v in y)
    assert [sum(r * v for r, v in zip(row, y)) for row in a] == [5, 1]


def test_lp_nonneg_solve_infeasible_returns_farkas_certificate():
    # y >= 0 cannot satisfy y1 + y2 = -1
    a = [[Fraction(1), Fraction(1)]]
    y, cert = linalg.lp_nonneg_solve(a, [Fraction(-1)])
    assert y is None
    # z with z^T A <= 0 and z^T b > 0 refutes feasibility
    assert cert is not None
    lhs = [sum(cert[i] * a[i][j] for i in range(1)) for j in range(2)]
    assert all(v <= 0 for v in lhs)
    assert cert[0] * Fraction(-1) > 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.integers(0, 9), min_size=3, max_size=3))
def test_lp_nonneg_solve_never_lies(rows, target):
    a = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in target]
    y, cert = linalg.lp_nonneg_solve(a, b)
    if y is not None:
        assert all(v >= 0 for v in y)
        assert [sum(r * v for r, v in zip(row, y)) for row in a] == b
    else:
        lhs = [sum(cert[i] * a[i][j] for i in range(3)) for j in range(3)]
        assert all(v <= 0 for v in lhs)
        assert sum(c * t for c, t in zip(cert, b)) > 0


def _lp_fraction_tableau(m, b):
    """Phase-1 simplex with Bland's rule on a Fraction tableau, independent
    of linalg: the reference that lp_nonneg_solve's integer pivoting must
    reproduce pivot for pivot, so its (y, z) must be the same values."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    signs = [1 if bb >= 0 else -1 for bb in b]
    t = [[Fraction(s * x) for x in row] + [Fraction(1 if i == j else 0) for j in range(nrows)]
         + [Fraction(s * bb)]
         for i, (row, bb, s) in enumerate(zip(m, b, signs))]
    basis = [ncols + i for i in range(nrows)]
    rhs = ncols + nrows

    def reduced_costs():
        return [(0 if j < ncols else 1)
                - sum(t[i][j] for i in range(nrows) if basis[i] >= ncols)
                for j in range(ncols + nrows)]

    while True:
        entering = next((j for j, rc in enumerate(reduced_costs()) if rc < 0), None)
        if entering is None:
            break
        leaving = best = None
        for i in range(nrows):
            if t[i][entering] > 0:
                ratio = t[i][rhs] / t[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        piv = t[leaving][entering]
        t[leaving] = [x / piv for x in t[leaving]]
        for i in range(nrows):
            if i != leaving and t[i][entering] != 0:
                factor = t[i][entering]
                t[i] = [x - factor * y for x, y in zip(t[i], t[leaving])]
        basis[leaving] = entering

    if sum(t[i][rhs] for i in range(nrows) if basis[i] >= ncols) == 0:
        y = [Fraction(0)] * ncols
        for i in range(nrows):
            if basis[i] < ncols:
                y[basis[i]] = t[i][rhs]
        return y, None
    red = reduced_costs()
    return None, [signs[i] * (1 - red[ncols + i]) for i in range(nrows)]


_RATIONAL = st.one_of(st.integers(-4, 4),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def _lp_problems(draw):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.one_of(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
                    st.lists(_RATIONAL, min_size=ncols, max_size=ncols),
                    st.just([0] * ncols))
    m = draw(st.lists(row, min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.one_of(st.just(0), _RATIONAL), min_size=nrows, max_size=nrows))
    return m, b


@settings(max_examples=300, deadline=None)
@given(_lp_problems())
def test_lp_nonneg_solve_pivots_like_the_fraction_tableau(problem):
    m, b = problem
    y, z = linalg.lp_nonneg_solve(m, b)
    assert (y, z) == _lp_fraction_tableau(m, b)
    assert all(type(v) is Fraction for v in (y if z is None else z))


def _det(rows):
    """Determinant by Fraction Gaussian elimination, independent of linalg."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _char_poly_by_interpolation(rows):
    """det(zI - A) at z = 0..N, Lagrange-interpolated; highest degree first."""
    n = len(rows)
    points = range(n + 1)
    coeffs = [Fraction(0)] * (n + 1)
    for zi in points:
        value = _det([[(zi if i == j else 0) - x for j, x in enumerate(row)]
                      for i, row in enumerate(rows)])
        basis, denom = [Fraction(1)], Fraction(1)
        for zj in points:
            if zj != zi:  # basis *= (z - zj)
                basis = [x - zj * y for x, y in zip(basis + [0], [0] + basis)]
                denom *= zi - zj
        coeffs = [c + value * b / denom for c, b in zip(coeffs, basis)]
    return coeffs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_char_poly_trace_and_determinant(rows):
    n = len(rows)
    coeffs = linalg.char_poly(rows)
    assert all(type(c) is int for c in coeffs)
    assert coeffs == _char_poly_by_interpolation(rows)
    assert coeffs[1] == -sum(rows[i][i] for i in range(n))
    assert coeffs[-1] == (-1) ** n * _det(rows)


def _rank(rows):
    """Rank by Fraction Gaussian elimination, independent of linalg."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        p = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_scaled_inverse_matches_the_fraction_solves():
    """Seeded invertible A, three with N <= 12 and one with N = 24 for
    each sign of det A; every other one is doubled, so that L < |det A|
    and the gcd reduction matters."""
    rng = random.Random(1968)
    wanted = {(n_class, sign): count for n_class, count in (("small", 3), ("24", 1))
              for sign in (1, -1)}
    seen = dict.fromkeys(wanted, 0)
    reduced = 0
    while seen != wanted:
        n_class = "small" if seen[("small", 1)] + seen[("small", -1)] < 6 else "24"
        n = rng.randint(1, 12) if n_class == "small" else 24
        a = [[rng.choice((0, 0, 1, 2, 3, -1)) for _ in range(n)] for _ in range(n)]
        if sum(seen.values()) % 2:
            a = [[2 * x for x in row] for row in a]
        det = _det(a)
        key = (n_class, 1 if det > 0 else -1)
        if det == 0 or seen[key] == wanted[key]:
            continue
        seen[key] += 1
        m, scale = linalg.scaled_inverse(a)
        assert (m, scale) == scaled_inverse_by_solves(a)
        assert all(type(x) is int for row in m for x in row) and type(scale) is int
        reduced += scale < abs(det)
    assert reduced >= 3
    assert linalg.scaled_inverse([[2, 0], [0, 2]]) == ([[1, 0], [0, 1]], 2)
    assert linalg.scaled_inverse([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
    assert linalg.scaled_inverse([[-3]]) == ([[-1]], 3)


def test_scaled_inverse_spans_the_left_kernel_of_a_singular_matrix():
    rng = random.Random(2026)
    ranks = set()
    for _ in range(40):
        n = rng.randint(1, 8)
        r = rng.randint(0, n - 1)
        # rank at most r: n x r times r x n, with rows and columns mixed in
        b = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
        c = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        a = linalg.mat_mul(b, c) if r else [[0] * n for _ in range(n)]
        w, scale = linalg.scaled_inverse(a)
        rank = _rank(a)
        ranks.add((n, rank))
        assert scale == 0
        assert len(w) == n - rank
        assert _rank(w) == n - rank
        assert all(linalg.mat_vec(list(zip(*a)), row) == [0] * n for row in w)
    assert len(ranks) > 10
