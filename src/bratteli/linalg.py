"""Exact linear algebra over ``int``/``Fraction``.

Matrices are lists (or tuples) of row sequences, in plain Python.
Integer input stays in ``int`` wherever the result is integral (matrix
products, ``char_poly``), so the cost grows polynomially with the size
and the digit length of the entries; ``Fraction`` appears only where
elimination divides.  The simplex of ``lp_nonneg_solve`` pivots in
``int`` (fraction-free) and builds a ``Fraction`` only for its result.
The elimination routines also accept ``float`` entries where an
approximate path is explicitly wanted.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# dot products by sum(map(operator.mul, ...)), not math.sumprod, which rounds floats otherwise
def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(operator.mul, row, v)) for row in a]


def _clipped_mul(a, b, limit):
    """min(a b, limit) entrywise for non-negative integer matrices; a term
    whose bit lengths alone put it past the limit is not multiplied out."""
    bits = limit.bit_length() + 1
    bt = list(zip(*b))
    return [[limit if any(x and y and x.bit_length() + y.bit_length() > bits
                          for x, y in zip(row, col))
             else min(sum(map(operator.mul, row, col)), limit) for col in bt]
            for row in a]


def mat_pow(a, k, limit=None):
    """a**k by binary powering; k >= 0.  With a positive integer limit,
    every product is clipped to min(x, limit) entrywise, which gives
    min(a**k, limit) exactly for a non-negative integer matrix."""
    if k < 0:
        raise ValueError(f"matrix power needs k >= 0, got {k}")
    mul = mat_mul if limit is None else functools.partial(_clipped_mul, limit=limit)
    result = identity(len(a))
    base = [list(row) for row in a]
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def left_sum(values):
    """Sum from 0, strictly left to right, of any iterable, so over
    ``map(operator.mul, row, v)`` a dot product in order.  From Python 3.12
    on, ``sum`` of floats compensates its rounding and ``math.sumprod`` uses
    extended precision; either changes the digits that the CLI prints."""
    return functools.reduce(operator.add, values, 0)


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def char_poly(a):
    """Coefficients ``[1, c1, ..., cN]`` of det(zI - A) = z^N + c1 z^(N-1) + ... + cN.

    Faddeev-LeVerrier in integers: M_1 = A, c_k = -tr(M_k) / k and
    M_(k+1) = A (M_k + c_k I).  For an integer matrix every c_k is a
    coefficient of a monic integer polynomial, so each M_k is an integer
    matrix and k divides tr(M_k) exactly; a non-zero remainder (possible
    only for non-integer input) raises ArithmeticError.
    """
    n = len(a)
    coeffs = [1]
    m = identity(n)
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                m[i][i] += coeffs[-1]
        m = mat_mul(a, m)
        c, rem = divmod(-trace(m), k)
        if rem:
            raise ArithmeticError("characteristic polynomial not integral")
        coeffs.append(c)
    return coeffs


def positive_divisors(n):
    n = abs(n)
    if n == 0:
        return []
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rref(rows):
    """Reduced row echelon form over Fraction; returns (matrix, pivot_cols)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def kernel_basis(a):
    """Basis of the rational null space of ``a`` (list of Fraction vectors)."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve_exact(a, b):
    """One exact solution of ``a x = b`` with free variables at 0, or None."""
    if not a:
        return []
    aug = [list(row) + [bb] for row, bb in zip(a, b)]
    red, pivots = rref(aug)
    ncols = len(a[0])
    if ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return x


def solve_square(a, b):
    """Solve a nonsingular square system by Gaussian elimination.

    Generic over the scalar type: Fractions stay exact, floats get
    partial pivoting.
    """
    n = len(a)
    m = [list(row) + [bb] for row, bb in zip(a, b)]
    for c in range(n):
        pivot = max(range(c, n), key=lambda i: abs(m[i][c]))
        if m[pivot][c] == 0:
            raise ZeroDivisionError("singular matrix")
        m[c], m[pivot] = m[pivot], m[c]
        piv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] / piv
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = m[i][n] - left_sum(m[i][j] * x[j] for j in range(i + 1, n))
        x[i] = acc / m[i][i]
    return x


def scaled_inverse(a):
    """(M, L) with M = L a^-1 an integer matrix and L > 0 the least
    integer that makes it one, for a square integer matrix a; (W, 0) when
    a is singular, with integer rows w, w a = 0, spanning its left kernel.

    One fraction-free Gauss-Jordan elimination (Bareiss 1968) on [a | I],
    each step divided exactly by the previous pivot.  With N pivots the
    left half is d I (d the last pivot) beside d a^-1, and M, L are d a^-1
    and d over their signed gcd; else the rows without a pivot are 0 | w."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev, rank = 1, 0
    for c in range(n):
        p = next((i for i in range(rank, n) if m[i][c]), None)
        if p is not None:
            m[rank], m[p] = m[p], m[rank]
            prow = m[rank]
            m = [row if i == rank else
                 [(x * prow[c] - row[c] * y) // prev for x, y in zip(row, prow)]
                 for i, row in enumerate(m)]
            prev, rank = prow[c], rank + 1
    if rank < n:
        return [row[n:] for row in m[rank:]], 0
    g = math.gcd(prev, *(x for row in m for x in row[n:])) * (1 if prev > 0 else -1)
    return [[x // g for x in row[n:]] for row in m], prev // g


def lp_nonneg_solve(m, b):
    """Exact feasibility of ``m y = b, y >= 0`` over the rationals.

    Returns ``(y, None)`` with a feasible point, or ``(None, z)`` with a
    Farkas certificate: z^T m <= 0 componentwise and z^T b > 0.  Both
    outcomes are verified exactly before returning.  Phase-1 simplex
    with Bland's rule, so termination is guaranteed.  Entries are
    ``int`` or ``Fraction``.

    The simplex pivots in ``int`` (Edmonds 1967, Bareiss 1968).  Row i
    of the starting tableau T0 is s_i L (m_i | b_i) beside the unit
    artificial column e_i, with s_i the sign of b_i and L the lcm of all
    denominators.  Invariant: for the basis columns B of T0, the working
    tableau T is adj(B) T0 and D = det(B).  D starts at 1 and becomes
    each pivot, which the ratio test takes positive, so D > 0, T / D is
    the usual tableau B^-1 T0, and each non-pivot row becomes
    ``(x*piv - f*y) // D``, a division that is exact by Sylvester's
    identity.  The reduced costs are one more such row, with cost D on
    the artificial columns.

    The pivots are those of Bland's rule on the Fraction tableau
    (s_i m_i | e_i | s_i b_i): T0 is that tableau with its y columns and
    right-hand side multiplied by L > 0, and positive column scalings
    change neither the sign of a reduced cost nor the order of the
    ratios in a ratio test.  So both pass through the same bases, and
    y_j = T[i][rhs] / D (the two factors L cancel) and
    z_i = s_i (D - R_i) / D, with R_i the cost-row entry of artificial
    column i, are the Fraction tableau's results.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    try:
        lcm = math.lcm(*(x.denominator for row in m for x in row),
                       *(x.denominator for x in b))
    except AttributeError:
        raise TypeError("lp_nonneg_solve takes int or Fraction entries") from None
    signs = [1 if bb >= 0 else -1 for bb in b]
    t = [[s * (lcm // x.denominator) * x.numerator for x in row]
         + [1 if i == j else 0 for j in range(nrows)]
         + [s * (lcm // bb.denominator) * bb.numerator]
         for i, (row, bb, s) in enumerate(zip(m, b, signs))]
    start = list(t)
    width = ncols + nrows
    rhs = width
    # cost D = 1 on the artificial columns, which start in the basis
    cost = ([-sum(row[j] for row in t) for j in range(ncols)] + [0] * nrows
            + [-sum(row[rhs] for row in t)])
    basis = [ncols + i for i in range(nrows)]
    d = 1

    while True:
        entering = next((j for j in range(width) if cost[j] < 0), None)
        if entering is None:
            break
        # Bland: smallest ratio, ties by smallest basis variable index
        leaving = None
        for i, row in enumerate(t):
            f = row[entering]
            if f <= 0:
                continue
            if leaving is None:
                leaving = i
                continue
            # row[rhs] / f against the best ratio so far, cross-multiplied
            here, best = row[rhs] * t[leaving][entering], t[leaving][rhs] * f
            if here < best or (here == best and basis[i] < basis[leaving]):
                leaving = i
        if leaving is None:
            raise ArithmeticError("phase-1 problem unbounded; inconsistent tableau")
        prow = t[leaving]
        piv = prow[entering]
        for i, row in enumerate(t):
            if i != leaving:
                f = row[entering]
                t[i] = [(x * piv - f * y) // d for x, y in zip(row, prow)]
        f = cost[entering]
        cost = [(x * piv - f * y) // d for x, y in zip(cost, prow)]
        d = piv
        basis[leaving] = entering

    # The end checks run on start, row i of which is s_i L (m_i | b_i):
    # m y = b and z^T m <= 0 < z^T b, multiplied through by d and L > 0.
    if cost[rhs] == 0:  # -d times the sum of the basic artificials
        num = [0] * ncols
        for i, j in enumerate(basis):
            if j < ncols:
                num[j] = t[i][rhs]
        assert all(v >= 0 for v in num)
        assert all(sum(r * v for r, v in zip(row, num)) == row[rhs] * d for row in start)
        return [Fraction(v, d) for v in num], None
    w = [d - cost[j] for j in range(ncols, width)]  # z_i = s_i w_i / d
    assert all(sum(wi * row[j] for wi, row in zip(w, start)) <= 0 for j in range(ncols))
    assert sum(wi * row[rhs] for wi, row in zip(w, start)) > 0
    return None, [s * Fraction(wi, d) for s, wi in zip(signs, w)]
