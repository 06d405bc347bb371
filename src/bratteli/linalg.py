"""Exact linear algebra over ``int``/``Fraction``.

Matrices are lists (or tuples) of row sequences, in plain Python.
Integer input stays in ``int`` wherever the result is integral (matrix
products, ``char_poly``), so the cost grows polynomially with the size
and the digit length of the entries; ``Fraction`` appears only where
elimination divides.  The elimination routines also accept ``float``
entries where an approximate path is explicitly wanted.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_pow(a, k):
    """a**k by binary powering; k >= 0."""
    n = len(a)
    result = identity(n)
    base = [list(row) for row in a]
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


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


def poly_eval(coeffs, x):
    """Evaluate sum coeffs[i] * x^(deg-i) by Horner."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


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
        acc = m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))
        x[i] = acc / m[i][i]
    return x


def lp_nonneg_solve(m, b):
    """Exact feasibility of ``m y = b, y >= 0`` over the rationals.

    Returns ``(y, None)`` with a feasible point, or ``(None, z)`` with a
    Farkas certificate: z^T m <= 0 componentwise and z^T b > 0.  Both
    outcomes are verified exactly before returning.  Phase-1 simplex
    with Bland's rule, so termination is guaranteed.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    signs = [1 if bb >= 0 else -1 for bb in b]
    t = [[Fraction(s * x) for x in row] + [Fraction(1 if i == j else 0) for j in range(nrows)]
         + [Fraction(s * bb)]
         for i, (row, bb, s) in enumerate(zip(m, b, signs))]
    basis = [ncols + i for i in range(nrows)]
    rhs = ncols + nrows

    def reduced_costs():
        # cost 1 on artificial columns, 0 on y columns
        out = []
        for j in range(ncols + nrows):
            zj = sum(t[i][j] for i in range(nrows) if basis[i] >= ncols)
            cj = 0 if j < ncols else 1
            out.append(cj - zj)
        return out

    while True:
        red = reduced_costs()
        entering = next((j for j, rc in enumerate(red) if rc < 0), None)
        if entering is None:
            break
        # Bland: smallest ratio, ties by smallest basis variable index
        leaving = None
        best = None
        for i in range(nrows):
            if t[i][entering] > 0:
                ratio = t[i][rhs] / t[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise ArithmeticError("phase-1 problem unbounded; inconsistent tableau")
        piv = t[leaving][entering]
        t[leaving] = [x / piv for x in t[leaving]]
        for i in range(nrows):
            if i != leaving and t[i][entering] != 0:
                factor = t[i][entering]
                t[i] = [x - factor * y for x, y in zip(t[i], t[leaving])]
        basis[leaving] = entering

    objective = sum(t[i][rhs] for i in range(nrows) if basis[i] >= ncols)
    if objective == 0:
        y = [Fraction(0)] * ncols
        for i in range(nrows):
            if basis[i] < ncols:
                y[basis[i]] = t[i][rhs]
        assert all(v >= 0 for v in y)
        assert all(sum(r * v for r, v in zip(row, y)) == bb for row, bb in zip(m, b))
        return y, None
    # multipliers z_i = 1 - reduced cost of artificial column i, mapped
    # back through the row sign normalization
    red = reduced_costs()
    z = [signs[i] * (1 - red[ncols + i]) for i in range(nrows)]
    zt_m = [sum(z[i] * m[i][j] for i in range(nrows)) for j in range(ncols)]
    zt_b = sum(z[i] * b[i] for i in range(nrows))
    assert all(v <= 0 for v in zt_m) and zt_b > 0
    return None, z
