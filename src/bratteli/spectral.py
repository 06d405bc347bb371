"""Class structure and Perron data of the vertex-transition matrix.

All measure-theoretic questions about a stationary diagram reduce to the
matrix A = F^T: its strongly connected classes, the access order between
them, the spectral radius of each diagonal block, and the distinguished
classes (those whose Perron value strictly dominates every class having
access to them).  Distinguished classes carry the extreme rays of the
cone ``core(A) = intersection of A^k(R+^N)`` once every non-zero block
is primitive.

One reachability closure of the vertices gives the classes and the
access order; ordering the classes so that every accessor comes first
gives the Frobenius normal form (F permuted to block-lower-triangular).
Every extension of a class's Perron vector (the extreme vectors here,
the sigma-finite valuations in ``measures``) is one linear solve per
class, down the reversed triangular order, so each class is solved
after every class it has access to.

The extreme vector of a distinguished class b is positive exactly on the
vertices whose class has access to b (the support law of the Frobenius
normal form), so at one vertex per distinguished class the extreme
vectors form a triangular matrix with a positive diagonal.  A rational
vector of the cone puts no weight on an irrational Perron value, so
membership is one integer test on the exact vectors, for every cone.
A vector outside that cone is placed by the first k at which A^k y = x
has no solution y >= 0.  When A is invertible that is y = A^-k x, so
each level is one sign test on an integer vector, stepped by M = L A^-1
from one fraction-free elimination with A M = L I checked once; a
singular A tests x against the left kernel it leaves, then takes the
exact simplex at every level.  No verdict reads a float.  What does not
depend on x is kept on the decomposition, as is the aperiodicity verdict;
the class structure and imprimitivity indices, once per diagram.

A diagram carries its decomposition: ``decompose(d)`` returns the one kept
on d, held weakly because it refers back to d.  The functions here that
read class data (``core_membership``, ``aperiodicity_check``,
``check_primitive``, ``distinguished_classes`` and
``distinguished_eigenvector``) take that decomposition; no public
function of another module takes one.

Numeric policy: a block's Perron value rho is reported exactly whenever
it is rational, and as a float with a certified residual bound
otherwise.  A rational rho is an integer (a root of the monic integer
characteristic polynomial), so an exact Collatz-Wielandt bracket
lo <= rho <= hi decides which: the row sums when they are all equal,
else the quotients (As)_i/s_i of an integer-scaled power-iteration
vector s.  A binary search over its integers r runs one fraction-free
elimination of rI - A per step, whose pivots give the sign of r - rho
and, at r = rho, the Perron vector.  No integer at sign 0 means rho is
irrational.  The characteristic polynomial itself is never computed
here.  Everything read off a Perron value is computed once, in its
scalar type: ``Fraction`` when it is exact, ``float`` otherwise.
Comparing two values involves a float only when one of them is
approximate; such a comparison has the fixed gap ``DEFAULT_GAP`` = 1e-9
and raises ``AmbiguousComparison`` rather than guess inside it.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property
from fractions import Fraction
from operator import mul, truediv

from . import linalg
from .diagram import StationaryDiagram, telescope, validate
from .errors import (AmbiguousComparison, CapExceeded, NotDistinguishedError, NotInDomainError,
                     PrimitivityError, SizeRefused, ZeroBlockError)
from .record import record

DEFAULT_GAP = 1e-9
_POWER_STEPS = 200000
LEVEL_CAP = 10 ** 4  # core_membership's k_max (a singular A keeps A^k at each level)


def _decimal(n: int) -> str:
    """str(n) at any size.  Python refuses to convert an int of more than
    4300 digits (by default), so a long one is split at a power of ten
    and each part converted on its own."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 1900:  # under 640 digits, the least limit Python accepts
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) is about 0.3
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).rjust(k, "0")


def render_scalar(x) -> str:
    """Exact rationals as p/q at any size, floats as 17-significant-digit
    decimals, infinity as 'inf' or '-inf'."""
    if isinstance(x, float):
        return f"{x:.17g}"
    x = Fraction(x)
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


@record
class NumericValue:
    """Either an exact rational or a float with a certified residual bound
    on the eigen-equation it came from."""

    value: Fraction | float
    residual_bound: float | None = None

    @property
    def is_exact(self):
        return self.residual_bound is None

    @property
    def as_float(self):
        return float(self.value)

    @staticmethod
    def exact(x):
        return NumericValue(Fraction(x), None)

    @staticmethod
    def approx(x, residual_bound):
        return NumericValue(float(x), float(residual_bound))

    def render(self):
        text = render_scalar(self.value)
        return text if self.is_exact else f"{text}±{self.residual_bound:.1e}"

    def __str__(self):
        return self.render()


def nv_compare(a: NumericValue, b: NumericValue) -> int:
    """-1, 0 or +1; raises AmbiguousComparison when an approximate value
    is within ``DEFAULT_GAP`` of the other operand."""
    if a.is_exact and b.is_exact:
        return (a.value > b.value) - (a.value < b.value)
    fa, fb = a.as_float, b.as_float
    if abs(fa - fb) < DEFAULT_GAP:
        raise AmbiguousComparison(
            f"values {a.render()} and {b.render()} are within the gap {DEFAULT_GAP}")
    return 1 if fa > fb else -1


def _power_perron(block):
    """Perron value and vector of an irreducible non-negative block by
    power iteration on block + I (the shift makes it primitive), with
    two-sided quotient bounds.  Returns (lam, vector, residual).  Rows are
    ``left_sum(map(mul, row, v))``: C-level loops, left to right, same bits."""
    n = len(block)
    shifted = [[float(x) + (1.0 if i == j else 0.0) for j, x in enumerate(row)]
               for i, row in enumerate(block)]
    v = [1.0 / n] * n
    lo, hi = 0.0, math.inf
    for _ in range(_POWER_STEPS):
        w = [linalg.left_sum(map(mul, row, v)) for row in shifted]
        quotients = list(map(truediv, w, v))
        lo, hi = min(quotients), max(quotients)
        s = linalg.left_sum(w)
        v = [wi / s for wi in w]
        if hi - lo <= 1e-14 * hi:
            break
    lam = 0.5 * (lo + hi) - 1.0
    av = [linalg.left_sum(map(mul, row, v)) for row in block]
    residual = max(abs(avi - lam * vi) for avi, vi in zip(av, v))
    return lam, v, residual


def _is_zero(block):
    return all(x == 0 for row in block for x in row)


def _perron_bracket(block):
    """(lo, hi, power) with lo <= rho <= hi exactly, by Collatz-Wielandt:
    for every positive vector s, min (As)_i/s_i <= rho <= max (As)_i/s_i.
    s = 1 first, so the bracket is the least and greatest row sum; when
    those differ, s is the power-iteration vector scaled to positive
    integers and ``power`` is that iteration's (lam, vector, residual),
    otherwise None."""
    row_sums = [sum(row) for row in block]
    if min(row_sums) == max(row_sums):
        return row_sums[0], row_sums[0], None
    power = _power_perron(block)
    s = [max(1, math.floor(x * 2 ** 60)) for x in power[1]]
    quotients = [Fraction(linalg.left_sum(map(mul, row, s)), si) for row, si in zip(block, s)]
    return min(quotients), max(quotients), power


def _perron_sign(block, r):
    """(sign of r - rho, Perron vector or None) for an integer r, from one
    fraction-free elimination (Bareiss) in ``int``, without pivoting, of
    Q = rI - block; its k-th pivot is the k-th leading principal minor.
    r > rho exactly when Q is a non-singular M-matrix: every pivot > 0.
    Leading blocks of order k < N have Perron values below rho, so a pivot
    <= 0 before the last means r < rho; after N - 1 positive pivots the
    last has the sign of a Schur complement that increases strictly with
    r and is 0 at rho alone.  The first N - 1 columns are then independent,
    so back-substitution from a last entry ``Fraction(1)`` gives the kernel
    vector with that entry, which is the positive Perron vector."""
    m = [[(r if i == j else 0) - x for j, x in enumerate(row)]
         for i, row in enumerate(block)]
    n, prev = len(m), 1
    for k, pivot_row in enumerate(m):
        pivot = pivot_row[k]
        if pivot < 0 or pivot == 0 and k < n - 1:
            return -1, None
        for row in m[k + 1:]:
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - row[k] * pivot_row[j]) // prev
        prev = pivot
    if prev > 0:
        return 1, None
    vec = [Fraction(1)]
    for k in range(n - 2, -1, -1):
        vec.insert(0, -sum(a * x for a, x in zip(m[k][k + 1:], vec)) / m[k][k])
    return 0, tuple(vec)


def perron_pair(block):
    """(NumericValue, eigenvector) for an irreducible non-negative integer
    block; exact rationals when the Perron value is rational, floats with
    a certified residual otherwise.  A zero block reports exactly 0.

    Equal row sums s give s and the all-ones vector.  Otherwise a rational
    Perron value is an integer (a root of a monic polynomial in Z[z]) in the
    exact bracket of ``_perron_bracket``, binary-searched until ``_perron_sign``
    finds rho with its vector (a reducible block has no positive one:
    NotInDomainError); one integer in the bracket (the usual case) costs one
    elimination.  No integer is rho when rho is irrational: then the power
    iteration's value, vector and residual are reported, or CapExceeded."""
    lo, hi, power = _perron_bracket(block)
    if power is None:
        return NumericValue.exact(lo), (Fraction(1),) * len(block)
    lo, hi = math.ceil(lo), math.floor(hi)
    while lo <= hi:
        mid = (lo + hi) // 2
        sign, vec = _perron_sign(block, mid)
        if sign == 0:
            if min(vec) <= 0:
                raise NotInDomainError(f"reducible block: no positive kernel vector at {mid}")
            return NumericValue.exact(mid), vec
        lo, hi = (lo, mid - 1) if sign > 0 else (mid + 1, hi)
    lam, vec, residual = power
    if residual > 1e-12 * max(map(sum, block)):
        raise CapExceeded(f"power iteration stopped at its cap of {_POWER_STEPS} steps "
                          f"with residual {residual:.3g} above target", cap=_POWER_STEPS)
    return NumericValue.approx(lam, residual), tuple(vec)


def spectral_radius(block) -> NumericValue:
    return perron_pair(block)[0]


def imprimitivity_index(block) -> int:
    """gcd of the cycle lengths of an irreducible non-zero block."""
    n = len(block)
    if _is_zero(block):
        raise ZeroBlockError("zero block has no cycles")
    level = [None] * n
    level[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in range(n):
            if block[u][v] > 0 and level[v] is None:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in range(n):
        for v in range(n):
            if block[u][v] > 0:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g)


@record
class ComponentClass:
    index: int
    vertices: tuple[int, ...]
    block: tuple[tuple[int, ...], ...]
    is_zero: bool
    rho: NumericValue
    imprimitivity: int | None
    distinguished: bool
    perron: tuple | None


@record
class ComponentDecomposition:
    diagram: StationaryDiagram
    a_matrix: tuple[tuple[int, ...], ...]
    classes: tuple[ComponentClass, ...]
    class_of: tuple[int, ...]
    access: tuple[tuple[bool, ...], ...]
    initial_classes: tuple[int, ...]
    final_classes: tuple[int, ...]
    fnf_permutation: tuple[int, ...]

    def accessors_of(self, alpha):
        """Classes beta != alpha having access to alpha."""
        return tuple(b for b in range(len(self.classes))
                     if b != alpha and self.access[b][alpha])

    def class_members(self, alpha):
        labels = self.diagram.effective_labels
        return tuple(labels[v] for v in self.classes[alpha].vertices)

    # The cached properties below are kept in the instance dict, outside
    # the record's fields, so ==, hash and repr do not see them.

    @cached_property
    def _cone(self):
        """The Eigendata of each distinguished class in class order: the
        extreme vectors of the core.  PrimitivityError unless every
        non-zero block is primitive."""
        check_primitive(self)
        return tuple(distinguished_eigenvector(self, alpha) for alpha in distinguished_classes(self))

    @cached_property
    def _exact_cone(self):
        """The extreme vectors with a rational Perron value, in integers:
        (Y, M, L, S, rows).  rows holds the first vertex of each such class,
        S > 0 the lcm of their denominators, Y[v] = (S xi_e(v))_e over
        ``_cone`` with 0 at each irrational e, and (M, L) the
        ``linalg.scaled_inverse`` of Y[rows] at the exact e, with a 0 row
        put in at each irrational e."""
        cone = self._cone
        s = math.lcm(*(x.denominator for e in cone if e.is_exact for x in e.xi))
        ys = [[int(e.xi[v] * s) if e.is_exact else 0 for e in cone]
              for v in range(len(self.a_matrix))]
        rows = [self.classes[e.alpha].vertices[0] for e in cone if e.is_exact]
        m, scale = linalg.scaled_inverse([[y for y, e in zip(ys[v], cone) if e.is_exact]
                                          for v in rows])
        m = iter(m)
        return ys, [next(m) if e.is_exact else [0] * len(rows) for e in cone], scale, s, rows

    @cached_property
    def _aperiodicity(self):
        """Requires every non-zero block primitive.  Aperiodic when every
        initial class has a non-zero block with Perron value > 1, decided
        from the block alone: that block is not the 1x1 block (1).

        An initial zero block is a vertex that no edge enters, an empty row
        of F, which ``validate`` refuses first.  A 1x1 block (m), m >= 1, has
        Perron value m.  A primitive integer block of order n >= 2 has a
        power A^k >= J, the all-ones matrix, so rho^k >= n and rho > 1.
        Every other class has an initial class above it, non-zero, so every
        single-loop class below is fed from outside once this passes."""
        bad = validate(self.diagram)
        if bad:
            return AperiodicityResult("invalid", None, "; ".join(x.message for x in bad))
        check_primitive(self)
        for alpha in self.initial_classes:
            if self.classes[alpha].block == ((1,),):
                return AperiodicityResult("not-aperiodic", alpha,
                                          f"initial class {alpha} has Perron value 1")
        return AperiodicityResult("aperiodic", None, None)

    @cached_property
    def _elimination(self):
        """``linalg.scaled_inverse`` of A: (M, L), A M = L I checked once, or (left kernel, 0)."""
        m, scale = linalg.scaled_inverse(self.a_matrix)
        assert not scale or linalg.mat_mul(self.a_matrix, m) == [
            [scale * x for x in row] for row in linalg.identity(len(m))]
        return m, scale


def _class_structure(d: StationaryDiagram):
    """(A = F^T, classes, class_of, access, blocks, imprimitivity indices),
    all tuples read off one reachability closure: ``reach[i]`` is the
    bitmask of the vertices that vertex i reaches, reflexive and closed by
    Warshall's algorithm.  The class of i is the set of vertices that i
    reaches and that reach i; classes are numbered by least vertex, and
    class b has access to class c when the first vertex of b reaches the
    first vertex of c.  Blocks are the diagonal blocks of A; a zero block's
    index is None.  Structure only; no Perron data."""
    n = d.n_vertices
    a = tuple(zip(*d.incidence))
    reach = [1 << i | sum(1 << j for j in range(n) if a[i][j] > 0) for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    comps = []
    class_of = [None] * n
    for i in range(n):
        if class_of[i] is None:
            comp = tuple(j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1)
            for j in comp:
                class_of[j] = len(comps)
            comps.append(comp)
    access = tuple(tuple(bool(reach[b[0]] >> c[0] & 1) for c in comps) for b in comps)
    blocks = tuple(tuple(tuple(a[i][j] for j in comp) for i in comp) for comp in comps)
    periods = tuple(None if _is_zero(block) else imprimitivity_index(block) for block in blocks)
    return a, tuple(comps), tuple(class_of), access, blocks, periods


def _structure(d: StationaryDiagram):
    """``_class_structure(d)``, once per diagram, outside ==, hash and repr."""
    if "_structure" not in d.__dict__:
        d.__dict__["_structure"] = _class_structure(d)
    return d.__dict__["_structure"]


def decompose(d: StationaryDiagram) -> ComponentDecomposition:
    """The diagram's own class decomposition of A = F^T, with access order,
    per-block Perron data and distinguished flags, built on first use.  It
    is kept in ``d.__dict__`` under ``_decomposition``, outside ==, hash and
    repr, by a weak reference, as it refers back to d (a strong one would
    make a cycle): it lives while a caller or a measure holds it."""
    ref = d.__dict__.get("_decomposition")
    if ref and (decomp := ref()) is not None:
        return decomp
    a, comps, class_of, access, blocks, periods = _structure(d)
    k = len(comps)
    rhos, vecs = zip(*map(perron_pair, blocks))
    above = [[b for b in range(k) if b != c and access[b][c]] for c in range(k)]  # strict accessors
    distinguished = [periods[c] is not None
                     and not any(nv_compare(rhos[b], rhos[c]) >= 0 for b in above[c])
                     for c in range(k)]
    classes = tuple(ComponentClass(ci, comp, blocks[ci], periods[ci] is None, rhos[ci],
                                   periods[ci], distinguished[ci],
                                   None if periods[ci] is None else vecs[ci])
                    for ci, comp in enumerate(comps))
    initial = tuple(c for c in range(k) if not above[c])
    final = tuple(alpha for alpha in range(k)
                  if not any(access[alpha][b] for b in range(k) if b != alpha))

    # F[perm] is block-lower-triangular iff for every access beta -> alpha
    # the class beta is placed first, so order the classes by the length of
    # the longest access chain down to them, ties by index; initial classes
    # come out first.  A strict accessor of c has fewer accessors than c,
    # so visiting by accessor count finds every accessor's depth first.
    depth = {}
    for c in sorted(range(k), key=lambda c: len(above[c])):
        depth[c] = max((depth[b] + 1 for b in above[c]), default=0)
    perm = tuple(v for c in sorted(range(k), key=lambda c: (depth[c], c)) for v in comps[c])

    decomp = ComponentDecomposition(d, a, classes, class_of, access, initial, final, perm)
    d.__dict__["_decomposition"] = weakref.ref(decomp)
    return decomp


def _class(decomp: ComponentDecomposition, alpha: int) -> ComponentClass:
    """Class alpha of the decomposition; IndexError unless
    0 <= alpha < the class count (so -1 does not name the last class)."""
    if not 0 <= alpha < len(decomp.classes):
        raise IndexError(f"class id {alpha} is outside 0..{len(decomp.classes) - 1}")
    return decomp.classes[alpha]


def distinguished_classes(decomp: ComponentDecomposition) -> tuple[int, ...]:
    return tuple(c.index for c in decomp.classes if c.distinguished)


def check_primitive(decomp: ComponentDecomposition):
    """Raise PrimitivityError unless every non-zero block is primitive."""
    q = math.lcm(1, *(c.imprimitivity for c in decomp.classes if c.imprimitivity))
    if q != 1:
        raise PrimitivityError(
            f"telescope by {q} first: some diagonal block is imprimitive", power=q)


def _primitive_power(d: StationaryDiagram) -> int:
    """Smallest power q = lcm of the block imprimitivity indices, so every
    non-zero block of F**q is primitive.  Reads the class structure only,
    not the Perron data, and forms no matrix power."""
    return math.lcm(1, *filter(None, _structure(d)[5]))


def telescope_to_primitive(d: StationaryDiagram):
    """(telescoped diagram, q) for q = _primitive_power(d); CapExceeded
    when F**q is above the telescoping cap."""
    q = _primitive_power(d)
    return (d if q == 1 else telescope(d, q)), q


def positivity_power(d: StationaryDiagram):
    """Smallest power q such that every non-zero diagonal block of F**q is
    strictly positive, read off the pattern of F**q (F, or F**q clipped at
    1), so large entries cost nothing and no telescoping cap applies.  A
    primitive block stays positive at every power past its exponent, so
    the exponents combine by max."""
    q = _primitive_power(d)
    pattern = d if q == 1 else StationaryDiagram(tuple(map(tuple, linalg.mat_pow(d.incidence, q, 1))))
    extra = 1
    for block in _structure(pattern)[4]:
        if _is_zero(block):
            continue
        m, current = 1, block
        limit = (len(block) - 1) ** 2 + 2
        while any(x == 0 for row in current for x in row):
            current = linalg._clipped_mul(current, block, 1)
            m += 1
            if m > limit:
                raise PrimitivityError("block never becomes positive; not primitive")
        extra = max(extra, m)
    return q * extra


def _extend(decomp: ComponentDecomposition, alpha: int, y, classes):
    """The vector s with s = y on class alpha that solves
    (lam - A_bb) s_b = sum over c != b of A_bc s_c on every other class b
    in ``classes``, lam the Perron value of alpha, and is 0 elsewhere.
    Classes are solved down the reversed triangular order, so each one
    comes after every class it has access to; a class in ``classes`` may
    have access only to alpha, to other classes in ``classes`` and to
    classes where s is 0."""
    a = decomp.a_matrix
    lam = decomp.classes[alpha].rho.value
    scalar = type(lam)
    s = [scalar(0)] * len(a)
    for v, x in zip(decomp.classes[alpha].vertices, y):
        s[v] = x
    for b in reversed(dict.fromkeys(decomp.class_of[v] for v in decomp.fnf_permutation)):
        if b == alpha or b not in classes:
            continue
        verts = decomp.classes[b].vertices
        lhs = [[scalar((lam if i == j else 0) - a[v][w])
                for j, w in enumerate(verts)] for i, v in enumerate(verts)]
        rhs = [linalg.left_sum(a[v][j] * s[j] for j in range(len(a))
                               if s[j] and decomp.class_of[j] != b) for v in verts]
        for v, x in zip(verts, linalg.solve_square(lhs, rhs)):
            s[v] = x
    return s


@record
class Eigendata:
    alpha: int
    lam: NumericValue
    xi: tuple
    support_classes: frozenset[int]

    @property
    def is_exact(self):
        return self.lam.is_exact


def distinguished_eigenvector(decomp: ComponentDecomposition, alpha: int) -> Eigendata:
    """The extreme vector of the distinguished class alpha: A xi = lam xi,
    xi > 0 exactly on the vertices with access to alpha, normalized so the
    level-1 heights weigh it to 1 (all heights are 1 at level 1)."""
    cls = _class(decomp, alpha)
    if not cls.distinguished:
        raise NotDistinguishedError(f"class {alpha} is not distinguished")
    support = frozenset(b for b in range(len(decomp.classes)) if decomp.access[b][alpha])
    xi = _extend(decomp, alpha, cls.perron, support)
    total = linalg.left_sum(xi)
    xi = [x / total for x in xi]
    assert all((x > 0) == (decomp.class_of[v] in support) for v, x in enumerate(xi))
    return Eigendata(alpha, cls.rho, tuple(xi), support)


@record
class CoreVerdict:
    # built once per query, so core_membership passes all three fields by
    # position: a record binds keywords and defaults in Python.  unknown
    # is outside the core, but no level test that was run refutes it
    kind: str  # "in-core" | "not-in-core" | "unknown"
    k: int | None = None
    coefficients: tuple | None = None


def _require_exact(x):
    """x itself; TypeError unless every entry is an ``int`` or a ``Fraction``."""
    if not all(isinstance(v, (int, Fraction)) for v in x):
        raise TypeError("takes exact rational vectors: int or Fraction entries")
    return x


def core_membership(decomp: ComponentDecomposition, x,
                    k_max: int | None = None) -> CoreVerdict:
    """Is x in the limit cone of A?  Decided in integers for every cone.
    The core is spanned by the extreme vectors xi_e (Tam-Schneider, every
    non-zero block primitive), and a rational x = sum c_e xi_e in it has
    c_e = 0 whenever rho_e is irrational.  Proof: the xi_e are independent
    (support law), so c lies in a number field K holding every rho_f and
    xi_f; take sigma in Gal(K/Q) with sigma(rho_e) != rho_e.  Conjugates of
    a Perron value are eigenvalues of its block, so no larger in modulus:
    two conjugate Perron values are equal, and sigma(rho_e) is no class's
    Perron value.  So the component of x = sigma(x) in the eigenspace of
    sigma(rho_e) is 0 by x = sum c_f xi_f, and the sum over rho_f = rho_e
    of sigma(c_f) sigma(xi_f) by sigma(x); those sigma(xi_f) are
    independent, so sigma(c_f) = c_f = 0.  So with x = z / q and
    (Y, M, L, S, rows) from ``_exact_cone``, the triangle at the first
    vertex of each exact class (xi_b(v) > 0 exactly when the class of v
    has access to b) decides: in-core when c = M z[rows] >= 0 and
    Y c = L z, coefficients S c / (L q), 0 on each irrational class; with
    no exact class that is z = 0.  Every other x is outside the core:
    not-in-core at the first k <= k_max (2N by default, CapExceeded above
    ``LEVEL_CAP``) that ``_refuted_level`` refutes, else unknown (levels
    past 1 run for an invertible A or N <= 12; k_max = 0 runs none).
    Entries of x must be ``int`` or ``Fraction`` (TypeError otherwise)."""
    n = len(decomp.a_matrix)
    k_max = 2 * n if k_max is None else k_max
    if k_max > LEVEL_CAP:
        raise CapExceeded(f"k_max {k_max} is above the cap of {LEVEL_CAP}", k_max, LEVEL_CAP)
    q = math.lcm(*(v.denominator for v in _require_exact(x)))
    z = [v.numerator * (q // v.denominator) for v in x]
    if len(z) != n:
        raise ValueError("vector length must match the vertex count")

    ys, t_inv, t_scale, s, rows = decomp._exact_cone
    if rows or not any(z):  # with no exact class only z = 0 can pass
        c = linalg.mat_vec(t_inv, [z[v] for v in rows])
        if all(ci >= 0 for ci in c) and linalg.mat_vec(ys, c) == [t_scale * v for v in z]:
            return CoreVerdict("in-core", None, tuple(Fraction(s * ci, t_scale * q)
                                                         for ci in c))
    if (k := _refuted_level(decomp, z, k_max)) is not None:
        return CoreVerdict("not-in-core", k, None)
    return CoreVerdict("unknown", None, None)


def _refuted_level(decomp: ComponentDecomposition, z, k_max):
    """The first k <= k_max at which ``A^k y = z, y >= 0`` is infeasible
    for the integer vector z, None when there is none.  For invertible A,
    z_k = M z_(k-1) with M = L A^-1 from ``_elimination`` is a positive
    multiple of A^-k z, so level k is infeasible exactly when z_k has a
    negative entry (A z_k = L z_(k-1) at every step, as A M = L I checked
    once); dividing z_k by the gcd of its entries keeps that and its size
    bounded in k.  For singular A, level 1 is infeasible when w z != 0 for
    a row w of its left kernel; then the exact simplex
    ``linalg.lp_nonneg_solve`` runs on each power for N <= 12 only."""
    m, scale = decomp._elimination
    if scale:
        for k in range(1, k_max + 1):
            z = linalg.mat_vec(m, z)
            if min(z) < 0:
                return k
            content = math.gcd(*z)
            if content > 1:
                z = [v // content for v in z]
        return None
    if k_max > 0 and any(linalg.mat_vec(m, z)):
        return 1
    if len(z) > 12:
        return None
    power = linalg.identity(len(z))
    for k in range(1, k_max + 1):
        power = linalg.mat_mul(power, decomp.a_matrix)
        if linalg.lp_nonneg_solve(power, z)[0] is None:
            return k
    return None


@record
class AperiodicityResult:
    kind: str  # "aperiodic" | "not-aperiodic" | "invalid"
    witness_class: int | None = None
    reason: str | None = None

    def __bool__(self):
        return self.kind == "aperiodic"


def aperiodicity_check(decomp: ComponentDecomposition) -> AperiodicityResult:
    """Does every infinite path have an infinite tail class?  The verdict
    ``ComponentDecomposition._aperiodicity`` computes once."""
    return decomp._aperiodicity
