"""Output checks that share no code with bratteli.

Everything here is recomputed from the input matrices with its own small
exact routines (matrix products, determinants, reachability, cone
membership by Caratheodory subsets) and from parsed CLI text, so a fault
in the program cannot also hide inside its check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class CheckFailed(Exception):
    """An op's output contradicts its expected value or an invariant."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# exact matrix helpers -------------------------------------------------------

def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_pow(a, k):
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def det(m):
    """Integer determinant by fraction-free Bareiss elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def reach(a):
    """reach[i][j]: a path of length >= 0 leads from i to j in the graph
    with an edge i -> j wherever a[i][j] > 0."""
    n = len(a)
    r = [[i == j or a[i][j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if r[i][k]:
                r[i] = [x or y for x, y in zip(r[i], r[k])]
    return r


def classes_of(a):
    """Strongly connected classes as sorted vertex tuples, by min vertex."""
    r = reach(a)
    seen, out = set(), []
    for i in range(len(a)):
        if i not in seen:
            comp = tuple(j for j in range(len(a)) if r[i][j] and r[j][i])
            seen.update(comp)
            out.append(comp)
    return out


def primitive_power(f):
    """lcm of the periods (gcd of cycle lengths) of the non-zero
    irreducible blocks of A = F^T: the power that makes them primitive."""
    a = transpose(f)
    q = 1
    for comp in classes_of(a):
        level, queue = {comp[0]: 0}, [comp[0]]
        while queue:
            u = queue.pop(0)
            for v in comp:
                if a[u][v] and v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
        g = 0
        for u in comp:
            for v in comp:
                if a[u][v]:
                    g = math.gcd(g, level[u] + 1 - level[v])
        if g:
            q = q * abs(g) // math.gcd(q, abs(g))
    return q


def solve(cols, x):
    """Exact solution c of sum c_i cols[i] = x for independent columns,
    or None when x is outside their span or the columns are dependent."""
    n, k = len(x), len(cols)
    m = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(x[i])] for i in range(n)]
    row = 0
    for c in range(k):
        piv = next((i for i in range(row, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[row], m[piv] = m[piv], m[row]
        m[row] = [v / m[row][c] for v in m[row]]
        for i in range(n):
            if i != row and m[i][c] != 0:
                f = m[i][c]
                m[i] = [u - f * v for u, v in zip(m[i], m[row])]
        row += 1
    if any(m[i][k] != 0 for i in range(row, n)):
        return None
    return [m[i][k] for i in range(k)]


def in_cone(cols, x):
    """x in the cone spanned by cols, by Caratheodory: some independent
    subset of the columns reaches x with non-negative weights."""
    if all(v == 0 for v in x):
        return True
    for size in range(1, min(len(cols), len(x)) + 1):
        for subset in itertools.combinations(cols, size):
            c = solve(list(subset), x)
            if c is not None and all(v >= 0 for v in c):
                return True
    return False


def totient(q):
    return sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)


def candidate_count(qmax):
    """0 plus every reduced p/q in (0, 1) with 2 <= q <= qmax."""
    return 1 + sum(totient(q) for q in range(2, qmax + 1))


# parsing CLI text --------------------------------------------------------------

def scalar(token):
    if token == "inf":
        return math.inf
    try:
        return Fraction(token)
    except ValueError:
        return float(token)


def fields(out):
    """'key: value' lines of a report as a dict (first occurrence wins)."""
    d = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in d:
            d[key] = value
    return d


def measure_lines(out):
    """Parsed 'measure i: class=.. eigenvalue=.. vector=(..) ...' lines,
    split into the ergodic and the sigma-finite lists."""
    groups, current = {"ergodic": [], "sigma": []}, None
    for line in out.splitlines():
        if line.startswith("ergodic measures:"):
            current = "ergodic"
        elif line.startswith("sigma-finite measures:"):
            current = "sigma"
        elif line.startswith("measure ") and current:
            body = line.split(": ", 1)[1]
            vec = body[body.index("vector=(") + 8: body.index(")")]
            rest = dict(kv.split("=", 1) for kv in body.replace(f"vector=({vec})", "").split())
            groups[current].append({
                "class": int(rest["class"]), "lam": eigen_value(rest["eigenvalue"]),
                "vector": [scalar(t) for t in vec.split()],
                "support": rest.get("support")})
    return groups


def eigen_value(text):
    """Exact Fraction, or the float part of an 'x±r' rendering."""
    return Fraction(text) if "±" not in text else float(text.split("±")[0])


def check_measure_vectors(a, groups, labels=None):
    """Every printed measure against A = F^T, sharing no code with the
    program: exact vectors satisfy A xi = lam xi and sum to 1, float ones
    up to 1e-6; sigma-finite bases satisfy lam s = A s at every finite
    entry and never lean on an infinite one."""
    n = len(a)
    for m in groups["ergodic"]:
        lam, xi = m["lam"], m["vector"]
        expect(len(xi) == n, "ergodic vector has the wrong length")
        ax = mat_vec(a, xi)
        if isinstance(lam, Fraction) and all(isinstance(v, Fraction) for v in xi):
            expect(sum(xi) == 1, f"ergodic vector sums to {sum(xi)}")
            expect(all(u == lam * v for u, v in zip(ax, xi)), "A xi != lam xi")
        else:
            expect(abs(sum(xi) - 1) < 1e-9, "float ergodic vector does not sum to 1")
            expect(max(abs(u - lam * v) for u, v in zip(ax, xi)) < 1e-6 * lam,
                   "float ergodic vector misses A xi = lam xi")
        expect(all(v >= 0 for v in xi), "negative ergodic vector entry")
        if labels is not None and m["support"] not in (None, "full"):
            support = {labels.index(t) for t in m["support"].split(",")}
            expect(support == {v for v in range(n) if xi[v] > 0},
                   "printed support differs from the positive entries")
    for m in groups["sigma"]:
        lam, s = m["lam"], m["vector"]
        if not isinstance(lam, Fraction):
            continue
        for v in range(n):
            if s[v] == math.inf:
                continue
            terms = [(a[v][w], s[w]) for w in range(n) if a[v][w]]
            expect(all(t != math.inf for _, t in terms),
                   f"finite sigma-finite value at {v} fed by an infinite one")
            expect(sum(c * t for c, t in terms) == lam * s[v],
                   f"sigma-finite base misses lam s = A s at vertex {v}")


def check_class_bounds(a, out, labels):
    """Each printed rho lies between its block's min and max row sums."""
    for line in out.splitlines():
        if line.startswith("class ") and " members=" in line:
            kv = dict(t.split("=", 1) for t in line.split()[2:])
            verts = [labels.index(t) for t in kv["members"].split(",")]
            sums = [sum(a[v][w] for w in verts) for v in verts]
            rho = eigen_value(kv["rho"])
            expect(min(sums) <= rho <= max(sums),
                   f"rho {rho} outside the row-sum range {min(sums)}..{max(sums)}")


def check_pass_set(out):
    """Eigenvalue report: candidate count is 1 + sum phi(q), the pass list
    is a subgroup's trace {p/q : q | G}, and the verdict matches it."""
    f = fields(out)
    qmax = int(f["qmax"])
    expect(int(f["candidates"]) == candidate_count(qmax),
           f"candidates {f['candidates']} != 1 + sum phi(q) for qmax {qmax}")
    passing = [Fraction(t) for t in f["pass"].split()]
    expect(passing and passing[0] == 0 and passing == sorted(passing),
           "pass list must start at 0 and ascend")
    dens = {t.denominator for t in passing}
    for q in dens:
        expect(all(d in dens for d in range(1, q + 1) if q % d == 0),
               f"pass list holds denominator {q} but not all its divisors")
        expect(sum(1 for t in passing if t.denominator == q) == (totient(q) if q > 1 else 1),
               f"pass list holds only some reduced fractions of denominator {q}")
    if len(passing) == 1:
        expect(f["verdict"] == "weak-mixing evidence: only theta=0", "verdict mismatch")
    else:
        k = len(passing) - 1
        expect(f["verdict"] == f"{k} nontrivial rational eigenvalue candidate"
               + ("" if k == 1 else "s"), "verdict mismatch")
    return passing


def heights(f, level):
    h = [1] * len(f)
    for _ in range(level - 1):
        h = mat_vec(f, h)
    return h


def check_towers(f, out, depth):
    """verify's tower lines: each walks exactly h_v(L) successor paths at
    the deepest level L <= depth with h_v(L) <= 10^4."""
    towers = [line for line in out.splitlines() if line.startswith("tower ")]
    expect(len(towers) == len(f), "one tower line per vertex expected")
    for v, line in enumerate(towers):
        lvl = depth
        while heights(f, lvl)[v] > 10 ** 4 and lvl > 1:
            lvl -= 1
        expect(line.endswith(f"level {lvl}: ok ({heights(f, lvl)[v]} paths)"),
               f"tower line {line!r} disagrees with h_v({lvl})")
