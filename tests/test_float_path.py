"""Pinned outputs of the float path.

An irrational Perron value is a power-iteration float, and everything
read off it (extension solves, cylinder values) is float arithmetic.
The goldens below are exact stdout bytes and float reprs of that
arithmetic, so an edit that reorders an operation or changes a scalar
type shows up as a changed last digit.  ``sum`` of floats compensates
its rounding from Python 3.12 on; the float sums behind the goldens (the
power iteration, the back-substitution of ``linalg.solve_square``, the
normalisations and ``cylinder --check-total``) run left to right through
``linalg.left_sum``, so they hold on every supported version.  With the
built-in ``sum``, the ``cylinder --check-total`` line of "ergodic sxx
total" and the "power iteration" and "tail normaliser" lines of
``ANALYZE_LINES`` differ in their last digits on 3.12.

The fixture has four classes: b (rho 3) and s (rho 2) are initial; the
irrational class {t,u} (rho 1+sqrt 2) is fed by both, so it is not
distinguished and its tail measure is finite on s and infinite on b; the
irrational class {x,y} (rho 2+sqrt 2) is distinguished and fed by s, so
its extreme vector needs a float extension solve.
"""

import contextlib
import hashlib
import io
import random

import pytest

from bratteli import (
    InvariantMeasure,
    Leg,
    decompose,
    enumerate_ergodic,
    enumerate_infinite,
    make_diamond,
    nonmixing_witness,
    parse_diagram,
)
from bratteli.cli import main
from bratteli.errors import AmbiguousComparison, NotInDomainError

from conftest import block_chain

IRRATIONAL_DOC = (
    "n: 6\nincidence:\n"
    "3 0 0 0 0 0\n0 2 0 0 0 0\n1 1 2 1 0 0\n0 0 1 0 0 0\n0 1 0 0 3 1\n0 0 0 0 1 1\n"
    "labels: b s t u x y\n"
    "order:\nb: bbb\ns: ss\nt: bsttu\nu: t\nx: sxxxy\ny: xy\n"
)
X = 4
ERGODIC_CLASS = 3


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def reprs(values):
    return [repr(v) for v in values]


def irrational():
    return parse_diagram(IRRATIONAL_DOC)


ANALYZE_OUT = (
    "vertices: 6\n"
    "labels: b s t u x y\n"
    "classes: 4\n"
    "class 0: members=b rho=3 distinguished=yes\n"
    "class 1: members=s rho=2 distinguished=yes\n"
    "class 2: members=t,u rho=2.4142135623730914±2.9e-15 distinguished=no\n"
    "class 3: members=x,y rho=3.4142135623730878±5.8e-15 distinguished=yes\n"
    "access: 0->2 1->2 1->3\n"
    "aperiodic: yes\n"
    "minimal components: {b} {s}\n"
    "ergodic measures: 3\n"
    "measure 1: class=0 eigenvalue=3 vector=(1 0 0 0 0 0) support=b\n"
    "measure 2: class=1 eigenvalue=2 vector=(0 1 0 0 0 0) support=s\n"
    "measure 3: class=3 eigenvalue=3.4142135623730878±5.8e-15 "
    "vector=(0 0.33333333333333431 0 0 0.47140452079103062 0.19526214587563506) "
    "support=s,x,y\n"
    "sigma-finite measures: 1\n"
    "measure 1: class=2 eigenvalue=2.4142135623730914±2.9e-15 "
    "vector=(inf 1.7071067811865623 0.70710678118654735 0.29289321881345265 0 0) "
    "atomic=no\n"
    "borel invariant: 3\n"
    "summary: 3 ergodic probability measures; 1 sigma-finite measure\n"
)

# One line of ``analyze`` per document.  "power iteration": every digit
# is read off the power iteration on one irrational class of four
# vertices.  "tail normaliser": the Perron vector of the three-vertex
# class {1,2,3} is scaled by a sum of three floats.  "chained extension":
# the tail measure of class {1,2} (rho 1+sqrt 2) is finite on the chain
# 5 -> 4 -> {1,2} (both rho 2) and infinite on 3 (rho 3), and each finite
# class is solved on its own, 4 before 5.
ANALYZE_LINES = {
    "power iteration": (
        "n: 4\nincidence:\n3 0 1 0\n3 3 3 1\n0 3 1 0\n3 0 0 1\n",
        "measure 1: class=0 eigenvalue=5.738902800725266±8.9e-15 "
        "vector=(0.38443220212848039 0.2898171334542074 0.26459365283862935 "
        "0.061157011578682953) support=full",
    ),
    "tail normaliser": (
        "n: 4\nincidence:\n2 2 1 1\n3 2 1 0\n3 3 3 0\n0 0 0 9\n",
        "measure 1: class=0 eigenvalue=6.2879921389604192±3.1e-15 "
        "vector=(0.41163600931489563 0.35515460792666481 0.23320938275843969 inf) "
        "atomic=no",
    ),
    "chained extension": (
        "n: 5\nincidence:\n1 2 0 1 1\n1 1 1 0 0\n0 0 3 0 0\n0 0 0 2 2\n0 0 0 0 2\n",
        "measure 1: class=0 eigenvalue=2.4142135623730949±8.9e-16 "
        "vector=(0.41421356237309531 0.58578643762690474 inf 1.0000000000000009 "
        "5.828427124746197) atomic=no",
    ),
}

CYLINDER_OUT = {
    "ergodic sxx total": "0.040440114519880943\n1.0000000000000029\n",
    "ergodic sxxx": "0.011844635310912588\n1.0000000000000047\n",
    "mixture sxx": "0.010110028629970236\n1.0000000000000007\n",
    "tail st total": "0.29289321881345287\ninf\n",
    "tail stt": "0.12132034355964291\n",
}

TAIL_VALUES = [
    [
        "inf", "1.7071067811865623", "0.7071067811865474", "0.29289321881345265", "0.0",
        "0.0",
    ],
    [
        "inf", "0.7071067811865548", "0.29289321881345287", "0.12132034355964283",
        "0.0", "0.0",
    ],
    [
        "inf", "0.2928932188134559", "0.12132034355964291", "0.05025253169416751",
        "0.0", "0.0",
    ],
    [
        "inf", "0.12132034355964418", "0.050252531694167546", "0.020815280171308022",
        "0.0", "0.0",
    ],
    [
        "inf", "0.050252531694168066", "0.020815280171308036", "0.008621971351551556",
        "0.0", "0.0",
    ],
    [
        "inf", "0.020815280171308254", "0.008621971351551563", "0.003571337468204945",
        "0.0", "0.0",
    ],
]

P_VECTORS_EXACT_MEASURES = [
    [
        "0.18055555555555555", "0.1527777777777778", "0.3055555555555556",
        "0.2777777777777778", "0.08333333333333333",
    ],
    [
        "0.08101851851851852", "0.07175925925925926", "0.14351851851851852",
        "0.13425925925925924", "0.027777777777777776",
    ],
    [
        "0.03742283950617284", "0.03433641975308642", "0.06867283950617284",
        "0.06558641975308642", "0.009259259259259259",
    ],
    [
        "0.01768261316872428", "0.01665380658436214", "0.03330761316872428",
        "0.03227880658436214", "0.0030864197530864196",
    ],
    [
        "0.008498371056241426", "0.008155435528120713", "0.016310871056241426",
        "0.015967935528120713", "0.0010288065843621398",
    ],
]

P_VECTORS_IRRATIONAL = [
    [
        "0.5", "0.3333333333333336", "0.0", "0.0", "0.11785113019775766",
        "0.048815536468908766",
    ],
    [
        "0.16666666666666666", "0.1494077682344545", "0.0", "0.0",
        "0.034517796864424584", "0.014297739604484194",
    ],
    [
        "0.05555555555555555", "0.06964886980224214", "0.0", "0.0",
        "0.010110028629970236", "0.004187710974513964",
    ],
    [
        "0.018518518518518517", "0.03334385548725699", "0.0", "0.0",
        "0.0029611588277281475", "0.0012265521467858173",
    ],
    [
        "0.006172839506172839", "0.016238276073392913", "0.0", "0.0",
        "0.0008673033404711686", "0.00035924880631464906",
    ],
]

def cylinder_outputs(tmp_path):
    doc = tmp_path / "irrational.txt"
    doc.write_text(IRRATIONAL_DOC)
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("coefficients: 1/2 1/4 1/4\n")
    runs = {
        "ergodic sxx total": ("--measure", "3", "--path", "sxx", "--check-total"),
        "ergodic sxxx": ("--measure", "3", "--path", "sxxx", "--check-total"),
        "tail stt": ("--measure", "2", "--path", "stt"),
        "tail st total": ("--measure", "2", "--path", "st", "--check-total"),
        "mixture sxx": ("--measure", str(coeffs), "--path", "sxx", "--check-total"),
    }
    out = {}
    for name, argv in runs.items():
        code, stdout, err = run_cli("cylinder", str(doc), *argv)
        assert code == 0 and err == ""
        out[name] = stdout
    return out


def tail_values():
    (nu,) = enumerate_infinite(irrational().base)
    return [reprs(nu.value(n, v) for v in range(6)) for n in range(1, 7)]


def p_vectors_exact_measures(double_morse):
    mu = InvariantMeasure(tuple(enumerate_ergodic(double_morse)), (0.25, 0.5, 0.25))
    return [reprs(mu.p_vector(n)) for n in range(1, 6)]


def p_vectors_irrational():
    mu = InvariantMeasure(tuple(enumerate_ergodic(irrational().base)), (0.5, 0.25, 0.25))
    return [reprs(mu.p_vector(n)) for n in range(1, 6)]


def test_analyze_stdout(tmp_path):
    doc = tmp_path / "irrational.txt"
    doc.write_text(IRRATIONAL_DOC)
    assert run_cli("analyze", str(doc)) == (0, ANALYZE_OUT, "")


@pytest.mark.parametrize("name", sorted(ANALYZE_LINES))
def test_analyze_line(tmp_path, name):
    text, line = ANALYZE_LINES[name]
    doc = tmp_path / "doc.txt"
    doc.write_text(text)
    code, stdout, err = run_cli("analyze", str(doc))
    assert (code, err) == (0, "")
    assert line in stdout.splitlines()


def test_cylinder_stdout(tmp_path):
    assert cylinder_outputs(tmp_path) == CYLINDER_OUT


def test_tail_measure_values_with_a_finite_float_extension():
    assert tail_values() == TAIL_VALUES


def test_p_vector_float_coefficients_over_exact_measures(double_morse):
    assert all(m.is_exact for m in enumerate_ergodic(double_morse))
    assert p_vectors_exact_measures(double_morse) == P_VECTORS_EXACT_MEASURES


def test_p_vector_over_irrational_measures():
    assert p_vectors_irrational() == P_VECTORS_IRRATIONAL


def test_nonmixing_witness_refuses_the_irrational_class():
    """The certificate compares its limit with a cylinder mass, which takes
    an exact Perron value: the irrational class is refused, and no float
    comparison decides it."""
    od = irrational()
    diamond = make_diamond(od, Leg((X, X), (0,)), Leg((X, X), (1,)))
    with pytest.raises(NotInDomainError, match="^class 3 has an irrational Perron value"):
        nonmixing_witness(od, ERGODIC_CLASS, diamond)


def test_irrational_chains_give_the_measures_they_gave():
    """The float branch beyond the CLI corpus: 60 seeded block chains with
    irrational classes (a tie of two irrational Perron values is refused,
    and left out), 53 float extension solves between them.  The digest of
    the reprs of their measures was recorded before the exact extensions
    went fraction-free."""
    rng = random.Random(2026)
    digest, count, irrational = hashlib.sha256(), 0, 0
    while count < 60:
        d = block_chain(rng, exact=False)
        try:
            dec = decompose(d)
        except AmbiguousComparison:
            continue
        irrational += sum(not c.rho.is_exact for c in dec.classes)
        for got in (enumerate_ergodic(d), enumerate_infinite(d)):
            digest.update(repr(got).encode())
        count += 1
    assert irrational == 118
    assert digest.hexdigest() == (
        "f2ace3face72b2ad5ce6805b3a32281cfa550876b47fe7f3c4c94fbe54b72b4d")
