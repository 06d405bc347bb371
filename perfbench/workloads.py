"""The four workloads: documents and ops, all made from the seed.

An op is one CLI call (``argv``, documents named ``@file``) or one library
call (``call(ctx)``, where ``ctx`` carries results between the ops of one
pass), with its expected exit code and a check of its output.  Checks
raise ``checks.CheckFailed``; they come from the paper and README where
those state a value, from the seed commit otherwise, and from invariants
recomputed in ``checks`` without bratteli code.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import checks as C
from checks import expect

WORKLOADS = ("paper-cli", "dense-analyze", "adic-search", "cone-library")
CORPUS_SEED = 20260814          # the seed of tests/conftest.py aperiodic_corpus
CORPUS_SMALL = (1, 2, 3, 4, 14, 17, 18)
CORPUS_256 = 7                  # passes 1/4, 1/2, 3/4; searched at qmax 256
CORPUS_BIG = 10                 # 59310 diamonds after telescoping by 2
# median log10 |det| of a row-major randint(1, 9) N x N matrix (400 draws per N)
DET_MEDIAN = {8: 5.7, 10: 7.6, 12: 9.6, 14: 11.5, 16: 13.5}
DET_BAND = 0.05
DENSE_SIZES = (8, 10, 12, 12, 12, 12, 12, 14, 16, 16)


@dataclass
class Op:
    key: str                    # stable identity, also the golden-stdout key
    argv: tuple = ()            # CLI argv; '@name' is a generated document
    call: object = None         # library op: call(ctx) -> result
    code: int = 0               # expected exit code of a CLI op
    check: object = None        # check(out, err) for CLI ops, check(result) else


@dataclass
class Workload:
    name: str
    docs: dict                  # file name -> document text
    ops: list

    def digest(self):
        """sha256 over the generated documents and op keys."""
        h = hashlib.sha256()
        for name in sorted(self.docs):
            h.update(f"{name}\0{self.docs[name]}\0".encode())
        for op in self.ops:
            h.update(f"{op.key}\0".encode())
        return h.hexdigest()


# documents ---------------------------------------------------------------------

def diagram_doc(f, labels=None, order=None):
    lines = [f"n: {len(f)}", "incidence:"] + [" ".join(map(str, r)) for r in f]
    if labels:
        lines.append("labels: " + " ".join(labels))
    if order:
        names = labels or [str(i + 1) for i in range(len(f))]
        lines.append("order:")
        sep = "" if all(len(x) == 1 for x in names) else " "
        lines += [f"{names[v]}: " + sep.join(names[s] for s in w) for v, w in enumerate(order)]
    return "\n".join(lines) + "\n"


def subst_doc(alphabet, rules):
    return ("alphabet: " + " ".join(alphabet) + "\nrules:\n"
            + "".join(f"{a}: {rules[a]}\n" for a in alphabet))


def _t(m):
    return tuple(tuple(r) for r in zip(*m))


# (incidence F, labels, order) of the paper's diagrams; F[v][w] counts edges w -> v
DIAGRAMS = {
    "b1": (((2, 0), (1, 2)), None, None),
    "b1o": (((2, 0), (1, 2)), None, ((0, 0), (0, 1, 1))),
    "b2": (((2, 1, 0), (0, 2, 0), (0, 1, 2)), None, None),
    "dm": (_t(((1, 1, 0, 0, 1), (1, 1, 0, 0, 0), (0, 0, 1, 1, 1), (0, 0, 1, 1, 0),
               (0, 0, 0, 0, 3))), ("a", "b", "c", "d", "1"), None),
    "mc": (_t(((1, 1, 2, 1, 0), (1, 1, 0, 1, 0), (0, 0, 3, 0, 1), (0, 0, 0, 2, 1),
               (0, 0, 0, 0, 4))), ("a", "b", "1", "2", "3"), None),
    "wm_a": (((2, 0), (2, 3)), None, ((0, 0), (0, 1, 1, 1, 0))),
    "wm_b": (((5, 0, 0), (4, 3, 0), (0, 2, 25)), None,
             ((0,) * 5, (0, 0, 0, 0, 1, 1, 1), (1, 1) + (2,) * 25)),
    "eig": (((5, 0, 0), (2, 3, 0), (0, 2, 25)), None,
            ((0,) * 5, (0, 0, 1, 1, 1), (1, 1) + (2,) * 25)),
    "na": (((1,),), None, None),
}
SUBSTITUTIONS = {
    "tm": (("a", "b"), {"a": "ab", "b": "ba"}),
    "dm": (("a", "b", "c", "d", "1"), {"a": "ab", "b": "ba", "c": "cd", "d": "dc", "1": "a111c"}),
    "mc": (("a", "b", "1", "2", "3"),
           {"a": "ab", "b": "ba", "1": "a111a", "2": "a22b", "3": "133332"}),
    "sigma": (("a", "b", "c"), {"a": "abb", "b": "ab", "c": "accb"}),
    "tau": (("a", "b", "c"), {"a": "abb", "b": "ab", "c": "acccb"}),
    "ng": (("a", "b"), {"a": "ab", "b": "b"}),
}
B1_REPORT = ("measures: 2\nmeasure 1:\nclass: 0\nmembers: 1\ntype: ergodic-finite\n"
             "eigenvalue: 2\neigenvector: 1 0\nsupport: 0\nmeasure 2:\nclass: 1\n"
             "members: 2\ntype: sigma-finite\neigenvalue: 2\neigenvector: inf 1\n"
             "support: 0 1\n")


def labels_of(name):
    f, labels, _ = DIAGRAMS[name]
    return list(labels or [str(i + 1) for i in range(len(f))])


def paper_docs():
    docs = {f"{k}.txt": diagram_doc(*v) for k, v in DIAGRAMS.items()}
    docs.update({f"{k}.sub": subst_doc(*v) for k, v in SUBSTITUTIONS.items()})
    docs["bad.txt"] = "m: 2\n"
    docs["coef.txt"] = "coefficients: 1/2 1/2 0\n"
    docs["b1.report"] = B1_REPORT
    docs["b1bad.report"] = B1_REPORT.replace("eigenvector: 1 0", "eigenvector: 1/3 2/3")
    return docs


# CLI checks --------------------------------------------------------------------

def exact_text(expected):
    def check(out, err):
        expect(out == expected, f"stdout differs from the stated text: {out[:120]!r}")
    return check


def stderr_is(expected):
    def check(out, err):
        expect(out == "" and err == expected, f"unexpected stderr {err!r}")
    return check


def check_analyze(f, labels, ergodic, sigma, classes=None):
    """Counts from the paper or the seed commit, and the vectors and rho
    bounds recomputed against A = (F^q)^T for the printed power q."""
    def check(out, err):
        d = C.fields(out)
        q = int(d.get("telescope power", 1))
        a = C.transpose(C.mat_pow([list(r) for r in f], q))
        expect(d["aperiodic"] == "yes", "aperiodic line")
        if classes is not None:
            expect(int(d["classes"]) == classes, f"classes {d['classes']} != {classes}")
        groups = C.measure_lines(out)
        expect(len(groups["ergodic"]) == ergodic and int(d["ergodic measures"]) == ergodic,
               f"ergodic count {d['ergodic measures']} != {ergodic}")
        expect(len(groups["sigma"]) == sigma and int(d["sigma-finite measures"]) == sigma,
               f"sigma-finite count {d['sigma-finite measures']} != {sigma}")
        expect(int(d["borel invariant"]) == ergodic, "borel invariant != ergodic count")
        C.check_measure_vectors(a, groups, labels)
        C.check_class_bounds(a, out, labels)
    return check


def check_report(f, ergodic, sigma):
    def check(out, err):
        blocks = out.split("measure ")[1:]
        expect(C.fields(out)["measures"] == str(ergodic + sigma), "report measure count")
        groups = {"ergodic": [], "sigma": []}
        for b in blocks:
            d = C.fields(b)
            kind = "ergodic" if d["type"] == "ergodic-finite" else "sigma"
            groups[kind].append({"lam": C.eigen_value(d["eigenvalue"]), "support": None,
                                 "vector": [C.scalar(t) for t in d["eigenvector"].split()]})
        expect(len(groups["ergodic"]) == ergodic and len(groups["sigma"]) == sigma,
               "report type counts")
        C.check_measure_vectors(C.transpose(f), groups)
    return check


def check_eigen(expected_pass=None, klass=None):
    def check(out, err):
        passing = C.check_pass_set(out)
        if expected_pass is not None:
            expect(passing == expected_pass, f"pass set {passing} != {expected_pass}")
        if klass is not None:
            expect(C.fields(out)["class"] == str(klass), "class line")
    return check


def check_verify(f, depth, extra=()):
    def check(out, err):
        lines = out.splitlines()
        expect(lines[-1] == "result: ok", "verify result is not ok")
        expect(all(" ok (" in ln for ln in lines if "measure " in ln and "(class" in ln),
               "a measure failed verification")
        C.check_towers(f, out, depth)
        for text in extra:
            expect(text in out, f"missing {text!r}")
    return check


def check_cylinder(expected):
    def check(out, err):
        expect(out == expected, f"cylinder value {out!r} != {expected!r}")
    return check


def render(x):
    if x == math.inf:
        return "inf"
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def paths(f, level):
    """Every path to level `level` as (vertices, indices), sources ascending."""
    out = [((v,), ()) for v in range(len(f))]
    for _ in range(level - 1):
        out = [(vs + (w,), ix + (j,)) for vs, ix in out
               for w in range(len(f)) for j in range(f[w][vs[-1]])]
    return out


def path_spec(labels, vs, ix):
    return ",".join([labels[vs[0]]] + [f"{labels[v]}.{j}" for v, j in zip(vs[1:], ix)])


# cylinder measures stated by the paper: measure -> (vector, lam)
CYLINDER_MEASURES = {
    ("b1", "0"): ((1, 0), 2),
    ("b1", "1"): ((math.inf, 1), 2),
    ("dm", "0"): ((Fraction(1, 2), Fraction(1, 2), 0, 0, 0), 2),
    ("dm", "1"): ((0, 0, Fraction(1, 2), Fraction(1, 2), 0), 2),
    ("dm", "2"): ((Fraction(2, 9), Fraction(1, 9), Fraction(2, 9), Fraction(1, 9),
                   Fraction(1, 3)), 3),
}


def cylinder_universe():
    ops = []
    for (name, measure), (vec, lam) in CYLINDER_MEASURES.items():
        f = DIAGRAMS[name][0]
        for level in range(1, 4):
            for vs, ix in paths(f, level):
                spec = path_spec(labels_of(name), vs, ix)
                x = vec[vs[-1]]
                value = x if x == math.inf else Fraction(x) / lam ** (level - 1)
                argv = ("cylinder", f"@{name}.txt", "--measure", measure, "--path", spec)
                ops.append(Op(" ".join(argv), argv, check=check_cylinder(render(value) + "\n")))
    return ops


def image(rules, letter, steps):
    word = letter
    for _ in range(steps):
        word = "".join(rules[c] for c in word)
    return word


def check_matrix(alphabet, rules):
    rows = [" ".join(str(rules[b].count(a)) for b in alphabet) for a in alphabet]
    return exact_text("letters: " + " ".join(alphabet) + "\n" + "\n".join(rows) + "\n")


def check_subst_diagram(alphabet, rules):
    f = [[rules[v].count(b) for b in alphabet] for v in alphabet]
    order = [[alphabet.index(c) for c in rules[v]] for v in alphabet]
    return exact_text(diagram_doc(f, alphabet, order))


def check_subst_measures(name, ergodic, sigma, exact=None):
    alphabet, rules = SUBSTITUTIONS[name]
    m = [[rules[b].count(a) for b in alphabet] for a in alphabet]

    def check(out, err):
        d = C.fields(out)
        a = C.mat_pow(m, int(d.get("telescope power", 1)))
        groups = C.measure_lines(out)
        expect(len(groups["ergodic"]) == ergodic and len(groups["sigma"]) == sigma,
               "measure counts")
        expect(d["uniquely ergodic"] == ("yes" if ergodic == 1 else "no"), "unique ergodicity")
        C.check_measure_vectors(a, groups, list(alphabet))
        for lam in (g["lam"] for g in groups["ergodic"]):
            expect(isinstance(lam, Fraction) or abs(lam - (1 + math.sqrt(2))) < 1e-9,
                   "irrational eigenvalue is not 1+sqrt(2)")
        if exact is not None:
            got = [(g["lam"], tuple(g["vector"])) for g in groups["ergodic"]]
            expect(got == exact, f"ergodic measures {got} != stated {exact}")
    return check


def subst_universe():
    """expand and freqs of every letter at 1..5 steps."""
    ops = []
    for name in ("tm", "dm", "mc", "sigma", "tau"):
        alphabet, rules = SUBSTITUTIONS[name]
        for letter in alphabet:
            for steps in range(1, 6):
                argv = ("subst", "expand", f"@{name}.sub", "--letter", letter, "--steps", str(steps))
                ops.append(Op(" ".join(argv), argv,
                              check=exact_text(image(rules, letter, steps) + "\n")))
                word = image(rules, letter, steps)
                argv = ("subst", "freqs", f"@{name}.sub", "--letter", letter, "--steps", str(steps))
                ops.append(Op(" ".join(argv), argv, check=exact_text("".join(
                    f"{a}: {render(Fraction(word.count(a), len(word)))}\n" for a in alphabet))))
    return ops


def cap_universe():
    """expand over its cap: exit 5."""
    ops = []
    for steps in range(25, 46):
        argv = ("subst", "expand", "@tm.sub", "--letter", "a", "--steps", str(steps),
                "--cap", "1000000")
        ops.append(Op(" ".join(argv), argv, code=5,
                      check=stderr_is(f"error: expansion has {2 ** steps} letters\n")))
    return ops


def cycle_doc(k):
    return diagram_doc([[int(w == (v - 1) % k) for w in range(k)] for v in range(k)])


def paper_cli_fixed():
    """The paper's commands; each runs once per pass."""
    B1_ANALYZE = (
        "vertices: 2\nclasses: 2\nclass 0: members=1 rho=2 distinguished=yes\n"
        "class 1: members=2 rho=2 distinguished=no\naccess: 0->1\naperiodic: yes\n"
        "minimal components: {1}\nergodic measures: 1\n"
        "measure 1: class=0 eigenvalue=2 vector=(1 0) support=1\n"
        "sigma-finite measures: 1\nmeasure 1: class=1 eigenvalue=2 vector=(inf 1) atomic=no\n"
        "borel invariant: 1\n"
        "summary: 1 ergodic probability measure; 1 sigma-finite measure\n")
    D = {k: v[0] for k, v in DIAGRAMS.items()}
    fifths = [Fraction(p, 5) for p in range(5)]
    ops = []

    def cli(*argv, code=0, check=None):
        ops.append(Op(" ".join(argv), argv, code=code, check=check))

    cli("analyze", "@b1.txt", check=exact_text(B1_ANALYZE))
    cli("analyze", "@b2.txt", check=check_analyze(D["b2"], labels_of("b2"), 1, 2, 3))
    cli("analyze", "@dm.txt", check=check_analyze(D["dm"], labels_of("dm"), 3, 0, 3))
    cli("analyze", "@mc.txt", check=check_analyze(D["mc"], labels_of("mc"), 3, 1, 4))
    cli("analyze", "@b1o.txt", check=exact_text(B1_ANALYZE))
    cli("analyze", "@wm_a.txt", check=check_analyze(D["wm_a"], labels_of("wm_a"), 2, 0, 2))
    cli("analyze", "@wm_b.txt", check=check_analyze(D["wm_b"], labels_of("wm_b"), 2, 1, 3))
    cli("analyze", "@eig.txt", check=check_analyze(D["eig"], labels_of("eig"), 2, 1, 3))
    cli("analyze", "@b1.txt", "--telescope", "2",
        check=check_analyze(D["b1"], labels_of("b1"), 1, 1, 2))
    cli("analyze", "@b1.txt", "--report", check=exact_text(B1_REPORT))
    cli("analyze", "@dm.txt", "--report", check=check_report(D["dm"], 3, 0))
    cli("analyze", "@b2.txt", "--report", check=check_report(D["b2"], 1, 2))
    cli("analyze", "@na.txt", code=3, check=stderr_is(
        "error: not aperiodic: initial class 0 has Perron value 1\n"))
    cli("analyze", "@bad.txt", code=2,
        check=stderr_is("error: line 1: expected 'n:', found 'm: 2'\n"))
    cli("analyze", "@b1.txt", "--telescope", "0", code=2,
        check=stderr_is("error: --telescope power must be >= 1\n"))

    cli("cylinder", "@b1.txt", "--measure", "0", "--path", "11", "--check-total",
        check=exact_text("1/2\n1\n"))
    cli("cylinder", "@b1.txt", "--measure", "1", "--path", "2,2.1", check=exact_text("1/2\n"))
    cli("cylinder", "@dm.txt", "--measure", "@coef.txt", "--path", "a",
        check=exact_text("1/4\n"))
    cli("cylinder", "@dm.txt", "--measure", "@coef.txt", "--check-total",
        check=exact_text("1\n"))
    cli("cylinder", "@b1.txt", "--measure", "7", "--check-total", code=3, check=stderr_is(
        "error: class 7 carries no ergodic or sigma-finite measure\n"))
    cli("cylinder", "@b1.txt", "--measure", "0", code=2,
        check=stderr_is("error: give --path and/or --check-total\n"))

    cli("eigenvalues", "@wm_a.txt", "--qmax", "12", "--window", "2:6", check=exact_text(
        "class: 1\nmembers: 2\nwindow: 2..6\ndecisive: yes\nqmax: 12\ncandidates: 46\n"
        "pass: 0\nverdict: weak-mixing evidence: only theta=0\n"))
    cli("eigenvalues", "@eig.txt", "--qmax", "5", "--window", "6:12", check=exact_text(
        "class: 2\nmembers: 3\nwindow: 6..12\ndecisive: yes\nqmax: 5\ncandidates: 10\n"
        "pass: 0 1/5 2/5 3/5 4/5\nverdict: 4 nontrivial rational eigenvalue candidates\n"))
    cli("eigenvalues", "@eig.txt", "--qmax", "25", "--window", "6:12", "--jobs", "2",
        check=check_eigen([Fraction(p, 25) for p in range(25)], 2))
    cli("eigenvalues", "@wm_a.txt", check=check_eigen([Fraction(0)], 1))
    cli("eigenvalues", "@wm_b.txt", check=check_eigen([Fraction(0)], 2))
    cli("eigenvalues", "@eig.txt", check=check_eigen(fifths, 2))
    cli("eigenvalues", "@b1o.txt", check=check_eigen([Fraction(0), Fraction(1, 2)], 0))
    cli("eigenvalues", "@b1.txt", code=2, check=stderr_is(
        "error: eigenvalue analysis needs an ordered diagram "
        "(document with an order: section)\n"))

    for name in ("tm", "dm", "mc", "sigma", "tau"):
        alphabet, rules = SUBSTITUTIONS[name]
        cli("subst", "matrix", f"@{name}.sub", check=check_matrix(alphabet, rules))
        cli("subst", "diagram", f"@{name}.sub", check=check_subst_diagram(alphabet, rules))
    h, n = Fraction(1, 2), Fraction(1, 9)
    cli("subst", "measures", "@tm.sub", check=check_subst_measures("tm", 1, 0, [(2, (h, h))]))
    cli("subst", "measures", "@dm.sub", check=check_subst_measures("dm", 3, 0, [
        (2, (h, h, 0, 0, 0)), (2, (0, 0, h, h, 0)), (3, (2 * n, n, 2 * n, n, 3 * n))]))
    cli("subst", "measures", "@mc.sub", check=check_subst_measures("mc", 3, 1, [
        (2, (h, h, 0, 0, 0)),
        (3, tuple(Fraction(8, 9) * v for v in (h, h / 2, Fraction(3, 8), 0, 0))),
        (4, (h / 2, h / 4, h / 2, h / 4, h / 2))]))
    cli("subst", "measures", "@sigma.sub", check=check_subst_measures("sigma", 1, 1))
    cli("subst", "measures", "@tau.sub", check=check_subst_measures("tau", 2, 0))
    cli("subst", "measures", "@ng.sub", code=3,
        check=stderr_is("error: letter 'b' has bounded images\n"))

    cli("verify", "@b1o.txt", check=exact_text(
        "ergodic measure 1 (class 0): ok (136 checks)\n"
        "sigma-finite measure 1 (class 1): ok (131 checks)\n"
        "  skipped: (c) total mass skipped for an infinite measure\n"
        "tower 1 level 5: ok (16 paths)\ntower 2 level 5: ok (48 paths)\nresult: ok\n"))
    cli("verify", "@b1o.txt", "--measures", "@b1.report",
        check=check_verify(D["b1"], 5, ["measure file: ok (2 measures match)\n"]))
    cli("verify", "@b1o.txt", "--measures", "@b1bad.report", code=4, check=lambda out, err: expect(
        "measure file entry 1: FAIL (differs from computed ergodic-finite measure of class 0)\n"
        in out and out.endswith("result: 1 violation\n"), "corrupted report not flagged"))
    cli("verify", "@wm_a.txt", check=check_verify(D["wm_a"], 5))
    cli("verify", "@eig.txt", "--depth", "3", check=check_verify(D["eig"], 3))

    cli("export-dot", "@dm.txt", "--graph", "reduced", check=exact_text(
        'digraph reduced {\n  "{a,b}" [label="{a,b} rho=2"];\n'
        '  "{c,d}" [label="{c,d} rho=2"];\n  "{1}" [label="{1} rho=3"];\n'
        '  "{1}" -> "{a,b}";\n  "{1}" -> "{c,d}";\n}\n'))
    cli("export-dot", "@b1.txt", "--graph", "levels", check=exact_text(
        'digraph levels {\n  rankdir=BT;\n  "1:1";\n  "1:2";\n  "2:1";\n  "2:2";\n'
        '  "1:1" -> "2:1" [label="2"];\n  "1:1" -> "2:2";\n  "1:2" -> "2:2" [label="2"];\n}\n'))
    for name in ("b1", "mc", "eig", "wm_b"):
        f = D[name]
        k = len(C.classes_of(C.transpose(f)))
        cli("export-dot", f"@{name}.txt", check=lambda out, err, k=k: expect(
            out.startswith("digraph reduced {\n") and out.endswith("}\n")
            and out.count("[label=") == k, "reduced graph node count"))
    for name in ("mc", "eig", "wm_b"):
        f = D[name]
        edges = sum(1 for r in f for x in r if x)
        cli("export-dot", f"@{name}.txt", "--graph", "levels",
            check=lambda out, err, e=edges, n=len(f): expect(
                out.count(" -> ") == e and out.count(";\n") == 2 * n + e + 1,
                "level graph node or edge count"))
    return ops


def paper_cli_universe():
    """Every op paper-cli can draw, for recording seed-commit stdout."""
    return paper_cli_fixed() + cylinder_universe() + subst_universe() + cap_universe()


def paper_cli(seed):
    rng = random.Random(seed)
    docs = paper_docs()
    k = rng.randint(2, 4)
    docs["cycle.txt"] = cycle_doc(k)
    argv = ("analyze", "@cycle.txt")
    cycle = Op(f"analyze cycle-{k}", argv, code=3, check=lambda out, err: expect(
        out == "" and err.startswith("error: not aperiodic: initial class"),
        "periodic cycle not refused"))
    # 100 ops: the three `verify b1o` ops, which cost about the same, then
    # hold the 90th percentile of op latencies
    ops = (paper_cli_fixed() + [cycle] + rng.sample(cylinder_universe(), 18)
           + rng.sample(subst_universe(), 20) + rng.sample(cap_universe(), 2))
    rng.shuffle(ops)
    return Workload("paper-cli", docs, ops)


# dense-analyze -----------------------------------------------------------------

def dense_matrix(rng, n):
    """Row-major randint(1, 9) draws, kept when log10 |det| lies within
    DET_BAND of its size class's median, so a pass costs the same from
    seed to seed while the divisor search still pays sqrt(|det|)."""
    while True:
        f = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        d = C.det(f)
        if d and abs(math.log10(abs(d)) - DET_MEDIAN[n]) <= DET_BAND:
            return f


def dense_analyze(seed):
    rng = random.Random(seed)
    docs, ops = {}, []
    for i, n in enumerate(DENSE_SIZES):
        f = dense_matrix(rng, n)
        name = f"dense{i}-n{n}.txt"
        docs[name] = diagram_doc(f)
        ops.append(Op(f"analyze {name}", ("analyze", f"@{name}"),
                      check=check_analyze(f, [str(v + 1) for v in range(n)], 1, 0, 1)))
    rng.shuffle(ops)
    return Workload("dense-analyze", docs, ops)


# adic-search -------------------------------------------------------------------

def random_diagram(rng, n_max=4, entry_max=3):
    """Same draws as tests/conftest.py random_diagram."""
    n = rng.randint(1, n_max)
    while True:
        rows = [[rng.choice((0, 0, 1, 1, 2, entry_max)) for _ in range(n)] for _ in range(n)]
        if all(any(r) for r in rows) and all(any(c) for c in zip(*rows)):
            return rows


def aperiodic_corpus(count=20):
    """Same list as tests/conftest.py aperiodic_corpus(): the filter asks
    bratteli, so the recorded input digest shows when its verdicts drift."""
    from bratteli import StationaryDiagram, aperiodicity_check, decompose
    from bratteli.errors import PrimitivityError

    rng = random.Random(CORPUS_SEED)
    out = []
    while len(out) < count:
        f = random_diagram(rng)
        try:
            verdict = aperiodicity_check(decompose(StationaryDiagram(tuple(map(tuple, f)))))
        except PrimitivityError:
            continue
        if verdict:
            out.append(f)
    return out


def random_order(rng, f):
    order = []
    for v in range(len(f)):
        word = [w for w in range(len(f)) for _ in range(f[v][w])]
        rng.shuffle(word)
        order.append(tuple(word))
    return tuple(order)


def adic_search(seed):
    rng = random.Random(seed)
    corpus = aperiodic_corpus()
    docs = {f"{k}.txt": diagram_doc(*DIAGRAMS[k]) for k in ("b1o", "wm_a", "wm_b", "eig")}
    for i in CORPUS_SMALL + (CORPUS_BIG, CORPUS_256):
        docs[f"corpus{i}.txt"] = diagram_doc(corpus[i], None, random_order(rng, corpus[i]))
    fifths = [Fraction(p, 5) for p in range(5)]
    stated = {"wm_a": [Fraction(0)], "wm_b": [Fraction(0)], "eig": fifths,
              "b1o": [Fraction(0), Fraction(1, 2)]}
    # the default-qmax searches on the small cases cost about the same, and
    # sit in the middle of the op latencies, so op_ms_p50 is one of them
    ops = []
    for name in [k for k in docs if k != f"corpus{CORPUS_256}.txt"]:
        argv = ("eigenvalues", f"@{name}")
        ops.append(Op(" ".join(argv), argv, check=check_eigen(stated.get(name[:-4]))))
    for name in ("wm_a.txt", f"corpus{CORPUS_256}.txt"):
        argv = ("eigenvalues", f"@{name}", "--qmax", "256")
        ops.append(Op(" ".join(argv), argv, check=check_eigen(stated.get(name[:-4]))))
    for name, depth in (("eig", 4), ("wm_a", 5), ("b1o", 5)):
        argv = ("verify", f"@{name}.txt", "--depth", str(depth))
        ops.append(Op(" ".join(argv), argv, check=check_verify(DIAGRAMS[name][0], depth)))
    rng.shuffle(ops)
    return Workload("adic-search", docs, ops)


# cone-library ------------------------------------------------------------------

def chain_matrix(rng):
    """A = F^T block-lower-triangular: classes in vertex order, each block
    strictly positive with constant row sum r (so rho = r exactly), edges
    only from a later class to an earlier one."""
    while True:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(3, 5))]
        sums = [rng.randint(max(2, s), 7) for s in sizes]
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        n = sum(sizes)
        a = [[0] * n for _ in range(n)]
        for s, r, st in zip(sizes, sums, starts):
            for v in range(st, st + s):
                cuts = sorted(rng.sample(range(1, r), s - 1))
                for j, (lo, hi) in enumerate(zip([0] + cuts, cuts + [r])):
                    a[v][st + j] = hi - lo
        for b in range(len(sizes)):
            for c in range(b):
                if rng.random() < 0.5:
                    v = starts[b] + rng.randrange(sizes[b])
                    w = starts[c] + rng.randrange(sizes[c])
                    a[v][w] = rng.randint(1, 2)
        cls = C.classes_of(a)
        dist = distinguished(a, cls)
        if n <= 12 and 2 <= sum(dist) < len(cls):
            return a


def distinguished(a, cls):
    r = C.reach(a)
    rho = [sum(a[c[0]][w] for w in c) for c in cls]
    return [all(rho[i] > rho[j] for j, cj in enumerate(cls)
                if j != i and r[cj[0]][ci[0]]) for i, ci in enumerate(cls)]


def extreme_vector(a, cls, alpha):
    """xi of distinguished class alpha, solved class by class upward
    (classes only feed lower-indexed ones), normalized to sum 1."""
    n = len(a)
    r = C.reach(a)
    lam = sum(a[cls[alpha][0]][w] for w in cls[alpha])
    xi = [Fraction(0)] * n
    for v in cls[alpha]:
        xi[v] = Fraction(1)
    for b in range(alpha + 1, len(cls)):
        verts = cls[b]
        if not r[verts[0]][cls[alpha][0]]:
            continue
        m = [[(lam if i == j else 0) - a[v][w] for j, w in enumerate(verts)]
             for i, v in enumerate(verts)]
        rhs = [sum(a[v][w] * xi[w] for w in range(n) if w not in verts) for v in verts]
        for v, x in zip(verts, C.solve(C.transpose(m), rhs)):
            xi[v] = x
    total = sum(xi)
    return [x / total for x in xi]


def weights(rng, k, normalized):
    w = [Fraction(rng.randint(0 if not normalized else 1, 6), rng.randint(1, 4))
         for _ in range(k)]
    if normalized:
        return [x / sum(w) for x in w]
    return w


def check_ergodic(a, cls, dist):
    xis = [extreme_vector(a, cls, i) for i, d in enumerate(dist) if d]

    def check(result):
        expect([m.class_id for m in result] == [i for i, d in enumerate(dist) if d],
               "distinguished classes differ")
        for m, xi in zip(result, xis):
            expect(list(m.xi) == xi, f"class {m.class_id} vector differs from the exact solve")
            expect(m.lam.value == sum(a[cls[m.class_id][0]][w] for w in cls[m.class_id]),
                   "lam is not the block row sum")
    return check


def check_infinite(a, cls, dist):
    def check(result):
        expect([m.class_id for m in result] == [i for i, d in enumerate(dist) if not d],
               "sigma-finite classes differ")
        groups = {"ergodic": [], "sigma": [{"lam": m.lam.value, "vector": list(m.base)}
                                           for m in result]}
        C.check_measure_vectors(a, groups)
        r = C.reach(a)
        rho = [sum(a[c[0]][w] for w in c) for c in cls]
        for m in result:
            al = m.class_id
            own = cls[al]
            expect(all(m.base[v] == Fraction(1, len(own)) for v in own),
                   "base on the carrying class is not the uniform Perron vector")
            for g, cg in enumerate(cls):
                if g == al:
                    continue
                if not r[cg[0]][own[0]]:
                    want = "zero"
                elif any(b != al and r[cg[0]][cb[0]] and r[cb[0]][own[0]] and rho[b] >= rho[al]
                         for b, cb in enumerate(cls)):
                    want = "inf"
                else:
                    want = "finite"
                got = ["zero" if m.base[v] == 0 else "inf" if m.base[v] == math.inf
                       else "finite" for v in cg]
                expect(set(got) == {want}, f"class {g} of tail measure {al}: {got} != {want}")
    return check


def check_in_core(xis, x):
    def check(v):
        expect(v.kind == "in-core", f"verdict {v.kind} for a cone point")
        c = v.coefficients
        expect(all(ci >= 0 for ci in c), "negative in-core coefficient")
        expect([sum(ci * xi[j] for ci, xi in zip(c, xis)) for j in range(len(x))] == list(x),
               "in-core coefficients do not rebuild x")
    return check


def check_cone_oracle(a, x):
    """Criterion 7: the verdict against exact cone membership of x in
    A^k R+^n, decided by Caratheodory subsets (n <= 4 here)."""
    n = len(a)

    def inside(k):
        return C.in_cone(C.transpose(C.mat_pow(a, k)), x)

    def check(v):
        if v.kind == "in-core":
            expect(inside(1) and inside(2 * n), "in-core point outside A R+^n")
        elif v.kind == "not-in-core":
            expect(not inside(v.k), f"point inside A^{v.k} R+^n")
            expect(v.k == 1 or inside(v.k - 1), f"point outside A^{v.k - 1} R+^n")
        else:
            expect(inside(2 * n), "unknown verdict for a point outside A^2n R+^n")
    return check


def _store(ctx, key, value):
    ctx[key] = value
    return value


def cone_library(seed):
    import bratteli as B

    rng = random.Random(seed)
    docs, ops = {}, []
    for ci in range(6):
        a = chain_matrix(rng)
        f = C.transpose(a)
        key = f"chain{ci}"
        docs[f"{key}.txt"] = diagram_doc(f)
        d = B.StationaryDiagram(tuple(map(tuple, f)))
        cls = C.classes_of(a)
        dist = distinguished(a, cls)
        xis = [extreme_vector(a, cls, i) for i, dd in enumerate(dist) if dd]
        ops.append(Op(f"decompose {key}",
                      call=lambda ctx, d=d, key=key: _store(ctx, key, B.decompose(d)),
                      check=lambda r, k=len(cls): expect(len(r.classes) == k,
                                                         "class count differs")))
        ops.append(Op(f"enumerate_ergodic {key}", call=lambda ctx, d=d: B.enumerate_ergodic(d),
                      check=check_ergodic(a, cls, dist)))
        ops.append(Op(f"enumerate_infinite {key}", call=lambda ctx, d=d: B.enumerate_infinite(d),
                      check=check_infinite(a, cls, dist)))
        for _ in range(2):
            c = weights(rng, len(xis), True)
            p1 = tuple(sum(ci_ * xi[j] for ci_, xi in zip(c, xis)) for j in range(len(a)))
            ops.append(Op(f"measure_from_point {key} {render_vec(p1)}",
                          call=lambda ctx, d=d, p1=p1: B.measure_from_point(d, p1),
                          check=lambda r, c=c: expect(list(r.coefficients) == c,
                                                      "coefficients differ from the mixture")))
        for _ in range(6):
            w = weights(rng, len(xis), False)
            x = tuple(sum(wi * xi[j] for wi, xi in zip(w, xis)) for j in range(len(a)))
            ops.append(Op(f"core_membership {key} {render_vec(x)}",
                          call=lambda ctx, key=key, x=x: B.core_membership(ctx[key], x),
                          check=check_in_core(xis, x)))

    for i, f in enumerate(aperiodic_corpus()):
        key = f"corpus{i}"
        docs[f"{key}.txt"] = diagram_doc(f)
        q = C.primitive_power(f)
        fq = C.mat_pow(f, q)
        a = C.transpose(fq)
        d = B.StationaryDiagram(tuple(map(tuple, f)))
        ops.append(Op(f"telescope_to_primitive+decompose {key}",
                      call=lambda ctx, d=d, key=key: _store(
                          ctx, key, B.decompose(B.telescope_to_primitive(d)[0])),
                      check=lambda r, fq=fq, k=len(C.classes_of(a)): expect(
                          [list(x) for x in r.diagram.incidence] == fq and len(r.classes) == k,
                          "telescoped diagram or class count differs")))
        queries = []
        for _ in range(100):
            if rng.random() < 0.3:
                x = tuple(Fraction(v) for v in C.mat_vec(a, [rng.randint(0, 3) for _ in f]))
            else:
                x = tuple(Fraction(rng.randint(0, 8), rng.choice((1, 2, 3))) for _ in f)
            queries.append(Op(f"core_membership {key} {render_vec(x)}",
                              call=lambda ctx, key=key, x=x: B.core_membership(ctx[key], x),
                              check=check_cone_oracle(a, x)))
        rng.shuffle(queries)
        ops.extend(queries)
    return Workload("cone-library", docs, ops)


def render_vec(x):
    return "(" + " ".join(render(v) for v in x) + ")"


BUILDERS = {"paper-cli": paper_cli, "dense-analyze": dense_analyze,
            "adic-search": adic_search, "cone-library": cone_library}


def build(name, seed):
    return BUILDERS[name](seed)

