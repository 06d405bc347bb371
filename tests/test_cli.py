"""End-to-end tests for the command line interface.

Every command is exercised through ``main(argv)`` with captured stdio, so
return codes and printed text are checked exactly as a shell user sees them.
One test runs the installed ``bratteli`` console script in a subprocess to
confirm the entry point wiring.
"""

import contextlib
import io
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bratteli
from bratteli import (candidate_thetas, decompose, rational_eigenvalue_sufficient,
                      serialize_diagram, serialize_substitution, telescope)
from bratteli.cli import main

from conftest import aperiodic_corpus, random_order

B1_DOC = "n: 2\nincidence:\n2 0\n1 2\n"
B1_ORDERED_DOC = "n: 2\nincidence:\n2 0\n1 2\norder:\n1: 11\n2: 122\n"
WM_A_DOC = "n: 2\nincidence:\n2 0\n2 3\norder:\n1: 11\n2: 12221\n"
EIG_CHAIN_DOC = (
    "n: 3\nincidence:\n5 0 0\n2 3 0\n0 2 25\n"
    "order:\n1: 11111\n2: 11222\n3: 22" + "3" * 25 + "\n"
)
DOUBLE_MORSE_DOC = (
    "n: 5\nincidence:\n"
    "1 1 0 0 0\n1 1 0 0 0\n0 0 1 1 0\n0 0 1 1 0\n1 0 1 0 3\n"
    "labels: a b c d 1\n"
)
THUE_MORSE_SUB = "alphabet: a b\nrules:\na: ab\nb: ba\n"
DOUBLE_MORSE_SUB = (
    "alphabet: a b c d 1\nrules:\na: ab\nb: ba\nc: cd\nd: dc\n1: a111c\n"
)


@pytest.fixture
def docs(tmp_path):
    names = {
        "b1.txt": B1_DOC,
        "b1o.txt": B1_ORDERED_DOC,
        "wm_a.txt": WM_A_DOC,
        "eig.txt": EIG_CHAIN_DOC,
        "dm.txt": DOUBLE_MORSE_DOC,
        "tm.sub": THUE_MORSE_SUB,
        "dm.sub": DOUBLE_MORSE_SUB,
    }
    paths = {}
    for name, text in names.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestAnalyze:
    def test_unlabeled_diagram_full_text(self, docs):
        code, out, err = run_cli("analyze", docs["b1.txt"])
        assert code == 0 and err == ""
        assert out == (
            "vertices: 2\n"
            "classes: 2\n"
            "class 0: members=1 rho=2 distinguished=yes\n"
            "class 1: members=2 rho=2 distinguished=no\n"
            "access: 0->1\n"
            "aperiodic: yes\n"
            "minimal components: {1}\n"
            "ergodic measures: 1\n"
            "measure 1: class=0 eigenvalue=2 vector=(1 0) support=1\n"
            "sigma-finite measures: 1\n"
            "measure 1: class=1 eigenvalue=2 vector=(inf 1) atomic=no\n"
            "borel invariant: 1\n"
            "summary: 1 ergodic probability measure; 1 sigma-finite measure\n"
        )

    def test_labeled_diagram_full_text(self, docs):
        code, out, _ = run_cli("analyze", docs["dm.txt"])
        assert code == 0
        assert out == (
            "vertices: 5\n"
            "labels: a b c d 1\n"
            "classes: 3\n"
            "class 0: members=a,b rho=2 distinguished=yes\n"
            "class 1: members=c,d rho=2 distinguished=yes\n"
            "class 2: members=1 rho=3 distinguished=yes\n"
            "access: 0->2 1->2\n"
            "aperiodic: yes\n"
            "minimal components: {a,b} {c,d}\n"
            "ergodic measures: 3\n"
            "measure 1: class=0 eigenvalue=2 vector=(1/2 1/2 0 0 0)"
            " support=a,b\n"
            "measure 2: class=1 eigenvalue=2 vector=(0 0 1/2 1/2 0)"
            " support=c,d\n"
            "measure 3: class=2 eigenvalue=3 vector=(2/9 1/9 2/9 1/9 1/3)"
            " support=full\n"
            "sigma-finite measures: 0\n"
            "borel invariant: 3\n"
            "summary: 3 ergodic probability measures; 0 sigma-finite"
            " measures\n"
        )

    def test_report_emits_measure_document(self, docs):
        code, out, _ = run_cli("analyze", docs["b1.txt"], "--report")
        assert code == 0
        assert out == (
            "measures: 2\n"
            "measure 1:\n"
            "class: 0\n"
            "members: 1\n"
            "type: ergodic-finite\n"
            "eigenvalue: 2\n"
            "eigenvector: 1 0\n"
            "support: 0\n"
            "measure 2:\n"
            "class: 1\n"
            "members: 2\n"
            "type: sigma-finite\n"
            "eigenvalue: 2\n"
            "eigenvector: inf 1\n"
            "support: 0 1\n"
        )

    def test_explicit_telescope_power_is_reported(self, docs):
        code, out, _ = run_cli("analyze", docs["b1.txt"], "--telescope", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "telescope power: 2"
        assert "class 0: members=1 rho=4 distinguished=yes" in lines

    def test_periodic_diagram_exits_3(self, docs, tmp_path):
        p = tmp_path / "na.txt"
        p.write_text("n: 1\nincidence:\n1\n")
        code, out, err = run_cli("analyze", str(p))
        assert code == 3 and out == ""
        assert err == "error: not aperiodic: initial class 0 has Perron value 1\n"

    def test_equal_irrational_radii_are_exact_after_telescoping(self, tmp_path):
        # two chained period-2 classes with Perron value sqrt(2): the
        # automatic telescoping reads only the class structure, so the
        # float comparison of the untelescoped radii never happens
        p = tmp_path / "sqrt2.txt"
        p.write_text("n: 4\nincidence:\n0 2 0 0\n1 0 0 0\n1 0 0 2\n0 0 1 0\n")
        code, out, _ = run_cli("analyze", str(p))
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "telescope power: 2"
        assert lines[3:7] == [
            "class 0: members=1 rho=2 distinguished=yes",
            "class 1: members=2 rho=2 distinguished=yes",
            "class 2: members=3 rho=2 distinguished=no",
            "class 3: members=4 rho=2 distinguished=no",
        ]
        assert "borel invariant: 2" in lines

    def test_missing_file_exits_2(self, docs):
        code, _, err = run_cli("analyze", str(docs["dir"] / "absent.txt"))
        assert code == 2 and "absent.txt" in err

    def test_malformed_document_exits_2(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("m: 2\n")
        code, _, err = run_cli("analyze", str(p))
        assert code == 2
        assert err == "error: line 1: expected 'n:', found 'm: 2'\n"

    def test_bad_telescope_value_exits_2(self, docs):
        code, _, err = run_cli("analyze", docs["b1.txt"], "--telescope", "x")
        assert code == 2 and "--telescope" in err
        code, _, err = run_cli("analyze", docs["b1.txt"], "--telescope", "0")
        assert code == 2 and ">= 1" in err


class TestDenseSizeClass:
    """Dense irreducible diagrams up to N = 48 with entries <= 9 are a
    supported size class; these sizes once took over 30 s each."""

    @pytest.mark.parametrize("n,seed", [(20, 0), (20, 1), (20, 2), (20, 3), (32, 0)])
    def test_analyze_dense(self, tmp_path, n, seed):
        rng = random.Random(seed)
        rows = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        doc = tmp_path / "dense.txt"
        doc.write_text(f"n: {n}\nincidence:\n"
                       + "".join(" ".join(map(str, row)) + "\n" for row in rows))
        code, out, _ = run_cli("analyze", str(doc))
        assert code == 0
        assert "classes: 1\n" in out
        rho = re.search(r"^class 0: .* rho=([^ ]+) ", out, re.M).group(1)
        value, _, bound = rho.partition("±")
        lo, hi = min(map(sum, rows)), max(map(sum, rows))
        if bound:
            assert lo <= float(value) <= hi
        else:
            assert lo <= Fraction(value) <= hi


class TestCylinder:
    def test_finite_measure_of_named_path(self, docs):
        code, out, _ = run_cli("cylinder", docs["b1.txt"],
                               "--measure", "0", "--path", "11",
                               "--check-total")
        assert code == 0
        assert out == "1/2\n1\n"

    def test_tail_measure_with_explicit_edge_indices(self, docs):
        code, out, _ = run_cli("cylinder", docs["b1.txt"],
                               "--measure", "1", "--path", "2,2.1")
        assert code == 0
        assert out == "1/2\n"

    def test_coefficient_file_mixture(self, docs, tmp_path):
        cf = tmp_path / "coef.txt"
        cf.write_text("coefficients: 1/2 1/2 0\n")
        code, out, _ = run_cli("cylinder", docs["dm.txt"],
                               "--measure", str(cf), "--path", "a")
        assert code == 0 and out == "1/4\n"
        code, out, _ = run_cli("cylinder", docs["dm.txt"],
                               "--measure", str(cf), "--check-total")
        assert code == 0 and out == "1\n"

    def test_root_token_rejects_edge_index(self, docs):
        code, _, err = run_cli("cylinder", docs["b1.txt"],
                               "--measure", "1", "--path", "2.1,2.0")
        assert code == 2
        assert "root vertex" in err

    def test_requires_path_or_total(self, docs):
        code, _, err = run_cli("cylinder", docs["b1.txt"], "--measure", "0")
        assert code == 2
        assert err == "error: give --path and/or --check-total\n"

    def test_unknown_class_exits_3(self, docs):
        code, _, err = run_cli("cylinder", docs["b1.txt"],
                               "--measure", "7", "--check-total")
        assert code == 3
        assert err == ("error: class 7 carries no ergodic or sigma-finite"
                       " measure\n")


class TestEigenvalues:
    def test_weak_mixing_verdict(self, docs):
        code, out, _ = run_cli("eigenvalues", docs["wm_a.txt"],
                               "--qmax", "12", "--window", "2:6")
        assert code == 0
        assert out == (
            "class: 1\n"
            "members: 2\n"
            "window: 2..6\n"
            "decisive: yes\n"
            "qmax: 12\n"
            "candidates: 46\n"
            "pass: 0\n"
            "verdict: weak-mixing evidence: only theta=0\n"
        )

    def test_rational_spectrum_listing(self, docs):
        code, out, _ = run_cli("eigenvalues", docs["eig.txt"],
                               "--qmax", "5", "--window", "6:12")
        assert code == 0
        assert out == (
            "class: 2\n"
            "members: 3\n"
            "window: 6..12\n"
            "decisive: yes\n"
            "qmax: 5\n"
            "candidates: 10\n"
            "pass: 0 1/5 2/5 3/5 4/5\n"
            "verdict: 4 nontrivial rational eigenvalue candidates\n"
        )

    def test_parallel_search_matches_serial(self, docs):
        c1, o1, _ = run_cli("eigenvalues", docs["eig.txt"],
                            "--qmax", "25", "--window", "6:12")
        c2, o2, _ = run_cli("eigenvalues", docs["eig.txt"],
                            "--qmax", "25", "--window", "6:12",
                            "--jobs", "3")
        assert c1 == c2 == 0
        assert o1 == o2
        assert "pass: 0 1/25 2/25" in o1

    def test_unordered_document_exits_2(self, docs):
        code, _, err = run_cli("eigenvalues", docs["b1.txt"])
        assert code == 2
        assert "order" in err

    @pytest.mark.parametrize("klass", ["5", "-1"])
    def test_class_out_of_range_exits_2(self, docs, klass):
        proc = subprocess.run(
            [sys.executable, "-m", "bratteli.cli", "eigenvalues", docs["wm_a.txt"],
             "--class", klass],
            capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "--class takes a class id in 0..1" in proc.stderr

    def test_window_validation(self, docs):
        code, _, err = run_cli("eigenvalues", docs["wm_a.txt"],
                               "--window", "6")
        assert code == 2 and "a:b" in err
        code, _, err = run_cli("eigenvalues", docs["wm_a.txt"],
                               "--window", "5:2")
        assert code == 2 and "1 <= a <= b" in err


class TestTelescopedEigenvalueSizeClass:
    """Telescoped corpus diagrams whose class lists 5.8e6 to 9.5e8 diamonds
    once never finished `eigenvalues`; the window gcd lists none."""

    @pytest.mark.parametrize("index", [5, 6, 8, 12, 16, 19])
    def test_eigenvalues_on_telescoped_corpus(self, tmp_path, index):
        d = aperiodic_corpus()[index]
        doc = tmp_path / "corpus.txt"
        doc.write_text(serialize_diagram(random_order(random.Random(1), d)))
        code, out, _ = run_cli("eigenvalues", str(doc))
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        qmax = int(fields["qmax"])
        assert int(fields["candidates"]) == 1 + sum(
            math.gcd(p, q) == 1 for q in range(2, qmax + 1) for p in range(1, q))
        passing = [Fraction(t) for t in fields["pass"].split()]
        assert passing[0] == 0 and passing == sorted(set(passing))
        for q in {t.denominator for t in passing}:
            for r in range(2, q + 1):
                if q % r == 0:
                    assert {Fraction(p, r) for p in range(1, r)} <= set(passing)
        # the orderless height test is sufficient, so whatever it passes
        # the diamond test passes too
        base = telescope(d, int(fields.get("telescope power", 1)))
        decomp = decompose(base)
        alpha = int(fields["class"])
        window = tuple(map(int, fields["window"].split("..")))
        for theta in candidate_thetas(qmax):
            if rational_eigenvalue_sufficient(base, alpha, theta, window, decomp):
                assert theta in passing


class TestSubst:
    def test_matrix(self, docs):
        code, out, _ = run_cli("subst", "matrix", docs["tm.sub"])
        assert code == 0
        assert out == "letters: a b\n1 1\n1 1\n"

    def test_diagram(self, docs):
        code, out, _ = run_cli("subst", "diagram", docs["tm.sub"])
        assert code == 0
        assert out == (
            "n: 2\nincidence:\n1 1\n1 1\nlabels: a b\n"
            "order:\na: ab\nb: ba\n"
        )

    def test_diagram_with_a_digit_letter_pipes_into_analyze(
            self, tmp_path, double_morse_substitution, double_morse):
        sub = tmp_path / "dm.sub"
        sub.write_text(serialize_substitution(double_morse_substitution))
        code, doc, _ = run_cli("subst", "diagram", str(sub))
        assert code == 0 and "labels: a b c d 1\n" in doc
        piped = tmp_path / "dm_ordered.txt"
        piped.write_text(doc)
        plain = tmp_path / "dm.txt"
        plain.write_text(serialize_diagram(double_morse))
        code, out, err = run_cli("analyze", str(piped))
        assert (code, err) == (0, "")
        assert out == run_cli("analyze", str(plain))[1]
        assert "ergodic measures: 3\n" in out

    def test_expand(self, docs):
        code, out, _ = run_cli("subst", "expand", docs["tm.sub"],
                               "--letter", "a", "--steps", "3")
        assert code == 0
        assert out == "abbabaab\n"

    def test_expand_over_cap_exits_5(self, docs):
        code, _, err = run_cli("subst", "expand", docs["tm.sub"],
                               "--letter", "a", "--steps", "40",
                               "--cap", "1000000")
        assert code == 5
        assert err == "error: expansion has 1099511627776 letters\n"

    def test_freqs(self, docs):
        code, out, _ = run_cli("subst", "freqs", docs["tm.sub"],
                               "--letter", "a", "--steps", "3")
        assert code == 0
        assert out == "a: 1/2\nb: 1/2\n"

    def test_measures(self, docs):
        code, out, _ = run_cli("subst", "measures", docs["dm.sub"])
        assert code == 0
        assert out == (
            "ergodic measures: 3\n"
            "measure 1: class=0 eigenvalue=2 vector=(1/2 1/2 0 0 0)"
            " support=a,b\n"
            "measure 2: class=1 eigenvalue=2 vector=(0 0 1/2 1/2 0)"
            " support=c,d\n"
            "measure 3: class=2 eigenvalue=3 vector=(2/9 1/9 2/9 1/9 1/3)"
            " support=full\n"
            "sigma-finite measures: 0\n"
            "uniquely ergodic: no\n"
            "summary: 3 ergodic probability measures; 0 sigma-finite"
            " measures\n"
        )

    def test_measures_of_bounded_letter_exits_3(self, tmp_path):
        p = tmp_path / "ng.sub"
        p.write_text("alphabet: a b\nrules:\na: ab\nb: b\n")
        code, _, err = run_cli("subst", "measures", str(p))
        assert code == 3
        assert err == "error: letter 'b' has bounded images\n"


class TestVerify:
    def test_ordered_diagram_with_towers(self, docs):
        code, out, err = run_cli("verify", docs["b1o.txt"])
        assert code == 0 and err == ""
        assert out == (
            "ergodic measure 1 (class 0): ok (136 checks)\n"
            "sigma-finite measure 1 (class 1): ok (131 checks)\n"
            "  skipped: (c) total mass skipped for an infinite measure\n"
            "tower 1 level 5: ok (16 paths)\n"
            "tower 2 level 5: ok (48 paths)\n"
            "result: ok\n"
        )

    def test_matching_measure_file(self, docs, tmp_path):
        _, report, _ = run_cli("analyze", docs["b1.txt"], "--report")
        mf = tmp_path / "b1.measures"
        mf.write_text(report)
        code, out, _ = run_cli("verify", docs["b1o.txt"],
                               "--measures", str(mf))
        assert code == 0
        assert "measure file: ok (2 measures match)\n" in out
        assert out.endswith("result: ok\n")

    def test_corrupted_measure_file_exits_4(self, docs, tmp_path):
        _, report, _ = run_cli("analyze", docs["b1.txt"], "--report")
        mf = tmp_path / "b1.measures"
        mf.write_text(report.replace("eigenvector: 1 0",
                                     "eigenvector: 1/3 2/3"))
        code, out, _ = run_cli("verify", docs["b1o.txt"],
                               "--measures", str(mf))
        assert code == 4
        assert ("measure file entry 1: FAIL (differs from computed"
                " ergodic-finite measure of class 0)\n") in out
        assert out.endswith("result: 1 violation\n")

    def test_measure_count_mismatch_exits_4(self, docs, tmp_path):
        _, report, _ = run_cli("analyze", docs["b1.txt"], "--report")
        truncated = report.split("measure 2:")[0].replace(
            "measures: 2", "measures: 1")
        mf = tmp_path / "b1.measures"
        mf.write_text(truncated)
        code, out, _ = run_cli("verify", docs["b1o.txt"],
                               "--measures", str(mf))
        assert code == 4
        assert "measure file: FAIL (lists 1 measures, diagram has 2)\n" in out


class TestExportDot:
    def test_reduced_graph(self, docs):
        code, out, _ = run_cli("export-dot", docs["dm.txt"],
                               "--graph", "reduced")
        assert code == 0
        assert out == (
            "digraph reduced {\n"
            '  "{a,b}" [label="{a,b} rho=2"];\n'
            '  "{c,d}" [label="{c,d} rho=2"];\n'
            '  "{1}" [label="{1} rho=3"];\n'
            '  "{1}" -> "{a,b}";\n'
            '  "{1}" -> "{c,d}";\n'
            "}\n"
        )

    def test_levels_graph(self, docs):
        code, out, _ = run_cli("export-dot", docs["b1.txt"],
                               "--graph", "levels")
        assert code == 0
        assert out == (
            "digraph levels {\n"
            "  rankdir=BT;\n"
            '  "1:1";\n'
            '  "1:2";\n'
            '  "2:1";\n'
            '  "2:2";\n'
            '  "1:1" -> "2:1" [label="2"];\n'
            '  "1:1" -> "2:2";\n'
            '  "1:2" -> "2:2" [label="2"];\n'
            "}\n"
        )

    def test_default_graph_is_reduced(self, docs):
        code, out, _ = run_cli("export-dot", docs["b1.txt"])
        assert code == 0
        assert out.startswith("digraph reduced {\n")


class TestEntryPoint:
    def test_missing_subcommand_raises_argparse_exit(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_version_matches_pyproject(self):
        # a plain scan of the [project] table: tomllib needs Python 3.11
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
        assert version == bratteli.__version__

    def test_console_script(self, docs):
        proc = subprocess.run(
            [sys.executable, "-m", "bratteli.cli", "analyze", docs["b1.txt"]],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("vertices: 2\n")
