"""End-to-end tests for the command line interface.

Every command is exercised through ``main(argv)`` with captured stdio, so
return codes and printed text are checked exactly as a shell user sees them.
One test runs the installed ``bratteli`` console script in a subprocess to
confirm the entry point wiring.
"""

import contextlib
import gc
import io
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bratteli
import bratteli.cli
from bratteli import (CapExceeded, candidate_thetas, decompose, path_rank,
                      rational_eigenvalue_sufficient, render_scalar, serialize_diagram,
                      serialize_substitution, telescope_ordered)
from bratteli.cli import main
from bratteli.vershik import WINDOW_CAP

import equivalence
from conftest import aperiodic_corpus, random_order, time_limit
from test_documents import MALFORMED, MALFORMED_IDS

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
# F = ((1,0),(1,1)): the telescoped words grow linearly, F**999000 has
# 999,002 edges, just under the telescoping cap
LINEAR_DOC = "n: 2\nincidence:\n1 0\n1 1\norder:\n1: 1\n2: 12\n"
GOLDEN_MEAN_DOC = "n: 2\nincidence:\n1 1\n1 0\n"
# a nilpotent chain: F**3 = 0, but the words of F**2 would hold 10^8 letters
CHAIN_DOC = ("n: 3\nincidence:\n0 0 0\n10000 0 0\n0 10000 0\n"
             "order:\n1:\n2: " + "1" * 10 ** 4 + "\n3: " + "2" * 10 ** 4 + "\n")
THUE_MORSE_SUB = "alphabet: a b\nrules:\na: ab\nb: ba\n"
# sigma^n(a) = a b^n: one letter grows linearly, the other is fixed
LINEAR_SUB = "alphabet: a b\nrules:\na: ab\nb: b\n"
DOUBLE_MORSE_SUB = (
    "alphabet: a b c d 1\nrules:\na: ab\nb: ba\nc: cd\nd: dc\n1: a111c\n"
)
# cycles of lengths 2, 3, 5, 7 and 11, each letter -> the next letter of
# its cycle twice: the primitive power is 2310, whose images are 2^2310
# letters long
CYCLES_SUB = "alphabet: " + " ".join("abcdefghijklmnopqrstuvwxyzAB") + "\nrules:\n" + "".join(
    f"{c[i]}: {2 * c[(i + 1) % len(c)]}\n"
    for c in ("ab", "cde", "fghij", "klmnopq", "rstuvwxyzAB") for i in range(len(c)))
DOCS = {
    "b1.txt": B1_DOC,
    "b1o.txt": B1_ORDERED_DOC,
    "wm_a.txt": WM_A_DOC,
    "eig.txt": EIG_CHAIN_DOC,
    "dm.txt": DOUBLE_MORSE_DOC,
    "lin.txt": LINEAR_DOC,
    "gm.txt": GOLDEN_MEAN_DOC,
    "chain.txt": CHAIN_DOC,
    "tm.sub": THUE_MORSE_SUB,
    "lin.sub": LINEAR_SUB,
    "dm.sub": DOUBLE_MORSE_SUB,
    "cycles.sub": CYCLES_SUB,
}


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, text in DOCS.items():
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

    def test_perron_value_past_the_int_string_limit(self, tmp_path):
        # each row sums to 2 (10^4300 - 1), of 4,301 digits: one more than
        # str() converts by default
        p = tmp_path / "big.txt"
        p.write_text("n: 2\nincidence:\n" + f"{'9' * 4300} {'9' * 4300}\n" * 2)
        rho = render_scalar(2 * (10 ** 4300 - 1))
        assert len(rho) == 4301
        code, out, err = run_cli("analyze", str(p))
        assert (code, err) == (0, "") and f"rho={rho} " in out
        code, out, err = run_cli("analyze", str(p), "--report")
        assert (code, err) == (0, "") and f"eigenvalue: {rho}\n" in out
        code, out, err = run_cli("export-dot", str(p))
        assert (code, err) == (0, "") and f'rho={rho}"' in out

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
        # one gate: every command refuses with the same words
        assert run_cli("cylinder", str(p), "--measure", "0", "--check-total") == (3, out, err)
        assert run_cli("verify", str(p)) == (3, out, err)

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

    @pytest.mark.parametrize("coefficients, reason", [
        ("1", "one coefficient per ergodic measure"),
        ("", "one coefficient per ergodic measure"),
        ("-1", "one coefficient per ergodic measure"),
        ("1/3", "one coefficient per ergodic measure"),
        ("inf", "one coefficient per ergodic measure"),
        ("1 -1", "coefficients must be >= 0 and sum to 1"),
        ("1/3 1/3", "coefficients must be >= 0 and sum to 1"),
        ("inf 0", "coefficients must be >= 0 and sum to 1"),
        ("nan 1", "coefficients must be >= 0 and sum to 1"),
    ])
    def test_coefficient_file_outside_the_simplex_exits_3(self, docs, tmp_path,
                                                          coefficients, reason):
        cf = tmp_path / "bad.coef"
        cf.write_text(f"coefficients: {coefficients}\n")
        assert run_cli("cylinder", docs["wm_a.txt"], "--measure", str(cf),
                       "--check-total") == (
            3, "", f"error: coefficient file: {reason} (2 ergodic measures)\n")

    @pytest.mark.parametrize("token", ["1e10000000", "-1E10000000", "1e-10000000"])
    def test_coefficient_with_a_huge_exponent_exits_2_at_once(self, docs, tmp_path, token):
        # read exactly, the token would first build a power of ten of ten
        # million digits
        cf = tmp_path / "big.coef"
        cf.write_text(f"coefficients: {token}\n")
        with time_limit(5):
            assert run_cli("cylinder", docs["b1.txt"], "--measure", str(cf),
                           "--check-total") == (
                2, "", f"error: line 1: decimal beyond float range: {token!r}\n")

    def test_float_values_beyond_float_range_exit_5(self, docs, tmp_path):
        # the golden mean to the power 1475 overflows a float
        path = ",".join(["1"] + ["1.0"] * 1599)
        err = "error: level 1600 is beyond float range\n"
        assert run_cli("cylinder", docs["gm.txt"], "--measure", "0",
                       "--path", path) == (5, "", err)
        cf = tmp_path / "one.coef"
        cf.write_text("coefficients: 1\n")
        assert run_cli("cylinder", docs["gm.txt"], "--measure", str(cf),
                       "--path", path) == (5, "", err)
        # an exact value at the same level
        assert run_cli("cylinder", docs["b1.txt"], "--measure", "0", "--path", path) == (
            0, f"1/{2 ** 1599}\n", "")
        # a height beyond float range, under a float value that is not
        mix = tmp_path / "mix.txt"
        mix.write_text("n: 3\nincidence:\n1 1 0\n1 0 0\n1 0 3\n")
        code, out, err = run_cli("cylinder", str(mix), "--measure", "0",
                                 "--path", ",".join(["1"] + ["1.0"] * 700), "--check-total")
        assert (code, len(out.splitlines()), err) == (
            5, 1, "error: level 701 is beyond float range\n")

    def test_float_values_below_normal_range_exit_5(self, docs):
        # from level 1472 on, a golden-mean value is subnormal (below
        # 2.2e-308) at vertex 2, and from 1473 on at vertex 1 too
        def path(level):
            return ",".join(["1"] + ["1.0"] * (level - 1))

        assert run_cli("cylinder", docs["gm.txt"], "--measure", "0", "--path", path(1471),
                       "--check-total") == (0, "3.7947327224140634e-308\n1.0000000000015645\n", "")
        assert run_cli("cylinder", docs["gm.txt"], "--measure", "0", "--path", path(1472),
                       "--check-total") == (5, "2.3452738006733134e-308\n",
                                            "error: level 1472 is beyond float range\n")
        assert run_cli("cylinder", docs["gm.txt"], "--measure", "0", "--path", path(1473)) == (
            5, "", "error: level 1473 is beyond float range\n")

    def test_exact_values_print_at_any_level(self, docs):
        # 1/2^14999: its denominator has 4516 digits, more than Python's
        # default int-to-str limit of 4300
        path = ",".join(["1"] + ["1.0"] * 14999)
        with time_limit(20):
            code, out, err = run_cli("cylinder", docs["b1.txt"], "--measure", "0", "--path", path)
        assert (code, err) == (0, "")
        numerator, denominator = out.rstrip("\n").split("/")
        assert numerator == "1" and len(denominator) == 4516
        # read back in parts below the limit
        head, tail = denominator[:2000], denominator[2000:]
        assert int(head) * 10 ** len(tail) + int(tail) == 2 ** 14999

    def test_root_token_rejects_edge_index(self, docs):
        code, _, err = run_cli("cylinder", docs["b1.txt"],
                               "--measure", "1", "--path", "2.1,2.0")
        assert code == 2
        assert "root vertex" in err

    @pytest.mark.parametrize("spec, message", [
        ("", "a path has length at least 1"),
        (" ", "a path has length at least 1"),
        (",", "unknown vertex '' in path"),
        ("1,2.x", "bad edge index in path token '2.x'"),
    ])
    def test_malformed_path_exits_2(self, docs, spec, message):
        assert run_cli("cylinder", docs["b1.txt"], "--measure", "0", "--path", spec) == (
            2, "", f"error: {message}\n")

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

    def test_no_distinguished_class_exits_3(self, tmp_path):
        # refused as analyze refuses it: the diagram is not even valid
        zero = tmp_path / "zero.txt"
        zero.write_text("n: 2\nincidence:\n0 0\n0 0\norder:\n1:\n2:\n")
        code, out, err = run_cli("eigenvalues", str(zero))
        assert (code, out) == (3, "")
        assert err.startswith("error: not aperiodic: vertex 1 has no incoming edges (empty row); ")
        assert run_cli("analyze", str(zero)) == (3, "", err)

    def test_one_path_diagram_is_not_aperiodic(self, tmp_path):
        # it has no diamond, so G = 0 would pass all 1,259 nontrivial candidates
        one = tmp_path / "one.txt"
        one.write_text("n: 1\nincidence:\n1\norder:\n1: 1\n")
        assert run_cli("eigenvalues", str(one)) == (
            3, "", "error: not aperiodic: initial class 0 has Perron value 1\n")

    def test_refused_as_analyze_refuses(self, tmp_path):
        # d008, the first corpus case equivalence.py once recorded with every
        # candidate passing
        doc = tmp_path / "d008.txt"
        doc.write_text(equivalence.cases(9)[8][0])
        code, out, err = run_cli("eigenvalues", str(doc), "--qmax", "12")
        assert (code, out) == (3, "") and err.startswith("error: not aperiodic: ")
        assert run_cli("analyze", str(doc)) == (3, "", err)

    @pytest.mark.parametrize("name", ["swap.txt", "gm.txt"])
    def test_positive_blocks_are_checked_first(self, tmp_path, name):
        doc = tmp_path / name
        doc.write_text({"swap.txt": "n: 2\nincidence:\n0 1\n1 0\norder:\n1: 2\n2: 1\n",
                        "gm.txt": "n: 2\nincidence:\n1 1\n1 0\norder:\n1: 12\n2: 1\n"}[name])
        assert run_cli("eigenvalues", str(doc), "--telescope", "1") == (
            3, "", "error: some diagonal block has zero entries; telescope by 2 first\n")

    def test_auto_telescope_takes_the_smallest_adequate_power(self, tmp_path):
        # its two blocks turn positive at powers 3 and 2; their lcm, 6, works
        # too but is not the smallest
        rows = ("0 1 0 3 1 3", "3 3 0 1 2 0", "0 0 2 0 0 2",
                "1 0 1 0 0 2", "0 0 0 0 0 2", "0 0 1 0 3 2")
        words = (" ".join(str(w) for w, e in enumerate(row.split(), 1) for _ in range(int(e)))
                 for row in rows)
        doc = tmp_path / "blocks.txt"
        doc.write_text("n: 6\nincidence:\n" + "\n".join(rows) + "\norder:\n"
                       + "".join(f"{v}: {word}\n" for v, word in enumerate(words, 1)))
        code, out, _ = run_cli("eigenvalues", str(doc), "--qmax", "6")
        assert code == 0
        assert out.startswith("telescope power: 3\n")
        assert "pass: 0 1/4 1/2 3/4\n" in out
        assert run_cli("eigenvalues", str(doc), "--qmax", "6", "--telescope", "1") == (
            3, "", "error: some diagonal block has zero entries; telescope by 3 first\n")

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

    @pytest.mark.parametrize("window, code", [
        ((0, 3), 2), ((-2, 3), 2), ((3, 1), 2), ((2, 5), 0),
        ((1, WINDOW_CAP + 1), 5), ((WINDOW_CAP + 1, WINDOW_CAP + 2), 5),
    ])
    def test_window_rule_agrees_with_the_library(self, docs, window, code):
        # the CLI words its own --window refusals, and refuses exactly the
        # windows eigenvalue_search refuses: exit 2 for ValueError, 5 for
        # CapExceeded
        od = bratteli.parse_diagram(Path(docs["wm_a.txt"]).read_text())
        try:
            bratteli.eigenvalue_search(od, 1, 12, window)
            raised = 0
        except ValueError:
            raised = 2
        except CapExceeded:
            raised = 5
        got, out, err = run_cli("eigenvalues", docs["wm_a.txt"], "--qmax", "12",
                                f"--window={window[0]}:{window[1]}")
        assert raised == got == code
        assert (out == "") == (code != 0) and (err == "") == (code == 0)


class TestTelescopedEigenvalueSizeClass:
    """Telescoped corpus diagrams whose class lists 5.8e6 to 9.5e8 diamonds
    once never finished `eigenvalues`; the window gcd lists none."""

    @pytest.mark.parametrize("index", [5, 6, 8, 12, 16, 19])
    def test_eigenvalues_on_telescoped_corpus(self, tmp_path, index):
        d = aperiodic_corpus()[index]
        doc = tmp_path / "corpus.txt"
        od = random_order(random.Random(1), d)
        doc.write_text(serialize_diagram(od))
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
        od = telescope_ordered(od, int(fields.get("telescope power", 1)))
        alpha = int(fields["class"])
        window = tuple(map(int, fields["window"].split("..")))
        for theta in candidate_thetas(qmax):
            if rational_eigenvalue_sufficient(od, alpha, theta, window):
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

    def test_expand_of_a_slowly_growing_letter_answers_at_once(self, docs):
        with time_limit(5):
            code, out, err = run_cli("subst", "expand", docs["lin.sub"], "--steps", "100000")
        assert (code, out, err) == (0, "a" + "b" * 10 ** 5 + "\n", "")

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

    def test_tower_walk_is_checked_against_the_rank_formula(self, docs, monkeypatch):
        monkeypatch.setattr(bratteli.cli, "path_rank", lambda od, p: path_rank(od, p) + 1)
        code, out, _ = run_cli("verify", docs["b1o.txt"])
        assert code == 4
        assert "tower 1 level 5: FAIL (16 paths)\n" in out
        assert out.endswith("result: 2 violations\n")

    def test_matching_measure_file(self, docs, tmp_path):
        _, report, _ = run_cli("analyze", docs["b1.txt"], "--report")
        mf = tmp_path / "b1.measures"
        mf.write_text(report)
        code, out, _ = run_cli("verify", docs["b1o.txt"],
                               "--measures", str(mf))
        assert code == 0
        assert "measure file: ok (2 measures match)\n" in out
        assert out.endswith("result: ok\n")
        # an irrational Perron value: the report's float vector reads back
        irrational = tmp_path / "r3.txt"
        irrational.write_text("n: 2\nincidence:\n1 3\n1 1\n")
        _, report, _ = run_cli("analyze", str(irrational), "--report")
        mf.write_text(report)
        code, out, _ = run_cli("verify", str(irrational), "--depth", "2",
                               "--measures", str(mf))
        assert code == 0 and "measure file: ok (1 measures match)\n" in out

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


@pytest.mark.parametrize("parser, text, line, message", MALFORMED, ids=MALFORMED_IDS)
def test_every_parse_error_exits_2_naming_its_line(docs, tmp_path, parser, text, line,
                                                   message):
    bad = str(tmp_path / "bad.txt")
    (tmp_path / "bad.txt").write_text(text)
    argv = {"diagram": ["analyze", bad],
            "substitution": ["subst", "measures", bad],
            "measures": ["verify", docs["b1o.txt"], "--depth", "1", "--measures", bad],
            "coefficients": ["cylinder", docs["b1.txt"], "--measure", bad, "--check-total"],
            }[parser]
    assert run_cli(*argv) == (2, "", f"error: line {line}: {message}\n")


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

    def test_quotes_and_backslashes_in_labels_are_escaped(self, tmp_path):
        doc = tmp_path / "quoted.txt"
        doc.write_text('n: 2\nincidence:\n1 0\n1 1\nlabels: a" b\\\n')
        assert run_cli("export-dot", str(doc)) == (0, (
            "digraph reduced {\n"
            '  "{a\\"}" [label="{a\\"} rho=1"];\n'
            '  "{b\\\\}" [label="{b\\\\} rho=1"];\n'
            '  "{b\\\\}" -> "{a\\"}";\n'
            "}\n"), "")
        assert run_cli("export-dot", str(doc), "--graph", "levels") == (0, (
            "digraph levels {\n"
            "  rankdir=BT;\n"
            '  "1:a\\"";\n'
            '  "1:b\\\\";\n'
            '  "2:a\\"";\n'
            '  "2:b\\\\";\n'
            '  "1:a\\"" -> "2:a\\"";\n'
            '  "1:a\\"" -> "2:b\\\\";\n'
            '  "1:b\\\\" -> "2:b\\\\";\n'
            "}\n"), "")

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


class TestClosedStdout:
    """A reader that stops early ends the command with 141 (128 + SIGPIPE)
    and an empty stderr, not with the parse-error exit."""

    def test_broken_pipe_exits_141_and_prints_nothing(self, docs):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        with contextlib.redirect_stdout(Closed()), contextlib.redirect_stderr(err):
            code = main(["subst", "expand", docs["lin.sub"], "--steps", "10"])
        assert (code, err.getvalue()) == (141, "")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_console_script_under_a_reader_that_stops(self, docs, unbuffered):
        # 1,000,001 letters overfill the pipe, so the write meets the closed
        # end whether stdout is buffered or not; the exit flush adds nothing
        proc = subprocess.Popen(
            [sys.executable, "-m", "bratteli.cli", "subst", "expand", docs["lin.sub"],
             "--steps", "1000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
        assert proc.stdout.read(1) == b"a"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_console_script_with_no_stdout_at_all(self, docs):
        # with descriptor 1 closed, sys.stdout is None and print writes nothing
        proc = subprocess.run(
            f'"{sys.executable}" -m bratteli.cli analyze "{docs["b1.txt"]}" >&-',
            shell=True, capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")


class TestSharedParser:
    """main builds its parser once per process; a call leaves nothing in
    it that changes the next call."""

    SEQUENCE = [
        ("eigenvalues", "wm_a.txt", "--qmax", "x"),   # argparse usage error
        ("analyze", "b1.txt"),
        ("subst", "expand", "tm.sub", "--steps", "3"),
        ("subst", "expand", "tm.sub"),
        ("eigenvalues", "wm_a.txt", "--class", "1"),
        ("eigenvalues", "wm_a.txt"),
        # class 0 is not the default on wm_a.txt, so a kept value would show
        ("eigenvalues", "wm_a.txt", "--class", "0"),
        ("eigenvalues", "wm_a.txt"),
        ("subst", "freqs", "tm.sub", "--cap", "0"),
        ("subst", "freqs", "tm.sub"),
    ]

    @staticmethod
    def run_sequence(docs):
        """(exit code, stdout, stderr) of each command line, in order."""
        results = []
        for argv in TestSharedParser.SEQUENCE:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([docs.get(a, a) for a in argv])
                except SystemExit as e:  # argparse usage errors
                    code = e.code
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def test_parser_is_built_once(self):
        assert bratteli.cli._build_parser() is bratteli.cli._build_parser()

    def test_calls_match_a_fresh_parser_each(self, docs, monkeypatch):
        shared = self.run_sequence(docs)
        # the oracle: every call builds its own parser
        monkeypatch.setattr(bratteli.cli, "_build_parser",
                            bratteli.cli._build_parser.__wrapped__)
        assert self.run_sequence(docs) == shared
        assert [r[0] for r in shared] == [2, 0, 0, 0, 0, 0, 0, 0, 2, 0]
        assert shared[0][2].startswith("usage: bratteli eigenvalues")
        assert shared[3][1] == "ab\n" and shared[6][1] != shared[7][1]


class TestOneStructurePass:
    """A request on a diagram that needs no telescoping computes its class
    structure once, each non-zero block's imprimitivity index once and
    the aperiodicity verdict, with its ``validate``, once."""

    COMMANDS = [("analyze",), ("analyze", "--report"), ("cylinder", "--measure", "0",
                "--check-total"), ("cylinder", "--measure", "1", "--path", "1"),
                ("verify", "--depth", "3")]

    @pytest.mark.parametrize("name", ["b1.txt", "b1o.txt", "dm.txt", "eig.txt"])
    def test_each_piece_once_per_request(self, docs, monkeypatch, name):
        spectral = bratteli.spectral
        calls = []
        for fn in ("_class_structure", "imprimitivity_index", "validate"):
            monkeypatch.setattr(spectral, fn, lambda *a, fn=fn, f=getattr(spectral, fn):
                                calls.append(fn) or f(*a))
        d = bratteli.parse_diagram(Path(docs[name]).read_text())
        blocks = sum(not c.is_zero for c in decompose(getattr(d, "base", d)).classes)
        for command, *options in self.COMMANDS:
            calls.clear()
            code, out, err = run_cli(command, docs[name], *options)
            assert code == 0 and err == "", (command, err)
            assert sorted(calls) == ["_class_structure", *["imprimitivity_index"] * blocks,
                                     "validate"], (command, calls)

    @pytest.mark.parametrize("text, power", [
        (WM_A_DOC, 1), (EIG_CHAIN_DOC, 1), (GOLDEN_MEAN_DOC + "order:\n1: 12\n2: 1\n", 2)],
        ids=["wm_a", "eig_chain", "golden_mean"])
    def test_eigenvalues_decomposes_once(self, tmp_path, monkeypatch, text, power):
        seen = []
        for module in (bratteli.cli, bratteli.measures, bratteli.vershik):
            monkeypatch.setattr(module, "decompose",
                                lambda d, f=module.decompose: seen.append(d) or f(d))
        doc = tmp_path / "d.txt"
        doc.write_text(text)
        code, out, err = run_cli("eigenvalues", str(doc), "--telescope", "auto")
        assert code == 0 and err == ""
        assert (f"telescope power: {power}\n" in out) == (power > 1)
        assert len(seen) == 1


class TestNoReferenceCycle:
    """A diagram holds its decomposition by a weak reference, as the
    decomposition refers back to the diagram: a request, once the parser
    and the module caches are warm, leaves nothing for the cycle collector."""

    @pytest.mark.parametrize("argv", [
        ("analyze", "b1.txt"), ("analyze", "dm.txt"), ("analyze", "eig.txt"),
        ("verify", "b1o.txt", "--depth", "3"), ("verify", "wm_a.txt", "--depth", "3"),
        ("cylinder", "dm.txt", "--measure", "0", "--check-total"),
        ("cylinder", "gm.txt", "--measure", "0", "--check-total"),
        ("eigenvalues", "wm_a.txt"), ("eigenvalues", "eig.txt"), ("export-dot", "dm.txt"),
        ("subst", "measures", "dm.sub"), ("subst", "measures", "tm.sub"),
    ], ids=" ".join)
    def test_a_request_leaves_no_cyclic_garbage(self, docs, argv):
        argv = [docs.get(a, a) for a in argv]
        run_cli(*argv)
        gc.collect()
        gc.disable()
        try:
            code, out, err = run_cli(*argv)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert code == 0 and err == ""
        assert garbage == 0


class TestCountOptions:
    """Every count option answers at once: values outside its domain exit
    2, and values that ask for more than a cap exit 5."""

    @pytest.mark.parametrize("argv, code, err", [
        (("subst", "expand", "tm.sub", "--steps", "-1"), 2,
         "error: --steps must be >= 0, got -1\n"),
        (("subst", "freqs", "tm.sub", "--steps", "-1"), 2,
         "error: --steps must be >= 0, got -1\n"),
        (("subst", "freqs", "tm.sub", "--steps", "100000"), 5,
         "error: expansion has at least 10^4300 letters\n"),
        (("subst", "expand", "tm.sub", "--steps", "100000000000"), 5,
         "error: expansion has at least 10^4300 letters\n"),
        (("subst", "freqs", "tm.sub", "--letter", "z"), 2,
         "error: --letter takes a letter of the alphabet, got 'z'\n"),
        (("subst", "expand", "tm.sub", "--cap", "-1"), 2,
         "error: --cap must be >= 1, got -1\n"),
        (("subst", "expand", "tm.sub", "--cap", "0", "--steps", "0"), 2,
         "error: --cap must be >= 1, got 0\n"),
        (("subst", "freqs", "tm.sub", "--cap", "0"), 2,
         "error: --cap must be >= 1, got 0\n"),
        (("verify", "b1o.txt", "--depth", "0"), 2, "error: --depth must be >= 1, got 0\n"),
        (("verify", "b1o.txt", "--depth", "-2"), 2, "error: --depth must be >= 1, got -2\n"),
        (("verify", "b1o.txt", "--depth", "10001"), 5,
         "error: --depth 10001 is above the cap of 10000\n"),
        (("eigenvalues", "wm_a.txt", "--qmax", "-3"), 2,
         "error: --qmax must be >= 1, got -3\n"),
        (("eigenvalues", "wm_a.txt", "--qmax", "0"), 2,
         "error: --qmax must be >= 1, got 0\n"),
        (("eigenvalues", "b1o.txt", "--qmax", "100000000000"), 5,
         "error: --qmax 100000000000 is above the cap of 1000000\n"),
        (("eigenvalues", "b1o.txt", "--window", "1000000:1000000"), 5,
         "error: --window level 1000000 is above the cap of 10000\n"),
        (("analyze", "b1o.txt", "--telescope", "1000"), 5,
         "error: telescoping by 1000 is above the cap of 1000000 levels or edges per level\n"),
        (("analyze", "b1.txt", "--telescope", "100000"), 5,
         "error: telescoping by 100000 is above the cap of 1000000 levels or edges per level\n"),
        (("subst", "measures", "cycles.sub"), 5,
         "error: telescoping by 2310 is above the cap of 1000000 levels or edges per level\n"),
    ])
    def test_refused_at_once(self, docs, argv, code, err):
        with time_limit(20):
            assert run_cli(*(docs.get(a, a) for a in argv)) == (code, "", err)

    def test_row_sums_far_apart_decide_in_seconds(self, tmp_path):
        # row sums 1 and 10^9 bracket rho = 1 + sqrt(10^9), which is irrational
        doc = tmp_path / "wide.txt"
        doc.write_text("n: 2\nincidence:\n1 1000000000\n1 1\n")
        with time_limit(10):
            code, out, err = run_cli("analyze", str(doc))
        assert (code, err) == (0, "")
        rho = re.search(r"rho=([0-9.]+)±", out).group(1)
        assert abs(float(rho) - (1 + math.sqrt(10 ** 9))) < 1e-6

    def test_unconverged_power_iteration_exits_5(self, tmp_path):
        # eigenvalues 1 +- sqrt(10^12 + 1), irrational and of nearly equal
        # moduli: the power iteration stops at its step cap
        doc = tmp_path / "far.txt"
        doc.write_text("n: 2\nincidence:\n1 1000000000001\n1 1\n")
        with time_limit(10):
            code, out, err = run_cli("analyze", str(doc))
        assert (code, out) == (5, "")
        assert err.startswith("error: power iteration stopped at its cap of 200000 steps "
                              "with residual ")
        assert "Traceback" not in err

    def test_telescoped_order_takes_log_k_compositions(self, docs):
        with time_limit(30):
            assert run_cli("analyze", docs["lin.txt"], "--telescope", "999000") == (
                3, "", "error: not aperiodic: initial class 0 has Perron value 1\n")
        with time_limit(20):
            assert run_cli("analyze", docs["chain.txt"], "--telescope", "3") == (
                5, "", "error: telescoping by 3 needs 100000000 order letters at power 2, "
                       "above the cap of 1000000\n")


HUGE = str(10 ** 30)
FUZZ_VALUES = {
    # verify prices every path down to --depth once per measure (the
    # oracle's path checks), which takes about 0.4 s on eig.txt at depth 5:
    # kept to depth 4; above 10^4 it is refused at once
    "--depth": ["-2", "-1", "0", "1", "2", "4", "10001", HUGE],
    # expand builds each (letter, k) word once, no longer than the result,
    # so a slowly growing letter answers at any count; --cap stays at its default
    "--steps": ["-2", "-1", "0", "1", "2", "3", "20", "1000", "100000", "1000000",
                "100000000", HUGE],
    "--path": ["11", "", " ", ",", "1,1.0", "2.1,2.0"],
    "--qmax": ["-5", "0", "1", "12", "10000000", HUGE, "x"],
    "--window": ["-1:2", "0:3", "1:1", "2:6", "6:12", "3:2", "1:10001", f"1:{HUGE}",
                 f"{HUGE}:{HUGE}", "3", "a:b"],
    "--telescope": ["auto", "x", "-1", "0", "1", "2", "3", "1000", "999999", HUGE],
    "--class": ["-1", "0", "1", "5"],
}
SOUP = ["analyze", "cylinder", "eigenvalues", "subst", "verify", "export-dot", "expand",
        "--report", "--path", "--measure", "--check-total", "--letter", "--graph",
        "--measures", "-1", "0", "1", "1:2", "b1o.txt", "tm.sub", "r.txt", "r.coef", "x",
        *FUZZ_VALUES]


@st.composite
def diagram_docs(draw):
    """Diagram text with entries -1..3 and, half the time, order words
    drawn from the rows (sometimes one source short)."""
    n = draw(st.integers(1, 3))
    rows = [[draw(st.integers(-1, 3)) for _ in range(n)] for _ in range(n)]
    text = f"n: {n}\nincidence:\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
    if draw(st.booleans()):
        text += "order:\n"
        for v, row in enumerate(rows):
            word = draw(st.permutations([str(w + 1) for w, k in enumerate(row)
                                         for _ in range(max(k, 0))]))
            text += f"{v + 1}: {''.join(word[draw(st.integers(0, 1)):])}\n"
    return text


@st.composite
def substitution_docs(draw):
    letters = draw(st.sampled_from(["a", "ab", "ab1"]))
    rules = "".join(f"{a}: {draw(st.text(letters, min_size=1, max_size=3))}\n"
                    for a in letters)
    return f"alphabet: {' '.join(letters)}\nrules:\n{rules}"


@st.composite
def cli_argvs(draw):
    doc = draw(st.sampled_from(["b1.txt", "b1o.txt", "wm_a.txt", "eig.txt", "dm.txt",
                                "r.txt", "absent.txt"]))
    sub = draw(st.sampled_from(["tm.sub", "dm.sub", "lin.sub", "r.sub", "absent.sub"]))
    action = draw(st.sampled_from(["matrix", "diagram", "expand", "freqs", "measures"]))
    argv, options = draw(st.sampled_from([
        (["analyze", doc], ["--telescope"]),
        (["analyze", doc, "--report"], ["--telescope"]),
        (["cylinder", doc, "--measure", "0", "--path", "11"], ["--path", "--telescope"]),
        (["cylinder", doc, "--measure", "1", "--check-total"], ["--telescope"]),
        (["cylinder", doc, "--measure", "r.coef", "--check-total"], ["--telescope"]),
        (["eigenvalues", doc], ["--class", "--qmax", "--window", "--telescope"]),
        (["verify", doc, "--depth", "1"], ["--depth", "--telescope"]),
        (["export-dot", doc], []),
        (["subst", action, sub], ["--steps"]),
        (["subst", action, sub, "--letter", "b"], ["--steps"]),
    ]))
    for option in options:
        if draw(st.booleans()):
            argv += [option, draw(st.sampled_from(FUZZ_VALUES[option]))]
    # a command line holds no NUL and no surrogate outside surrogateescape
    soup = draw(st.lists(st.sampled_from(SOUP) | st.text(st.characters(
        exclude_categories=("Cs",), exclude_characters="\x00"), max_size=4),
        max_size=5))
    return draw(st.sampled_from([argv, argv, argv, argv + soup, soup]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in DOCS.items():
        (root / name).write_text(text)
    return root


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=cli_argvs(), diagram=diagram_docs(), substitution=substitution_docs(),
       coefficients=st.lists(st.sampled_from("0 1 1/2 2/3 -1 0.5 inf x".split()),
                             max_size=3))
def test_cli_fuzz_exits_with_a_documented_code(fuzz_dir, argv, diagram, substitution,
                                               coefficients):
    """Any command line ends, with exit 0, 2, 3, 4 or 5 and no traceback."""
    (fuzz_dir / "r.txt").write_text(diagram)
    (fuzz_dir / "r.sub").write_text(substitution)
    (fuzz_dir / "r.coef").write_text(f"coefficients: {' '.join(coefficients)}\n")
    files = set(DOCS) | {"r.txt", "r.sub", "r.coef", "absent.txt", "absent.sub"}
    with time_limit(20):
        try:
            code, _, err = run_cli(*(str(fuzz_dir / a) if a in files else a for a in argv))
        except SystemExit as e:  # argparse usage errors
            code, err = e.code, ""
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err


def test_equivalence_corpus_slice():
    """The first cases of the seeded corpus of ``equivalence.py`` give the
    exit codes and output digests recorded in ``equivalence.json``."""
    rows = equivalence.record(60)
    assert len(rows) == 720
    assert equivalence.compare(equivalence.load(Path(__file__).with_name("equivalence.json")),
                               rows) == []
