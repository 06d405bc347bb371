"""Spans around bratteli's public functions, installed from outside.

``Tracer.install`` replaces each traced function, in every bratteli
module that binds it (``decompose`` is imported by name into cli,
measures, vershik and substitution), with a wrapper that records one span
``[name, start, end, parent, op, info]`` in memory.  ``info`` is a small
count read off the call (a result length, a flag); it is taken after the
span closes.  ``uninstall`` puts the original functions back.  No file
under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import checks


def _eigen_info(args, kwargs, result):
    thetas = kwargs.get("thetas", args[6] if len(args) > 6 else None)
    q_max = kwargs.get("q_max", args[2] if len(args) > 2 else None)
    return [len(result), len(thetas) if thetas is not None else -q_max]


# (module, function, info(args, kwargs, result) or None)
TARGETS = [
    ("cli", "main", None),
    ("documents", "parse_diagram", None),
    ("documents", "parse_substitution", None),
    ("documents", "parse_measures", None),
    ("documents", "parse_coefficients", None),
    ("documents", "serialize_diagram", None),
    ("documents", "serialize_substitution", None),
    ("documents", "serialize_measures", None),
    ("documents", "serialize_coefficients", None),
    ("substitution", "substitution_measures", None),
    ("substitution", "growth_check", None),
    ("spectral", "decompose", None),
    ("spectral", "perron_pair", lambda a, k, r: int(r[0].is_exact)),
    ("spectral", "core_membership", None),
    ("linalg", "char_poly", lambda a, k, r: len(a[0])),
    ("linalg", "positive_divisors", lambda a, k, r: len(r)),
    ("linalg", "lp_nonneg_solve", None),
    ("linalg", "rref", None),
    ("linalg", "kernel_basis", None),
    ("linalg", "solve_exact", None),
    ("linalg", "solve_square", None),
    ("linalg", "mat_pow", None),
    ("vershik", "enumerate_diamonds", lambda a, k, r: len(r)),
    ("vershik", "_p_tables", lambda a, k, r: len(r)),
    ("vershik", "candidate_thetas", None),
    ("vershik", "eigenvalue_search", _eigen_info),
    ("vershik", "successor", None),
    ("oracle", "verify_invariance", lambda a, k, r: [r.checks_run, len(r.skipped)]),
    ("oracle", "brute_force_Q", None),
    ("diagram", "enumerate_paths", lambda a, k, r: len(r)),
    ("diagram", "telescope", None),
    ("measures", "enumerate_ergodic", None),
    ("measures", "enumerate_infinite", None),
    ("measures", "tail_valuation", None),
]
ELIM = {"linalg.rref", "linalg.kernel_basis", "linalg.solve_exact", "linalg.solve_square"}
CAP_ERRORS = ("CapExceeded", "SizeRefused")

# per-layer metric -> unit; every one is reported for every workload
LAYER_METRICS = {
    "cli.self_ms": "ms", "documents.parse_ms": "ms", "documents.serialize_ms": "ms",
    "substitution.measures_ms": "ms", "substitution.growth_check_ms": "ms",
    "spectral.decompose_calls_per_op": "count", "spectral.decompose_ms": "ms",
    "linalg.char_poly_ms": "ms", "linalg.char_poly_calls": "count",
    "linalg.char_poly_max_n": "count", "linalg.divisors_ms": "ms",
    "linalg.divisors_listed": "count", "spectral.perron_pair_ms": "ms",
    "spectral.perron_exact_share": "ratio",
    "vershik.diamonds": "count", "vershik.enumerate_diamonds_ms": "ms",
    "vershik.p_tables_ms": "ms", "vershik.p_table_rows": "count",
    "vershik.search_self_ms": "ms", "vershik.candidate_thetas_ms": "ms",
    "vershik.thetas": "count", "vershik.theta_pass_ratio": "ratio",
    "vershik.successor_calls": "count", "vershik.successor_ms": "ms",
    "oracle.verify_invariance_ms": "ms", "oracle.invariance_checks": "count",
    "oracle.skipped": "count", "oracle.brute_force_Q_ms": "ms",
    "diagram.paths_enumerated": "count", "diagram.enumerate_paths_ms": "ms",
    "diagram.telescope_ms": "ms",
    "linalg.lp_calls": "count", "linalg.lp_ms": "ms", "linalg.elim_ms": "ms",
    "linalg.elim_calls": "count", "spectral.core_membership_ms": "ms",
    "spectral.core_verdicts": "count", "measures.enumerate_ms": "ms",
    "measures.tail_valuation_ms": "ms", "linalg.mat_pow_ms": "ms",
    "errors.cap_hits": "count", "cli.stdout_changed": "count", "cli.stdout_checked": "count",
    "trace.spans": "count", "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index, op id, info]
        self.stack = []
        self.op = None          # id of the op being run, set by the harness
        self._undo = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "bratteli" or n.startswith("bratteli."))]
        for mod_name, fn_name, info in TARGETS:
            orig = getattr(sys.modules[f"bratteli.{mod_name}"], fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", orig, info)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))
        errors = sys.modules["bratteli.errors"]
        for cls_name in CAP_ERRORS:
            cls = getattr(errors, cls_name)
            own = cls.__dict__.get("__init__")
            cls.__init__ = self.wrap("errors.cap_hit", cls.__init__)
            self._undo.append((cls, "__init__", own))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(target, attr)
            else:
                setattr(target, attr, orig)
        self._undo.clear()

    def dump(self, path, op_keys):
        """Spans as JSON lines: a header naming the ops, then one span each."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op", "info"],
                                 "ops": op_keys}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


@functools.lru_cache(maxsize=None)
def _candidates(q_max):
    return checks.candidate_count(q_max)


def layer_metrics(spans, lo, hi, n_ops):
    """Per-layer numbers of the traced pass spans[lo:hi]: self time (span
    time minus its direct children) summed per layer, and the counts read
    off the calls."""
    child = defaultdict(float)
    for rec in spans[lo:hi]:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(list)
    elim_calls = 0
    for i in range(lo, hi):
        rec = spans[i]
        name = rec[0]
        self_ms[name] += (rec[2] - rec[1] - child[i]) * 1e3
        calls[name] += 1
        if rec[5] is not None:
            info[name].append(rec[5])
        if name in ELIM and (rec[3] < 0 or spans[rec[3]][0] not in ELIM):
            elim_calls += 1

    def ms(*names):
        return sum(self_ms[n] for n in names)

    passed = sum(p for p, _ in info["vershik.eigenvalue_search"])
    tested = sum(t if t >= 0 else _candidates(-t) for _, t in info["vershik.eigenvalue_search"])
    checks_run = sum(c for c, _ in info["oracle.verify_invariance"])
    skipped = sum(s for _, s in info["oracle.verify_invariance"])
    perron = info["spectral.perron_pair"]
    return {
        "cli.self_ms": ms("cli.main"),
        "documents.parse_ms": ms(*(f"documents.parse_{k}" for k in
                                   ("diagram", "substitution", "measures", "coefficients"))),
        "documents.serialize_ms": ms(*(f"documents.serialize_{k}" for k in
                                       ("diagram", "substitution", "measures", "coefficients"))),
        "substitution.measures_ms": ms("substitution.substitution_measures"),
        "substitution.growth_check_ms": ms("substitution.growth_check"),
        "spectral.decompose_calls_per_op": calls["spectral.decompose"] / n_ops,
        "spectral.decompose_ms": ms("spectral.decompose"),
        "linalg.char_poly_ms": ms("linalg.char_poly"),
        "linalg.char_poly_calls": calls["linalg.char_poly"],
        "linalg.char_poly_max_n": max(info["linalg.char_poly"], default=0),
        "linalg.divisors_ms": ms("linalg.positive_divisors"),
        "linalg.divisors_listed": sum(info["linalg.positive_divisors"]),
        "spectral.perron_pair_ms": ms("spectral.perron_pair"),
        "spectral.perron_exact_share": sum(perron) / len(perron) if perron else 0.0,
        "vershik.diamonds": sum(info["vershik.enumerate_diamonds"]),
        "vershik.enumerate_diamonds_ms": ms("vershik.enumerate_diamonds"),
        "vershik.p_tables_ms": ms("vershik._p_tables"),
        "vershik.p_table_rows": sum(info["vershik._p_tables"]),
        "vershik.search_self_ms": ms("vershik.eigenvalue_search"),
        "vershik.candidate_thetas_ms": ms("vershik.candidate_thetas"),
        "vershik.thetas": tested,
        "vershik.theta_pass_ratio": passed / tested if tested else 0.0,
        "vershik.successor_calls": calls["vershik.successor"],
        "vershik.successor_ms": ms("vershik.successor"),
        "oracle.verify_invariance_ms": ms("oracle.verify_invariance"),
        "oracle.invariance_checks": checks_run,
        "oracle.skipped": skipped,
        "oracle.brute_force_Q_ms": ms("oracle.brute_force_Q"),
        "diagram.paths_enumerated": sum(info["diagram.enumerate_paths"]),
        "diagram.enumerate_paths_ms": ms("diagram.enumerate_paths"),
        "diagram.telescope_ms": ms("diagram.telescope"),
        "linalg.lp_calls": calls["linalg.lp_nonneg_solve"],
        "linalg.lp_ms": ms("linalg.lp_nonneg_solve"),
        "linalg.elim_ms": ms(*ELIM),
        "linalg.elim_calls": elim_calls,
        "spectral.core_membership_ms": ms("spectral.core_membership"),
        "spectral.core_verdicts": calls["spectral.core_membership"],
        "measures.enumerate_ms": ms("measures.enumerate_ergodic", "measures.enumerate_infinite"),
        "measures.tail_valuation_ms": ms("measures.tail_valuation"),
        "linalg.mat_pow_ms": ms("linalg.mat_pow"),
        "errors.cap_hits": calls["errors.cap_hit"],
        "trace.spans": hi - lo,
    }


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
