"""Per-layer tracing of hcbloch from outside the program.

``Tracer.install`` replaces each traced function at every module attribute
through which hcbloch (or ARPACK) looks it up with a wrapper that adds the
call's wall time to its span; ``Tracer.restore`` puts the originals back.
Nothing under ``src/`` changes.  Spans nest: each span also records the time
covered by its direct child spans, which gives self times.

``layer_metrics`` turns a trace snapshot into the named per-layer metrics
of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from functools import wraps

ARPACK = "scipy.sparse.linalg._eigen.arpack.arpack"  # binds its own splu

# span -> the (module, attribute) lookups that resolve to the traced function
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "parse": (("hcbloch.cli", "parse_config"),),
    "classify": (("hcbloch.cli", "classify_nodes"), ("hcbloch.validation", "classify_nodes")),
    "assemble": (("hcbloch.operators", "full_stiffness"), ("hcbloch.bloch", "full_stiffness"),
                 ("hcbloch.validation", "full_stiffness")),
    "factor": (("scipy.sparse.linalg", "splu"), (ARPACK, "splu")),
    "eigensolve": (("hcbloch.bloch", "eigensolve"),),
    "eigh_dense": (("hcbloch.operators", "eigh"),),
    "eigsh": (("scipy.sparse.linalg", "eigsh"),),
    "linear_solve": (("hcbloch.beta", "linear_solve"), ("hcbloch.cell", "linear_solve"),
                     ("hcbloch.validation", "linear_solve")),
    "cg": (("scipy.sparse.linalg", "cg"),),
    "sweep": (("hcbloch.cli", "theta_sweep"),),
    "bloch_eigs": (("hcbloch.bloch", "bloch_eigs"), ("hcbloch.cli", "bloch_eigs"),
                   ("hcbloch.validation", "bloch_eigs")),
    "cell": (("hcbloch.cli", "solve_cell_problem"), ("hcbloch.validation", "solve_cell_problem")),
    "lifts": (("hcbloch.beta", "solve_lifts"), ("hcbloch.validation", "solve_lifts")),
    "roots": (("hcbloch.beta", "spatial_spectrum"),),
    "spatial_points": (("hcbloch.cli", "spatial_points"),),
    "report": (("hcbloch.cli", "convergence_report"),),
    "eps_solve": (("hcbloch.validation", "solve_eps"),),
    "homogenized": (("hcbloch.validation", "solve_homogenized"),),
    "pairing": (("hcbloch.validation", "two_scale_pairing"),),
}


class Tracer:
    """Span totals and counters of one traced process."""

    def __init__(self):
        self.time: dict[str, float] = defaultdict(float)
        self.child_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, observe=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            covered = [0.0]
            self._stack.append(covered)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.time[name] += elapsed
                self.child_time[name] += covered[0]
                self.calls[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self):
        counts = self.counts

        def factor(args, lu):
            counts["lu_fill_nnz"] += lu.nnz
            counts["lu_fill_max"] = max(counts["lu_fill_max"], lu.nnz)

        def eps_solve(args, sol):
            counts["eps_unknowns"] += args[0].n_fine ** 3

        def spatial_points(args, roots):
            counts["spatial_roots"] += len(roots)

        return {"factor": factor, "eps_solve": eps_solve, "spatial_points": spatial_points}

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        observers = self._observers()
        for name, lookups in SPANS.items():
            for module, attr in lookups:
                owner = importlib.import_module(module)
                fn = getattr(owner, attr)
                if name == "cg":
                    fn = self._counting_cg(fn)
                self._patch(owner, attr, self._span(name, fn, observers.get(name)))
        beta_matrix = importlib.import_module("hcbloch.beta").BetaMatrix
        self._patch(beta_matrix, "__call__", self._counting(beta_matrix.__call__, "beta_evals"))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counting(self, fn, key: str):
        """Count calls without timing them: ``BetaMatrix.__call__`` runs ~10^5 times."""
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_cg(self, cg):
        """``scipy.sparse.linalg.cg`` with a callback that counts iterations."""
        counts = self.counts

        @wraps(cg)
        def wrapper(*args, callback=None, **kwargs):
            def tick(xk):
                counts["cg_iterations"] += 1
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=tick, **kwargs)

        return wrapper

    def snapshot(self, import_s: float) -> dict:
        return {
            "import_s": import_s,
            "time": dict(self.time),
            "child_time": dict(self.child_time),
            "calls": dict(self.calls),
            "raised": dict(self.raised),
            "counts": dict(self.counts),
        }


def layer_metrics(snap: dict | None) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics ``name -> (value, unit)`` of one traced run.

    A missing snapshot (the traced child failed) gives zeros, so that every
    metric is still reported; the run is then marked incorrect.
    """
    snap = snap or {"import_s": 0.0}
    t = defaultdict(float, snap.get("time", {}))
    child = defaultdict(float, snap.get("child_time", {}))
    calls = defaultdict(int, snap.get("calls", {}))
    raised = defaultdict(int, snap.get("raised", {}))
    counts = defaultdict(float, snap.get("counts", {}))

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.import_s": (snap["import_s"], "s"),
        "config.parse_s": (t["parse"], "s"),
        "geometry.classify_s": (t["classify"], "s"),
        "operators.assemble_s": (t["assemble"], "s"),
        "operators.assemble_calls": (calls["assemble"], "count"),
        "operators.factor_s": (t["factor"], "s"),
        "operators.factorizations": (calls["factor"], "count"),
        "operators.lu_fill_nnz": (counts["lu_fill_nnz"], "count"),
        "operators.lu_fill_max": (counts["lu_fill_max"], "count"),
        "operators.factorizations_per_theta": (ratio(calls["factor"], calls["bloch_eigs"]),
                                               "ratio"),
        "operators.eigensolve_s": (t["eigensolve"], "s"),
        "operators.eigensolve_calls": (calls["eigensolve"], "count"),
        "operators.eigensolve_dense_calls": (calls["eigh_dense"], "count"),
        "operators.arpack_failures": (raised["eigsh"], "count"),
        "operators.linear_solve_s": (t["linear_solve"], "s"),
        "operators.linear_solve_calls": (calls["linear_solve"], "count"),
        "operators.cg_s": (t["cg"], "s"),
        "operators.cg_iterations": (counts["cg_iterations"], "count"),
        "bloch.sweep_s": (t["sweep"], "s"),
        "bloch.theta_points": (calls["bloch_eigs"], "count"),
        "cell.solve_s": (t["cell"], "s"),
        "beta.lifts_s": (t["lifts"], "s"),
        "beta.lift_calls": (calls["lifts"], "count"),
        "beta.roots_s": (t["roots"], "s"),
        "beta.evals": (counts["beta_evals"], "count"),
        "beta.spatial_roots": (counts["spatial_roots"], "count"),
        "beta.evals_per_root": (ratio(counts["beta_evals"], counts["spatial_roots"]), "ratio"),
        "validation.report_s": (t["report"], "s"),
        "validation.eps_solve_s": (t["eps_solve"], "s"),
        "validation.eps_unknowns": (counts["eps_unknowns"], "count"),
        "validation.homogenized_s": (t["homogenized"], "s"),
        "validation.pairing_s": (t["pairing"], "s"),
        "validation.report_self_s": (t["report"] - child["report"], "s"),
    }
