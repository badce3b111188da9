"""One workload process of the benchmark; ``run.py`` starts it.

The process imports jensengeo from the checkout, makes its inputs from
the seed, warms up, and stamps the end of set-up. Then it runs whole
rounds of the same tasks until ``--seconds`` have passed, timing each
task and checking every output against ``reference.py`` or a property
the paper proves. The last line of stdout is a JSON summary. With
``--setup-only`` it stops after set-up. With ``--trace 1`` it wraps the
package's functions (``tracing.py``), folds each task's spans into
per-layer sums, and writes the spans of the first tasks to ``out/``.
"""

from __future__ import annotations

import time

# Set-up starts with the package import, timed before anything else is
# imported so that it includes numpy and scipy as in a fresh interpreter.
_import_start = time.perf_counter()
import jensengeo  # noqa: E402
from jensengeo import bounds, geometry  # noqa: E402

IMPORT_MS = (time.perf_counter() - _import_start) * 1e3

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import reference as R  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
ORDERS = (0.5, 1.0, 1.5, 2.0)
SPAN_CAP = 50_000  # spans written to out/ per traced run
CLI_TIMEOUT_S = 60.0


def stamp_ns() -> int:
    """CLOCK_MONOTONIC, which every process on the machine shares."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class Task:
    """One timed call sequence and the checks of its outputs.

    ``run`` makes the program calls and returns their outputs; it is
    the timed part. ``check`` maps each operation in ``ops`` to whether
    its outputs passed. An operation in ``faults`` fails today because
    of a known program fault; its failure counts as failed, not wrong.
    """

    name: str
    alpha: float
    values: tuple[int, int]  # classical and quantum divergence values requested
    ops: tuple[str, ...]
    run: Callable[[], object]
    check: Callable[[object], dict]
    faults: frozenset = frozenset()
    note: dict = field(default_factory=dict)


def order_key(alpha: float) -> str:
    return "order1" if alpha == 1.0 else "other"


# ---------------------------------------------------------------------------
# input generation (numpy only)
# ---------------------------------------------------------------------------


def distributions(rng, count: int, n: int, zeros: bool):
    P = rng.dirichlet(np.ones(n), size=count)
    if zeros:
        mask = rng.random((count, n)) < 0.3
        mask[np.arange(count), rng.integers(0, n, size=count)] = False
        P = np.where(mask, 0.0, P)
        P = P / P.sum(axis=1, keepdims=True)
    return P


def ginibre(rng, count: int, d: int):
    G = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    A = G @ np.conj(np.swapaxes(G, 1, 2))
    return A / np.trace(A, axis1=1, axis2=2).real[:, None, None]


def pure(rng, count: int, d: int):
    v = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, :, None] * np.conj(v[:, None, :])


# ---------------------------------------------------------------------------
# classical-certify
# ---------------------------------------------------------------------------

# (points, letters, some zero entries). Three shapes of distinct cost, so
# that the median and the 95th percentile of a round's task times fall
# inside one shape's tasks rather than between two.
CLASSICAL_SHAPES = ((24, 3, True), (32, 5, True), (40, 10, False))
MENGER_POINTS = 8  # 247 subsets; at 10 points (1013) the subset test outweighs the pair loop


def classical_tasks(rng) -> list[Task]:
    tasks = []
    for N, n, zeros in CLASSICAL_SHAPES:
        for a in ORDERS:
            P = distributions(rng, N, n, zeros)
            tasks.append(classical_task(P, a, f"N{N}-n{n}-a{a}"))
    return tasks


def classical_task(P, a: float, name: str) -> Task:
    points = list(P)  # plain arrays: the program validates each one
    k = min(MENGER_POINTS, len(points))

    def run():
        D = geometry.divergence_matrix(points, a)
        report = geometry.negative_type_check(D)
        emb = geometry.embed(D)
        menger = geometry.menger_embeddability(D.d[:k, :k])
        return D, report, emb, menger

    def check(out):
        D, report, emb, menger = out
        ref = R.jd_matrix(P, a)
        scale = max(float(ref.max()), 1e-300)
        margin = R.centred_min_eigenvalue(ref)
        return {
            "matrix": R.close(D.d, ref, 1e-12),
            # negative type is proven for every classical set at orders in (0, 2]
            "negative_type": bool(report.is_negative_type)
            and abs(report.min_eigenvalue - margin) <= 1e-12 * len(P) * scale,
            "embed": R.close(R.squared_distances(emb.coords), ref, 1e-9 * scale),
            "menger": bool(menger) is bool(report.is_negative_type) is True,
        }

    pairs = len(P) * (len(P) - 1) // 2
    return Task(name, a, (pairs, 0), ("matrix", "negative_type", "embed", "menger"), run, check)


# ---------------------------------------------------------------------------
# quantum-certify
# ---------------------------------------------------------------------------

# (kind, dimension, points, negative type proven). The qutrit sets come
# twice, so that the slowest tasks, the three mixed sets at order 1, make
# up 1/8 of a round and the 95th percentile falls inside their times.
QUANTUM_KINDS = (
    ("qubit", 2, 20, True),
    ("pure", 3, 20, True),
    ("pure", 4, 20, True),
    ("mixed", 3, 24, False),
    ("mixed", 3, 24, False),
    ("mixed", 4, 20, False),
)


def quantum_tasks(rng) -> list[Task]:
    tasks = []
    for i, (kind, d, N, proven) in enumerate(QUANTUM_KINDS):
        for a in ORDERS:
            S = pure(rng, N, d) if kind == "pure" else ginibre(rng, N, d)
            tasks.append(quantum_task(S, a, proven, f"set{i}-{kind}{d}-N{N}-a{a}"))
    return tasks


def quantum_task(S, a: float, proven: bool, name: str) -> Task:
    states = list(S)

    def run():
        D = geometry.divergence_matrix(states, a)
        return D, geometry.negative_type_check(D)

    def check(out):
        D, report = out
        ref = R.qjd_matrix(S, a)
        margin = R.centred_min_eigenvalue(ref)
        task.note["margin"] = margin
        tol = R.quantum_tolerance(S.shape[1], a)
        agrees = abs(report.min_eigenvalue - margin) <= len(S) * tol
        # qubits and pure states are of negative type at orders in (0, 2];
        # for mixed states with d >= 3 the margin is measured, not asserted
        verdict = report.is_negative_type if proven else (
            report.is_negative_type is (report.min_eigenvalue >= -report.tol)
        )
        return {"matrix": R.close(D.d, ref, tol), "negative_type": agrees and bool(verdict)}

    pairs = len(S) * (len(S) - 1) // 2
    task = Task(name, a, (0, pairs), ("matrix", "negative_type"), run, check)
    return task


# ---------------------------------------------------------------------------
# bounds-sweep
# ---------------------------------------------------------------------------

SHEET_LETTERS = (2, 3, 4)
GRID = 20
SHEET_PAIRS = 4


def bounds_tasks(rng) -> list[Task]:
    tasks = []
    for a in ORDERS:
        for n in SHEET_LETTERS:
            P = distributions(rng, 2 * SHEET_PAIRS, n, zeros=n > 2)
            rho = ginibre(rng, 2 * SHEET_PAIRS, n)
            vs = rng.uniform(0.05, 2.0, size=SHEET_PAIRS)
            tasks.append(bounds_task(a, n, P, rho, vs))
    return tasks


def bounds_task(a: float, n: int, P, rho, vs) -> Task:
    pairs = [(P[2 * i], P[2 * i + 1]) for i in range(SHEET_PAIRS)]
    qpairs = [(rho[2 * i], rho[2 * i + 1]) for i in range(SHEET_PAIRS)]
    chain = 1.0 <= a <= 2.0
    # the emitted lower curve is L; it is checked at n >= 3 and orders 1.5 and 2
    lower_curve = n >= 3 and a in (1.5, 2.0)

    def run():
        return (
            bounds.diagram(a, n, GRID),
            [bounds.bound_report(p, q, a) for p, q in pairs],
            [bounds.q_bound_report(r1, r2, a) for r1, r2 in qpairs],
            [bounds.chain_check(p, q, a) for p, q in pairs] if chain else [],
            [bounds.upper_witness_pair(v, n) for v in vs],
        )

    def check(out):
        diagram, reports, qreports, chains, witnesses = out
        result = {"diagram": check_diagram(diagram, a, n)}
        if lower_curve:
            result["diagram_lower_curve"] = check_lower_curve(diagram)
        for i, ((p, q), rep) in enumerate(zip(pairs, reports)):
            result[f"bound_report{i}"] = check_bound_report(rep, p, q, a, n)
        for i, ((r1, r2), rep) in enumerate(zip(qpairs, qreports)):
            result[f"q_bound_report{i}"] = check_q_bound_report(rep, r1, r2, a, n)
        for i, ((p, q), ch) in enumerate(zip(pairs, chains)):
            result[f"chain{i}"] = check_chain(ch, p, q, a, n)
        result["upper_witness"] = all(
            check_upper_witness(w, v, a, n) for w, v in zip(witnesses, vs)
        )
        return result

    ops = ["diagram"] + (["diagram_lower_curve"] if lower_curve else [])
    ops += [f"bound_report{i}" for i in range(SHEET_PAIRS)]
    ops += [f"q_bound_report{i}" for i in range(SHEET_PAIRS)]
    ops += [f"chain{i}" for i in range(SHEET_PAIRS)] if chain else []
    ops.append("upper_witness")
    classical_values = GRID * GRID + SHEET_PAIRS * (2 if chain else 1)
    return Task(
        f"a{a}-n{n}", a, (classical_values, SHEET_PAIRS), tuple(ops), run, check,
        faults=frozenset({"diagram_lower_curve"}),
    )


def check_diagram(diagram, a: float, n: int) -> bool:
    vs = np.linspace(0.0, 2.0, GRID)
    P, Q = R.homotopy_pairs(np.linspace(0.0, 1.0, GRID), vs, n)
    samples = np.asarray(diagram.homotopy_samples, dtype=float)
    if samples.shape != (GRID * GRID, 3):
        return False
    ref = R.jd_rows(P, Q, a)
    v = np.sum(np.abs(P - Q), axis=1)
    lower = np.array([R.proven_lower(x, a, n) for x in v])
    upper_curve = np.asarray(diagram.curve_upper, dtype=float)
    return (
        R.close(samples[:, 2], ref, 1e-12)
        and R.close(samples[:, 1], v, 1e-12)
        and bool(np.all(ref >= lower - 1e-12))
        and bool(np.all(ref <= R.upper_curve(v, a, n) + 1e-12))
        and R.close(upper_curve[:, 0], vs, 1e-15)
        and R.close(upper_curve[:, 1], R.upper_curve(vs, a, n), 1e-12)
    )


def check_lower_curve(diagram) -> bool:
    """Every sample lies on or above the emitted lower curve.

    The curve is compared at the largest grid point at or below the
    sample's v: the lower edge of the joint range rises with v at orders
    in [1, 2], so this holds for any correct lower curve without
    interpolating between grid points.
    """
    curve = np.asarray(diagram.curve_lower, dtype=float)
    samples = np.asarray(diagram.homotopy_samples, dtype=float)
    below = np.searchsorted(curve[:, 0], samples[:, 1] + 1e-12, side="right") - 1
    return bool(np.all(samples[:, 2] >= curve[below, 1] - 1e-12))


def check_bound_report(rep, p, q, a: float, n: int) -> bool:
    ref = R.jd(p, q, a)
    v = R.total_variation(p, q)
    upper = R.upper_two(v, a) if n == 2 else R.upper_alpha_norm(p, q, a)
    return (
        abs(rep.value - ref) <= 1e-12
        and abs(rep.v - v) <= 1e-12
        and rep.lower <= ref + 1e-12 <= rep.upper + 2e-12
        and R.proven_lower(v, a, n) <= ref + 1e-12 <= upper + 2e-12
    )


def check_q_bound_report(rep, r1, r2, a: float, d: int) -> bool:
    ref = R.qjd(r1, r2, a)
    t = R.trace_distance(r1, r2)
    ok = (
        abs(rep.value - ref) <= 1e-10
        and abs(rep.v - t) <= 1e-10
        and rep.lower <= ref + 1e-10
        and R.proven_lower(t, a, d) <= ref + 1e-10
    )
    if 1.0 <= a <= 2.0:  # the trace-norm upper bound is proven only there
        ok = ok and ref <= rep.upper + 1e-10 and ref <= R.LN2 / 2.0 * t + 1e-10
    return ok


def check_chain(ch, p, q, a: float, n: int) -> bool:
    ref = R.jd(p, q, a)
    v = R.total_variation(p, q)
    ok = (
        abs(ch.jd - ref) <= 1e-12
        and abs(ch.alpha_norm_upper - R.upper_alpha_norm(p, q, a)) <= 1e-12
        and abs(ch.tv_upper - R.LN2 / 2.0 * v) <= 1e-12
        and ref <= ch.alpha_norm_upper + 1e-12 <= ch.tv_upper + 2e-12
    )
    if n == 2 or a == 1.0:
        ok = ok and v * v / 8.0 <= ref + 1e-12
    return ok


def check_upper_witness(pair, v: float, a: float, n: int) -> bool:
    p, q = (np.asarray(x, dtype=float) for x in pair)
    bound = R.upper_two(v, a) if n == 2 else R.upper_alpha_norm(p, q, a)
    return (
        R.is_distribution(p)
        and R.is_distribution(q)
        and abs(R.total_variation(p, q) - v) <= 1e-12
        and abs(R.jd(p, q, a) - bound) <= 1e-12
        and abs(bound - R.upper_curve(v, a, n)) <= 1e-12
    )


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

CLI_POINTS = 8
# 15 calls of about 0.85 s make a round of about 13 s. A run of 20 s then
# always ends after two rounds; with a round near 10 s, runs ended after
# two or three rounds depending on the machine's speed at the time.
MALFORMED = (
    ("jd-general", "--family", '{"weights":[1],"members":5}'),
    ("qjd-general", "--family", '{"weights":[1],"members":[{"entries":[[1]]}]}'),
)


def density_json(A) -> dict:
    return {"dim": int(A.shape[0]), "entries": [[[z.real, z.imag] for z in row] for row in A.tolist()]}


def cli_workload(rng, env: dict, traced: bool) -> Workload:
    p5 = distributions(rng, 1, 5, zeros=False)[0]
    rho = ginibre(rng, 2, 3)
    psi = pure(rng, 2, 2)
    sigma = ginibre(rng, 2, 2)
    pq = distributions(rng, 2, 4, zeros=True)
    pq6 = distributions(rng, 2, 6, zeros=False)
    points = distributions(rng, CLI_POINTS, 4, zeros=True)
    ce_alpha = float(rng.uniform(2.05, 2.95))
    x, pi_alpha = float(rng.uniform(0.1, 2.0)), float(rng.uniform(1.1, 1.9))
    gen_seed = int(rng.integers(0, 2**31))
    OUT.mkdir(exist_ok=True)
    points_file = OUT / f"cli-points-{os.getpid()}.json"
    points_file.write_text(json.dumps(points.tolist()))
    pts = str(points_file)
    ref_points = R.jd_matrix(points, 1.0)
    ref_points_half = R.jd_matrix(points, 0.5)
    pairs = CLI_POINTS * (CLI_POINTS - 1) // 2
    js = lambda v: json.dumps(np.asarray(v).tolist())  # noqa: E731

    def value(out):
        return out["json"]["value"]

    calls = [
        ("entropy", 1.5, (0, 0), ["entropy", "--alpha", "1.5", "--p", js(p5)],
         lambda o: abs(value(o) - float(R.entropy(p5, 1.5))) <= 1e-12),
        ("jd", 1.0, (1, 0), ["jd", "--p", "[1,0]", "--q", "[0,1]"],
         lambda o: abs(value(o) - R.LN2) <= 1e-15),
        ("jd-seeded", 0.5, (1, 0), ["jd", "--alpha", "0.5", "--p", js(pq6[0]), "--q", js(pq6[1])],
         lambda o: abs(value(o) - R.jd(pq6[0], pq6[1], 0.5)) <= 1e-12),
        ("qjd", 1.0, (0, 1), ["qjd", "--rho1", json.dumps(density_json(rho[0])),
                              "--rho2", json.dumps(density_json(rho[1]))],
         lambda o: abs(value(o) - R.qjd(rho[0], rho[1], 1.0)) <= 1e-10),
        ("qjd-pure", 2.0, (0, 1), ["qjd", "--alpha", "2", "--rho1", json.dumps(density_json(psi[0])),
                                   "--rho2", json.dumps(density_json(psi[1]))],
         lambda o: abs(value(o) - R.qjd(psi[0], psi[1], 2.0)) <= 1e-10),
        ("bounds", 1.5, (1, 0), ["bounds", "--alpha", "1.5", "--p", js(pq[0]), "--q", js(pq[1])],
         lambda o: check_cli_bounds(o["json"], pq[0], pq[1], 1.5)),
        ("bounds-states", 1.5, (0, 1), ["bounds", "--alpha", "1.5",
                                        "--rho1", json.dumps(density_json(sigma[0])),
                                        "--rho2", json.dumps(density_json(sigma[1]))],
         lambda o: check_cli_q_bounds(o["json"], sigma[0], sigma[1], 1.5)),
        ("chain", 1.5, (1, 0), ["chain", "--alpha", "1.5", "--p", js(pq[0]), "--q", js(pq[1])],
         lambda o: abs(o["json"]["jd"] - R.jd(pq[0], pq[1], 1.5)) <= 1e-12
         and o["json"]["jd"] <= o["json"]["alpha_norm_upper"] + 1e-12
         <= o["json"]["tv_upper"] + 2e-12),
        ("counterexample", ce_alpha, (0, 0), ["counterexample", "--alpha", repr(ce_alpha)],
         lambda o: abs(o["json"]["energy"] - R.counterexample_energy(ce_alpha)) <= 1e-12
         and o["json"]["violates_triangle"] is True),
        ("check-negative-type", 1.0, (pairs, 0),
         ["check-negative-type", "--alpha", "1", "--points-file", pts],
         lambda o: o["json"]["is_negative_type"] is True
         and abs(o["json"]["min_eigenvalue"] - R.centred_min_eigenvalue(ref_points)) <= 1e-12),
        ("embed", 0.5, (pairs, 0), ["embed", "--alpha", "0.5", "--points-file", pts],
         lambda o: R.close(R.squared_distances(o["json"]["coords"]), ref_points_half, 1e-9)),
        ("power-integral", pi_alpha, (0, 0),
         ["power-integral", "--x", repr(x), "--alpha", repr(pi_alpha)],
         lambda o: abs(value(o) - x**pi_alpha) <= 1e-6),
        ("gen", 1.0, (0, 0), ["--seed", str(gen_seed), "gen", "--kind", "density", "--n", "3",
                              "--count", "4"],
         lambda o: len(o["json"]) == 4 and all(
             R.is_state(np.array([[complex(*z) for z in row] for row in s["entries"]]))
             for s in o["json"])),
    ]
    calls = [(name, a, values, argv, succeeded(ok), False) for name, a, values, argv, ok in calls]
    # malformed input should end in exit code 2 and a JSON error on stderr
    calls += [(cmd, 1.0, (0, 0), list(argv), check_cli_error, True) for cmd, *argv in MALFORMED]
    runner = CliRunner(env, traced)
    tasks = [
        Task(name, a, values, (name,), runner.call(argv),
             lambda o, ok=ok, name=name: {name: ok(o)},
             faults=frozenset({name}) if fault else frozenset())
        for name, a, values, argv, ok, fault in calls
    ]
    return Workload(tasks, runner, points_file)


def succeeded(ok):
    return lambda o: o["code"] == 0 and o["json"] is not None and ok(o)


def check_cli_bounds(out: dict, p, q, a: float) -> bool:
    ref = R.jd(p, q, a)
    v = R.total_variation(p, q)
    return (
        abs(out["value"] - ref) <= 1e-12
        and abs(out["v"] - v) <= 1e-12
        and out["lower"] <= ref + 1e-12 <= out["upper"] + 2e-12
        and R.proven_lower(v, a, len(p)) <= ref + 1e-12
    )


def check_cli_q_bounds(out: dict, r1, r2, a: float) -> bool:
    ref = R.qjd(r1, r2, a)
    t = R.trace_distance(r1, r2)
    return (
        abs(out["value"] - ref) <= 1e-10
        and abs(out["v"] - t) <= 1e-10
        and out["lower"] <= ref + 1e-10 <= out["upper"] + 2e-10  # a in [1, 2]
        and R.proven_lower(t, a, len(r1)) <= ref + 1e-10
    )


def check_cli_error(out: dict) -> bool:
    lines = out["stderr"].strip().splitlines()
    try:
        error = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return False
    return out["code"] == 2 and isinstance(error, dict) and "error" in error


class CliRunner:
    """Runs one CLI call per task in a fresh process, one at a time.

    Untraced, the child runs ``jensengeo.cli:main`` as the console
    script does. Traced, it runs ``cli_child.py``, which times the
    import, wraps the package and writes the spans of its call to a
    file that ``spans_of_last_call`` reads back.
    """

    def __init__(self, env: dict, traced: bool):
        self.env = env
        self.traced = traced
        self.import_ms: list[float] = []
        self.wrapped: set[str] = set()

    def call(self, argv: list[str]):
        def run():
            if self.traced:
                cmd = [sys.executable, str(BENCH / "cli_child.py"), str(self.trace_file), *argv]
            else:
                cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=CLI_TIMEOUT_S)
            try:
                parsed = json.loads(proc.stdout) if proc.returncode == 0 else None
            except json.JSONDecodeError:
                parsed = None
            return {"code": proc.returncode, "json": parsed, "stderr": proc.stderr}

        return run

    @property
    def trace_file(self) -> Path:
        return OUT / f"cli-trace-{os.getpid()}.json"

    def spans_of_last_call(self):
        """The spans and span names the last traced child wrote, or None."""
        if not self.trace_file.exists():
            return None
        child = json.loads(self.trace_file.read_text())
        self.trace_file.unlink()
        self.import_ms.append(child["import_ms"])
        self.wrapped = set(child["wrapped"])
        return child["spans"], child["names"]


CONSOLE_SCRIPT = "import sys; from jensengeo.cli import main; sys.argv[0] = 'jensengeo'; main()"


# ---------------------------------------------------------------------------
# the process
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    tasks: list[Task]
    cli: CliRunner | None = None
    scratch_file: Path | None = None  # removed when the process ends


class SpanLog:
    """The spans of the first tasks of a traced run, written out at its end."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.rows: list[list] = []

    def add(self, task_index: int, spans, names) -> None:
        for nid, start, end, parent, units in spans[: max(SPAN_CAP - len(self.rows), 0)]:
            name = names[nid]
            if name not in self.ids:
                self.ids[name] = len(self.names)
                self.names.append(name)
            self.rows.append([task_index, self.ids[name], start, end, parent, units])

    def write(self, path: Path) -> None:
        columns = ["task", "name", "start_ns", "end_ns", "parent", "units"]
        path.write_text(json.dumps({"names": self.names, "columns": columns, "spans": self.rows}))


class Run:
    """The counts, times and per-layer sums of one measured run."""

    def __init__(self, workload: Workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.totals = tracing.Totals()
        self.spans = SpanLog()
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def execute(self, task: Task, counted: bool = True) -> None:
        """Run one task, time it, fold its spans and check its outputs."""
        cli = self.workload.cli
        if self.tracer is not None:
            self.tracer.take()  # drop spans recorded outside tasks, as by the checks
        t0 = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a crash of the program is a failed operation
            print(f"{task.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            out = None
        elapsed = time.perf_counter() - t0
        traced = None
        if cli is not None and cli.traced:
            traced = cli.spans_of_last_call()
        elif self.tracer is not None:
            traced = self.tracer.take(), self.tracer.names
        if not counted:
            return
        index = len(self.times)
        self.times.append(elapsed)
        key = order_key(task.alpha)
        if traced is not None:
            tracing.fold(*traced, self.totals, key)
            self.spans.add(index, *traced)
        classical, quantum = task.values
        self.totals["values:classical"] += classical
        self.totals["values:quantum"] += quantum
        self.totals["values:quantum:" + key] += quantum
        self.totals["tasks:" + key] += 1
        results = {}
        if out is not None:
            try:
                results = task.check(out)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                print(f"{task.name}: unexpected output: {exc!r}", file=sys.stderr)
        for op in task.ops:
            self.attempted += 1
            if out is None or op in task.faults and not results.get(op, False):
                self.failed += 1
            elif not results.get(op, False):
                self.wrong.append(f"{task.name}:{op}")

    def summary(self, rounds: int) -> dict:
        for name in sorted(set(self.wrong))[:10]:
            print(f"wrong output: {name}", file=sys.stderr)
        usage = resource.RUSAGE_CHILDREN if self.workload.cli else resource.RUSAGE_SELF
        times = self.times
        return {
            "rounds": rounds,
            "tasks": len(times),
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": len(self.wrong),
            "task_p50_ms": statistics.median(times) * 1e3,
            "task_p95_ms": statistics.quantiles(times, n=20, method="inclusive")[18] * 1e3,
            "tasks_per_s": len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=("classical-certify", "quantum-certify", "bounds-sweep", "cli-oneshot"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    if not Path(jensengeo.__file__).resolve().is_relative_to(BENCH.parent / "src"):
        sys.exit(f"jensengeo was imported from {jensengeo.__file__}, not from the checkout")
    import_ms = IMPORT_MS
    tracer = None
    wrapped: set[str] = set()
    if args.trace and args.workload != "cli-oneshot":  # the CLI children trace themselves
        tracer = tracing.Tracer()
        wrapped = set(tracing.install(tracer))
    rng = np.random.default_rng(args.seed)
    if args.workload == "classical-certify":
        workload = Workload(classical_tasks(rng))
    elif args.workload == "quantum-certify":
        workload = Workload(quantum_tasks(rng))
    elif args.workload == "bounds-sweep":
        workload = Workload(bounds_tasks(rng))
    else:
        workload = cli_workload(rng, dict(os.environ), bool(args.trace))
    try:
        run = Run(workload, tracer)
        run.execute(workload.tasks[0], counted=False)  # warm-up
        setup_done_ns = stamp_ns()
        if args.setup_only:
            print(json.dumps({"setup_done_ns": setup_done_ns, "import_ms": import_ms}))
            return
        rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            for task in workload.tasks:
                run.execute(task)
            rounds += 1
    finally:
        if workload.scratch_file is not None:
            workload.scratch_file.unlink(missing_ok=True)
    summary = {"setup_done_ns": setup_done_ns, "import_ms": import_ms, **run.summary(rounds)}
    if args.workload == "quantum-certify":
        margins = {t.name: t.note["margin"] for t in workload.tasks if "mixed" in t.name}
        print("centred min eigenvalue of the mixed sets: " + json.dumps(margins), file=sys.stderr)
    if args.trace:
        if workload.cli is not None:
            import_ms = statistics.median(workload.cli.import_ms)
            wrapped = workload.cli.wrapped
        summary["layers"] = tracing.layer_metrics(run.totals, wrapped, import_ms)
        OUT.mkdir(exist_ok=True)
        run.spans.write(OUT / f"spans-{args.workload}.json")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
