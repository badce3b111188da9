"""Tests of the benchmark's own reference values, checks and span folding.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest bench -q``.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as R
import tracing
import workloads as W
from jensengeo import bounds, geometry

BENCH = Path(__file__).resolve().parent


def test_jd_of_disjoint_points_is_ln2():
    assert R.jd([1.0, 0.0], [0.0, 1.0], 1.0) == pytest.approx(math.log(2.0), abs=1e-15)


def test_readme_counterexample_values():
    assert R.jd([0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], 2.0) == pytest.approx(0.25, abs=1e-15)
    rho1 = np.diag([1 / 2, 1 / 3, 1 / 6]).astype(complex)
    rho2 = np.diag([1 / 3, 1 / 6, 1 / 2]).astype(complex)
    assert R.qjd(rho1, rho2, 2.0) == pytest.approx(1 / 24, abs=1e-15)
    assert R.trace_distance(rho1, rho2) == pytest.approx(2 / 3, abs=1e-15)
    # both attain B_n at order 2
    assert R.lower_B(2.0, 2.0, 4) == pytest.approx(0.25, abs=1e-15)
    assert R.lower_B(2 / 3, 2.0, 3) == pytest.approx(1 / 24, abs=1e-15)


@pytest.mark.parametrize("alpha", W.ORDERS)
def test_matrices_agree_with_pairs_and_diagonal_states(alpha):
    rng = np.random.default_rng(0)
    P = W.distributions(rng, 5, 4, zeros=True)
    D = R.jd_matrix(P, alpha)
    Q = R.qjd_matrix(np.array([np.diag(p).astype(complex) for p in P]), alpha)
    for i in range(5):
        for j in range(5):
            assert D[i, j] == pytest.approx(R.jd(P[i], P[j], alpha), abs=1e-15)
    assert np.max(np.abs(D - Q)) <= 1e-14


def test_reference_agrees_with_program():
    rng = np.random.default_rng(1)
    S = W.ginibre(rng, 6, 3)
    for alpha in W.ORDERS:
        program = geometry.divergence_matrix(list(S), alpha).d
        assert np.max(np.abs(program - R.qjd_matrix(S, alpha))) <= 1e-12


def test_centred_min_eigenvalue_signs():
    X = np.random.default_rng(2).standard_normal((6, 3))
    assert R.centred_min_eigenvalue(R.squared_distances(X)) >= -1e-12
    # distances 1, 1, 3 break the triangle inequality, so not negative type
    assert R.centred_min_eigenvalue(np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0.0]])) < -0.1


def test_counterexample_closed_form_is_the_triangle_defect():
    for alpha in (0.5, 1.5, 2.5):
        p, q, r = [0.0, 1.0], [0.5, 0.5], [1.0, 0.0]
        defect = R.jd(p, r, alpha) - 2 * R.jd(p, q, alpha) - 2 * R.jd(q, r, alpha)
        assert R.counterexample_energy(alpha) == pytest.approx(defect, abs=1e-14)


def test_state_and_distribution_checks():
    assert R.is_distribution([0.25, 0.75, 0.0])
    assert not R.is_distribution([0.5, 0.6])
    assert R.is_state(np.eye(3) / 3)
    assert not R.is_state(np.diag([1.5, -0.5]))


def classical_task_and_output():
    P = W.distributions(np.random.default_rng(3), 12, 4, zeros=True)
    task = W.classical_task(P, 1.5, "t")
    return task, task.run()


def test_classical_check_passes_and_flags_a_perturbed_entry():
    task, (D, report, emb, menger) = classical_task_and_output()
    assert all(task.check((D, report, emb, menger)).values())
    d = D.d.copy()
    d[0, 1] += 1e-9
    assert not task.check((dataclasses.replace(D, d=d), report, emb, menger))["matrix"]
    coords = emb.coords.copy()
    coords[0, 0] += 1e-4
    assert not task.check((D, report, dataclasses.replace(emb, coords=coords), menger))["embed"]


def test_quantum_check_flags_a_perturbed_entry():
    S = W.pure(np.random.default_rng(4), 8, 3)
    task = W.quantum_task(S, 0.5, True, "t")
    D, report = task.run()
    assert all(task.check((D, report)).values())
    d = D.d.copy()
    d[2, 3] += 1e-5
    assert not task.check((dataclasses.replace(D, d=d), report))["matrix"]


def test_bound_checks_flag_perturbed_values():
    rng = np.random.default_rng(5)
    p, q = W.distributions(rng, 2, 3, zeros=False)
    rep = bounds.bound_report(p, q, 1.5)
    assert W.check_bound_report(rep, p, q, 1.5, 3)
    assert not W.check_bound_report(dataclasses.replace(rep, value=rep.value + 1e-9), p, q, 1.5, 3)
    r1, r2 = W.ginibre(rng, 2, 3)
    qrep = bounds.q_bound_report(r1, r2, 1.0)
    assert W.check_q_bound_report(qrep, r1, r2, 1.0, 3)
    assert not W.check_q_bound_report(dataclasses.replace(qrep, upper=0.0), r1, r2, 1.0, 3)
    chain = bounds.chain_check(p, q, 2.0)
    assert W.check_chain(chain, p, q, 2.0, 3)
    assert not W.check_chain(chain._replace(jd=chain.jd * 1.001), p, q, 2.0, 3)


def test_diagram_checks():
    diagram = bounds.diagram(2.0, 3, W.GRID)
    assert W.check_diagram(diagram, 2.0, 3)
    samples = list(diagram.homotopy_samples)
    t, v, jd = samples[57]
    samples[57] = (t, v, jd + 1e-9)
    assert not W.check_diagram(dataclasses.replace(diagram, homotopy_samples=samples), 2.0, 3)
    # the emitted lower curve is L, which samples undercut at n = 3, order 2
    assert not W.check_lower_curve(diagram)
    assert W.check_lower_curve(bounds.diagram(1.0, 3, W.GRID))
    for v in (0.3, 1.7):
        assert W.check_upper_witness(bounds.upper_witness_pair(v, 3), v, 1.5, 3)
        assert not W.check_upper_witness(bounds.lower_witness_pair(v, 3), v, 1.5, 3)


def test_cli_error_check():
    assert W.check_cli_error({"code": 2, "stderr": '{"error": "bad family"}\n'})
    assert not W.check_cli_error({"code": 1, "stderr": "Traceback ...\nTypeError: boom\n"})
    assert not W.check_cli_error({"code": 2, "stderr": ""})


def span(name_id, start, end, parent, units=1):
    return [name_id, start, end, parent, units]


def test_fold_layer_self_time_and_attribution():
    names = [
        "geometry.divergence_matrix", "quantum.as_density", "quantum.validate_density",
        "numpy.linalg.eigvalsh", "jensen.qjd_alpha", "jensen.mixture", "quantum.von_neumann_entropy",
    ]
    spans = [
        span(0, 0, 1000, -1),
        span(1, 10, 110, 0),   # input validation: not divergence work
        span(2, 20, 100, 1),
        span(3, 30, 90, 2),
        span(4, 200, 900, 0),  # the pair
        span(5, 210, 400, 4),
        span(2, 220, 390, 5),  # validating the mixture is divergence work
        span(3, 230, 380, 6, units=3),
        span(6, 500, 700, 4),
        span(3, 510, 690, 8),
    ]
    totals = tracing.Totals()
    tracing.fold(spans, names, totals, "order1")
    assert totals["n:jensen.qjd_alpha"] == 1
    assert totals["dm_jensen"] == 700
    assert totals["eig_work"] == 4 and totals["eig_work:order1"] == 4
    # qjd_alpha: 700 long; its jensen child mixture is its own layer, the
    # quantum spans under it (170 and 200) are not
    assert totals["self:jensen.qjd_alpha"] == 700 - 170 - 200
    # the entropy's own layer time excludes the eigensolver
    assert totals["q_entropy:n"] == 1 and totals["q_entropy:self"] == 20
    assert totals["self:geometry.divergence_matrix"] == 1000 - 100 - 700


def test_traced_qjd_counts_eigendecompositions():
    code = (
        "import numpy as np, tracing, jensengeo\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "from jensengeo import jensen, quantum\n"
        "r = [quantum.ginibre_state(3, np.random.default_rng(s)) for s in (0, 1)]\n"
        "t.take()\n"
        "out = []\n"
        "for a in (1.0, 1.5):\n"
        "    jensen.qjd_alpha(r[0], r[1], a)\n"
        "    out.append(sum(s[4] for s in t.take() if t.names[s[0]].startswith('numpy.linalg')))\n"
        "print(out)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(BENCH.parent / "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert json.loads(out.stdout) == [8, 4]
