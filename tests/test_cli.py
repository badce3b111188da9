import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import jensengeo
from jensengeo import cli as cli_module
from jensengeo import quantum
from jensengeo.cli import EXIT_BAD_FILE, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == EXIT_USAGE
        assert "error" in json.loads(err)

    def test_no_subcommand(self, capsys):
        code, _, err = invoke(capsys)
        assert code == EXIT_USAGE

    def test_validation_error(self, capsys):
        code, _, err = invoke(capsys, "jd", "--p", "[0.9,0.2]", "--q", "[0.5,0.5]")
        assert code == EXIT_VALIDATION
        assert "sum" in json.loads(err)["error"]

    def test_malformed_inline_json(self, capsys):
        code, _, _ = invoke(capsys, "jd", "--p", "[0.5,", "--q", "[0.5,0.5]")
        assert code == EXIT_VALIDATION

    def test_missing_file(self, capsys):
        code, _, _ = invoke(capsys, "jd", "--p-file", "/no/such/file.json", "--q", "[0.5,0.5]")
        assert code == EXIT_BAD_FILE

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = invoke(capsys, "jd", "--p-file", str(bad), "--q", "[0.5,0.5]")
        assert code == EXIT_BAD_FILE

    def test_inline_and_file_conflict(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text("[0.5, 0.5]")
        code, _, err = invoke(
            capsys, "jd", "--p", "[0.5,0.5]", "--p-file", str(f), "--q", "[0.5,0.5]"
        )
        assert code == EXIT_VALIDATION
        assert "exactly one" in json.loads(err)["error"]


    @pytest.mark.parametrize(
        "command, family",
        [
            ("jd-general", '{"weights":[1],"members":5}'),
            ("qjd-general", '{"weights":[1],"members":[{"entries":[[1]]}]}'),
            ("jd-general", '{"weights":[1],"members":[{"dim":[1],"entries":[[[1,0]]]}]}'),
        ],
    )
    def test_malformed_family(self, capsys, command, family):
        code, _, err = invoke(capsys, command, "--family", family)
        assert code == EXIT_VALIDATION
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["jd", "--p", "[{},1]", "--q", "[0,1]"],
            ["jd", "--p", '{"probs":{"a":1}}', "--q", "[0,1]"],
            ["qjd", "--rho1", "[[{},0],[0,1]]", "--rho2", "[[1,0],[0,0]]"],
        ],
    )
    def test_non_numeric_entries(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_VALIDATION and out == ""
        assert "numbers" in json.loads(err)["error"]

    def test_empty_row(self, capsys):
        code, out, err = invoke(capsys, "jd", "--p", "[[]]", "--q", "[0,1]")
        assert code == EXIT_VALIDATION and out == ""
        assert "non-empty" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["jd", "--p", '{"probs":[1,0],"labels":[1,2]}',
             "--q", '{"probs":[0,1],"labels":"ab"}'],
            ["bounds", "--alpha", "1.5", "--p", '{"probs":[1,0],"labels":"ab"}',
             "--q", '{"probs":[0,1],"labels":"ba"}'],
            ["check-negative-type", "--points",
             '[{"probs":[1,0],"labels":"ab"},{"probs":[0,1],"labels":"ba"},[0.5,0.5]]'],
        ],
    )
    def test_different_labels(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_VALIDATION and out == ""
        assert "different labels" in json.loads(err)["error"]

    def test_labels_not_a_list(self, capsys):
        p = '{"probs":[1,0],"labels":5}'
        code, out, err = invoke(capsys, "jd", "--p", p, "--q", "[0,1]")
        assert code == EXIT_VALIDATION and out == ""
        assert "labels" in json.loads(err)["error"]

    def test_missing_second_input(self, capsys):
        code, out, err = invoke(capsys, "jd", "--p", "[0.5,0.5]")
        assert code == EXIT_VALIDATION and out == ""
        assert "--q" in json.loads(err)["error"]

    def test_output_into_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "out.json"
        argv = ["jd", "--p", "[1,0]", "--q", "[0,1]", "--output", str(target)]
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_BAD_FILE and out == ""
        assert "cannot write" in json.loads(err)["error"]

    def test_tolerance_scale_that_is_not_a_number(self, capsys, monkeypatch):
        monkeypatch.setenv("JG_TOLERANCE_SCALE", "abc")
        code, out, err = invoke(capsys, "check-negative-type", "--points", "[[1,0],[0,1]]")
        assert code == EXIT_VALIDATION and out == ""
        assert "JG_TOLERANCE_SCALE must be a float" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "value, expected",
        [(np.bool_(True), True), (np.float32(0.5), 0.5), (np.int64(3), 3)],
    )
    def test_numpy_scalars_become_json_scalars(self, value, expected):
        out = cli_module._jsonable({"x": [value]})
        assert out == {"x": [expected]} and type(out["x"][0]) is type(expected)

    def test_module_entry_point(self):
        src = str(Path(jensengeo.__file__).resolve().parents[1])
        path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, "-m", "jensengeo.cli", "jd", "--p", "[1,0]", "--q", "[0,1]"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout) == {"value": math.log(2)}


class TestScalarCommands:
    def test_jd_ln2(self, capsys):
        out = out_json(capsys, "jd", "--alpha", "1", "--p", "[1,0]", "--q", "[0,1]")
        assert out == {"value": 0.6931471805599453}

    def test_entropy_classical(self, capsys):
        out = out_json(capsys, "entropy", "--p", "[0.5,0.5]")
        assert out["value"] == pytest.approx(math.log(2), abs=1e-15)

    def test_entropy_quantum(self, capsys):
        rho = json.dumps({"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]})
        out = out_json(capsys, "entropy", "--rho", rho, "--alpha", "2")
        assert out["value"] == pytest.approx(0.5, abs=1e-12)

    def test_entropy_needs_exactly_one_input(self, capsys):
        code, _, _ = invoke(capsys, "entropy", "--p", "[1,0]", "--rho", "[[1,0],[0,0]]")
        assert code == EXIT_VALIDATION

    def test_qjd(self, capsys):
        rho1 = json.dumps([[1.0, 0.0], [0.0, 0.0]])
        rho2 = json.dumps([[0.0, 0.0], [0.0, 1.0]])
        out = out_json(capsys, "qjd", "--alpha", "2", "--rho1", rho1, "--rho2", rho2)
        assert out["value"] == pytest.approx(0.5, abs=1e-12)

    def test_counterexample(self, capsys):
        out = out_json(capsys, "counterexample", "--alpha", "2.5")
        assert out["energy"] == pytest.approx(0.0085980, abs=1e-7)
        assert out["violates_triangle"] is True

    def test_counterexample_no_violation(self, capsys):
        out = out_json(capsys, "counterexample", "--alpha", "1.5")
        assert out["violates_triangle"] is False

    def test_jd_identical_prints_positive_zero(self, capsys):
        code, out, _ = invoke(capsys, "jd", "--p", "[1,0]", "--q", "[1,0]")
        assert code == EXIT_OK and out == '{"value": 0.0}\n'

    def test_power_integral(self, capsys):
        out = out_json(capsys, "power-integral", "--x", "0.7", "--alpha", "1.5")
        assert out["abs_error"] <= 1e-6

    @pytest.mark.parametrize("alpha", ["0.5", "1.5"])
    def test_power_integral_small_x(self, capsys, alpha):
        out = out_json(capsys, "power-integral", "--x", "1e-6", "--alpha", alpha)
        assert out["abs_error"] <= 1e-12 * out["exact"]

    def test_power_integral_x_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "power-integral", "--x", "1e300", "--alpha", "1.5")
        assert code == EXIT_VALIDATION
        assert "error" in json.loads(err)

    def test_quadruple_cm(self, capsys):
        out = out_json(capsys, "quadruple-cm", "--alpha", "4", "--eps", "0.01")
        assert out["predicted_sign"] == -1
        assert out["det"] < 0
        assert out["matches_prediction"] is True

    @pytest.mark.parametrize("eps", ["1e-300", "1e-170", "1e-7", "0", "-0.01", "nan"])
    def test_quadruple_cm_refuses_eps_below_the_noise_floor(self, capsys, eps):
        code, out, err = invoke(capsys, "quadruple-cm", "--alpha", "4", f"--eps={eps}")
        assert code == EXIT_VALIDATION and out == ""
        assert "eps" in json.loads(err)["error"]

    def test_power_integral_largest_x_near_order_two(self, capsys):
        out = out_json(capsys, "power-integral", "--x", "1e150", "--alpha", "1.999999999")
        assert math.isfinite(out["value"])
        assert out["abs_error"] <= 1e-13 * out["exact"]

    @pytest.mark.parametrize("dim", ["2.7", "2.0", '"2"', "true"])
    def test_rho_dim_must_be_an_integer(self, capsys, dim):
        rho = '{"dim": %s, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}' % dim
        code, out, err = invoke(capsys, "entropy", "--rho", rho)
        assert code == EXIT_VALIDATION and out == ""
        assert '"dim" must be an integer' in json.loads(err)["error"]


class TestFamilyCommands:
    FAMILY = json.dumps(
        {"weights": [0.5, 0.5], "members": [[1.0, 0.0], [0.0, 1.0]], "kind": "classical"}
    )
    QFAMILY = json.dumps(
        {
            "weights": [0.5, 0.5],
            "members": [
                {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                {"dim": 2, "entries": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
            ],
            "kind": "quantum",
        }
    )

    def test_jd_general(self, capsys):
        out = out_json(capsys, "jd-general", "--family", self.FAMILY)
        assert out["value"] == pytest.approx(math.log(2), abs=1e-14)

    def test_qjd_general_and_holevo(self, capsys):
        out = out_json(capsys, "qjd-general", "--family", self.QFAMILY)
        assert out["value"] == pytest.approx(math.log(2), abs=1e-12)
        out = out_json(capsys, "holevo", "--family", self.QFAMILY)
        assert out["value"] == pytest.approx(math.log(2), abs=1e-12)

    def test_kind_mismatch(self, capsys):
        code, _, _ = invoke(capsys, "jd-general", "--family", self.QFAMILY)
        assert code == EXIT_VALIDATION

    def test_redundancy(self, capsys):
        out = out_json(capsys, "redundancy", "--family", self.FAMILY, "--q", "[0.5,0.5]")
        assert out["value"] == pytest.approx(math.log(2), abs=1e-14)

    def test_redundancy_infinite(self, capsys):
        out = out_json(capsys, "redundancy", "--family", self.FAMILY, "--q", "[1.0,0.0]")
        assert out["value"] == "inf"

    def test_identities_classical(self, capsys):
        fam = json.dumps(
            {"weights": [0.4, 0.6], "members": [[0.9, 0.1], [0.2, 0.8]], "kind": "classical"}
        )
        out = out_json(capsys, "identities", "--family", fam, "--q", "[0.5,0.5]")
        assert out["identity"] == "compensation"
        assert out["within_tolerance"] is True

    def test_identities_quantum(self, capsys):
        sigma = json.dumps([[0.5, 0.0], [0.0, 0.5]])
        out = out_json(capsys, "identities", "--family", self.QFAMILY, "--sigma", sigma)
        assert out["identity"] == "donald"
        assert out["within_tolerance"] is True

    def test_tolerance_scale_env(self, capsys, monkeypatch):
        monkeypatch.setenv("JG_TOLERANCE_SCALE", "100.0")
        sigma = json.dumps([[0.5, 0.0], [0.0, 0.5]])
        out = out_json(capsys, "identities", "--family", self.QFAMILY, "--sigma", sigma)
        assert out["tolerance"] == pytest.approx(1e-7)
        monkeypatch.setenv("JG_TOLERANCE_SCALE", "-1")
        code, _, _ = invoke(capsys, "identities", "--family", self.QFAMILY, "--sigma", sigma)
        assert code == EXIT_VALIDATION

    def test_identities_gates_are_the_kernel_gates(self, capsys):
        from jensengeo.jensen import DUAL_TOL_CLASSICAL, DUAL_TOL_QUANTUM

        out = out_json(capsys, "identities", "--family", self.FAMILY, "--q", "[0.5,0.5]")
        assert out["tolerance"] == DUAL_TOL_CLASSICAL
        sigma = json.dumps([[0.5, 0.0], [0.0, 0.5]])
        out = out_json(capsys, "identities", "--family", self.QFAMILY, "--sigma", sigma)
        assert out["tolerance"] == DUAL_TOL_QUANTUM

    @pytest.mark.parametrize(
        "family, given, other",
        [
            (FAMILY, ["--q", "[0.5,0.5]"], ["--sigma", "[[0.5,0],[0,0.5]]"]),
            (QFAMILY, ["--sigma", "[[0.5,0],[0,0.5]]"], ["--q", "[0.5,0.5]"]),
        ],
    )
    def test_identities_refuse_a_reference_of_the_other_kind(self, capsys, family, given, other):
        code, out, err = invoke(capsys, "identities", "--family", family, *given, *other)
        assert code == EXIT_VALIDATION and out == ""
        assert f"{other[0]} does not apply" in json.loads(err)["error"]
        # the other kind's reference alone is refused too, not ignored
        code, out, err = invoke(capsys, "identities", "--family", family, *other)
        assert code == EXIT_VALIDATION and out == ""


class TestGeometryCommands:
    POINTS = json.dumps([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])

    def test_check_negative_type(self, capsys):
        out = out_json(capsys, "check-negative-type", "--alpha", "1.5", "--points", self.POINTS)
        assert out["is_negative_type"] is True
        assert out["min_eigenvalue"] >= -1e-9

    def test_check_negative_type_failure_carries_witness(self, capsys):
        triple = json.dumps([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        out = out_json(capsys, "check-negative-type", "--alpha", "2.5", "--points", triple)
        assert out["is_negative_type"] is False
        assert abs(sum(out["witness_vector"])) <= 1e-12

    def test_check_negative_type_matrix_input(self, capsys):
        mat = json.dumps({"n": 2, "d": [[0.0, 1.0], [1.0, 0.0]]})
        out = out_json(capsys, "check-negative-type", "--matrix", mat)
        assert out["is_negative_type"] is True

    def test_embed_round_trip(self, capsys):
        out = out_json(capsys, "embed", "--alpha", "1", "--points", self.POINTS)
        coords = np.array(out["coords"])
        assert out["reconstruction_error"] <= 1e-8
        sq = np.sum(coords**2, axis=1)
        recon = sq[:, None] + sq[None, :] - 2 * coords @ coords.T
        from jensengeo.geometry import divergence_matrix

        D = divergence_matrix(json.loads(self.POINTS), 1.0).d
        assert np.max(np.abs(recon - D)) <= 1e-8

    def test_embed_rejects_non_embeddable(self, capsys):
        triple = json.dumps([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        code, _, err = invoke(capsys, "embed", "--alpha", "2.5", "--points", triple)
        assert code == EXIT_VALIDATION
        assert "negative type" in json.loads(err)["error"]

    def test_cayley_menger(self, capsys):
        mat = json.dumps([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        out = out_json(capsys, "cayley-menger", "--matrix", mat)
        assert out["det"] == pytest.approx(-3.0, abs=1e-12)
        assert out["n"] == 3

    @pytest.mark.parametrize("cmd", ["check-negative-type", "embed"])
    @pytest.mark.parametrize(
        "points",
        [
            # N(N-1)/2 * entries just above the cap: 1415 points of one letter, 101 of 200
            [[1.0]] * 1415,
            [[1.0 / 200] * 200] * 101,
            [{"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}] * 708,
            [np.eye(2).tolist()] * 708,
        ],
    )
    def test_points_cap_before_any_work(self, capsys, monkeypatch, cmd, points):
        def no_work(*_):
            raise AssertionError("divergence_matrix ran past the points cap")

        monkeypatch.setattr(cli_module.geometry, "divergence_matrix", no_work)
        code, out, err = invoke(capsys, cmd, "--points", json.dumps(points))
        assert code == EXIT_VALIDATION and out == ""
        assert "cap" in json.loads(err)["error"]

    def test_points_cap_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "POINTS_MAX_ENTRIES", 6)
        # 3 points of 2 letters make 3 pairs of 2 entries: at the cap
        out = out_json(capsys, "check-negative-type", "--points", self.POINTS)
        assert out["is_negative_type"] is True
        four = json.dumps(json.loads(self.POINTS) + [[0.1, 0.9]])
        code, _, err = invoke(capsys, "embed", "--points", four)
        assert code == EXIT_VALIDATION
        assert "cap of 6" in json.loads(err)["error"]

    @pytest.mark.parametrize("cmd", ["check-negative-type", "embed"])
    @pytest.mark.parametrize("n", ["2.7", "2.0", '"2"', "true"])
    def test_matrix_size_must_be_an_integer(self, capsys, cmd, n):
        mat = '{"n": %s, "d": [[0.0, 1.0], [1.0, 0.0]]}' % n
        code, out, err = invoke(capsys, cmd, "--matrix", mat)
        assert code == EXIT_VALIDATION and out == ""
        assert '"n" must be an integer' in json.loads(err)["error"]

    def test_points_and_matrix_conflict(self, capsys):
        mat = json.dumps([[0.0, 1.0], [1.0, 0.0]])
        code, _, _ = invoke(
            capsys, "check-negative-type", "--points", self.POINTS, "--matrix", mat
        )
        assert code == EXIT_VALIDATION


class TestDiagramAndBounds:
    def test_diagram_csv(self, capsys):
        code, out, _ = invoke(capsys, "diagram", "--alpha", "1", "--n", "3", "--grid", "4")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "curve,t,v,jd"
        assert len(lines) == 1 + 4 + 4 + 16

    def test_diagram_grid_cap(self, capsys):
        code, out, err = invoke(capsys, "diagram", "--n", "3", "--grid", str(10**12))
        assert code == EXIT_VALIDATION and out == ""
        assert "cap" in json.loads(err)["error"]

    def test_diagram_to_file(self, capsys, tmp_path):
        target = tmp_path / "diagram.csv"
        code, out, _ = invoke(
            capsys, "diagram", "--alpha", "1", "--grid", "3", "--output", str(target)
        )
        assert code == EXIT_OK and out == ""
        assert target.read_text().startswith("curve,t,v,jd")

    def test_bounds_classical(self, capsys):
        out = out_json(capsys, "bounds", "--alpha", "1.5", "--p", "[0.2,0.8]", "--q", "[0.5,0.5]")
        assert out["upper_kind"] == "two_letter"
        assert out["lower"] - 1e-10 <= out["value"] <= out["upper"] + 1e-10

    def test_bounds_quantum(self, capsys):
        rho1 = json.dumps([[1.0, 0.0], [0.0, 0.0]])
        rho2 = json.dumps([[0.0, 0.0], [0.0, 1.0]])
        out = out_json(capsys, "bounds", "--alpha", "1", "--rho1", rho1, "--rho2", rho2)
        assert out["upper_kind"] == "trace_norm"
        assert out["v"] == pytest.approx(2.0, abs=1e-12)

    def test_bounds_mixed_inputs_rejected(self, capsys):
        code, _, _ = invoke(capsys, "bounds", "--alpha", "1", "--p", "[1,0]")
        assert code == EXIT_VALIDATION

    def test_chain(self, capsys):
        out = out_json(capsys, "chain", "--alpha", "1", "--p", "[1,0]", "--q", "[0,1]")
        assert out["v_sq_over_8"] == pytest.approx(0.5, abs=1e-15)
        assert out["tv_upper"] == pytest.approx(math.log(2), abs=1e-15)


class TestGen:
    @pytest.mark.parametrize(
        "kind, n, count", [("density", 3, 10**8), ("pure", 400, 1), ("distribution", 10**6, 1)]
    )
    def test_size_cap_before_any_work(self, capsys, monkeypatch, kind, n, count):
        # without the cap these calls would generate until killed
        def no_work(*_):
            raise AssertionError("gen started generating past its cap")

        monkeypatch.setattr(quantum, "ginibre_state", no_work)
        monkeypatch.setattr(quantum, "random_pure_state", no_work)
        monkeypatch.setattr(cli_module, "random_distribution", no_work)
        code, out, err = invoke(capsys, "gen", "--kind", kind, "--n", str(n), "--count", str(count))
        assert code == EXIT_VALIDATION and out == ""
        assert "cap" in json.loads(err)["error"]

    def test_cap_counts_the_entries_of_each_kind(self, capsys):
        # a distribution writes n entries and a state n^2
        assert len(out_json(capsys, "gen", "--kind", "distribution", "--n", "1000")[0]) == 1000
        code, _, _ = invoke(capsys, "gen", "--kind", "density", "--n", "1000")
        assert code == EXIT_VALIDATION

    def test_distribution_determinism(self, capsys):
        a = out_json(capsys, "gen", "--kind", "distribution", "--n", "3", "--count", "2", "--seed", "7")
        b = out_json(capsys, "--seed", "7", "gen", "--kind", "distribution", "--n", "3", "--count", "2")
        assert a == b
        assert len(a) == 2 and all(abs(sum(row) - 1.0) < 1e-9 for row in a)

    def test_density_valid(self, capsys):
        out = out_json(capsys, "gen", "--kind", "density", "--n", "3", "--seed", "1")
        from jensengeo.quantum import density_from_json

        rho = density_from_json(out[0])
        assert rho.dim == 3

    def test_pure_valid(self, capsys):
        out = out_json(capsys, "gen", "--kind", "pure", "--n", "2", "--seed", "1")
        from jensengeo.quantum import density_from_json, is_pure

        assert is_pure(density_from_json(out[0]))

    def test_csv_distribution_file(self, capsys, tmp_path):
        f = tmp_path / "dists.csv"
        f.write_text("0.5,0.5\n")
        out = out_json(capsys, "jd", "--p-file", str(f), "--q", "[0.5,0.5]")
        # a CSV file holds one distribution per line; a single row is the vector
        assert out["value"] == pytest.approx(0.0, abs=1e-15)


# Arbitrary JSON, biased towards the shapes the parsers read: probability-like
# numbers, rows of [re, im] pairs, the mapping keys of the wire formats, and
# integers too large for a float.
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.floats(min_value=0.0, max_value=1.0)
    | st.sampled_from(["classical", "quantum", "a", ""])
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["probs", "labels", "entries", "dim", "weights", "members", "kind", "d", "n", "x"]
        ),
        inner,
        max_size=4,
    ),
    max_leaves=16,
)
_INLINE = [
    ["jd", "--p", "{0}", "--q", "{1}"],
    ["qjd", "--alpha", "0.5", "--rho1", "{0}", "--rho2", "{1}"],
    ["bounds", "--alpha", "1.5", "--p", "{0}", "--q", "{1}"],
    ["bounds", "--alpha", "1", "--rho1", "{0}", "--rho2", "{1}"],
    ["chain", "--alpha", "2", "--p", "{0}", "--q", "{1}"],
    ["entropy", "--rho", "{0}"],
    ["jd-general", "--family", "{0}"],
    ["qjd-general", "--family", "{0}"],
    ["identities", "--family", "{0}", "--q", "{1}"],
    ["identities", "--family", "{0}", "--sigma", "{1}"],
    ["redundancy", "--family", "{0}", "--q", "{1}"],
    ["holevo", "--family", "{0}"],
    ["entropy", "--p", "{0}"],
    ["check-negative-type", "--matrix", "{0}"],
    ["embed", "--matrix", "{0}"],
    ["cayley-menger", "--matrix", "{0}"],
]


_CSV_FILES = [
    ["jd", "--p-file", "{0}", "--q-file", "{1}"],
    ["bounds", "--alpha", "1.5", "--p-file", "{0}", "--q-file", "{1}"],
    ["qjd", "--alpha", "0.5", "--rho1-file", "{0}", "--rho2-file", "{1}"],
    ["redundancy", "--family", '{{"weights": [1], "members": [[0.5, 0.5]]}}', "--q-file", "{0}"],
    ["check-negative-type", "--points-file", "{0}"],
]
# CSV text: rows of one width whose numbers may be negative, not finite or too large
_csv_cell = st.one_of(
    st.sampled_from(["0", "1", "0.5", "0.25", " 0.5 ", "-0", "-1e-13", "1e400", "nan", "1_0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_csv_text = st.integers(1, 3).flatmap(
    lambda width: st.lists(
        st.lists(_csv_cell, min_size=width, max_size=width).map(",".join),
        min_size=1,
        max_size=4,
    ).map("\n".join)
)
# well-formed files (distributions, point sets and a qubit state), CSV rows and any text
_csv_file = st.one_of(
    st.sampled_from(["0.5,0.5", "1,0", "0.25, 0.75\n", "0.5,0.5\n1,0", "0.5,0\n0,0.5"]),
    _csv_text,
    st.text(max_size=40),
)


# Numbers for the numeric flags: finite, huge, tiny and negative floats and
# ints, and ints far above the caps, which must refuse them before any work.
# Ints just below a cap are left out: they are accepted and slow, not faulty.
_float_flag = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=-5.0, max_value=5.0).map(repr),
    st.sampled_from(["0", "-0.0", "1e-300", "5e-324", "1e-170", "1e150", "1e308", "1e400"]),
    st.integers(-10, 10).map(str),
)
_int_flag = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(10**7, 10**30).map(str),
    st.sampled_from([str(10**400), str(-(10**400)), "2.5", "1e3", "nan"]),
)
_FLAG_VALUES = {
    "alpha": _float_flag, "x": _float_flag, "eps": _float_flag,
    "n": _int_flag, "grid": _int_flag, "count": _int_flag, "seed": _int_flag,
}
_P, _Q = "[0.25, 0.75]", "[0.5, 0.5]"
_R1, _R2 = "[[1, 0], [0, 0]]", "[[0.5, 0.5], [0.5, 0.5]]"
_THREE = "[[1, 0], [0.5, 0.5], [0, 1]]"
# one "--flag={}" per fuzzed number, the --flag=value form so that negative numbers stay values
_NUMERIC = [
    ["power-integral", "--x={}", "--alpha={}"],
    ["quadruple-cm", "--alpha={}", "--eps={}"],
    ["counterexample", "--alpha={}"],
    ["diagram", "--alpha={}", "--n={}", "--grid={}"],
    ["gen", "--kind", "distribution", "--n={}", "--count={}", "--seed={}"],
    ["gen", "--kind", "density", "--n={}", "--count={}"],
    ["gen", "--kind", "pure", "--n={}", "--count={}"],
    ["entropy", "--alpha={}", "--p", _P],
    ["entropy", "--alpha={}", "--rho", _R2],
    ["jd", "--alpha={}", "--p", _P, "--q", _Q],
    ["qjd", "--alpha={}", "--rho1", _R1, "--rho2", _R2],
    ["bounds", "--alpha={}", "--p", _P, "--q", _Q],
    ["bounds", "--alpha={}", "--rho1", _R1, "--rho2", _R2],
    ["chain", "--alpha={}", "--p", _P, "--q", _Q],
    ["check-negative-type", "--alpha={}", "--points", _THREE],
    ["embed", "--alpha={}", "--points", _THREE],
]


def _run_quietly(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _assert_documented_outcome(code: int, err: str) -> None:
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_USAGE, EXIT_BAD_FILE)
    if code != EXIT_OK:
        report = json.loads(err)
        assert isinstance(report, dict) and "error" in report


class TestFuzzedInputs:
    """Any JSON handed to an input gives a documented exit code and a JSON error."""

    @given(st.sampled_from(_INLINE), _json_values, _json_values)
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_inline_inputs(self, template, x, y):
        argv = [arg.format(json.dumps(x), json.dumps(y)) for arg in template]
        _assert_documented_outcome(*_run_quietly(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["jd", "--p", f"[{10**400}, 0]", "--q", "[1, 0]"],
            ["qjd", "--rho1", f"[[{10**400}, 0], [0, 0]]", "--rho2", "[[1, 0], [0, 0]]"],
            ["qjd", "--rho1", f'{{"entries": [[[{10**400}, 0]]]}}', "--rho2", "[[1]]"],
            ["cayley-menger", "--matrix", f"[[0, {10**400}], [1, 0]]"],
            ["check-negative-type", "--matrix", '{"d": [[0]], "n": []}'],
            ["embed", "--matrix", '{"d": [[0, 1], [1, 0]], "labels": 5}'],
            ["check-negative-type", "--matrix", '{"d": [[0, 1], [1, 0]], "labels": ["a", "b", "c"]}'],
            # finite entries whose totals or symmetrized entries overflow
            ["qjd", "--rho1", "[[1e308, 0], [0, -1e308]]", "--rho2", "[[1, 0], [0, 0]]"],
            ["qjd", "--rho1", "[[0, 1.7e308], [-1.7e308, 0]]", "--rho2", "[[1, 0], [0, 0]]"],
            ["jd", "--p", "[0, 0, 1]", "--q", "[0, 8.988465674311579e307, 8.98846567431158e307]"],
        ],
    )
    def test_found_by_fuzzing(self, argv):
        # integers too large for a float, mapping fields of the wrong type, and overflows
        code, err = _run_quietly(argv)
        assert code == EXIT_VALIDATION
        assert "error" in json.loads(err)

    @given(st.data())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_numeric_flags(self, data):
        template = data.draw(st.sampled_from(_NUMERIC))
        argv = [
            arg.format(data.draw(_FLAG_VALUES[arg[2:-3]])) if arg.endswith("={}") else arg
            for arg in template
        ]
        code, err = _run_quietly(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_USAGE), argv
        if code != EXIT_OK:
            assert "error" in json.loads(err), argv

    @given(st.sampled_from(["check-negative-type", "embed"]), _json_values)
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_points_file(self, tmp_path_factory, command, points):
        path = tmp_path_factory.getbasetemp() / "fuzzed_points.json"
        path.write_text(json.dumps(points))
        _assert_documented_outcome(*_run_quietly([command, "--points-file", str(path)]))

    @given(st.sampled_from(_CSV_FILES), _csv_file, _csv_file)
    @example(_CSV_FILES[0], "0,0,0", "0,8.988465674311579e+307,8.98846567431158e+307")
    # a subnormal entry that mixes to 0 at order 1, as a pair and as a two-row point set
    @example(_CSV_FILES[0], "0,0,1.0", "0,5e-324,1")
    @example(_CSV_FILES[4], "0,0,1.0\n0,5e-324,1", "0.5,0.5")
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_csv_files(self, tmp_path_factory, template, x, y):
        base = tmp_path_factory.getbasetemp()
        paths = [base / "fuzzed_a.csv", base / "fuzzed_b.csv"]
        for path, text in zip(paths, (x, y)):
            path.write_text(text, encoding="utf-8")
        argv = [arg.format(*map(str, paths)) for arg in template]
        _assert_documented_outcome(*_run_quietly(argv))
