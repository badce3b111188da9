"""Each input rule in one place.

A raw point is parsed, sized and checked by the library alone:
``quantum._point_size`` sizes it with the parsers validation uses (the
CLI's points cap reads it), the one-point wrappers are the one-point case
of the stacked validators, and malformed families are refused with
ValueError wherever they come from.
"""

import json

import numpy as np
import pytest

from jensengeo import cli as cli_module
from jensengeo.classical import _distribution_stack, as_distribution
from jensengeo.cli import EXIT_VALIDATION, run
from jensengeo.jensen import family_from_json, weighted_family
from jensengeo.quantum import (
    DensityMatrix,
    _density_stack,
    _point_size,
    as_density,
    density_from_json,
    density_to_json,
    ginibre_state,
    random_pure_state,
    validate_density,
)

P = [0.2, 0.3, 0.5]
RHO = np.diag([0.5, 0.3, 0.2])
WIRE = density_to_json(RHO)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "point, validate",
    [
        (P, lambda p: as_distribution(p).probs),
        ({"probs": P}, lambda p: as_distribution(p).probs),
        ({"probs": P, "labels": ["a", "b", "c"]}, lambda p: as_distribution(p).probs),
        (RHO.tolist(), lambda p: as_density(p).matrix),
        ({"entries": WIRE["entries"]}, lambda p: as_density(p).matrix),
        (WIRE, lambda p: as_density(p).matrix),
    ],
    ids=["list", "probs", "probs-labels", "matrix", "entries", "dim-entries"],
)
def test_point_size_is_the_size_of_the_validated_point(point, validate):
    assert _point_size(point) == validate(point).size


@pytest.mark.parametrize("state_first", [False, True])
def test_mixed_kind_set_above_the_cap_is_refused_by_the_cap(capsys, monkeypatch, state_first):
    # 708 points make 250,278 pairs; sized by the 2 x 2 state, 1,001,112 entries
    def no_work(*_):
        raise AssertionError("divergence_matrix ran past the points cap")

    monkeypatch.setattr(cli_module.geometry, "divergence_matrix", no_work)
    state = [(np.eye(2) / 2).tolist()]
    points = state + [[1.0]] * 707 if state_first else [[1.0]] * 707 + state
    code = run(["check-negative-type", "--points", json.dumps(points)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION and captured.out == ""
    assert "cap of 1000000" in json.loads(captured.err)["error"]


class TestOnePointWrappersAreTheStackedPath:
    """Every one-point wrapper gives, bit for bit, its row of a stacked validation."""

    def test_distributions(self):
        rng = np.random.default_rng(61)
        P = rng.dirichlet(np.ones(5), size=8) * (1.0 + 1e-11)
        raw = [list(p) for p in P]
        mappings = [{"probs": list(p), "labels": list("abcde")} for p in P]
        objects = [as_distribution(p) for p in raw]
        for points in (raw, mappings, objects):
            X, labels = _distribution_stack(points)
            for i, p in enumerate(points):
                d = as_distribution(p)
                assert same_bits(d.probs, X[i]) and d.labels == labels[i]
        assert all(as_distribution(o) is o for o in objects)

    def test_states(self):
        rng = np.random.default_rng(62)
        raw = [ginibre_state(3, rng).matrix * (1.0 + 1e-10) for _ in range(5)]
        raw += [random_pure_state(3, rng).matrix for _ in range(2)]
        mappings = [density_to_json(validate_density(x)) for x in raw]
        objects = [validate_density(x) for x in raw]
        for points in (raw, [x.tolist() for x in raw], mappings, objects):
            X, w = _density_stack(points)
            for i, p in enumerate(points):
                for state in (validate_density(p), as_density(p)):
                    assert same_bits(state.matrix, X[i]) and same_bits(state.eigenvalues, w[i])
        for i, m in enumerate(mappings):
            X, w = _density_stack(mappings)
            state = density_from_json(m)
            assert same_bits(state.matrix, X[i]) and same_bits(state.eigenvalues, w[i])
        assert all(as_density(o) is o for o in objects)
        assert all(isinstance(validate_density(o), DensityMatrix) for o in objects)


@pytest.mark.parametrize("obj", [5, "weights members", [[0.5, 0.5], [1.0, 0.0]], None])
def test_family_from_json_refuses_a_non_mapping(obj):
    with pytest.raises(ValueError, match="family mapping"):
        family_from_json(obj)


def test_density_from_json_refuses_a_non_mapping():
    with pytest.raises(ValueError, match="square"):
        density_from_json(5)


def test_weighted_family_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match='kind must be "classical" or "quantum"'):
        weighted_family([[0.5, 0.5], [1.0, 0.0]], [0.5, 0.5], kind="bogus")
    with pytest.raises(ValueError, match="got 'bogus'"):
        family_from_json({"weights": [0.5, 0.5], "members": [[0.5, 0.5], [1, 0]], "kind": "bogus"})
