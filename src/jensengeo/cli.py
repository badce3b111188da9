"""Command-line interface.

Every computation is exposed as a subcommand with JSON output on stdout
(CSV for ``diagram``), so results are reproducible from the shell. Exit
codes: 0 success, 2 validation error, 64 unknown subcommand, 65
malformed input file. Errors are written to stderr as {"error": ...}.

Inputs are accepted inline as JSON literals (``--p '[0.5,0.5]'``) or
from files (``--p-file dist.json``); supplying both for the same input
is an explicit error. Files named ``*.csv`` are parsed as one
comma-separated distribution per line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import geometry, jensen, quantum
from .classical import alpha_entropy, random_distribution
from .tolerances import tolerance_scale

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 64
EXIT_BAD_FILE = 65
# cap on the entries gen may write: --count * --n for distributions, --count * --n^2 for states
GEN_MAX_ENTRIES = 100_000
# cap on N(N-1)/2 * (entries per point) for the N points of check-negative-type and embed
POINTS_MAX_ENTRIES = 1_000_000


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        code = EXIT_USAGE if "invalid choice" in message else EXIT_VALIDATION
        raise CliError(message, code=code)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", code=EXIT_BAD_FILE) from exc


def _parse_file(path: str):
    text = _read_file(path)
    if path.endswith(".csv"):
        rows = [r.strip() for r in text.splitlines() if r.strip()]
        try:
            return [[float(x) for x in row.split(",")] for row in rows]
        except ValueError as exc:
            raise CliError(f"malformed CSV in {path}: {exc}", code=EXIT_BAD_FILE) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}", code=EXIT_BAD_FILE) from exc


def _load_input(args, name: str, required: bool = True):
    """Resolve the --<name> inline / --<name>-file pair for one input."""
    inline = getattr(args, name.replace("-", "_"), None)
    file_ = getattr(args, f"{name.replace('-', '_')}_file", None)
    if inline is not None and file_ is not None:
        raise CliError(f"--{name} and --{name}-file were both given; pass exactly one")
    if inline is not None:
        try:
            return json.loads(inline)
        except json.JSONDecodeError as exc:
            raise CliError(f"--{name} is not valid JSON: {exc}") from exc
    if file_ is not None:
        return _parse_file(file_)
    if required:
        raise CliError(f"missing input: pass --{name} or --{name}-file")
    return None


def _vector(args, name: str, required: bool = True):
    """A single probability vector; a one-row CSV/list-of-rows is unwrapped."""
    obj = _load_input(args, name, required=required)
    if (
        isinstance(obj, list)
        and len(obj) == 1
        and isinstance(obj[0], list)
        and obj[0]
        and not isinstance(obj[0][0], list)
    ):
        return obj[0]
    return obj


def _add_input(sub, name: str, help_: str) -> None:
    sub.add_argument(f"--{name}", help=f"{help_} (inline JSON)")
    sub.add_argument(f"--{name}-file", help=f"{help_} (path to JSON/CSV file)")


def _family(args) -> jensen.WeightedFamily:
    return jensen.family_from_json(_load_input(args, "family"))


def _points(obj) -> list:
    """A JSON list of distributions or of density matrices, refused above POINTS_MAX_ENTRIES."""
    if isinstance(obj, dict) and "members" in obj:
        obj = obj["members"]
    if not isinstance(obj, list) or len(obj) < 2:
        raise CliError("points input must be a JSON list of at least two members")
    size = max(quantum._point_size(p) for p in obj)
    entries = len(obj) * (len(obj) - 1) // 2 * size
    if entries > POINTS_MAX_ENTRIES:
        raise CliError(
            f"{len(obj)} points of {size} entries give {entries} pair entries, "
            f"above the cap of {POINTS_MAX_ENTRIES}"
        )
    return obj


def build_parser() -> _Parser:
    parser = _Parser(prog="jensengeo", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for random generation subcommands")
    subs = parser.add_subparsers(dest="command")

    def new(name: str, help_: str, handler):
        sub = subs.add_parser(name, help=help_)
        sub.add_argument("--output", help="write the result to this path instead of stdout")
        sub.set_defaults(handler=handler)
        return sub

    s = new("entropy", "Shannon / order-alpha entropy of a distribution or state", _cmd_entropy)
    s.add_argument("--alpha", type=float, default=1.0)
    _add_input(s, "p", "probability vector")
    _add_input(s, "rho", "density matrix")

    s = new("jd", "Jensen divergence of two distributions", _cmd_jd)
    s.add_argument("--alpha", type=float, default=1.0)
    _add_input(s, "p", "first distribution")
    _add_input(s, "q", "second distribution")

    s = new("qjd", "quantum Jensen divergence of two states", _cmd_qjd)
    s.add_argument("--alpha", type=float, default=1.0)
    _add_input(s, "rho1", "first state")
    _add_input(s, "rho2", "second state")

    s = new("jd-general", "Jensen divergence of a weighted classical family", _cmd_jd_general)
    s.add_argument("--alpha", type=float, default=1.0)
    _add_input(s, "family", "weighted family")

    s = new(
        "qjd-general", "quantum Jensen divergence of a weighted family of states", _cmd_qjd_general
    )
    s.add_argument("--alpha", type=float, default=1.0)
    _add_input(s, "family", "weighted family")

    s = new("redundancy", "mean coding redundancy of a family against a reference", _cmd_redundancy)
    _add_input(s, "family", "weighted classical family")
    _add_input(s, "q", "reference distribution")

    s = new("identities", "compensation / Donald identity residual of a family", _cmd_identities)
    _add_input(s, "family", "weighted family")
    _add_input(s, "q", "reference distribution (classical family)")
    _add_input(s, "sigma", "reference state (quantum family)")

    s = new("bounds", "distance-based sandwich for a divergence value", _cmd_bounds)
    s.add_argument("--alpha", type=float, required=True)
    _add_input(s, "p", "first distribution")
    _add_input(s, "q", "second distribution")
    _add_input(s, "rho1", "first state")
    _add_input(s, "rho2", "second state")

    s = new("chain", "total-variation inequality chain for one classical pair", _cmd_chain)
    s.add_argument("--alpha", type=float, required=True)
    _add_input(s, "p", "first distribution")
    _add_input(s, "q", "second distribution")

    s = new("diagram", "joint-range diagram curves and homotopy samples (CSV)", _cmd_diagram)
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--n", type=int, default=3)
    s.add_argument("--grid", type=int, default=50)

    s = new(
        "check-negative-type",
        "negative-type certificate for a divergence matrix",
        _cmd_check_negative_type,
    )
    s.add_argument("--alpha", type=float, default=1.0)
    _add_input(s, "points", "list of distributions or states")
    _add_input(s, "matrix", "distance matrix, bypassing divergence computation")

    s = new("embed", "isometric embedding of sqrt(divergence) into Euclidean space", _cmd_embed)
    s.add_argument("--alpha", type=float, default=1.0)
    _add_input(s, "points", "list of distributions or states")
    _add_input(s, "matrix", "distance matrix, bypassing divergence computation")

    s = new("cayley-menger", "bordered determinant of a distance matrix", _cmd_cayley_menger)
    _add_input(s, "matrix", "distance matrix")

    s = new(
        "counterexample", "triangle-inequality defect on the canonical triple", _cmd_counterexample
    )
    s.add_argument("--alpha", type=float, required=True)

    s = new(
        "quadruple-cm", "Cayley-Menger determinant of the near-uniform quadruple", _cmd_quadruple_cm
    )
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--eps", type=float, default=1e-2)

    s = new("power-integral", "x^alpha via the integral representation", _cmd_power_integral)
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--alpha", type=float, required=True)

    s = new("holevo", "Holevo quantity of a quantum ensemble", _cmd_holevo)
    _add_input(s, "family", "weighted quantum family")

    s = new("gen", "seeded random test data", _cmd_gen)
    s.add_argument("--kind", choices=("distribution", "density", "pure"), required=True)
    s.add_argument("--n", type=int, default=2, help="alphabet size / Hilbert dimension")
    s.add_argument("--count", type=int, default=1)
    # also accepted after the subcommand; SUPPRESS keeps the global value otherwise
    s.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    subs.metavar = "|".join(subs.choices)
    return parser


def _cmd_entropy(args):
    p = _vector(args, "p", required=False)
    rho = _load_input(args, "rho", required=False)
    if (p is None) == (rho is None):
        raise CliError("pass exactly one of --p/--p-file or --rho/--rho-file")
    if p is not None:
        return {"value": alpha_entropy(p, args.alpha)}
    return {"value": quantum.alpha_entropy_q(rho, args.alpha)}


def _cmd_jd(args):
    return {"value": jensen.jd_alpha(_vector(args, "p"), _vector(args, "q"), args.alpha).value}


def _cmd_qjd(args):
    rho1, rho2 = _load_input(args, "rho1"), _load_input(args, "rho2")
    return {"value": jensen.qjd_alpha(rho1, rho2, args.alpha).value}


def _cmd_jd_general(args):
    return {"value": jensen.jd_alpha_general(_family(args), args.alpha).value}


def _cmd_qjd_general(args):
    return {"value": jensen.qjd_alpha_general(_family(args), args.alpha).value}


def _cmd_redundancy(args):
    return {"value": jensen.redundancy(_family(args), _vector(args, "q"))}


def _cmd_identities(args):
    fam = _family(args)
    classical = fam.kind == "classical"
    other = "sigma" if classical else "q"
    if _load_input(args, other, required=False) is not None:
        raise CliError(f"--{other} does not apply to a {fam.kind} family")
    if classical:
        identity, tol = "compensation", jensen.DUAL_TOL_CLASSICAL
        residual = jensen.compensation_residual(fam, _vector(args, "q"))
    else:
        identity, tol = "donald", jensen.DUAL_TOL_QUANTUM
        residual = jensen.donald_residual(fam, _load_input(args, "sigma"))
    tol *= tolerance_scale()
    return {
        "identity": identity,
        "residual": residual,
        "tolerance": tol,
        "within_tolerance": residual <= tol,
    }


def _cmd_bounds(args):
    p = _vector(args, "p", required=False)
    q = _vector(args, "q", required=False)
    r1 = _load_input(args, "rho1", required=False)
    r2 = _load_input(args, "rho2", required=False)
    if p is not None and q is not None and r1 is None and r2 is None:
        rep = bounds_mod.bound_report(p, q, args.alpha)
    elif r1 is not None and r2 is not None and p is None and q is None:
        rep = bounds_mod.q_bound_report(r1, r2, args.alpha)
    else:
        raise CliError("pass either --p and --q, or --rho1 and --rho2")
    return {
        "lower": rep.lower,
        "value": rep.value,
        "upper": rep.upper,
        "v": rep.v,
        "alpha": rep.alpha,
        "upper_kind": rep.upper_kind,
    }


def _cmd_chain(args):
    return bounds_mod.chain_check(_vector(args, "p"), _vector(args, "q"), args.alpha)._asdict()


def _cmd_diagram(args):
    points = bounds_mod.diagram(args.alpha, args.n, args.grid)
    return bounds_mod.diagram_to_csv(points)


def _resolve_matrix(args):
    pts = _load_input(args, "points", required=False)
    mat = _load_input(args, "matrix", required=False)
    if (pts is None) == (mat is None):
        raise CliError("pass exactly one of --points/--points-file or --matrix/--matrix-file")
    if mat is not None:
        return geometry.as_distance_matrix(mat)
    return geometry.divergence_matrix(_points(pts), args.alpha)


def _cmd_check_negative_type(args):
    report = geometry.negative_type_check(_resolve_matrix(args))
    out = {
        "is_negative_type": report.is_negative_type,
        "min_eigenvalue": report.min_eigenvalue,
    }
    if report.witness_vector is not None:
        out["witness_vector"] = report.witness_vector
    return out


def _cmd_embed(args):
    try:
        emb = geometry.embed(_resolve_matrix(args))
    except geometry.NegativeTypeError as exc:
        raise CliError(
            f"{exc} (witness available via check-negative-type)", code=EXIT_VALIDATION
        ) from exc
    gate = 1e-8 * tolerance_scale()
    if emb.reconstruction_error > gate:
        raise CliError(
            f"embedding reconstruction error {emb.reconstruction_error:.3e} exceeds {gate:.1e}"
        )
    return {"coords": emb.coords, "reconstruction_error": emb.reconstruction_error}


def _cmd_cayley_menger(args):
    mat = geometry.as_distance_matrix(_load_input(args, "matrix"))
    return {"det": geometry.cayley_menger_det(mat), "n": mat.n}


def _cmd_counterexample(args):
    energy = geometry.counterexample_energy(args.alpha)
    return {"energy": energy, "violates_triangle": bool(energy > 1e-12)}


def _cmd_quadruple_cm(args):
    det = geometry.quadruple_cm_determinant(args.alpha, args.eps)
    pred = geometry.cm_sign_prediction(args.alpha)
    sign = 1 if det > 0 else (-1 if det < 0 else 0)
    return {"det": det, "predicted_sign": pred, "matches_prediction": sign == pred}


def _cmd_power_integral(args):
    value = geometry.power_integral(args.x, args.alpha)
    exact = args.x**args.alpha
    return {"value": value, "exact": exact, "abs_error": abs(value - exact)}


def _cmd_holevo(args):
    return {"value": jensen.holevo_bound(_family(args))}


def _cmd_gen(args):
    if args.count < 1 or args.n < 1:
        raise CliError("need --count >= 1 and --n >= 1")
    entries = args.count * (args.n if args.kind == "distribution" else args.n**2)
    if entries > GEN_MAX_ENTRIES:
        raise CliError(f"gen would write {entries} entries, above the cap of {GEN_MAX_ENTRIES}")
    rng = np.random.default_rng(args.seed)
    items = []
    for _ in range(args.count):
        if args.kind == "distribution":
            items.append(list(map(float, random_distribution(args.n, rng).probs)))
        elif args.kind == "density":
            items.append(quantum.density_to_json(quantum.ginibre_state(args.n, rng)))
        else:
            items.append(quantum.density_to_json(quantum.random_pure_state(args.n, rng)))
    return items


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("no subcommand given; see --help", code=EXIT_USAGE)
        result = args.handler(args)
    except CliError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return exc.code
    except ValueError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return EXIT_VALIDATION

    if isinstance(result, str):
        text = result
    else:
        text = json.dumps(_jsonable(result)) + "\n"
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            sys.stderr.write(json.dumps({"error": f"cannot write {args.output}: {exc}"}) + "\n")
            return EXIT_BAD_FILE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
