"""Span tracing of jensengeo from outside the package.

``install`` replaces every public function of the package's modules, in
the namespace of each module that looks it up, with a wrapper that
records a span: the name, the start and end in monotonic nanoseconds,
the index of the enclosing span and a count of work units. It wraps
``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh`` the same way, with
the number of matrices decomposed as the units, and marks calls of
``classical.as_distribution`` on inputs that are not yet a
``Distribution`` (units 1, else 0). Nothing in the package changes.

Spans are kept per task in ``Tracer.spans``. ``fold`` reduces one
task's spans to sums (``Totals``), from which ``layer_metrics`` derives
the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

PACKAGE_MODULES = ("classical", "quantum", "jensen", "geometry", "bounds", "cli", "tolerances")
EIG_NAMES = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
CERTIFY = ("geometry.negative_type_check", "geometry.embed", "geometry.menger_embeddability")
CLASSICAL_ENTROPY = ("classical.alpha_entropy", "classical.shannon_entropy")
QUANTUM_ENTROPY = ("quantum.alpha_entropy_q", "quantum.von_neumann_entropy")
DUAL_PARENTS = ("jensen.jd_general", "jensen.qjd_general")
DUAL_CHILDREN = ("classical.kl_divergence", "quantum.relative_entropy")


class Tracer:
    """In-memory span recorder for one process.

    A span is ``[name_id, start_ns, end_ns, parent_index, units]``; the
    parent index is -1 for a span opened outside any other.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, units=None):
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1] if stack else -1, 1 if units is None else units(args)]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def take(self) -> list[list]:
        """Return the spans recorded since the last call and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _matrices(args) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    count = 1
    for s in shape[:-2]:
        count *= int(s)
    return count


def install(tracer: Tracer) -> list[str]:
    """Wrap the package's public functions and numpy's Hermitian eigensolvers.

    Returns the names of the wrapped functions. A module or function
    that a later version of the package no longer has is not wrapped.
    """
    import numpy as np

    modules = {}
    for m in PACKAGE_MODULES:
        try:
            modules[m] = importlib.import_module(f"jensengeo.{m}")
        except ModuleNotFoundError:
            continue
    Distribution = getattr(modules.get("classical"), "Distribution", ())
    unit_rules = {"classical.as_distribution": lambda a: int(not isinstance(a[0], Distribution))}
    wrappers: dict[int, object] = {}
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if not obj.__module__.startswith("jensengeo.") or home not in modules:
                continue
            if id(obj) not in wrappers:
                name = f"{home}.{obj.__name__}"
                wrappers[id(obj)] = tracer.wrap(name, obj, unit_rules.get(name))
            setattr(module, attr, wrappers[id(obj)])
    for name in EIG_NAMES:
        attr = name.rpartition(".")[2]
        setattr(np.linalg, attr, tracer.wrap(name, getattr(np.linalg, attr), _matrices))
    return sorted(n for n in tracer.names if not n.startswith("numpy."))


class Totals(defaultdict):
    """Sums over folded tasks, keyed by strings."""

    def __init__(self):
        super().__init__(float)


def fold(spans: list[list], names: list[str], totals: Totals, order_key: str = "") -> None:
    """Add one task's spans to ``totals``.

    For each span name: ``n:`` the call count, ``dur:`` the summed
    duration, ``self:`` the summed layer self time (the span minus the
    parts of it that spans of other modules cover), ``units:`` the
    summed units. Layer self time of a span includes the nested spans of
    its own module, so it is the time spent in that module's code.

    Structural sums: ``dm_jensen`` is the time that direct ``jensen``
    children of ``divergence_matrix`` cover; ``dual`` the time in
    ``kl_divergence`` and ``relative_entropy`` called by the order-1
    cross-check; ``c_entropy:*`` and ``q_entropy:*`` count and time the
    outermost entropy calls; ``eig_work`` (and ``eig_work:<order_key>``)
    the matrices decomposed in divergence computations, that is outside
    certification and outside the validation of inputs handed in from
    outside the ``jensen`` module.
    """
    count = len(spans)
    modules = [n.partition(".")[0] for n in names]
    dur = [s[2] - s[1] for s in spans]
    layer_self = dur[:]
    ctx = [""] * count
    outside_q = [""] * count  # module of the nearest span outside quantum and numpy
    entropy_group = [""] * count  # the entropy group a span lies in, if any
    outermost = {"c_entropy": [], "q_entropy": []}
    for i, (nid, _, _, p, units) in enumerate(spans):
        name = names[nid]
        mod = modules[nid]
        pname = names[spans[p][0]] if p >= 0 else ""
        pctx = ctx[p] if p >= 0 else "work"
        if name in CERTIFY or pctx == "certify":
            ctx[i] = "certify"
        elif pctx == "input" or (
            name == "quantum.validate_density" and (p < 0 or outside_q[p] != "jensen")
        ):
            ctx[i] = "input"
        else:
            ctx[i] = "work"
        outside_q[i] = (outside_q[p] if p >= 0 else "") if mod in ("quantum", "numpy") else mod
        group = "c_entropy" if name in CLASSICAL_ENTROPY else "q_entropy" if name in QUANTUM_ENTROPY else ""
        entropy_group[i] = entropy_group[p] if p >= 0 and entropy_group[p] else group
        if group and not (p >= 0 and entropy_group[p] == group):
            outermost[group].append(i)
        if p >= 0:
            layer_self[p] -= dur[i]
        totals["n:" + name] += 1
        totals["dur:" + name] += dur[i]
        totals["units:" + name] += units
        if name in EIG_NAMES and ctx[i] == "work":
            totals["eig_work"] += units
            totals["eig_work:" + order_key] += units
        if pname == "geometry.divergence_matrix" and mod == "jensen":
            totals["dm_jensen"] += dur[i]
        if name in DUAL_CHILDREN and pname in DUAL_PARENTS:
            totals["dual"] += dur[i]
    # layer self time: own self time plus that of same-module descendants
    for i in range(count - 1, -1, -1):
        p = spans[i][3]
        if p >= 0 and modules[spans[p][0]] == modules[spans[i][0]]:
            layer_self[p] += layer_self[i]
    for i, s in enumerate(spans):
        totals["self:" + names[s[0]]] += layer_self[i]
    for group, indices in outermost.items():
        totals[group + ":n"] += len(indices)
        totals[group + ":self"] += sum(layer_self[i] for i in indices)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_call(key: str, name: str, scale: float):
    return lambda t: _ratio(t[f"{key}:{name}"], t["n:" + name]) / scale


MS, US = 1e6, 1e3  # nanoseconds per unit

# name, unit, span names it needs, value from the totals. A value whose
# denominator is zero (the layer is idle on the workload) reads 0.
LAYER_METRICS = (
    ("cli.run_ms", "ms", ("cli.run",), _per_call("dur", "cli.run", MS)),
    ("geometry.divergence_matrix_ms", "ms", ("geometry.divergence_matrix",),
     _per_call("dur", "geometry.divergence_matrix", MS)),
    ("geometry.divergence_matrix_self_ms", "ms", ("geometry.divergence_matrix",),
     lambda t: _ratio(t["dur:geometry.divergence_matrix"] - t["dm_jensen"],
                      t["n:geometry.divergence_matrix"]) / MS),
    ("geometry.negative_type_check_ms", "ms", ("geometry.negative_type_check",),
     _per_call("dur", "geometry.negative_type_check", MS)),
    ("geometry.embed_ms", "ms", ("geometry.embed",), _per_call("dur", "geometry.embed", MS)),
    ("geometry.menger_embeddability_ms", "ms", ("geometry.menger_embeddability",),
     _per_call("dur", "geometry.menger_embeddability", MS)),
    ("jensen.jd_alpha_calls_per_pair", "count", ("jensen.jd_alpha",),
     lambda t: _ratio(t["n:jensen.jd_alpha"], t["values:classical"])),
    ("jensen.qjd_alpha_calls_per_pair", "count", ("jensen.qjd_alpha",),
     lambda t: _ratio(t["n:jensen.qjd_alpha"], t["values:quantum"])),
    ("jensen.jd_alpha_us", "us", ("jensen.jd_alpha",), _per_call("self", "jensen.jd_alpha", US)),
    ("jensen.qjd_alpha_us", "us", ("jensen.qjd_alpha",), _per_call("self", "jensen.qjd_alpha", US)),
    ("jensen.dual_check_ms", "ms", DUAL_PARENTS + DUAL_CHILDREN,
     lambda t: _ratio(t["dual"], t["tasks:order1"]) / MS),
    ("classical.validations_per_pair", "count", ("classical.as_distribution",),
     lambda t: _ratio(t["units:classical.as_distribution"],
                      t["values:classical"] + t["values:quantum"])),
    ("classical.entropy_calls_per_pair", "count", CLASSICAL_ENTROPY,
     lambda t: _ratio(t["c_entropy:n"], t["values:classical"])),
    ("classical.entropy_us", "us", CLASSICAL_ENTROPY,
     lambda t: _ratio(t["c_entropy:self"], t["c_entropy:n"]) / US),
    ("quantum.eigendecompositions_per_pair", "count", (),
     lambda t: _ratio(t["eig_work"], t["values:quantum"])),
    ("quantum.eigendecompositions_per_pair_order1", "count", (),
     lambda t: _ratio(t["eig_work:order1"], t["values:quantum:order1"])),
    ("quantum.eigendecompositions_per_pair_other_orders", "count", (),
     lambda t: _ratio(t["eig_work:other"], t["values:quantum:other"])),
    ("quantum.validations_per_pair", "count", ("quantum.validate_density",),
     lambda t: _ratio(t["n:quantum.validate_density"], t["values:quantum"])),
    ("quantum.entropy_us", "us", QUANTUM_ENTROPY,
     lambda t: _ratio(t["q_entropy:self"], t["q_entropy:n"]) / US),
    ("quantum.relative_entropy_us", "us", ("quantum.relative_entropy",),
     _per_call("self", "quantum.relative_entropy", US)),
    ("bounds.diagram_ms", "ms", ("bounds.diagram",), _per_call("dur", "bounds.diagram", MS)),
    ("bounds.bound_report_us", "us", ("bounds.bound_report",),
     _per_call("dur", "bounds.bound_report", US)),
    ("bounds.q_bound_report_us", "us", ("bounds.q_bound_report",),
     _per_call("dur", "bounds.q_bound_report", US)),
    ("bounds.chain_check_us", "us", ("bounds.chain_check",),
     _per_call("dur", "bounds.chain_check", US)),
)


def layer_metrics(totals: Totals, wrapped: set[str], import_ms: float) -> dict:
    """The per-layer metrics, as ``{name: {"value": v, "unit": u}}``.

    A metric whose span names the package no longer defines is left out.
    """
    out = {"cli.import_ms": {"value": import_ms, "unit": "ms"}}
    for name, unit, needs, value in LAYER_METRICS:
        if all(n in wrapped for n in needs):
            out[name] = {"value": float(value(totals)), "unit": unit}
    return out
