"""Layer spans recorded from outside the package, by wrapping public names.

`Tracer.install()` replaces each traced function or method with a wrapper
that opens a span, in every namespace that holds it: the defining module,
each ``cgalgebra`` module that imported it by name (``cli``, ``fock`` and
``invariance`` do, and so does the package ``__init__``), and class aliases
such as ``Coefficient.__radd__ = __add__``.  Predicates (``is_zero``,
``is_scalar``, ``__eq__``) are left alone: they are cheap but very frequent,
so spans around them would mostly measure the tracer.

Accounting, for a span name N of layer L:

- ``N.calls`` counts the spans of N not nested in another span of N, so a
  function that re-enters itself (``Coefficient.__sub__`` calls ``__add__``,
  both ``ring.add``) counts once;
- ``N.busy_s`` is the wall time of those outermost spans;
- ``L.busy_s`` is the wall time of spans of L not nested in another span of L;
- ``L.self_s`` is the time during which the innermost open span belongs to L,
  which is L's busy time minus the child spans it opened in other layers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

LAYERS = ("ring", "weyl", "linalg", "invariance", "fock", "realizations", "cli")

# Which end-to-end metric each layer should move, on which workload.
LAYER_MAP = {
    "ring": "most of the self time on all three: op_p50_ms on weyl-products and fock-states, "
            "sweep_s on suite-sweep",
    "weyl": "op_p50_ms on weyl-products; sweep_s partly; nothing on fock-states",
    "linalg": "sweep_s and op_tail_ms on suite-sweep; op_p50_ms on fock-states; "
              "nothing on weyl-products",
    "invariance": "op_tail_ms and sweep_s on suite-sweep only",
    "fock": "op_p50_ms on fock-states; the modes share of sweep_s; nothing on weyl-products",
    "realizations": "setup_s if builders move to import time; otherwise a small share of "
                    "suite-sweep",
    "cli": "sweep_s on suite-sweep",
}

# (span name, attribute) of the traced methods; aliases share one span name.
_RING = [("ring.mul", "Coefficient.__mul__"), ("ring.mul", "Coefficient.__rmul__"),
         ("ring.add", "Coefficient.__add__"), ("ring.add", "Coefficient.__radd__"),
         ("ring.add", "Coefficient.__sub__"), ("ring.add", "Coefficient.__rsub__"),
         ("ring.divide_exact", "Coefficient.divide_exact"),
         ("ring.substitute", "Coefficient.substitute")]
_FUNCS = {
    "weyl": ("multiply", "commutator", "similarity", "apply", "print_op", "parse_op"),
    "linalg": ("rref_fraction_free", "nullspace", "rank", "det", "solve_in_span",
               "charpoly", "eval_poly", "gaussian_rational_roots"),
    "invariance": ("find_symmetries", "lambda_candidates", "close_algebra", "onshell_report",
                   "verify_table", "critical_frequencies", "contract"),
    "fock": ("mode_solver", "eigenstate", "eigenstate_matrix", "k_matrix", "spectrum",
             "overlap_probability", "kgamma_decoupling_check", "h0_eigencheck"),
}
_FOCK_METHODS = [("fock.LadderOp.mul", "LadderOp.__mul__"),
                 ("fock.LadderOp.apply_state", "LadderOp.apply_state")]

# The 14 configurations `cgalgebra all` runs, keyed by their span name.
CLI_CONFIGS = {
    "verify-algebra": ["verify-algebra"],
    "omega": ["omega"],
    "onshell": ["onshell"],
    "critical": ["critical"],
    "contract": ["contract"],
    "eigencheck": ["eigencheck"],
    "modes": ["modes"],
    "overlap": ["overlap"],
    "spectrum": ["spectrum"],
    "symmetries-generic": ["symmetries", "--omega", "generic"],
    "symmetries-1": ["symmetries", "--omega", "1"],
    "symmetries-3": ["symmetries", "--omega", "3"],
    "general-l-3_2": ["general-l", "--ell", "3/2"],
    "general-l-5_2": ["general-l", "--ell", "5/2"],
}

# Ratios of calls along one parent -> child edge: (metric, parent, child, unit).
RATIOS = [
    ("weyl.similarity.ad_depth", "weyl.similarity", "weyl.commutator", "count/call"),
    ("invariance.solves_per_closure", "invariance.close_algebra", "linalg.solve_in_span",
     "count/call"),
    ("fock.mode_solves_per_eigenstate", "fock.eigenstate", "fock.mode_solver", "count/call"),
]


def targets() -> List[Tuple[str, str, str, str]]:
    """Every traced attribute as (layer, span name, module name, attribute path)."""
    out = [("ring", span, "cgalgebra.ring", attr) for span, attr in _RING]
    for layer, names in _FUNCS.items():
        out += [(layer, f"{layer}.{n}", f"cgalgebra.{layer}", n) for n in names]
    out += [("fock", span, "cgalgebra.fock", attr) for span, attr in _FOCK_METHODS]
    mod = sys.modules["cgalgebra.realizations"]
    for name, fn in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__):
            out.append(("realizations", "realizations", mod.__name__, name))
    return out


def span_names() -> List[str]:
    """Span names with per-function metrics, in report order."""
    names = [s for s, _ in _RING] + [f"{layer}.{n}" for layer, ns in _FUNCS.items() for n in ns]
    names += [s for s, _ in _FOCK_METHODS]
    return list(dict.fromkeys(names))


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name a traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
    for name, _, _, unit in RATIOS:
        units[name] = unit
    units["realizations.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    for config in CLI_CONFIGS:
        units[f"cli.{config}.busy_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Span accounting for one traced pass; see the module docstring."""

    def __init__(self):
        self.reset()
        self._installed: List[Tuple[object, str, object]] = []

    def reset(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.layer_busy: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        self._stack: List[Tuple[str, str, float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._layer_depth: Dict[str, int] = defaultdict(int)
        self._last = 0.0

    def _enter(self, name: str, layer: str) -> None:
        now = time.perf_counter()
        stack = self._stack
        if stack:
            parent = stack[-1]
            self.layer_self[parent[1]] += now - self._last
            parent_name = parent[0]
        else:
            parent_name = ""
        self._last = now
        if not self._depth[name]:
            self.calls[name] += 1
            self.edges[(parent_name, name)] += 1
        self._depth[name] += 1
        self._layer_depth[layer] += 1
        stack.append((name, layer, now))

    def _exit(self) -> None:
        now = time.perf_counter()
        name, layer, start = self._stack.pop()
        self.layer_self[layer] += now - self._last
        self._last = now
        self._depth[name] -= 1
        if not self._depth[name]:
            self.busy[name] += now - start
        self._layer_depth[layer] -= 1
        if not self._layer_depth[layer]:
            self.layer_busy[layer] += now - start

    @contextmanager
    def span(self, name: str, layer: str):
        self._enter(name, layer)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, fn, name: str, layer: str):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def install(self) -> None:
        """Wrap every target in every ``cgalgebra`` namespace that binds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "cgalgebra" or n.startswith("cgalgebra.")]
        wrappers = set()
        for layer, span, mod_name, attr in targets():
            owner = sys.modules[mod_name]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            if original in wrappers:
                continue  # an alias (``__radd__ = __add__``) the scan below already rebound
            wrapper = self._wrap(original, span, layer)
            wrappers.add(wrapper)
            holders = [owner] + namespaces
            holders += [v for ns in namespaces for v in vars(ns).values() if inspect.isclass(v)]
            for holder in dict.fromkeys(holders):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._installed.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._installed):
            setattr(holder, key, original)
        self._installed = []

    def layer_calls(self, layer: str) -> int:
        """Outermost calls of every traced name of one layer."""
        return sum(n for name, n in self.calls.items()
                   if name == layer or name.startswith(layer + "."))

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        out: Dict[str, float] = {}
        for span in span_names():
            out[f"{span}.calls"] = self.calls.get(span, 0)
            out[f"{span}.busy_s"] = self.busy.get(span, 0.0)
        for name, parent, child, _ in RATIOS:
            n_parent = self.calls.get(parent, 0)
            out[name] = self.edges.get((parent, child), 0) / n_parent if n_parent else 0.0
        out["realizations.calls"] = self.calls.get("realizations", 0)
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = self.layer_busy.get(layer, 0.0)
            out[f"{layer}.self_s"] = self.layer_self.get(layer, 0.0)
        for config in CLI_CONFIGS:
            out[f"cli.{config}.busy_s"] = self.busy.get(f"cli.{config}", 0.0)
        return out
