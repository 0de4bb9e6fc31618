"""Span tracing of liecurv's layers from outside the package.

The benchmark wraps each layer's public functions under every name their
callers bind them to (``liecurv.verify.quartic_from_definition`` as well as
``liecurv.oracles.quartic_from_definition``), so nothing under ``src/``
changes. A span records its name, start, end, parent span, request id and
the attributes n and field of the first argument that carries them. Spans
stay in memory, in flat arrays, until the run ends.

Targets are resolved by name when tracing is switched on. A target that no
longer exists is reported in ``Tracer.missing`` and its metrics are left
out, so a refactor that merges or renames a function does not break the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# module -> public functions (dotted for methods) whose spans are recorded.
# These are the calls every per-layer metric in BENCHMARK.json is taken from.
TARGETS = {
    "algebra": ["bracket", "matrix_exp", "matrix_from_json", "matrix_to_json"],
    "cartan": ["theta_split", "CartanStructure.b_theta", "validate"],
    "curvature": ["nabla", "quartic", "sectional", "quartic_special",
                  "quartic_commuting"],
    "oracles": ["nabla_from_metric", "quartic_from_definition",
                "commuting_pair"],
    "geodesics": ["geodesic_point", "geodesic_body_velocity",
                  "experimental_geodesic_point",
                  "experimental_geodesic_body_velocity", "geodesic_residual",
                  "geodesic_trace", "totally_geodesic_check"],
    "verify": ["run_verify"],
    "cli": ["build_parser", "main"],
}
# Counted, not spanned: one span per construction would cost more than the
# construction itself.
CONSTRUCTOR = ("algebra", "MatrixElement.__post_init__")
CONSTRUCTED_METRIC = "algebra.MatrixElement.constructed"
DEGENERATE_METRIC = "curvature.degenerate_ratio"
OVERHEAD_METRIC = "trace.overhead_ratio"
PACKAGE = "liecurv"

_FIELDS = {"real": 0, "complex": 1}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    out = []
    for module, names in TARGETS.items():
        out += [f"{module}.{name}.{kind}" for name in names
                for kind in ("calls", "self_s")]
        out += [f"{module}.self_s", f"{module}.inclusive_s"]
    return out + [CONSTRUCTED_METRIC, DEGENERATE_METRIC, OVERHEAD_METRIC]


class Tracer:
    """In-memory span store plus the patches that feed it.

    ``install()`` switches tracing on and ``uninstall()`` off again;
    ``request_id`` is set by the caller before each request.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.n = array("h")
        self.field = array("b")
        self.error = array("i")
        self.stack: list[int] = []
        self.request_id = -1
        self.constructed = 0
        self.missing: list[str] = []
        self._sites: list[tuple[object, str, object, object]] = []

    def intern(self, text: str) -> int:
        i = self._ids.get(text)
        if i is None:
            i = self._ids[text] = len(self.names)
            self.names.append(text)
        return i

    def __len__(self) -> int:
        return len(self.start)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every target; the first call finds the call sites, later
        calls reuse them, so tracing can be switched per request."""
        if not self._sites:
            self._discover()
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)

    def _discover(self) -> None:
        for module, names in TARGETS.items():
            for qualname in names:
                target = f"{module}.{qualname}"
                original = _resolve(module, qualname)
                if original is None:
                    self.missing.append(target)
                    continue
                self._find_sites(original, self._span_wrapper(target, original))
        original = _resolve(*CONSTRUCTOR)
        if original is None:
            self.missing.append(CONSTRUCTED_METRIC)
        else:
            self._find_sites(original, self._count_wrapper(original))

    def _find_sites(self, original, wrapper) -> None:
        """Every name under which a liecurv module or class holds
        ``original``: callers look the name up in their own namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type)
                              and v.__module__ == mod_name]
            for owner in owners:
                for key, value in vars(owner).items():
                    if value is original:
                        self._sites.append((owner, key, original, wrapper))

    def _span_wrapper(self, target: str, fn):
        name_id = self.intern(target)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, ns, fields, errors = (self.start, self.end, self.n,
                                            self.field, self.error)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            n, field = _attrs(args)
            ns.append(n)
            fields.append(field)
            errors.append(-1)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = self.intern(type(exc).__name__)
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def _count_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.constructed += 1
            return fn(*args, **kwargs)

        return counted

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (a view would pin the arrays' size)."""
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "request": np.array(self.request, dtype=np.int32),
                "start_ns": np.array(self.start, dtype=np.int64),
                "end_ns": np.array(self.end, dtype=np.int64),
                "n": np.array(self.n, dtype=np.int16),
                "field": np.array(self.field, dtype=np.int8),
                "error": np.array(self.error, dtype=np.int32)}

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics per request: calls and self seconds of every
        traced function; self and inclusive seconds per module (inclusive:
        while any of its functions is on the stack); constructions; and the
        DegenerateSection share of ``sectional`` calls."""
        arr = self.arrays()
        ids = arr["name"]
        dur = arr["end_ns"] - arr["start_ns"]
        self_ns = self_times(arr["parent"], arr["start_ns"], arr["end_ns"])
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        self_sum = np.bincount(ids, weights=self_ns, minlength=size)
        modules = list(TARGETS)
        module_of = np.array([modules.index(x.split(".")[0])
                              if x.split(".")[0] in TARGETS else -1
                              for x in self.names] or [-1])
        group = module_of[ids]
        top = outermost(arr["parent"], group)
        inclusive = np.bincount(group[top], weights=dur[top],
                                minlength=len(modules))
        out: dict[str, float] = {}
        for m, (module, names) in enumerate(TARGETS.items()):
            module_self = 0.0
            for qualname in names:
                target = f"{module}.{qualname}"
                if target in self.missing:
                    continue
                i = self.intern(target)
                out[f"{target}.calls"] = int(calls[i]) / requests
                out[f"{target}.self_s"] = self_sum[i] / 1e9 / requests
                module_self += self_sum[i] / 1e9
            out[f"{module}.self_s"] = module_self / requests
            out[f"{module}.inclusive_s"] = inclusive[m] / 1e9 / requests
        if CONSTRUCTED_METRIC not in self.missing:
            out[CONSTRUCTED_METRIC] = self.constructed / requests
        sect = "curvature.sectional"
        if sect not in self.missing:
            mask = ids == self.intern(sect)
            degenerate = self._ids.get("DegenerateSection", -2)
            total = int(mask.sum())
            bad = int((arr["error"][mask] == degenerate).sum())
            out[DEGENERATE_METRIC] = bad / total if total else 0.0
        return {k: float(v) for k, v in out.items()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _resolve(module: str, qualname: str):
    try:
        obj = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    for part in qualname.split("."):
        # read the class dict for the last part so a method comes back as
        # the plain function the class stores
        owner = obj
        obj = vars(owner).get(part) if isinstance(owner, type) else getattr(
            owner, part, None)
        if obj is None:
            return None
    return obj if callable(obj) else None


def _attrs(args) -> tuple[int, int]:
    n, field = -1, -1
    for a in args:
        if n < 0:
            v = getattr(a, "n", None)
            if isinstance(v, int):
                n = v
        if field < 0:
            field = _FIELDS.get(getattr(a, "field", None), -1)
        if n >= 0 and field >= 0:
            break
    return n, field


def outermost(parent, group) -> np.ndarray:
    """True for spans with no ancestor in their own group (module)."""
    parent = np.asarray(parent, dtype=np.int64)
    group = np.asarray(group)
    top = np.ones(parent.size, dtype=bool)
    anc = parent.copy()
    idx = np.flatnonzero(anc >= 0)
    while idx.size:
        same = group[anc[idx]] == group[idx]
        top[idx[same]] = False
        idx = idx[~same]
        anc[idx] = parent[anc[idx]]
        idx = idx[anc[idx] >= 0]
    return top


def self_times(parent, start, end) -> np.ndarray:
    """Self time of every span: its duration minus the part of its interval
    that the union of its children's intervals covers."""
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    out = (end - start).astype(np.float64)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return out
    p = parent[kids]
    s = np.maximum(start[kids], start[p])
    e = np.maximum(np.minimum(end[kids], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    first = np.ones(p.size, dtype=bool)
    first[1:] = p[1:] != p[:-1]
    # Shift each parent's children into a time band of its own, so one
    # running maximum over all children never carries an end across parents.
    band = (np.cumsum(first) - 1) * (int(end.max() - start.min()) + 1)
    s_b, e_b = s + band, e + band
    reach = np.maximum.accumulate(e_b)
    prev = np.empty_like(reach)
    prev[0] = s_b[0]
    prev[1:] = reach[:-1]
    prev[first] = s_b[first]
    covered = np.maximum(e_b - np.maximum(s_b, prev), 0)
    out -= np.bincount(p, weights=covered.astype(np.float64),
                       minlength=out.size)
    return out
