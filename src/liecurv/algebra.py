"""Dense small-matrix kernel: bracket, matrix exponential, seeded random
generation, and the JSON wire form for matrices.

Matrices live in gl(n, R) or gl(n, C) and are kept deliberately small and
dense; everything downstream (Cartan structures, curvature, geodesics) is
built on the handful of primitives in this module.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, Overflow

REAL = "real"
COMPLEX = "complex"

@dataclass(frozen=True, eq=False)
class MatrixElement:
    """Validated square matrix over real or complex scalars: the entry type.

    Wraps a private, read-only float64/complex128 copy of its input. Entries
    must be finite; the scalar field is carried by the dtype. Every function
    of the library takes array-likes and computes on plain ndarrays, so an
    element is converted by numpy (``__array__``) wherever it is passed in.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.array(arr, dtype=dtype)  # private copy
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def field(self) -> str:
        return field_of(self.data)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.data, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"MatrixElement(n={self.n}, field={self.field!r})"


def field_of(u) -> str:
    """The scalar field of a matrix: COMPLEX for a complex dtype, else REAL."""
    return COMPLEX if np.iscomplexobj(u) else REAL


def bracket(u, v) -> np.ndarray:
    """Lie bracket [u, v] = uv - vu."""
    u, v = np.asarray(u), np.asarray(v)
    return u @ v - v @ u


# Thread-count setters of OpenBLAS, as the scipy and numpy wheels and as
# plain builds export them; the getter has the same name with "get".
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads",
                     "scipy_openblas_set_num_threads64_",
                     "openblas_set_num_threads")


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS loaded in this
    process, found in the Linux process map; empty where there is none."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            if hasattr(lib, name):
                controls.append((getattr(lib, name.replace("_set_", "_get_")),
                                 getattr(lib, name)))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.

    scipy's expm solves its n x n Pade system with LAPACK getrs, which
    OpenBLAS hands to its thread pool even for n = 2; the helper thread then
    spins on a second core between calls, and every call waits for it, so
    the time of a call depends on that core being free. One thread gives
    bit-equal results without the spinning and the waits.
    """
    saved = [(get(), set_) for get, set_ in _openblas_thread_controls()]
    for _, set_ in saved:
        set_(1)
    try:
        yield
    finally:
        for count, set_ in saved:
            set_(count)


def matrix_exp(u) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a degree-13 Pade
    approximant (relative accuracy ~1e-13 for ||u|| <= 10).

    u is one matrix or a stack of them on its last two axes; each slice of
    a stack is bit-equal to its own call. Raises Overflow if the result
    leaves the representable range, naming the norm of the first slice that
    does.
    """
    u = np.asarray(u)
    with np.errstate(over="ignore", invalid="ignore"), _one_blas_thread():
        out = scipy.linalg.expm(u)
        if not np.all(np.isfinite(out)):
            finite = np.isfinite(out).all(axis=(-2, -1)).ravel()
            first = u.reshape(-1, *u.shape[-2:])[np.argmin(finite)]
            raise Overflow("exponential overflowed for a matrix of norm "
                           f"{np.linalg.norm(first):.3g}")
    return out


def random_matrix(rng: np.random.Generator, n: int, field: str = REAL,
                  shape: tuple[int, ...] = ()) -> np.ndarray:
    """Matrix with entries i.i.d. uniform in [-1, 1]; for the complex field the
    real and imaginary parts are drawn independently.

    With a leading shape, a stack of that shape whose matrices are drawn in
    C order, each (real part, then imaginary part) in turn: the stack equals
    that many calls without a shape, from the same generator state.
    """
    if field == COMPLEX:
        x = rng.uniform(-1.0, 1.0, (*shape, 2, n, n))
        return x[..., 0, :, :] + 1j * x[..., 1, :, :]
    return rng.uniform(-1.0, 1.0, (*shape, n, n))


# -- JSON wire form ---------------------------------------------------------
#
#   {"n": int, "field": "real"|"complex", "entries": [...]}
#
# entries is a flat row-major list of length n*n; real entries are plain
# numbers, complex entries are [re, im] pairs.


def matrix_to_json(u) -> dict:
    u = np.asarray(u)
    field = field_of(u)
    if field == COMPLEX:
        entries: list[Any] = [[float(z.real), float(z.imag)] for z in u.flat]
    else:
        entries = [float(x) for x in u.flat]
    return {"n": u.shape[0], "field": field, "entries": entries}


def matrix_from_json(obj: Any) -> MatrixElement:
    """Parse the JSON wire form. A bare nested list of rows of numbers is
    also accepted and is read as a real matrix."""
    if isinstance(obj, list):
        if not all(isinstance(row, list) for row in obj):
            raise ValueError("a nested list must hold rows that are lists")
        lengths = [len(row) for row in obj]
        if len(set(lengths)) > 1:
            raise ValueError(
                f"rows of a nested list must have equal lengths, got {lengths}")
        return MatrixElement([[_num(x) for x in row] for row in obj])
    if not isinstance(obj, dict):
        raise ValueError(f"expected a matrix object or nested list, got {type(obj).__name__}")
    try:
        n = obj["n"]
        field = obj["field"]
        entries = obj["entries"]
    except KeyError as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field tag {field!r}")
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ValueError(f"entries must hold exactly {n * n} scalars")
    if field == COMPLEX:
        flat = [complex(_num(p[0]), _num(p[1])) for p in map(_pair, entries)]
        arr = np.array(flat, dtype=np.complex128).reshape(n, n)
    else:
        arr = np.array([_num(x) for x in entries], dtype=np.float64).reshape(n, n)
    return MatrixElement(arr)


def _num(x: Any) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    return float(x)


def _pair(p: Any) -> list:
    if not isinstance(p, list) or len(p) != 2:
        raise ValueError(f"complex entries must be [re, im] pairs, got {p!r}")
    return p
