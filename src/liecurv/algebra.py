"""Dense small-matrix kernel: bracket, matrix exponential, seeded random
generation, and the JSON wire form for matrices.

Matrices live in gl(n, R) or gl(n, C) and are kept deliberately small and
dense; everything downstream (Cartan structures, curvature, geodesics) is
built on the handful of primitives in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

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


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., n, n) stack, bit-equal to
    np.linalg.norm of that matrix: one dot product per matrix over its
    entries in memory order (a norm over axis=(-2, -1) sums in another)."""
    if x.strides[-1] > x.strides[-2]:
        x = x.swapaxes(-1, -2)  # a transposed matrix is read in memory order
    f = x.reshape(*x.shape[:-2], 1, x.shape[-2] * x.shape[-1])
    if f.dtype.kind == "c":
        sq = f.real @ f.real.swapaxes(-1, -2) + f.imag @ f.imag.swapaxes(-1, -2)
    else:
        sq = f @ f.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def _unit_scale(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u / 2^e, e) matrix by matrix on a (..., n, n) array: e has the
    batch shape and puts the largest entry modulus of each matrix of
    u / 2^e in [1/2, 1); e = 0 for a zero matrix, and e >= -1021 so 2^-e
    stays finite. Non-finite entries stay non-finite."""
    _, e = np.frexp(np.abs(u).max(axis=(-2, -1)))
    e = np.maximum(e, -1021)
    return u * np.ldexp(1.0, -e)[..., None, None], e


def _per_row(x: np.ndarray):
    """The values of a checked function, one per row: a Python float or
    str for one matrix or pair (a 0-d x), else the array x."""
    return x if x.ndim else (str if x.dtype.kind == "U" else float)(x)


def _raise_first(error: type, bad: np.ndarray, text: str, *values) -> None:
    """Raise error for the first row where the mask bad holds, if any, with
    text formatted by that row of each value (an array of the batch shape):
    after "row i: " (i the flat index) on a stack, alone for a 0-d mask."""
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        raise error((f"row {i}: " if bad.ndim else "")
                    + text.format(*(np.ravel(x)[i] for x in values)))


# Pade-13 numerator coefficients (26-k)! 13! / (26! k! (13-k)!), so that
# p(0) = 1 and exp(0) is exactly I, and the 1-norm up to which degree 13
# needs no scaling (Higham 2005, "The scaling and squaring method for the
# matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26)
_PADE13 = tuple(math.factorial(26 - k) * math.factorial(13)
                / (math.factorial(26) * math.factorial(k) * math.factorial(13 - k))
                for k in range(14))
_THETA13 = 5.371920351148152

# matrix_exp's Overflow text, formatted with the norm of the slice
_EXP_OVERFLOW = "exponential overflowed for a matrix of norm {:.3g}"


def matrix_exp(u) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Pade
    approximant of Higham 2005, batched over a stack.

    u is one matrix or a stack of them on its last two axes. Each slice is
    scaled by its own 2^-s with ||u / 2^s||_1 <= 5.37, so a slice is
    bit-equal to its own call. Raises Overflow if the result leaves the
    representable range, naming the norm of the first slice that does,
    and for a stack its flat index as "row i: ".
    """
    u = np.asarray(u)
    out, finite = _exp(u)
    if not finite.all():
        _raise_first(Overflow, ~finite, _EXP_OVERFLOW, _big_norms(u))
    return out


def _big_norms(u: np.ndarray) -> np.ndarray:
    """_norms taken at unit scale and scaled back, so no squared entry
    overflows: inf or nan only for a matrix or a norm that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, e = _unit_scale(u)
        return np.ldexp(_norms(x), e)


def _exp(u: np.ndarray) -> tuple:
    """matrix_exp of an array without the raise: the exponentials and the
    mask of the slices that are finite, of the batch shape."""
    c = _PADE13
    with np.errstate(over="ignore", invalid="ignore"):
        norm1 = np.abs(u).sum(axis=-2).max(axis=-1)
        bad = ~np.isfinite(norm1)
        s = np.where(bad, 0, np.maximum(np.frexp(norm1 / _THETA13)[1], 0))
        a = np.where(bad[..., None, None], 0.0,
                     u * np.ldexp(1.0, -s)[..., None, None])
        eye = np.eye(u.shape[-1])
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        odd = a @ (a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
                   + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye)
        even = (a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
                + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * eye)
        out = np.linalg.solve(even - odd, even + odd)
        for k in range(int(s.max(initial=0))):
            out = np.where((k < s)[..., None, None], out @ out, out)
        out[bad] = np.nan
    return out, np.isfinite(out).all(axis=(-2, -1))


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


def matrix_to_json(u) -> dict | list:
    """The wire form of one matrix, or for a (..., n, n) stack the nested
    list of its matrices' wire forms, from one tolist() of the stack."""
    u = np.asarray(u)
    n, field = u.shape[-1], field_of(u)
    if field == COMPLEX:
        entries = np.stack([u.real, u.imag], -1).reshape(
            *u.shape[:-2], n * n, 2).tolist()
    else:
        entries = u.reshape(*u.shape[:-2], n * n).astype(float).tolist()

    def wire(e, depth):
        if depth:
            return [wire(x, depth - 1) for x in e]
        return {"n": n, "field": field, "entries": e}
    return wire(entries, u.ndim - 2)


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
