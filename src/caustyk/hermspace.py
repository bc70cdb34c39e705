"""Real-coordinate model of Hermitian matrix space and affine-subspace duality.

Hermitian ``n x n`` matrices form a real inner-product space of dimension
``n**2`` under ``<X, Y> = Tr(X Y)``. Everything downstream represents state and
effect sets as affine subspaces of that coordinate space, so the conversions
here are the numerical bedrock of the package.

Basis ordering is fixed once and for all: the ``n`` diagonal units first, then
the symmetric pairs ``(E_ij + E_ji)/sqrt(2)`` for ``i < j`` in lexicographic
order, then the antisymmetric pairs ``i(E_ji - E_ij)/sqrt(2)`` in the same
order. Two cached tables per dimension hold it, the entries the coordinates
read and each entry's coefficients: both conversions, Kronecker products of
coordinates and their transpose read them; no other module.

An :class:`AffineSubspace` is held in *span form* (a minimum-norm base point
plus orthonormal directions) or in *constraint form* (``{x : A x = c}`` with
orthonormal rows), whichever its construction produced. The dual of a span
form is a constraint form and vice versa, so iterated duals never materialize
a near-full-rank basis; conversion between the two forms of the *same*
subspace is the only expensive path and is done lazily.

Each composite type writes its hull in closed form, as Kronecker products of
its factors' orthonormal frames (:func:`kron_rows`), so no connective
factorizes a matrix at the composite's size. ``tensor`` builds whichever of
its two forms has fewer rows: the span form while ``2 (r_A+1)(r_B+1) <= m``,
the constraint form above that. ``par`` and ``hom`` are duals of a tensor,
so they hold its dual form, with as many rows as the tensor's smaller one.
``seq`` builds the constraint form, whose slice rows run over the whole
basis of its first factor.

Both conversions, and the dual of a constraint form, take the orthogonal
complement of ``k`` orthonormal rows in ``m`` coordinates. Three cases are
closed form: no rows (the identity), all ``m`` rows (empty), and one row, such
as a first-order type's trace row or the value vector the dual completes (a
Householder reflector). A general ``1 < k < m`` is the tail of a complete
numpy QR of the rows' transpose; as the rows are orthonormal, no rank is
decided. numpy is the package's only dependency.

Every positivity verdict (a state, a completely positive map, a comb's
second tooth, a contraction) is :func:`psd_test`, a Cholesky certificate
that falls back to the spectrum.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    EmptyDualError,
    HermiticityError,
    InconsistencyError,
    InvalidDimensionError,
    ShapeMismatchError,
)
from .tolerances import TOLS, check_tol, magnitude, within

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------

def check_dimension(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidDimensionError(f"matrix dimension must be a positive integer, got {n!r}")
    return int(n)


def check_hermitian(mat: np.ndarray, tol: float | None = None,
                    adjoint: np.ndarray | None = None, dim: int | None = None) -> np.ndarray:
    """Validate Hermiticity within ``max(TOLS.herm, tol)`` (and the dimension,
    if given); return the matrix as a complex array. A caller that needs
    ``mat.conj().T`` anyway passes it as ``adjoint``."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {mat.shape}")
    tol = TOLS.herm if tol is None else max(TOLS.herm, check_tol(tol))
    adjoint = mat.conj().T if adjoint is None else adjoint
    dev = float(np.max(np.abs(mat - adjoint), initial=0.0))
    if not within(dev, tol, _largest(mat)):
        raise HermiticityError(f"matrix deviates from Hermiticity by {dev:.3e}", dev)
    if dim is not None and mat.shape[0] != dim:
        raise ShapeMismatchError(f"matrix of dim {mat.shape[0]} where dim {dim} is expected")
    return mat


def _largest(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat), initial=0.0))


@functools.lru_cache(maxsize=64)
def _flat_index(n: int) -> np.ndarray:
    """Row-major index of the entries the coordinates read: the diagonal,
    then the upper entries in lexicographic order; each upper entry carries
    a symmetric and an antisymmetric coordinate."""
    iu, ju = np.triu_indices(n, k=1)
    return np.concatenate([np.arange(n) * (n + 1), iu * n + ju])


@functools.lru_cache(maxsize=64)
def _entry_coords(n: int) -> tuple[np.ndarray, ...]:
    """The basis table ``(re_i, re_c, im_i, im_c)``: entry ``(i, j)`` of a
    Hermitian matrix is ``c[re_i] * re_c + 1j * c[im_i] * im_c`` in
    coordinates ``c``, in the order of :func:`_flat_index`."""
    k, idx, flat = n * (n - 1) // 2, np.arange(n), _flat_index(n)
    re_i = np.zeros((n, n), dtype=int)      # entries (i, j) and (j, i) share a coordinate
    re_i.flat[flat] = re_i.T.flat[flat] = np.arange(n + k)
    on_diag = idx[:, None] == idx[None, :]
    re_c = np.where(on_diag, 1.0, 1.0 / _SQRT2)
    im_c = np.where(on_diag, 0.0, np.sign(idx[:, None] - idx[None, :]) / _SQRT2)
    return re_i, re_c, np.where(on_diag, 0, re_i + k), im_c


def herm_to_coords(mats: np.ndarray) -> np.ndarray:
    """Map Hermitian ``(..., n, n)`` to ``(..., n**2)``; reads the upper triangle."""
    mats = np.asarray(mats, dtype=complex)
    n = mats.shape[-1]
    c = mats.reshape(mats.shape[:-2] + (n * n,))[..., _flat_index(n)]
    return np.concatenate(
        [c[..., :n].real, _SQRT2 * c[..., n:].real, -_SQRT2 * c[..., n:].imag], axis=-1)


def coords_to_herm(coords: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`herm_to_coords` for coordinates ``(..., n**2)``."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1] != n * n:
        raise ShapeMismatchError(
            f"coordinate length {coords.shape[-1]} does not match dimension {n}")
    re_i, re_c, im_i, im_c = _entry_coords(n)
    return coords[..., re_i] * re_c + 1j * (coords[..., im_i] * im_c)


def vec_identity(n: int) -> np.ndarray:
    """Coordinates of the identity matrix."""
    v = np.zeros(n * n)
    v[:n] = 1.0
    return v


# ---------------------------------------------------------------------------
# Kronecker products
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _kron_terms(na: int, nb: int) -> tuple[np.ndarray, ...]:
    """How each coordinate of kron(X, Y) comes from coordinates of X and Y.

    Every coordinate of an ``na*nb``-dim Kronecker product is ``c1 x[i1]
    y[j1] + c2 x[i2] y[j2]`` (``c2 = 0`` when one term suffices); returns
    ``(i1, j1, c1, i2, j2, c2)``, each of length ``(na*nb)**2``.
    """
    d = na * nb
    # the product entries read; a pair's two coordinates share its upper entry
    rows, cols = np.divmod(_flat_index(d), d)
    i, k = np.divmod(rows, nb)
    j, l = np.divmod(cols, nb)
    xr, xrc, xi, xic = (t[i, j] for t in _entry_coords(na))
    yr, yrc, yi, yic = (t[k, l] for t in _entry_coords(nb))
    # diagonal and symmetric coordinates carry Re(x y), antisymmetric -Im(x y)
    scale = np.where(rows == cols, 1.0, _SQRT2)
    re = (xr, yr, scale * xrc * yrc, xi, yi, -scale * xic * yic)
    p = slice(d, None)
    im = (xr[p], yi[p], -_SQRT2 * xrc[p] * yic[p], xi[p], yr[p], -_SQRT2 * xic[p] * yrc[p])
    return tuple(np.concatenate([r, m]) for r, m in zip(re, im))


def kron_rows(left: np.ndarray | None, right: np.ndarray | None, na: int, nb: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """Coordinate rows of kron(L_k, R_l), ``k`` major, from coordinate rows.

    ``None`` stands for a factor's whole basis, the identity rows of
    ``Herm(n)``. Each product coordinate reads at most two entries of each
    factor, so against a whole basis it is two scatters of the other
    factor's columns: the same entries as the dense product with
    ``np.eye(n * n)``, without multiplying by its zeros. Two general factors
    take one einsum over the two terms. The rows go into ``out`` when given,
    a zeroed C-contiguous block with one row per product, so a constructor
    can stack its blocks in one array without copying them.
    """
    i1, j1, c1, i2, j2, c2 = _kron_terms(na, nb)
    kl = na * na if left is None else len(left)
    kr = nb * nb if right is None else len(right)
    m = len(c1)
    if out is None:
        out = np.zeros((kl * kr, m))
    blocks = out.reshape(kl, kr, m)
    if left is None or right is None:
        cols = np.arange(m)
        if left is None:        # as (l, k, m): term t of coordinate m is in row k = i_t
            blocks, other, at, of = blocks.transpose(1, 0, 2), right, (i1, i2), (j1, j2)
        else:                   # (k, l, m): term t of coordinate m is in row l = j_t
            other, at, of = left, (j1, j2), (i1, i2)
        blocks[:, at[0], cols] = other[:, of[0]] * c1
        blocks[:, at[1], cols] += other[:, of[1]] * c2
        return out
    lt = np.stack([left[:, i1] * c1, left[:, i2] * c2])
    rt = np.stack([right[:, j1], right[:, j2]])
    np.einsum('tkm,tlm->klm', lt, rt, out=blocks)
    return out


def matricize(x: np.ndarray, d_left: int, d_right: int) -> np.ndarray:
    """Coordinate block matrix C[i, j] = <B_i (x) B_j, x> of a bipartite state.

    The transpose of :func:`kron_rows`: ``kron_rows(L, R) @ herm_to_coords(x)
    == (L @ C @ R.T).ravel()``, so each coordinate of ``x`` feeds the at most
    two ``(i, j)`` pairs whose product it carries. Membership tests on big
    composites so stay at block-sized ambient dimensions.
    """
    i1, j1, c1, i2, j2, c2 = _kron_terms(d_left, d_right)
    xc, m = herm_to_coords(x), d_right * d_right
    size = d_left * d_left * m
    c = (np.bincount(i1 * m + j1, weights=xc * c1, minlength=size)
         + np.bincount(i2 * m + j2, weights=xc * c2, minlength=size))
    return c.reshape(-1, m)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def min_eig(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (input symmetrized).

    The matrix is halved before its adjoint is added, so entries near the
    float limit do not overflow the sum; halving is exact, so the result is
    the same as that of ``(mat + mat^dagger) / 2`` wherever that is finite.
    """
    half = np.asarray(mat, dtype=complex) / 2.0
    return float(np.linalg.eigvalsh(half + half.conj().T)[0])


_SCALES = {"entry": _largest, "frobenius": magnitude, "unit": lambda mat: 0.0}


def psd_test(mat: np.ndarray, tol: float | None = None, scale: str = "entry", *,
             adjoint: np.ndarray | None = None, report: bool = False) -> tuple[float, bool]:
    """The one positivity decision: the least eigenvalue of a gated Hermitian
    matrix and whether it clears ``-floor = -tol * max(s, 1)`` (``tol``
    defaults to ``TOLS.psd``), ``s`` the largest entry, the Frobenius norm
    or 0 as ``scale`` is ``"entry"``, ``"frobenius"`` or ``"unit"``.

    A Cholesky factor of ``H + floor I``, ``H`` the Hermitian part that
    :func:`min_eig` reads (from ``adjoint``, ``mat^dagger``, when the caller
    holds it), certifies the matrix. Only a matrix that fails that is
    decided by its spectrum; else the eigenvalue is NaN unless ``report``
    asks for it. A matrix whose floor or sums would overflow is decided on
    its entries divided by the largest (Higham, *Accuracy and Stability*,
    27.5)."""
    tol = TOLS.psd if tol is None else tol
    mat = np.asarray(mat, dtype=complex)
    norm = _SCALES[scale]
    s = norm(mat)
    floor, div = tol * max(s, 1.0), 1.0
    top = s if scale != "unit" else _largest(mat)      # s bounds every entry
    if not math.isfinite(2.0 * top + floor):            # else mat + adjoint may overflow
        div = _largest(mat)     # divided as floats: a complex division is not exact
        mat, adjoint = (np.ascontiguousarray(mat).view(float) / div).view(complex), None
        floor = tol * max(norm(mat), 1.0 / div)
    h = mat + (mat.conj().T if adjoint is None else adjoint)
    h /= 2.0                            # exact, so h is the H that min_eig reads
    h.flat[::len(h) + 1] += floor       # in any memory layout
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        low = min_eig(mat)
        return low * div, within(-low, floor)
    return (min_eig(mat) * div if report else math.nan), True


def psd_check(mat: np.ndarray, tol: float | None = None) -> bool:
    """Whether the matrix is positive semidefinite within tolerance."""
    return psd_test(check_hermitian(mat, TOLS.psd if tol is None else tol), tol)[1]


# ---------------------------------------------------------------------------
# linear subspaces
# ---------------------------------------------------------------------------

def _orthonormalize(rows: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal row basis for the row space of ``rows``; may be empty."""
    rows = np.asarray(rows, dtype=float).reshape(-1, m)
    if rows.shape[0] == 0:
        return np.zeros((0, m))
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    cut = TOLS.rank_cut(s[0]) if s.size else 0.0
    return vt[s > cut]


def _complement(rows: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal rows spanning the complement of the orthonormal ``rows``.

    The input rows are orthonormal, so the complement has exactly
    ``m - k`` rows and no rank is decided here. One row is completed by a
    Householder reflector built in one ``m x m`` array; a general
    ``1 < k < m`` takes the last ``m - k`` columns of a complete QR of the
    rows' transpose.
    """
    k = rows.shape[0]
    if k == 0:
        return np.eye(m)
    if k == m:
        return np.zeros((0, m))
    if k == 1:
        # v = q + sign(q0) e0 sends e0 to -sign(q0) q, so rows 1.. are
        # orthonormal and orthogonal to q; the shift never cancels
        v = rows[0].copy()
        v[0] += 1.0 if v[0] >= 0 else -1.0
        h = np.outer(v * (-2.0 / (v @ v)), v)
        h.reshape(-1)[::m + 1] += 1.0
        return h[1:]
    return np.linalg.qr(rows.T, mode="complete")[0][:, k:].T


# ---------------------------------------------------------------------------
# affine subspaces
# ---------------------------------------------------------------------------

class AffineSubspace:
    """Affine subspace of Hermitian coordinate space with dual-form storage.

    Span form: ``{base + directions^T t}`` with ``base`` the minimum-norm point
    (so ``base`` is orthogonal to the directions) and orthonormal direction
    rows. Constraint form: ``{x : cons @ x = vals}`` with orthonormal
    constraint rows (and the base point, if its builder has it exactly). One
    form is always present; the other is derived on demand and cached.
    """

    def __init__(self, matrix_dim: int, *, base: np.ndarray | None = None,
                 dirs: np.ndarray | None = None, cons: np.ndarray | None = None,
                 vals: np.ndarray | None = None):
        self.matrix_dim = check_dimension(matrix_dim)
        self._m = self.matrix_dim ** 2
        self._base = base
        self._dirs = dirs
        self._cons = cons
        self._vals = vals
        if base is None and cons is None:
            raise InconsistencyError("AffineSubspace needs span or constraint data")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_span(cls, base_mat: np.ndarray, dir_mats) -> "AffineSubspace":
        """Build from a base-point matrix and direction matrices (canonicalized)."""
        base_mat = check_hermitian(base_mat)
        n = base_mat.shape[0]
        dir_list = [check_hermitian(d, dim=n) for d in dir_mats]
        dirs = _orthonormalize(
            herm_to_coords(np.stack(dir_list)) if dir_list else np.zeros((0, n * n)), n * n)
        base = herm_to_coords(base_mat)
        base = base - dirs.T @ (dirs @ base) if dirs.shape[0] else base
        return cls(n, base=base, dirs=dirs)

    @classmethod
    def from_span_coords(cls, matrix_dim: int, base: np.ndarray,
                         dirs: np.ndarray) -> "AffineSubspace":
        m = matrix_dim * matrix_dim
        dirs = _orthonormalize(dirs, m)
        base = np.asarray(base, dtype=float).reshape(m)
        if dirs.shape[0]:
            base = base - dirs.T @ (dirs @ base)
        return cls(matrix_dim, base=base.copy(), dirs=dirs)

    @classmethod
    def from_point(cls, mat: np.ndarray) -> "AffineSubspace":
        mat = check_hermitian(mat)
        n = mat.shape[0]
        return cls(n, base=herm_to_coords(mat), dirs=np.zeros((0, n * n)))

    @classmethod
    def from_constraints(cls, matrix_dim: int, rows: np.ndarray,
                         vals: np.ndarray) -> "AffineSubspace":
        """Build ``{x : rows @ x = vals}``; raises if the system is inconsistent."""
        m = matrix_dim * matrix_dim
        rows = np.asarray(rows, dtype=float).reshape(-1, m)
        vals = np.asarray(vals, dtype=float).reshape(-1)
        if rows.shape[0] != vals.shape[0]:
            raise ShapeMismatchError("constraint rows and values disagree in count")
        if rows.shape[0] == 0:
            return cls(matrix_dim, cons=np.zeros((0, m)), vals=np.zeros(0))
        u, s, vt = np.linalg.svd(rows, full_matrices=False)
        cut = TOLS.rank_cut(float(s[0]) if s.size else 0.0)
        keep = s > cut
        proj_vals = u.T @ vals
        drop_resid = float(np.linalg.norm(proj_vals[~keep])) if (~keep).any() else 0.0
        # remaining rows of the original system must also be consistent
        recon = (u[:, keep] * s[keep]) @ (proj_vals[keep] / s[keep])
        drop_resid = max(drop_resid, float(np.linalg.norm(recon - vals)))
        if drop_resid > TOLS.sub * max(float(np.linalg.norm(vals)), 1.0) * 1e3:
            raise InconsistencyError(
                f"inconsistent affine constraint system (residual {drop_resid:.3e})")
        return cls(matrix_dim, cons=vt[keep], vals=proj_vals[keep] / s[keep])

    # -- basic data --------------------------------------------------------

    def rank(self) -> int:
        if self._dirs is not None:
            return self._dirs.shape[0]
        return self._m - self._cons.shape[0]

    @property
    def holds_span(self) -> bool:
        """Whether the span form is at hand, so :meth:`dirs_coords` is free."""
        return self._dirs is not None

    def base_vec(self) -> np.ndarray:
        """Minimum-norm point of the subspace (canonical base)."""
        if self._base is not None:
            return self._base
        return self._cons.T @ self._vals

    def dirs_coords(self) -> np.ndarray:
        """Orthonormal direction rows; materializes the span form if needed."""
        if self._dirs is None:
            self._dirs = _complement(self._cons, self._m)
            self._base = self.base_vec()
        return self._dirs

    def cons_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal constraint rows and values; may materialize a complement."""
        if self._cons is None:
            self._cons = _complement(self._dirs, self._m)
            self._vals = self._cons @ self._base
        return self._cons, self._vals

    def affine_points(self) -> np.ndarray:
        """An affine basis of the subspace: base plus base+direction rows."""
        b = self.base_vec()
        d = self.dirs_coords()
        return np.concatenate([b[None, :], b[None, :] + d], axis=0)

    # -- geometry ----------------------------------------------------------

    def project_vec(self, x: np.ndarray) -> np.ndarray:
        if self._dirs is not None:
            b = self._base
            y = x - b
            return b + (self._dirs.T @ (self._dirs @ y) if self._dirs.shape[0] else 0.0)
        return x - self._cons.T @ (self._cons @ x - self._vals)

    def distance(self, x: np.ndarray) -> float:
        if self._cons is not None:
            return magnitude(self._cons @ x - self._vals)
        return magnitude(x - self.project_vec(x))

    def distances(self, xs: np.ndarray) -> np.ndarray:
        """Per-row distances for a batch of coordinate vectors, shape (k, m)."""
        xs = np.asarray(xs, dtype=float)
        if self._cons is not None:
            return magnitude(xs @ self._cons.T - self._vals, axis=1)
        y = xs - self._base
        if self._dirs.shape[0]:
            y = y - (y @ self._dirs.T) @ self._dirs
        return magnitude(y, axis=1)

    def contains_vec(self, x: np.ndarray, tol: float | None = None) -> bool:
        return within(self.distance(x), TOLS.sub if tol is None else check_tol(tol),
                      magnitude(x))

    def contains(self, mat: np.ndarray, tol: float | None = None) -> bool:
        mat = check_hermitian(mat, TOLS.sub if tol is None else tol, dim=self.matrix_dim)
        return self.contains_vec(herm_to_coords(mat), tol)

    def dual(self) -> "AffineSubspace":
        """The affine set pairing to 1 against every point of this one.

        For span form ``(b, D)`` this is the constraint system
        ``{x : <b, x> = 1, D x = 0}``; for constraint form ``(A, c)`` it is
        ``{A^T u : <c, u> = 1}``. Raises :class:`EmptyDualError` when the
        subspace passes through the origin (non-flat input).
        """
        if self._dirs is not None:
            b = self._base
            nb = magnitude(b)
            if within(nb, TOLS.sub * 10):
                raise EmptyDualError("subspace passes through the origin; dual is empty")
            rows = np.concatenate([b[None, :] / nb, self._dirs], axis=0)
            vals = np.zeros(rows.shape[0])
            vals[0] = 1.0 / nb
            return AffineSubspace(self.matrix_dim, cons=rows, vals=vals)
        A, c = self._cons, self._vals
        nc = magnitude(c)
        if within(nc, TOLS.sub * 10):
            raise EmptyDualError("subspace passes through the origin; dual is empty")
        base = A.T @ (c / nc ** 2)
        if c[1:].any():
            dirs = _complement(c[None, :] / nc, c.shape[0]) @ A
        else:   # only the first row has a value: the others are the directions
            dirs = A[1:]
        return AffineSubspace(self.matrix_dim, base=base, dirs=dirs)

    # -- relations ---------------------------------------------------------

    def is_subset(self, other: "AffineSubspace") -> bool:
        if self.matrix_dim != other.matrix_dim:
            raise ShapeMismatchError("subspaces live on different matrix dimensions")
        if self.rank() > other.rank():
            return False
        # pick the orientation that avoids materializing a large basis
        if self._dirs is None and other._dirs is None:
            return other.dual().is_subset(self.dual())
        if self._dirs is None and self.rank() > self._m // 2:
            return other.dual().is_subset(self.dual())
        if not other.contains_vec(self.base_vec()):
            return False
        d = self.dirs_coords()
        if d.shape[0] == 0:
            return True
        if other._cons is not None:
            resid = float(np.max(np.abs(other._cons @ d.T))) if other._cons.shape[0] else 0.0
        else:
            od = other._dirs
            resid = float(np.max(np.abs(d - (d @ od.T) @ od))) if od.shape[0] else \
                float(np.max(np.abs(d)))
        return within(resid, TOLS.sub * 10)

    def equals(self, other: "AffineSubspace") -> bool:
        return self.rank() == other.rank() and self.is_subset(other) \
            and other.contains_vec(self.base_vec())

    # -- specialized operations --------------------------------------------

    def intersect_linear(self, rows: np.ndarray, vals: np.ndarray) -> "AffineSubspace":
        """Intersection with the affine conditions ``rows @ x = vals``.

        Solved on the span parameterization; raises
        :class:`InconsistencyError` when the intersection is empty.
        """
        b = self.base_vec()
        d = self.dirs_coords()
        rows = np.asarray(rows, dtype=float).reshape(-1, self._m)
        vals = np.asarray(vals, dtype=float).reshape(-1)
        if rows.shape[0] == 0:
            return self
        mt = rows @ d.T                      # conditions in the t-parameters
        rhs = vals - rows @ b
        t0, *_ = np.linalg.lstsq(mt, rhs, rcond=None)
        resid = float(np.linalg.norm(mt @ t0 - rhs))
        if resid > TOLS.sub * max(float(np.linalg.norm(vals)), 1.0) * 1e3:
            raise InconsistencyError(
                f"affine intersection is empty (residual {resid:.3e})")
        # conditions the subspace already meets leave mt at rounding noise, so
        # its rank is cut at the pack's scale, not relative to that noise
        _, s, vt = np.linalg.svd(mt, full_matrices=True)
        null_t = vt[int(np.sum(s > TOLS.rank_cut(float(s[0]) if s.size else 0.0))):]
        new_dirs = null_t @ d
        new_base = b + d.T @ t0
        if new_dirs.shape[0]:
            new_base = new_base - new_dirs.T @ (new_dirs @ new_base)
        return AffineSubspace(self.matrix_dim, base=new_base, dirs=new_dirs)

    def __repr__(self) -> str:
        form = "span" if self._dirs is not None else "cons"
        return (f"AffineSubspace(dim={self.matrix_dim}, rank={self.rank()}, "
                f"form={form})")

