"""Completely positive maps on multipartite systems in Choi form.

Convention: the Choi matrix of ``Phi`` is ``J = (Phi (x) id)(|Omega><Omega|)``
with the unnormalized pair vector ``|Omega> = sum_i |ii>``, so ``J`` lives on
``out (x) in`` and ``Phi(rho) = Tr_in[(I (x) rho^T) J]``. States are maps from
the one-dimensional system, effects are maps to it.

Factor bookkeeping is explicit everywhere: a :class:`ChoiMap` carries
``out_dims`` and ``in_dims`` tuples, and every reordering of tensor factors
goes through :func:`regroup` or :func:`permute_factors` below.

Channels compose in Choi form only: :func:`act_on_factors` is the one way a
channel acts on a block of another map's Choi matrix. On an output block that
is post-composition; on an input block it is pre-composition, done by acting
with the mirror :func:`transpose_channel` (the link product of a network of
channels). Two teeth of a comb join the same way: the second tooth's late
input is bent to an output, and the bent map acts on the first tooth's
mediator output.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InconsistencyError,
    InvalidDimensionError,
    NoIsometryError,
    ShadowNotFoundError,
    ShapeMismatchError,
)
from .hermspace import check_hermitian, psd_check, psd_test
from .tolerances import TOLS, check_tol, magnitude, within


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise InvalidDimensionError(f"factor dimensions must be positive, got {dims}")
    return dims


# ---------------------------------------------------------------------------
# multipartite index plumbing
# ---------------------------------------------------------------------------

def permute_factors(mat: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors of a square matrix.

    ``perm[i]`` is the old factor placed at new position ``i``, applied to row
    and column indices alike.
    """
    dims = _check_dims(dims)
    perm = list(perm)
    if sorted(perm) != list(range(len(dims))):
        raise ShapeMismatchError(f"{perm} is not a permutation of {len(dims)} factors")
    d = math.prod(dims)
    mat = np.asarray(mat)
    if mat.shape != (d, d):
        raise ShapeMismatchError(f"matrix shape {mat.shape} does not match dims {dims}")
    k = len(dims)
    resh = mat.reshape(dims + dims)
    axes = perm + [k + p for p in perm]
    return resh.transpose(axes).reshape(d, d)


def regroup(mat: np.ndarray, blocks, order) -> np.ndarray:
    """Reorder contiguous blocks of tensor factors of a square matrix.

    ``blocks`` lists the factor dims of each block in the current layout;
    block ``order[i]`` lands at position ``i``. Blocks may be empty, and a
    matrix with no factors at all comes back unchanged.
    """
    blocks = [tuple(b) for b in blocks]
    order = list(order)
    if sorted(order) != list(range(len(blocks))):
        raise ShapeMismatchError(f"{order} is not a permutation of {len(blocks)} blocks")
    starts = [0]
    for blk in blocks:
        starts.append(starts[-1] + len(blk))
    perm = [i for k in order for i in range(starts[k], starts[k + 1])]
    dims = sum(blocks, ())
    return permute_factors(mat, dims, perm) if dims else mat


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all factors except those listed in ``keep`` (order preserved)."""
    dims = _check_dims(dims)
    keep = list(keep)
    if any(i < 0 or i >= len(dims) for i in keep) or len(set(keep)) != len(keep):
        raise ShapeMismatchError(f"invalid keep list {keep} for {len(dims)} factors")
    drop = [i for i in range(len(dims)) if i not in keep]
    perm = keep + drop
    moved = permute_factors(mat, dims, perm)
    dk = math.prod([dims[i] for i in keep])
    dd = math.prod([dims[i] for i in drop])
    return np.einsum('aibi->ab', moved.reshape(dk, dd, dk, dd))


def _cup_vec(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(-1)


# ---------------------------------------------------------------------------
# ChoiMap
# ---------------------------------------------------------------------------

class ChoiMap:
    """A CP map between multipartite systems, stored as its Choi matrix."""

    def __init__(self, out_dims, in_dims, J: np.ndarray, *, validate: bool = True):
        self.out_dims = _check_dims(out_dims)
        self.in_dims = _check_dims(in_dims)
        d = self.d_out * self.d_in
        J = np.asarray(J, dtype=complex)
        if J.shape != (d, d):
            raise ShapeMismatchError(
                f"Choi matrix shape {J.shape} does not match dims out={self.out_dims} "
                f"in={self.in_dims}")
        if validate:
            J = check_hermitian(J)
            low, psd = psd_test(J)
            if not psd:
                raise InconsistencyError(
                    f"Choi matrix is not PSD within tolerance (min eig {low:.3e}); "
                    "pass validate=False for non-CP candidates")
        self.J = J

    # -- dimensions ---------------------------------------------------------

    @property
    def d_out(self) -> int:
        return math.prod(self.out_dims)

    @property
    def d_in(self) -> int:
        return math.prod(self.in_dims)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return self.out_dims + self.in_dims

    # -- action -------------------------------------------------------------

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the map to a Hermitian input matrix."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.d_in, self.d_in):
            raise ShapeMismatchError(
                f"input shape {rho.shape} does not match in dimension {self.d_in}")
        do, di = self.d_out, self.d_in
        return np.einsum('tsuv,sv->tu', self.J.reshape(do, di, do, di), rho)

    def compose(self, other: "ChoiMap", *, validate: bool = True) -> "ChoiMap":
        """``self`` after ``other``."""
        if self.d_in != other.d_out:
            raise ShapeMismatchError(
                f"cannot compose: inner dimensions {self.d_in} vs {other.d_out}")
        J = act_on_factors(other.J, (other.d_out, other.d_in), 0, 1, self)
        return ChoiMap(self.out_dims, other.in_dims, J, validate=validate)

    def tensor(self, other: "ChoiMap", *, validate: bool = True) -> "ChoiMap":
        """Parallel composition; output and input factor lists concatenate."""
        (o1, i1), (o2, i2) = (self.d_out, self.d_in), (other.d_out, other.d_in)
        # the products of kron(J1, J2), written in (out1, out2, in1, in2) order in one pass
        d = o1 * i1 * o2 * i2
        J = (self.J.reshape(o1, 1, i1, 1, o1, 1, i1, 1)
             * other.J.reshape(1, o2, 1, i2, 1, o2, 1, i2)).reshape(d, d)
        return ChoiMap(self.out_dims + other.out_dims, self.in_dims + other.in_dims,
                       J, validate=validate)

    # -- predicates ----------------------------------------------------------

    def trace_defect(self) -> float:
        """Norm of ``Tr_out(J) - I`` (zero for trace-preserving maps)."""
        marg = partial_trace(self.J, (self.d_out, self.d_in), [1])
        return magnitude(marg - np.eye(self.d_in))

    def is_trace_preserving(self, tol: float | None = None) -> bool:
        return within(self.trace_defect(), TOLS.psd if tol is None else check_tol(tol),
                      self.d_in)

    def is_cptp(self, tol: float | None = None) -> bool:
        return psd_check(self.J, tol) and self.is_trace_preserving(tol)

    # -- factor surgery -------------------------------------------------------

    def marginal(self, keep_out) -> "ChoiMap":
        """Discard the output factors not listed in ``keep_out``."""
        keep_out = list(keep_out)
        keep = keep_out + [len(self.out_dims) + i for i in range(len(self.in_dims))]
        J = partial_trace(self.J, self.factor_dims, keep)
        out = tuple(self.out_dims[i] for i in keep_out)
        return ChoiMap(out if out else (1,), self.in_dims, J, validate=False)

    def act_on_out(self, pos: int, count: int, chan: "ChoiMap") -> "ChoiMap":
        """Post-compose ``chan`` on a contiguous block of output factors."""
        if pos < 0 or pos + count > len(self.out_dims):
            raise ShapeMismatchError("output factor block out of range")
        sel = self.out_dims[pos:pos + count]
        if math.prod(sel) != chan.d_in:
            raise ShapeMismatchError(
                f"block dims {sel} do not match channel input {chan.in_dims}")
        J = act_on_factors(self.J, self.factor_dims, pos, count, chan)
        new_out = self.out_dims[:pos] + chan.out_dims + self.out_dims[pos + count:]
        return ChoiMap(new_out, self.in_dims, J, validate=False)

    def __repr__(self) -> str:
        return f"ChoiMap(out={self.out_dims}, in={self.in_dims})"


def act_on_factors(mat: np.ndarray, dims, pos: int, count: int, chan: ChoiMap) -> np.ndarray:
    """Apply ``chan`` to the contiguous factor block ``dims[pos:pos+count]``.

    The block is replaced by the channel's output factors; all other factors
    are untouched and keep their positions.
    """
    dims = _check_dims(dims)
    sel = dims[pos:pos + count]
    if math.prod(sel) != chan.d_in:
        raise ShapeMismatchError(f"block {sel} does not match channel input {chan.in_dims}")
    dl = math.prod(dims[:pos])
    dm = math.prod(sel)
    dr = math.prod(dims[pos + count:])
    do = chan.d_out
    m6 = np.asarray(mat).reshape(dl, dm, dr, dl, dm, dr)
    t4 = chan.J.reshape(do, dm, do, dm).transpose(0, 2, 1, 3)
    # one BLAS product over the block's row and column indices
    out = np.tensordot(t4, m6, axes=([2, 3], [1, 4])).transpose(2, 0, 3, 4, 1, 5)
    dtot = dl * do * dr
    return out.reshape(dtot, dtot)


def transpose_channel(cm: ChoiMap) -> ChoiMap:
    """The mirror of ``cm`` across an entangled pair.

    Block-swapping the Choi factors gives the unique map with
    ``(id (x) cm)(cup_in) = (transpose_channel(cm) (x) id)(cup_out)``.
    Completely positive whenever ``cm`` is; trace preserving iff ``cm`` is.
    """
    j = permute_factors(cm.J, (cm.d_out, cm.d_in), [1, 0])
    return ChoiMap(cm.in_dims, cm.out_dims, j, validate=False)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def choi_of_kraus(kraus, in_dim: int, out_dim: int) -> ChoiMap:
    """Choi map of ``rho -> sum_k K rho K^dagger``; an empty list gives zero."""
    in_dim, out_dim = int(in_dim), int(out_dim)
    if in_dim < 1 or out_dim < 1:
        raise InvalidDimensionError("Kraus dimensions must be positive")
    J = np.zeros((out_dim * in_dim, out_dim * in_dim), dtype=complex)
    for K in kraus:
        K = np.asarray(K, dtype=complex)
        if K.shape != (out_dim, in_dim):
            raise ShapeMismatchError(
                f"Kraus shape {K.shape}, expected {(out_dim, in_dim)}")
        v = K.reshape(-1)
        J += np.outer(v, v.conj())
    return ChoiMap((out_dim,), (in_dim,), J, validate=False)


def structural(kind: str, *dims: int) -> ChoiMap:
    """Structural generators: identity, swap, cup, cap, discard, mix."""
    if kind == "identity":
        (d,) = dims
        return ChoiMap((d,), (d,), np.outer(_cup_vec(d), _cup_vec(d).conj()),
                       validate=False)
    if kind == "cup":
        (d,) = dims
        v = _cup_vec(d)
        return ChoiMap((d, d), (1,), np.outer(v, v.conj()), validate=False)
    if kind == "cap":
        (d,) = dims
        v = _cup_vec(d)
        return ChoiMap((1,), (d, d), np.outer(v, v.conj()), validate=False)
    if kind == "discard":
        (d,) = dims
        return ChoiMap((1,), (d,), np.eye(d, dtype=complex), validate=False)
    if kind == "mix":
        (d,) = dims
        return ChoiMap((d,), (1,), np.eye(d, dtype=complex) / d, validate=False)
    if kind == "swap":
        d1, d2 = dims
        s = np.eye(d1 * d2).reshape(d1, d2, d1 * d2).transpose(1, 0, 2) \
            .reshape(d1 * d2, d1 * d2)
        cm = choi_of_kraus([s], d1 * d2, d1 * d2)
        return ChoiMap((d2, d1), (d1, d2), cm.J, validate=False)
    raise InvalidDimensionError(f"unknown structural generator {kind!r}")


# ---------------------------------------------------------------------------
# Stinespring
# ---------------------------------------------------------------------------

class Isometry:
    """A linear isometry (or contraction) ``C^in -> C^out1 (x) ... (x) C^outk``.

    For dilations the environment is by convention the *last* output factor.
    """

    def __init__(self, v: np.ndarray, in_dim: int, out_dims, *,
                 allow_contraction: bool = False):
        self.in_dim = int(in_dim)
        self.out_dims = _check_dims(out_dims)
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.d_out, self.in_dim):
            raise ShapeMismatchError(
                f"isometry shape {v.shape}, expected {(self.d_out, self.in_dim)}")
        gram = v.conj().T @ v
        dev = float(np.max(np.abs(gram - np.eye(self.in_dim))))
        if not within(dev, TOLS.psd, float(np.max(np.abs(gram)))):
            if not allow_contraction:
                raise InconsistencyError(f"matrix is not an isometry (deviation {dev:.3e})")
            if not psd_test(np.eye(self.in_dim) - gram, TOLS.psd, "unit")[1]:
                raise InconsistencyError("matrix is not even a contraction")
        self.v = v
        self.isometric_defect = dev

    @property
    def d_out(self) -> int:
        return math.prod(self.out_dims)

    def as_choi(self) -> ChoiMap:
        w = self.v.reshape(-1)
        return ChoiMap(self.out_dims, (self.in_dim,), np.outer(w, w.conj()),
                       validate=False)

    def __repr__(self) -> str:
        return f"Isometry(in={self.in_dim}, out={self.out_dims})"


def stinespring(choi: ChoiMap) -> tuple[Isometry, int]:
    """Minimal dilation ``V : in -> out (x) env`` with ``env = rank(J)``.

    ``V`` is an isometry when the map is trace preserving, otherwise a
    contraction.
    """
    J = check_hermitian(choi.J)
    vals, vecs = np.linalg.eigh(J)
    scale = float(vals[-1])
    if not within(-vals[0], TOLS.psd, scale):
        raise InconsistencyError(
            f"Choi matrix is not PSD (min eig {vals[0]:.3e}); no dilation exists")
    keep = vals > TOLS.psd * max(scale, 1.0)
    env = int(np.count_nonzero(keep))
    if env == 0:
        raise InconsistencyError("zero map has no dilation")
    do, di = choi.d_out, choi.d_in
    kraus = (vecs[:, keep] * np.sqrt(vals[keep])).T.reshape(env, do, di)
    v3 = np.einsum('koi->oki', kraus)
    v = v3.reshape(do * env, di)
    iso = Isometry(v, di, choi.out_dims + (env,), allow_contraction=True)
    return iso, env


def dilation_isometry(p1: Isometry, p2: Isometry) -> Isometry:
    """The isometry ``v`` on environments with ``(I (x) v) V1 = V2``.

    ``p1`` must be a minimal dilation; both must dilate the same map (their
    environment-traced Choi matrices must agree).
    """
    if p1.in_dim != p2.in_dim:
        raise ShapeMismatchError("dilations have different input dimensions")
    sys1, e1 = math.prod(p1.out_dims[:-1]), p1.out_dims[-1]
    sys2, e2 = math.prod(p2.out_dims[:-1]), p2.out_dims[-1]
    if sys1 != sys2:
        raise ShapeMismatchError("dilations have different system outputs")
    c1 = p1.as_choi().marginal(list(range(len(p1.out_dims) - 1)))
    c2 = p2.as_choi().marginal(list(range(len(p2.out_dims) - 1)))
    if not within(float(np.max(np.abs(c1.J - c2.J))), 100 * TOLS.roundtrip,
                  float(np.max(np.abs(c1.J)))):
        raise NoIsometryError("the two dilations do not dilate the same map")
    a = p1.v.reshape(sys1, e1, p1.in_dim).transpose(2, 0, 1).reshape(-1, e1)
    b = p2.v.reshape(sys2, e2, p2.in_dim).transpose(2, 0, 1).reshape(-1, e2)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = magnitude(a @ x - b)
    if not within(resid, 10 * TOLS.roundtrip, magnitude(b)):
        raise NoIsometryError(f"no exact intertwiner exists (residual {resid:.3e})")
    try:
        return Isometry(x.T, e1, (e2,))
    except InconsistencyError as exc:
        raise NoIsometryError(
            f"intertwiner {exc}; was the first dilation minimal?") from None


# ---------------------------------------------------------------------------
# shadows
# ---------------------------------------------------------------------------

def support_projector(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(check_hermitian(rho))
    keep = vals > TOLS.psd * max(float(vals[-1]), 1.0)
    u = vecs[:, keep]
    return u @ u.conj().T


def conditional_expectation(proj: np.ndarray, omega: np.ndarray) -> ChoiMap:
    """Idempotent channel ``x -> P x P + Tr((I-P)x) omega`` onto a support."""
    d = proj.shape[0]
    q = np.eye(d) - proj
    J = choi_of_kraus([proj], d, d).J + np.kron(omega, q.T)
    return ChoiMap((d,), (d,), J, validate=False)


def shadow(sigma: ChoiMap, dil: Isometry, mediator_dim: int,
           relation: ChoiMap | None = None) -> tuple[ChoiMap, dict]:
    """Idempotent shadow of a dilation on its mediator block.

    ``dil`` is a dilation whose trailing output factors of total dimension
    ``mediator_dim`` form the mediator; ``sigma`` consumes that mediator as
    its leading input block (spectator input factors may trail it). The
    returned channel ``pi`` is trace preserving and idempotent, absorbs into
    the dilation (``(id (x) pi) . dil = dil``), and, when ``relation`` is
    given, satisfies ``sigma . pi = relation . pi`` — the two defining
    absorption equations. Residuals for all of these are reported; exceeding
    tolerance raises :class:`ShadowNotFoundError`.
    """
    if sigma.d_in % mediator_dim:
        raise ShapeMismatchError("sigma input does not contain the mediator block")
    spectator = sigma.d_in // mediator_dim
    d_sys = dil.d_out // mediator_dim
    if d_sys * mediator_dim != dil.d_out:
        raise ShapeMismatchError("mediator dimension does not divide the dilation output")
    ww = dil.v @ dil.v.conj().T
    rho_m = partial_trace(ww, (d_sys, mediator_dim), [1])
    proj = support_projector(rho_m)
    tr = float(np.real(np.trace(rho_m)))
    omega = proj / max(np.trace(proj).real, 1.0) if within(tr, TOLS.psd) else rho_m / tr
    pi = conditional_expectation(proj, omega)

    residuals = {
        "idempotent": float(np.max(np.abs(pi.compose(pi).J - pi.J))),
        "trace_preserving": pi.trace_defect(),
    }
    dil_choi = dil.as_choi()
    # the mediator may span several trailing factors; act on the merged block
    grouped = ChoiMap((d_sys, mediator_dim), (dil.in_dim,), dil_choi.J,
                      validate=False)
    absorbed = grouped.act_on_out(1, 1, pi)
    residuals["absorb_dilation"] = float(np.max(np.abs(absorbed.J - dil_choi.J)))
    if relation is not None:
        if relation.d_in != sigma.d_in:
            raise ShapeMismatchError("relation and sigma take different inputs")
        mirror = transpose_channel(pi)
        lhs, rhs = (act_on_factors(cm.J, (cm.d_out, mediator_dim, spectator), 1, 1,
                                   mirror) for cm in (sigma, relation))
        scale = max(float(np.max(np.abs(lhs))), 1.0)
        residuals["absorb_relation"] = float(np.max(np.abs(lhs - rhs))) / scale
    bad = {k: v for k, v in residuals.items() if not within(v, max(TOLS.roundtrip, 1e-8) * 100)}
    if bad:
        raise ShadowNotFoundError(
            f"absorption equations violated: {bad}", residuals=residuals)
    return pi, residuals


# ---------------------------------------------------------------------------
# classical control
# ---------------------------------------------------------------------------

def ctrl(states) -> ChoiMap:
    """Classically controlled preparation ``x -> sum_i <i|x|i> rho_i``.

    Defined on the diagonal subalgebra and extended by dephasing first, so the
    Choi matrix is ``sum_i rho_i (x) |i><i|``. Feeding the ``i``-th point
    distribution yields ``rho_i``; general distributions mix accordingly.
    """
    states = [check_hermitian(s) for s in states]
    if not states:
        raise InvalidDimensionError("ctrl() needs at least one branch state")
    d = states[0].shape[0]
    if any(s.shape != (d, d) for s in states):
        raise ShapeMismatchError("branch states must share one dimension")
    for i, s in enumerate(states):
        if not (psd_test(s)[1] and within(abs(np.trace(s).real - 1.0), TOLS.roundtrip, d)):
            raise InconsistencyError(f"branch {i} is not a density matrix")
    n = len(states)
    J = np.zeros((d * n, d * n), dtype=complex)
    for i, s in enumerate(states):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        J += np.kron(s, e)
    return ChoiMap((d,), (n,), J, validate=False)
