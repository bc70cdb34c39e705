"""Causal types over finite-dimensional quantum systems.

A type is the affine hull of its admissible states on a (possibly
multipartite) Hermitian matrix space, together with the dual hull of
effects pairing to one against every state. All constructors below keep
both hulls flat (they contain a positive multiple of the identity) and
closed under double dualization, which is what makes them compose.

A map ``f: A -> B`` is a map of types when it is completely positive and
sends ``aff(A)`` into ``aff(B)``. :func:`check_morphism` decides the latter
by pulling ``B``'s constraint rows back through the adjoint of ``f`` and
reading them at ``A``'s affine points; its hull residual is the largest
constraint residual at a source affine point over one scale,
``max(1, lam_A |Tr_in J|)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpmaps import ChoiMap, regroup, structural, transpose_channel
from .errors import (FlatnessError, HermiticityError, InvalidDimensionError,
                     MorphismError, ShapeMismatchError)
from .hermspace import (AffineSubspace, check_hermitian, coords_to_herm,
                        herm_to_coords, kron_rows, matricize, psd_test,
                        vec_identity)
from .tolerances import TOLS, check_tol, magnitude, within


def _wire_dims(dims) -> tuple[int, ...]:
    """Factor dims with the trivial factors dropped; they carry no state space."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise InvalidDimensionError(f"factor dimensions must be positive, got {dims}")
    return tuple(d for d in dims if d > 1)


class CausObject:
    """A causal type: factor layout plus the affine state and effect hulls."""

    def __init__(self, factor_dims, states: AffineSubspace, *,
                 effects: AffineSubspace | None = None, label: str = "obj",
                 dual_of: "CausObject | None" = None):
        self.factor_dims = _wire_dims(factor_dims)
        self.dim = math.prod(self.factor_dims)
        if states.matrix_dim != self.dim:
            raise ShapeMismatchError(
                f"state hull lives on dim {states.matrix_dim}, factors give {self.dim}")
        self.states = states
        self._effects = effects
        self.label = label
        # closed: the states share one trace, so the min-norm point is lam * I, lam > 0
        base = states.base_vec()
        lam = float(base[0])
        resid = magnitude(base - lam * vec_identity(self.dim))
        if within(lam, TOLS.sub) or not within(resid, 1e3 * TOLS.sub, lam):
            raise FlatnessError(
                f"state hull of {label!r} has no flat state: its min-norm point is not "
                f"a positive multiple of the identity (lam={lam:.3e}, residual={resid:.3e})")
        self.flat_lambda = lam
        self._dual: CausObject | None = None
        if dual_of is not None:
            self._dual = dual_of
            dual_of._dual = self

    @property
    def effects(self) -> AffineSubspace:
        if self._effects is None:
            self._effects = self.states.dual()
        return self._effects

    @property
    def first_order(self) -> bool:
        return self.effects.rank() == 0

    def __repr__(self) -> str:
        return (f"CausObject({self.label}, dim={self.dim}, "
                f"states_rank={self.states.rank()})")


@dataclass
class CausMorphism:
    """A completely positive map checked to send source states into target states."""
    map: ChoiMap
    source: CausObject
    target: CausObject


# -- atomic constructors -----------------------------------------------------

def mk_first_order(d: int, *, label: str | None = None) -> CausObject:
    """The type whose states are all density matrices on a d-level system."""
    d = int(d)
    if d < 1:
        raise InvalidDimensionError(f"system dimension must be >= 1, got {d}")
    iv = vec_identity(d)
    rows = (iv / math.sqrt(d))[None, :]
    vals = np.array([1.0 / math.sqrt(d)])
    # the base point I/d is stored: rows.T @ vals rounds 1/sqrt(d) twice
    states = AffineSubspace(d, base=iv / d, cons=rows, vals=vals)
    return CausObject((d,), states, label=label or f"FO({d})")


def mk_unit() -> CausObject:
    return mk_first_order(1, label="I")


def mk_classical(n: int) -> CausObject:
    """Diagonal (classical) states on an n-outcome register.

    Not first order for n >= 2: its effect hull has the diagonal directions.
    """
    n = int(n)
    if n < 1:
        raise InvalidDimensionError(f"register size must be >= 1, got {n}")
    if n == 1:
        return mk_first_order(1, label="CLA(1)")
    m = n * n
    iv = vec_identity(n)
    rows = np.concatenate([(iv / math.sqrt(n))[None, :], np.eye(m)[n:]], axis=0)
    vals = np.zeros(rows.shape[0])
    vals[0] = 1.0 / math.sqrt(n)
    states = AffineSubspace(n, base=iv / n, cons=rows, vals=vals)
    return CausObject((n,), states, label=f"CLA({n})")


def mk_all_states(a: CausObject) -> CausObject:
    """First-order type on the same factors as ``a``: every density matrix."""
    return CausObject(a.factor_dims, mk_first_order(a.dim).states, label=f"|{a.label}|")


# -- connectives -------------------------------------------------------------

def dual_obj(a: CausObject) -> CausObject:
    """Swap the roles of states and effects."""
    if a._dual is not None:
        return a._dual
    return CausObject(a.factor_dims, a.effects, effects=a.states,
                      label=f"{a.label}^", dual_of=a)


_GRID_LIMIT = 250_000


def _kron_stack(blocks, na: int, nb: int) -> np.ndarray:
    """The rows of each ``(left, right)`` block of :func:`kron_rows`, stacked
    in one preallocated array; ``None`` is a factor's whole basis."""
    sizes = [(na * na if left is None else len(left)) * (nb * nb if right is None else len(right))
             for left, right in blocks]
    rows = np.zeros((sum(sizes), (na * nb) ** 2))
    at = 0
    for (left, right), n in zip(blocks, sizes):
        if n:
            kron_rows(left, right, na, nb, out=rows[at:at + n])
        at += n
    return rows


def tensor_obj(a: CausObject, b: CausObject) -> CausObject:
    """Product type: the affine hull of products of states, in closed form.

    With min-norm bases ``ba``, ``bb`` orthogonal to orthonormal directions
    ``Da``, ``Db``, the hull is ``ba(x)bb + span{a^(x)Db, Da(x)b^, Da(x)Db}``
    where ``a^ = ba/|ba|`` and ``b^ = bb/|bb|``. Its linear span is
    ``Ua (x) Ub`` with ``Ua = [a^; Da]`` the frame of ``a``'s span, so the
    constraint form is closed form too: the row ``a^(x)b^`` with value
    ``|ba||bb|``, then ``D*a (x) Herm(B)`` and ``Ua (x) D*b`` with value 0,
    where ``D*`` are a factor's effect directions, the complement of its
    ``U``. Under the Hilbert-Schmidt product either set of rows is
    orthonormal, so the rank is ``ra*rb + ra + rb`` with no rank decision
    to make. The span form has ``(ra+1)(rb+1)`` rows and the constraint form
    ``m - (ra+1)(rb+1) + 1`` of the product's ``m`` coordinates; whichever is
    smaller is built, and the other is derived only if asked for. The
    constraint rows take ``U`` from a factor that holds its span form,
    mirroring the blocks (``Herm(A) (x) D*b``, ``D*a (x) Ub``) if only ``b``
    does, so every complement taken is at factor size.
    """
    lab = f"({a.label}*{b.label})"
    if a.dim == 1:
        return CausObject(b.factor_dims, b.states, effects=b._effects, label=lab)
    if b.dim == 1:
        return CausObject(a.factor_dims, a.states, effects=a._effects, label=lab)
    ra, rb = a.states.rank(), b.states.rank()
    if (ra + 1) * (rb + 1) > _GRID_LIMIT:
        raise InvalidDimensionError(
            f"product grid of {ra + 1} x {rb + 1} points is too large")
    ba, bb = a.states.base_vec(), b.states.base_vec()
    na, nb = float(np.linalg.norm(ba)), float(np.linalg.norm(bb))
    ah, bh = ba / na, bb / nb
    d = a.dim * b.dim
    if 2 * (ra + 1) * (rb + 1) <= d * d:
        rows = kron_rows(np.vstack([ah, a.states.dirs_coords()]),
                         np.vstack([bh, b.states.dirs_coords()]), a.dim, b.dim)
        states = AffineSubspace(d, base=na * nb * rows[0], dirs=rows[1:])
    else:
        ea, eb = a.effects.dirs_coords(), b.effects.dirs_coords()
        if b.states.holds_span and not a.states.holds_span:
            blocks = [(None, eb), (ea, np.vstack([bh, b.states.dirs_coords()]))]
        else:
            blocks = [(ea, None), (np.vstack([ah, a.states.dirs_coords()]), eb)]
        rows = _kron_stack([(ah[None, :], bh[None, :])] + blocks, a.dim, b.dim)
        vals = np.zeros(len(rows))
        vals[0] = na * nb
        states = AffineSubspace(d, cons=rows, vals=vals)
    return CausObject(a.factor_dims + b.factor_dims, states, label=lab)


def par_obj(a: CausObject, b: CausObject, *, label: str | None = None) -> CausObject:
    """De-Morgan dual of the product: dual(tensor(dual a, dual b))."""
    lab = label or f"({a.label}@{b.label})"
    if a.dim == 1:
        return CausObject(b.factor_dims, b.states, effects=b._effects, label=lab)
    if b.dim == 1:
        return CausObject(a.factor_dims, a.states, effects=a._effects, label=lab)
    t = tensor_obj(dual_obj(a), dual_obj(b))
    return CausObject(t.factor_dims, t.effects, effects=t.states,
                      label=lab, dual_of=t)


def hom_obj(a: CausObject, b: CausObject) -> CausObject:
    return par_obj(dual_obj(a), b, label=f"[{a.label},{b.label}]")


def seq_obj(a: CausObject, b: CausObject) -> CausObject:
    """One-way composite: b may depend on a but cannot influence it.

    In closed form, ``A < B = {x in Herm(A) (x) V_B : (id (x) e0_B) x in aff(A)}``
    with ``V_B`` the span of ``b``'s states and ``e0_B`` the min-norm effect
    of ``b``. Two blocks of constraint rows say so: the slice rows
    ``1 (x) Db`` (``Db`` the effect directions of ``b``, which span the
    complement of ``V_B``) with value 0, and the marginal rows
    ``cons_A (x) e0_B/|e0_B|`` with values ``vals_A/|e0_B|``. Both blocks are
    orthonormal and, as ``e0_B`` is orthogonal to ``Db``, orthogonal to each
    other, so the rank is ``a.dim**2 * rank_B + rank_A`` with no rank
    decision to make.
    """
    lab = f"({a.label}<{b.label})"
    if b.first_order or a.dim == 1 or b.dim == 1:
        # no effect directions to test; the composite collapses to par
        p = par_obj(a, b)
        return CausObject(p.factor_dims, p.states, effects=p._effects, label=lab)
    eff = b.effects
    e0 = eff.base_vec()
    n0 = float(np.linalg.norm(e0))
    acons, avals = a.states.cons_rows()
    rows = _kron_stack([(None, eff.dirs_coords()), (acons, (e0 / n0)[None, :])],
                       a.dim, b.dim)
    vals = np.zeros(len(rows))
    vals[len(rows) - len(avals):] = avals / n0
    states = AffineSubspace(a.dim * b.dim, cons=rows, vals=vals)
    return CausObject(a.factor_dims + b.factor_dims, states, label=lab)


# -- membership and morphisms -------------------------------------------------

def member(obj: CausObject, mat: np.ndarray, tol: float | None = None) -> bool:
    """Is ``mat`` a state of ``obj``: positive semidefinite and on the hull."""
    mat = check_hermitian(mat, TOLS.sub if tol is None else tol, dim=obj.dim)
    return psd_test(mat, tol)[1] and obj.states.contains_vec(herm_to_coords(mat), tol)


def membership_report(obj: CausObject, mat: np.ndarray,
                      tol: float | None = None) -> dict:
    """The verdict of :func:`member` with the two measurements that decide it."""
    mat = check_hermitian(mat, TOLS.sub if tol is None else tol, dim=obj.dim)
    low, psd = psd_test(mat, tol, report=True)
    x = herm_to_coords(mat)
    return {
        "member": psd and obj.states.contains_vec(x, tol),
        "min_eigenvalue": low,
        "affine_distance": obj.states.distance(x),
        "first_order": obj.first_order,
        "flat_lambda": obj.flat_lambda,
    }


def _pull_back(f: ChoiMap, rows: np.ndarray) -> np.ndarray:
    """Coordinate rows ``c_j`` on the output of ``f``, pulled back through its
    adjoint to rows ``N_j`` on its input: ``N_j . x = c_j . f(x)`` for every
    Hermitian ``x``, in coordinates.

    With ``f(rho)[t, u] = sum_{s, v} J[(t, s), (u, v)] rho[s, v]``, the adjoint
    is ``f^dagger(C)[v, s] = sum_{t, u} C[u, t] J[(t, s), (u, v)]``: one GEMM
    of the rows, as matrices, against ``J`` reordered to ``[(u, t), (v, s)]``.
    """
    di, do = f.d_in, f.d_out
    mats = coords_to_herm(rows, do).reshape(-1, do * do)
    pull = f.J.reshape(do, di, do, di).transpose(2, 0, 3, 1).reshape(do * do, di * di)
    return herm_to_coords((mats @ pull).reshape(-1, di, di))


# entries near the float limit overflow the measurements, not the verdict
@np.errstate(over="ignore", invalid="ignore")
def check_morphism(f: ChoiMap, a: CausObject, b: CausObject,
                   tol: float | None = None) -> CausMorphism:
    """Validate ``f`` as a map of types; each kind of failure reports separately.

    The hull half reads ``b``'s constraint rows, pulled back through ``f``
    (:func:`_pull_back`), at ``a``'s affine points; its one scale is the norm
    of ``f(lam_A I)``, the image of the source's flat point.
    """
    tol = TOLS.sub if tol is None else check_tol(tol)
    adj = f.J.conj().T          # the one adjoint: both gates below read it
    try:
        check_hermitian(f.J, tol, adjoint=adj)
    except HermiticityError as err:
        raise MorphismError(f"map is not Hermiticity preserving: {err}",
                            reason="hermiticity", residual=err.deviation) from None
    if f.d_in != a.dim or f.d_out != b.dim:
        raise ShapeMismatchError(
            f"map has shape {f.d_in}->{f.d_out}, types have {a.dim}->{b.dim}")
    me, cp = psd_test(f.J, max(TOLS.psd, tol), "frobenius", adjoint=adj)
    if not cp:
        raise MorphismError(f"map is not completely positive (min Choi eigenvalue {me:.3e})",
                            reason="cp", residual=-me)
    cons, vals = b.states.cons_rows()
    resid = a.states.affine_points() @ _pull_back(f, cons).T - vals
    # the flat image lam_A Tr_in J; where its sum overflows it is taken again in
    # units of J's largest entry, so that the scale stays finite
    j4 = f.J.reshape(f.d_out, f.d_in, f.d_out, f.d_in)
    unit, flat = 1.0, a.flat_lambda * magnitude(np.einsum("tsus->tu", j4))
    if math.isinf(flat):
        unit = float(np.max(np.abs(f.J)))
        flat = a.flat_lambda * magnitude(np.einsum("tsus->tu", j4 / unit))
    worst = float(magnitude(resid, axis=1).max()) / unit / max(flat, 1.0 / unit)
    if not within(worst, tol):
        raise MorphismError(
            f"map sends some source states off the target hull "
            f"(worst relative distance {worst:.3e})",
            reason="affine", residual=worst)
    return CausMorphism(map=f, source=a, target=b)


def cup_state(d: int) -> np.ndarray:
    """Unnormalized maximally entangled state matrix on a doubled system."""
    return structural("cup", d).J


# -- large-composite membership ----------------------------------------------

def _pairs_to_one(x: np.ndarray, c: np.ndarray, a: CausObject, b: CausObject) -> bool:
    """Every effect of ``a`` paired with every effect of ``b`` gives one on ``x``.

    ``c`` is ``matricize(x, a.dim, b.dim)``, so the pairings are one product.
    """
    pair = a.effects.affine_points() @ c @ b.effects.affine_points().T
    return within(float(np.max(np.abs(pair - 1.0))), TOLS.sub, magnitude(x))


def par_member(x: np.ndarray, a: CausObject, b: CausObject) -> bool:
    """Membership in the par composite without building the composite type."""
    x = check_hermitian(x, TOLS.sub, dim=a.dim * b.dim)
    if not psd_test(x, TOLS.sub)[1]:
        return False
    if a.dim == 1 or b.dim == 1:
        return (b if a.dim == 1 else a).states.contains_vec(herm_to_coords(x), TOLS.sub)
    return _pairs_to_one(x, matricize(x, a.dim, b.dim), a, b)


def seq_member(x: np.ndarray, a: CausObject, b: CausObject) -> bool:
    """Membership in the one-way composite without building the composite type."""
    if b.first_order or a.dim == 1 or b.dim == 1:
        return par_member(x, a, b)
    x = check_hermitian(x, TOLS.sub, dim=a.dim * b.dim)
    if not psd_test(x, TOLS.sub)[1]:
        return False
    c = matricize(x, a.dim, b.dim)
    if not _pairs_to_one(x, c, a, b):
        return False
    # contracting the second block with any effect direction of b gives zero
    cb, _ = b.effects.cons_rows()
    resid = c - (c @ cb.T) @ cb
    return within(magnitude(resid), TOLS.sub, magnitude(x))


def interchange_check(a_state: np.ndarray, a: CausObject, b: CausObject,
                      c_state: np.ndarray, c: CausObject, d: CausObject) -> bool:
    """Product of one-way states, reordered by parties, stays one-way."""
    blocks = [o.factor_dims for o in (a, b, c, d)]
    prod = regroup(np.kron(a_state, c_state), blocks, [0, 2, 1, 3])
    t_ac = tensor_obj(a, c)
    t_bd = tensor_obj(b, d)
    return seq_member(prod, t_ac, t_bd)


def objects_equal(a: CausObject, b: CausObject) -> bool:
    return a.dim == b.dim and a.states.equals(b.states)


# -- bridges between process matrices and hom states ---------------------------

def state_of_choi(cm: ChoiMap) -> np.ndarray:
    """Reorder a process matrix to hom-state layout (input block first)."""
    return transpose_channel(cm).J


def choi_of_state(mat: np.ndarray, in_dims, out_dims) -> ChoiMap:
    in_dims = _wire_dims(in_dims) or (1,)
    out_dims = _wire_dims(out_dims) or (1,)
    di = math.prod(in_dims)
    do = math.prod(out_dims)
    if mat.shape[0] != di * do:
        raise ShapeMismatchError(
            f"state dim {mat.shape[0]} does not match {di} -> {do}")
    j = regroup(mat, [in_dims, out_dims], [1, 0])
    return ChoiMap(out_dims, in_dims, j, validate=False)
