"""Signalling analysis and one-way comb decomposition.

A two-party channel is stored with outputs (A_out..., B_out...) and inputs
(A_in..., B_in...). Its state form interleaves parties as
(A_in, A_out, B_in, B_out), matching the factor layout of nested hom types.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .causobj import (CausObject, hom_obj, member, mk_first_order, par_obj,
                      state_of_choi, tensor_obj)
from .cpmaps import (ChoiMap, Isometry, choi_of_kraus, dilation_isometry,
                     regroup, shadow, stinespring, structural)
from .errors import (InconsistencyError, NoIsometryError, NotOneWayError,
                     ShadowNotFoundError, ShapeMismatchError)
from .hermspace import check_hermitian, min_eig
from .tolerances import TOLS


class SignalVerdict(enum.Enum):
    BOTH_BLOCKED = "both"
    A_TO_B_ONLY = "A_to_B_only"
    B_TO_A_ONLY = "B_to_A_only"
    TWO_WAY = "two_way"


def party_name(cm: ChoiMap, n_out_a: int, n_in_a: int) -> np.ndarray:
    """Channel matrix rearranged to party-interleaved state layout."""
    o, i = cm.out_dims, cm.in_dims
    blocks = [o[:n_out_a], o[n_out_a:], i[:n_in_a], i[n_in_a:]]
    return regroup(cm.J, blocks, [2, 0, 3, 1])


def party_choi(mat: np.ndarray, out_dims, in_dims, n_out_a: int, n_in_a: int) -> ChoiMap:
    """Inverse of :func:`party_name`."""
    o, i = tuple(out_dims), tuple(in_dims)
    blocks = [i[:n_in_a], o[:n_out_a], i[n_in_a:], o[n_out_a:]]
    return ChoiMap(o, i, regroup(mat, blocks, [1, 3, 0, 2]), validate=False)


def _depends_on_block(marg: ChoiMap, split: int, probe_right: bool,
                      tol: float) -> bool:
    """Does the marginal output depend on one input block for any joint input?

    Independence of a block means the Choi matrix carries a bare identity
    on it: J = K (x) I_block up to factor placement. The distance to that
    subspace is measured by twirling the block (an orthogonal projection),
    so structured channels where averaging the other block hides the
    influence (one-time-pad style) are still caught.
    """
    d_left = math.prod(marg.in_dims[:split])
    d_right = marg.d_in // d_left
    d_probe = d_right if probe_right else d_left
    if d_probe == 1:
        return False
    d_o = marg.d_out
    t = marg.J.reshape(d_o, d_left, d_right, d_o, d_left, d_right)
    eye = np.eye(d_probe)
    if probe_right:
        avg = np.einsum('olrqmr->olqm', t) / d_probe
        proj = np.einsum('olqm,rs->olrqms', avg, eye)
    else:
        avg = np.einsum('olrqlt->orqt', t) / d_probe
        proj = np.einsum('orqt,ls->olrqst', avg, eye)
    scale = max(1.0, float(np.linalg.norm(marg.J)))
    resid = float(np.linalg.norm(t - proj))
    return resid > tol * scale


def nonsignalling_test(cm: ChoiMap, n_out_a: int, n_in_a: int,
                       tol: float | None = None) -> SignalVerdict:
    """Which directions of influence a two-party channel admits."""
    tol = max(TOLS.sub, tol or 0.0) * 10
    if not cm.is_cptp():
        raise InconsistencyError(
            "signalling verdicts are defined for CPTP maps only "
            f"(trace defect {cm.trace_defect():.3e}, min eig {min_eig(cm.J):.3e})")
    if not (0 <= n_out_a <= len(cm.out_dims)) or not (0 <= n_in_a <= len(cm.in_dims)):
        raise ShapeMismatchError("party cut exceeds the factor lists")
    marg_a = cm.marginal(list(range(n_out_a)))
    b_to_a = _depends_on_block(marg_a, n_in_a, probe_right=True, tol=tol)
    marg_b = cm.marginal(list(range(n_out_a, len(cm.out_dims))))
    a_to_b = _depends_on_block(marg_b, n_in_a, probe_right=False, tol=tol)
    if a_to_b and b_to_a:
        return SignalVerdict.TWO_WAY
    if a_to_b:
        return SignalVerdict.A_TO_B_ONLY
    if b_to_a:
        return SignalVerdict.B_TO_A_ONLY
    return SignalVerdict.BOTH_BLOCKED


# -- comb decomposition ---------------------------------------------------------

@dataclass
class DecompPair:
    """Two teeth over a mediator.

    ``rho`` maps the early party's input to its output plus a mediator (the
    last output factor); ``sigma`` consumes the mediator (its first input
    factor) together with the late party's input.
    """
    rho: ChoiMap          # A_in -> (A_out..., Z)
    sigma: ChoiMap        # (Z, B_in...) -> B_out...
    z_dim: int

    def validate_typing(self, a: CausObject, b: CausObject,
                        x: CausObject, xp: CausObject) -> bool:
        z = mk_first_order(self.z_dim)
        first = hom_obj(x, par_obj(a, z))
        second = hom_obj(tensor_obj(z, xp), b)
        return (member(first, state_of_choi(self.rho))
                and member(second, state_of_choi(self.sigma)))


def med_precompose(sigma: ChoiMap, ch: ChoiMap) -> ChoiMap:
    """Pre-compose a channel on the mediator (first input factor) of a tooth."""
    if ch.d_out != sigma.in_dims[0]:
        raise ShapeMismatchError(
            f"channel output {ch.out_dims} does not match mediator "
            f"{sigma.in_dims[0]}")
    big = ch
    for d in sigma.in_dims[1:]:
        big = big.tensor(structural("identity", d), validate=False)
    return sigma.compose(big, validate=False)


def recompose(pair: DecompPair) -> ChoiMap:
    """Feed the mediator leg of the first tooth through the second."""
    rho, sigma = pair.rho, pair.sigma
    if rho.out_dims[-1] != pair.z_dim or sigma.in_dims[0] != pair.z_dim:
        raise ShapeMismatchError("mediator dimensions of the teeth disagree")
    wide = rho
    for d in sigma.in_dims[1:]:
        wide = wide.tensor(structural("identity", d), validate=False)
    # wide: out (A_out..., Z, B_in wires), in (A_in..., B_in...)
    pos = len(rho.out_dims) - 1
    return wide.act_on_out(pos, len(sigma.in_dims), sigma)


def comb_decompose(tau: ChoiMap, n_out_a: int, n_in_a: int,
                   tol: float | None = None) -> DecompPair:
    """Split a two-party channel into two one-way teeth, or prove it cannot be.

    The first tooth is the minimal dilation of the early party's marginal;
    the second is recovered in closed form on that dilation frame extended
    by an identity wire on the late input. An early marginal that moves
    with the late input, a trace defect in the second tooth, or a
    recomposition residual above the decomposition tolerance rejects the
    input as not one-way.
    """
    tol = TOLS.decomp if tol is None else tol
    if not (0 < n_out_a <= len(tau.out_dims)) or not (0 <= n_in_a <= len(tau.in_dims)):
        raise ShapeMismatchError("party cut exceeds the factor lists")
    a_out = tau.out_dims[:n_out_a]
    b_out = tau.out_dims[n_out_a:] or (1,)
    a_in = tau.in_dims[:n_in_a] or (1,)
    b_in = tau.in_dims[n_in_a:]
    d_ao = math.prod(a_out)
    d_w = tau.d_out // d_ao
    d_ai = math.prod(a_in)
    d_bi = tau.d_in // d_ai

    marg = tau.marginal(list(range(n_out_a)))        # (A_in, B_in) -> A_out
    feed = structural("identity", d_ai).tensor(structural("mix", d_bi),
                                               validate=False)
    early = ChoiMap(a_out, a_in, marg.compose(feed, validate=False).J,
                    validate=False)                  # A_in -> A_out
    ext = early.tensor(structural("discard", d_bi), validate=False)
    scale = max(1.0, float(np.linalg.norm(marg.J)))
    steer = float(np.linalg.norm(marg.J - ext.J)) / scale
    if steer > tol:
        raise NotOneWayError(
            f"early marginal moves with the late input (residual {steer:.3e})",
            residual=steer)

    iso, env = stinespring(early)
    rho = ChoiMap(a_out + (env,), a_in, iso.as_choi().J, validate=False)
    # dilation frame for the full channel: V (x) identity on the late input
    v4 = iso.v.reshape(d_ao, env, d_ai)
    vt = np.einsum('aei,bc->aebic', v4, np.eye(d_bi))
    d_e = env * d_bi
    d_x = d_ai * d_bi
    v3 = vt.reshape(d_ao, d_e, d_x)
    j8 = tau.J.reshape(d_ao, d_w, d_x, d_ao, d_w, d_x)
    c6 = np.einsum('afx,awxcgy,chy->wfgh', v3.conj(), j8, v3)
    c = c6.reshape(d_w * d_e, d_w * d_e)
    g = np.einsum('afx,agx->fg', v3.conj(), v3)       # transposed env marginal
    rho_env = g.T
    vals, vecs = np.linalg.eigh(rho_env)
    cut = max(float(vals[-1]), 1.0) * 1e-12
    inv_vals = np.where(vals > cut, 1.0 / np.maximum(vals, cut), 0.0)
    r_inv = (vecs * inv_vals) @ vecs.conj().T
    t_twist = ChoiMap((d_w,), (d_e,), c, validate=False).transfer()
    t_sigma = t_twist @ np.kron(r_inv, r_inv.conj())
    sigma = ChoiMap.from_transfer(t_sigma, b_out, (env,) + b_in, validate=False)
    sigma.J = check_hermitian(sigma.J, tol=1e-6)
    me = min_eig(sigma.J)
    if me < -max(TOLS.psd, tol) * max(1.0, float(np.linalg.norm(sigma.J))):
        raise InconsistencyError(
            f"second tooth came out non-positive (min eig {me:.3e}); "
            "the steering construction cannot produce this for consistent input")
    pair = DecompPair(rho=rho, sigma=sigma, z_dim=env)
    defect = sigma.trace_defect()
    if defect > tol * max(1.0, float(np.linalg.norm(sigma.J))):
        raise NotOneWayError(
            f"second tooth is not trace preserving (defect {defect:.3e}); "
            "the later party influences the earlier one", residual=defect)
    rec = recompose(pair)
    resid = float(np.linalg.norm(rec.J - tau.J)) / max(1.0, float(np.linalg.norm(tau.J)))
    if resid > tol:
        raise NotOneWayError(
            f"recomposition misses the channel by {resid:.3e}", residual=resid)
    return pair


def coend_equiv(p1: DecompPair, p2: DecompPair, tol: float | None = None) -> bool:
    """Do two decompositions present the same channel?"""
    tol = max(TOLS.roundtrip, tol or 0.0)
    j1 = recompose(p1).J
    j2 = recompose(p2).J
    if j1.shape != j2.shape:
        return False
    return float(np.linalg.norm(j1 - j2)) <= tol * max(1.0, float(np.linalg.norm(j1)))


# -- equivalence certificates ----------------------------------------------------

@dataclass
class SlideStep:
    channel: ChoiMap
    direction: str            # "right": mediator map moves into the second tooth
    kind: str                 # "discard" | "isometry" | "shadow"
    residual: float
    pair_after: DecompPair


@dataclass
class Certificate:
    ok: bool
    steps: list
    reason: str | None = None


def _mediator_pos(rho: ChoiMap) -> int:
    return len(rho.out_dims) - 1


def _pairs_close(p1: DecompPair, p2: DecompPair, tol: float) -> bool:
    if p1.z_dim != p2.z_dim:
        return False
    return (float(np.linalg.norm(p1.rho.J - p2.rho.J)) <= tol
            and float(np.linalg.norm(p1.sigma.J - p2.sigma.J)) <= tol)


def _purify_tooth(pair: DecompPair):
    """Dilate the first tooth; the discarded environment slides rightward."""
    iso, env = stinespring(pair.rho)
    z = pair.z_dim
    # group (z, env) mediator factors
    pure_rho_wide = iso.as_choi()
    out_dims = pure_rho_wide.out_dims[:-2] + (z * env,)
    pure_rho = ChoiMap(out_dims, pair.rho.in_dims, pure_rho_wide.J,
                       validate=False)
    drop = structural("identity", z).tensor(structural("discard", env),
                                            validate=False)
    drop = ChoiMap((z,), (z * env,), drop.J, validate=False)
    sigma_new = med_precompose(pair.sigma, drop)
    new_pair = DecompPair(rho=pure_rho, sigma=sigma_new, z_dim=z * env)
    resid = float(np.linalg.norm(
        pure_rho.act_on_out(_mediator_pos(pure_rho), 1, drop).J - pair.rho.J))
    return new_pair, drop, resid, iso, env


def _isometry_channel(v: np.ndarray, d_in: int, d_out: int) -> ChoiMap:
    return choi_of_kraus([v.reshape(d_out, d_in)], d_in, d_out)


def _flat_dilation(iso: Isometry, sys: int) -> Isometry:
    """Regroup a dilation's outputs as (system, environment)."""
    return Isometry(iso.v, iso.in_dim, (sys, iso.d_out // sys),
                    allow_contraction=True)


def equiv_certificate(p1: DecompPair, p2: DecompPair,
                      tol: float | None = None) -> Certificate:
    """Best-effort chain of mediator slides carrying one decomposition to the other.

    Every emitted step is CPTP on the mediator leg and preserves the
    recomposed channel; failure to find a chain never contradicts
    :func:`coend_equiv`, it is reported as unavailable.
    """
    tol = max(TOLS.slide, tol or 0.0)
    if not coend_equiv(p1, p2):
        return Certificate(ok=False, steps=[],
                           reason="decompositions present different channels")
    if _pairs_close(p1, p2, tol):
        return Certificate(ok=True, steps=[])
    try:
        tau = recompose(p1)
        target = recompose(p2).J
        scale = max(1.0, float(np.linalg.norm(tau.J)))
        steps: list[SlideStep] = []

        def record(pair, chan, direction, kind, resid):
            drift = float(np.linalg.norm(recompose(pair).J - tau.J)) / scale
            steps.append(SlideStep(channel=chan, direction=direction, kind=kind,
                                   residual=max(resid, drift), pair_after=pair))

        pure1, drop1, r1, iso1, env1 = _purify_tooth(p1)
        if env1 > 1:
            record(pure1, drop1, "right", "discard", r1)
        pure2, drop2, r2, iso2, env2 = _purify_tooth(p2)

        # common frame: the minimal dilation of the first-party marginal
        minimal = comb_decompose(tau, len(p1.rho.out_dims) - 1,
                                 len(p1.rho.in_dims))
        zstar = minimal.z_dim
        base_rho = minimal.rho
        vstar, _ = stinespring(base_rho)   # base_rho is pure: recovers V itself
        d_sys = vstar.d_out // zstar
        flatstar = Isometry(vstar.v, vstar.in_dim, (d_sys, zstar),
                            allow_contraction=True)

        v1 = dilation_isometry(flatstar, _flat_dilation(iso1, d_sys))
        ch1 = _isometry_channel(v1.v, zstar, pure1.z_dim)
        sigma_mid1 = med_precompose(pure1.sigma, ch1)
        mid1 = DecompPair(rho=base_rho, sigma=sigma_mid1, z_dim=zstar)
        resid_v1 = float(np.linalg.norm(
            base_rho.act_on_out(_mediator_pos(base_rho), 1, ch1).J - pure1.rho.J))
        if pure1.z_dim != zstar \
                or float(np.linalg.norm(v1.v - np.eye(zstar))) > tol:
            record(mid1, ch1, "right", "isometry", resid_v1)

        v2 = dilation_isometry(flatstar, _flat_dilation(iso2, d_sys))
        ch2 = _isometry_channel(v2.v, zstar, pure2.z_dim)
        sigma_mid2 = med_precompose(pure2.sigma, ch2)

        gap = float(np.linalg.norm(sigma_mid1.J - sigma_mid2.J))
        if gap > tol * scale:
            # try a conditional-expectation collapse on the shared frame
            try:
                pi, residuals = shadow(sigma_mid1, flatstar, zstar,
                                       relation=sigma_mid2)
                mid_shadow = DecompPair(
                    rho=base_rho,
                    sigma=med_precompose(sigma_mid1, pi),
                    z_dim=zstar)
                record(mid_shadow, pi, "right", "shadow",
                       max(residuals.values()))
                sigma_mid1 = mid_shadow.sigma
                gap = float(np.linalg.norm(sigma_mid1.J - sigma_mid2.J))
                if gap > tol * scale:
                    return Certificate(ok=False, steps=[],
                                       reason="certificate unavailable: teeth "
                                              "disagree on the common frame")
            except (ShadowNotFoundError, InconsistencyError):
                return Certificate(ok=False, steps=[],
                                   reason="certificate unavailable: teeth "
                                          "disagree on the common frame")

        resid_v2 = float(np.linalg.norm(
            base_rho.act_on_out(_mediator_pos(base_rho), 1, ch2).J - pure2.rho.J))
        if pure2.z_dim != zstar \
                or float(np.linalg.norm(v2.v - np.eye(zstar))) > tol:
            record(pure2, ch2, "left", "isometry", resid_v2)
        if env2 > 1:
            record(p2, drop2, "left", "discard", r2)
        final = steps[-1].pair_after if steps else p1
        end_gap = float(np.linalg.norm(recompose(final).J - target)) / scale
        if end_gap > tol:
            return Certificate(ok=False, steps=[],
                               reason=f"certificate unavailable: chain drifts "
                                      f"by {end_gap:.3e}")
        return Certificate(ok=True, steps=steps)
    except (NotOneWayError, NoIsometryError, InconsistencyError,
            ShapeMismatchError) as exc:
        return Certificate(ok=False, steps=[],
                           reason=f"certificate unavailable: {exc}")
