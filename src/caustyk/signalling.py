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

from .cpmaps import (ChoiMap, Isometry, act_on_factors, choi_of_kraus,
                     dilation_isometry, regroup, stinespring, structural,
                     transpose_channel)
from .errors import (HermiticityError, InconsistencyError, NoIsometryError,
                     NotOneWayError, ShapeMismatchError)
from .hermspace import check_hermitian, min_eig, psd_test
from .tolerances import TOLS, check_tol, magnitude, within


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


def _steering(marg: ChoiMap, split: int, probe_right: bool) -> tuple[float, np.ndarray]:
    """How far the marginal output moves with one input block.

    Independence of a block means the Choi matrix carries a bare identity
    on it: J = K (x) I_block up to factor placement. The distance to that
    subspace is measured by twirling the block (an orthogonal projection),
    so structured channels where averaging the other block hides the
    influence (one-time-pad style) are still caught. Returns that distance
    relative to ``max(1, |J|)`` and ``K``: the Choi matrix of the marginal
    fed the maximally mixed state on the block.
    """
    d_left = math.prod(marg.in_dims[:split])
    d_right = marg.d_in // d_left
    d_probe = d_right if probe_right else d_left
    d_o = marg.d_out
    t = marg.J.reshape(d_o, d_left, d_right, d_o, d_left, d_right)
    eye = np.eye(d_probe)
    if probe_right:
        avg = np.einsum('olrqmr->olqm', t) / d_probe
        proj = np.einsum('olqm,rs->olrqms', avg, eye)
    else:
        avg = np.einsum('olrqlt->orqt', t) / d_probe
        proj = np.einsum('orqt,ls->olrqst', avg, eye)
    d_k = d_o * marg.d_in // d_probe
    return magnitude(t - proj) / max(1.0, magnitude(marg.J)), avg.reshape(d_k, d_k)


def nonsignalling_test(cm: ChoiMap, n_out_a: int, n_in_a: int,
                       tol: float | None = None) -> SignalVerdict:
    """Which directions of influence a two-party channel admits."""
    tol = max(TOLS.sub, check_tol(tol) or 0.0) * 10
    if not cm.is_cptp():
        raise InconsistencyError(
            "signalling verdicts are defined for CPTP maps only "
            f"(trace defect {cm.trace_defect():.3e}, min eig {min_eig(cm.J):.3e})")
    if not (0 <= n_out_a <= len(cm.out_dims)) or not (0 <= n_in_a <= len(cm.in_dims)):
        raise ShapeMismatchError("party cut exceeds the factor lists")
    marg_a = cm.marginal(list(range(n_out_a)))
    b_to_a = not within(_steering(marg_a, n_in_a, probe_right=True)[0], tol)
    marg_b = cm.marginal(list(range(n_out_a, len(cm.out_dims))))
    a_to_b = not within(_steering(marg_b, n_in_a, probe_right=False)[0], tol)
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


def med_precompose(sigma: ChoiMap, ch: ChoiMap) -> ChoiMap:
    """Pre-compose a channel on the mediator (first input factor) of a tooth."""
    if ch.d_out != sigma.in_dims[0]:
        raise ShapeMismatchError(
            f"channel output {ch.out_dims} does not match mediator "
            f"{sigma.in_dims[0]}")
    J = act_on_factors(sigma.J, sigma.factor_dims, len(sigma.out_dims), 1,
                       transpose_channel(ch))
    return ChoiMap(sigma.out_dims, ch.in_dims + sigma.in_dims[1:], J, validate=False)


def recompose(pair: DecompPair) -> ChoiMap:
    """Feed the mediator leg of the first tooth through the second.

    The link product over the mediator:
    ``J[(a, b, i, c), (a', b', i', c')] = sum_{z, z'} rho.J[(a, z, i), (a', z', i')]
    * sigma.J[(b, z, c), (b', z', c')]`` with ``a`` the early outputs, ``b``
    the late outputs, ``i`` the early inputs and ``c`` the late inputs. The
    second tooth's late input is read as an output (the same operator with
    its factors regrouped to ``(B_out, B_in, Z)``, a map ``Z -> (B_out, B_in)``)
    and post-composed on the first tooth's mediator.
    """
    rho, sigma = pair.rho, pair.sigma
    if rho.out_dims[-1] != pair.z_dim or sigma.in_dims[0] != pair.z_dim:
        raise ShapeMismatchError("mediator dimensions of the teeth disagree")
    a_out, b_out, b_in = rho.out_dims[:-1], sigma.out_dims, sigma.in_dims[1:]
    bent = ChoiMap(b_out + b_in, (pair.z_dim,),
                   regroup(sigma.J, [b_out, (pair.z_dim,), b_in], [0, 2, 1]),
                   validate=False)
    j = act_on_factors(rho.J, rho.factor_dims, len(a_out), 1, bent)
    # (A_out, B_out, B_in, A_in) -> (A_out, B_out, A_in, B_in)
    return ChoiMap(a_out + b_out, rho.in_dims + b_in,
                   regroup(j, [a_out + b_out, b_in, rho.in_dims], [0, 2, 1]),
                   validate=False)


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
    tol = TOLS.decomp if tol is None else check_tol(tol)
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
    steer, j_early = _steering(marg, n_in_a, probe_right=True)
    if not within(steer, tol):
        raise NotOneWayError(
            f"early marginal moves with the late input (residual {steer:.3e})",
            residual=steer)

    iso, env = stinespring(ChoiMap(a_out, a_in, j_early, validate=False))
    rho = ChoiMap(a_out + (env,), a_in, iso.as_choi().J, validate=False)
    # The second tooth conjugates tau by the frame V (x) I on the late input,
    # then pre-composes X -> r_inv X r_inv^dagger on the env input, r_inv the
    # inverse env marginal. Both fold into n = r_inv m, m[e, (a, i)] = V[(a, e), i],
    # contracted with the row and the column index of tau by one GEMM each.
    # The env marginal m m^dagger is diagonal, holding the kept Choi
    # eigenvalues (the Kraus operators are orthogonal), so n divides each row
    # of m by its squared norm.
    m = iso.v.reshape(d_ao, env, d_ai).transpose(1, 0, 2).reshape(env, d_ao * d_ai)
    n = m / np.einsum('ij,ij->i', m.conj(), m).real[:, None]
    # sigma[(w, e, b), (g, f, c)] = sum n*[e, (a, i)] tau[(a, w, i, b), (p, g, j, c)] n[f, (p, j)]
    j8 = tau.J.reshape(d_ao, d_w, d_ai, d_bi, d_ao, d_w, d_ai, d_bi)
    half = n.conj() @ j8.transpose(0, 2, 1, 3, 4, 5, 6, 7).reshape(d_ao * d_ai, -1)
    half = half.reshape(env, d_w, d_bi, d_ao, d_w, d_ai, d_bi).transpose(1, 0, 2, 4, 6, 3, 5)
    c6 = (half.reshape(-1, d_ao * d_ai) @ n.T).reshape(d_w, env, d_bi, d_w, d_bi, env)
    d_s = d_w * env * d_bi
    sigma = ChoiMap(b_out, (env,) + b_in,
                    check_hermitian(c6.transpose(0, 1, 2, 3, 5, 4).reshape(d_s, d_s),
                                    tol=TOLS.decomp), validate=False)
    me, positive = psd_test(sigma.J, max(TOLS.psd, tol), "frobenius")
    if not positive:
        raise InconsistencyError(
            f"second tooth came out non-positive (min eig {me:.3e}); "
            "the steering construction cannot produce this for consistent input")
    pair = DecompPair(rho=rho, sigma=sigma, z_dim=env)
    defect = sigma.trace_defect()
    if not within(defect, tol, magnitude(sigma.J)):
        raise NotOneWayError(
            f"second tooth is not trace preserving (defect {defect:.3e}); "
            "the later party influences the earlier one", residual=defect)
    rec = recompose(pair)
    resid = magnitude(rec.J - tau.J) / max(1.0, magnitude(tau.J))
    if not within(resid, tol):
        raise NotOneWayError(
            f"recomposition misses the channel by {resid:.3e}", residual=resid)
    return pair


def coend_equiv(p1: DecompPair, p2: DecompPair, tol: float | None = None) -> bool:
    """Do two decompositions present the same channel?"""
    tol = max(TOLS.roundtrip, check_tol(tol) or 0.0)
    j1 = recompose(p1).J
    j2 = recompose(p2).J
    if j1.shape != j2.shape:
        return False
    return within(magnitude(j1 - j2), tol, magnitude(j1))


# -- equivalence certificates ----------------------------------------------------

@dataclass
class SlideStep:
    channel: ChoiMap
    direction: str            # "right": mediator map moves into the second tooth
    kind: str                 # "discard" | "isometry"
    residual: float
    pair_after: DecompPair


@dataclass
class Certificate:
    ok: bool
    steps: list
    reason: str | None = None


def _pairs_close(p1: DecompPair, p2: DecompPair, tol: float) -> bool:
    if p1.z_dim != p2.z_dim:
        return False
    return (within(magnitude(p1.rho.J - p2.rho.J), tol)
            and within(magnitude(p1.sigma.J - p2.sigma.J), tol))


def _onto_frame(pair: DecompPair, frame: Isometry, base_rho: ChoiMap,
                tol: float):
    """Carry one decomposition onto the common dilation frame.

    The first tooth is dilated (its environment discard slides into the
    second tooth), then the dilation is carried onto the frame's minimal
    mediator by the intertwining isometry. Returns the discard slide, the
    isometry slide and the second tooth as seen on the frame. A slide is
    ``(outer pair, inner pair, channel, residual)``, or ``None`` where it
    would be the identity.
    """
    iso, env = stinespring(pair.rho)
    z = pair.z_dim
    rho = ChoiMap(pair.rho.out_dims[:-1] + (z * env,), pair.rho.in_dims,
                  iso.as_choi().J, validate=False)
    drop = structural("identity", z).tensor(structural("discard", env),
                                            validate=False)
    drop = ChoiMap((z,), (z * env,), drop.J, validate=False)
    pure = DecompPair(rho=rho, sigma=med_precompose(pair.sigma, drop),
                      z_dim=z * env)
    discard = None
    if env > 1:
        resid = float(np.linalg.norm(
            rho.act_on_out(len(rho.out_dims) - 1, 1, drop).J - pair.rho.J))
        discard = (pair, pure, drop, resid)

    d_sys, zstar = frame.out_dims
    v = dilation_isometry(frame, Isometry(iso.v, iso.in_dim,
                                          (d_sys, iso.d_out // d_sys),
                                          allow_contraction=True)).v
    ch = choi_of_kraus([v], zstar, pure.z_dim)
    on_frame = DecompPair(rho=base_rho, sigma=med_precompose(pure.sigma, ch),
                          z_dim=zstar)
    slide = None
    if pure.z_dim != zstar or not within(magnitude(v - np.eye(zstar)), tol):
        resid = float(np.linalg.norm(
            base_rho.act_on_out(len(base_rho.out_dims) - 1, 1, ch).J - rho.J))
        slide = (pure, on_frame, ch, resid)
    return discard, slide, on_frame.sigma


def equiv_certificate(p1: DecompPair, p2: DecompPair,
                      tol: float | None = None) -> Certificate:
    """Best-effort chain of mediator slides carrying one decomposition to the other.

    Every emitted step is CPTP on the mediator leg and preserves the
    recomposed channel; failure to find a chain never contradicts
    :func:`coend_equiv`, it is reported as unavailable.
    """
    tol = max(TOLS.slide, check_tol(tol) or 0.0)
    if not coend_equiv(p1, p2):
        return Certificate(ok=False, steps=[],
                           reason="decompositions present different channels")
    if _pairs_close(p1, p2, tol):
        return Certificate(ok=True, steps=[])
    try:
        tau = recompose(p1)
        scale = max(1.0, magnitude(tau.J))
        # common frame: the minimal dilation of the first-party marginal
        minimal = comb_decompose(tau, len(p1.rho.out_dims) - 1,
                                 len(p1.rho.in_dims))
        zstar = minimal.z_dim
        vstar, _ = stinespring(minimal.rho)   # the tooth is pure: recovers V
        frame = Isometry(vstar.v, vstar.in_dim, (vstar.d_out // zstar, zstar),
                         allow_contraction=True)
        discard1, slide1, sigma1 = _onto_frame(p1, frame, minimal.rho, tol)
        discard2, slide2, sigma2 = _onto_frame(p2, frame, minimal.rho, tol)
        if not within(magnitude(sigma1.J - sigma2.J), tol, scale):
            return Certificate(ok=False, steps=[],
                               reason="certificate unavailable: teeth "
                                      "disagree on the common frame")

        steps: list[SlideStep] = []
        chain = (("right", "discard", discard1), ("right", "isometry", slide1),
                 ("left", "isometry", slide2), ("left", "discard", discard2))
        for direction, kind, slide in chain:
            if slide is None:
                continue
            outer, inner, chan, resid = slide
            after = inner if direction == "right" else outer
            drift = float(np.linalg.norm(recompose(after).J - tau.J)) / scale
            steps.append(SlideStep(channel=chan, direction=direction, kind=kind,
                                   residual=max(resid, drift), pair_after=after))
        final = steps[-1].pair_after if steps else p1
        end_gap = magnitude(recompose(final).J - recompose(p2).J) / scale
        if not within(end_gap, tol):
            return Certificate(ok=False, steps=[],
                               reason=f"certificate unavailable: chain drifts "
                                      f"by {end_gap:.3e}")
        return Certificate(ok=True, steps=steps)
    except (NotOneWayError, NoIsometryError, InconsistencyError,
            ShapeMismatchError, HermiticityError) as exc:
        return Certificate(ok=False, steps=[],
                           reason=f"certificate unavailable: {exc}")
