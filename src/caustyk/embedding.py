"""State families of a type probed between first-order boundaries.

A causal type ``A``, seen from an input boundary ``X`` and an output
boundary ``X'``, presents the states of ``[X, A (par) X']``.  Maps of types
act block-locally on the middle slot and leave the boundaries alone;
boundary maps reindex the edges; families combine in parallel and in
sequence.  The family over all boundaries determines the type, a single
entangled probe separates unequal maps, and a family transformer that
behaves naturally comes from an actual map of types.  This module evaluates
families, pushes elements around, and audits those claims on randomized
instances.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .causobj import (CausMorphism, CausObject, check_morphism, cup_state,
                      dual_obj, hom_obj, interchange_check, member,
                      mk_all_states, mk_classical, mk_first_order, mk_unit,
                      objects_equal, par_obj, seq_obj, state_of_choi,
                      tensor_obj)
from .cpmaps import ChoiMap, act_on_factors, regroup, structural, transpose_channel
from .errors import MorphismError, ShapeMismatchError
from .sampling import (random_coarse_graining, random_decomp_pair,
                       random_first_order, random_state_morphism, rng_from,
                       sample_member)
from .signalling import (DecompPair, coend_equiv, comb_decompose, party_choi,
                         party_name, recompose)
from .tolerances import TOLS, check_tol, magnitude, within

# contract tolerances of the audited laws, as multiples of the pack's base
FUNCTOR_TOL = TOLS.sub / 10
SQUARE_TOL = TOLS.sub
PROBE_TOL = TOLS.sub
AGREE_TOL = 10 * TOLS.sub
REBEND_TOL = TOLS.sub

# keep randomly probed composites at desk scale
_DIM_CAP = 64


def _rel(delta: np.ndarray, ref: np.ndarray) -> float:
    return magnitude(delta) / max(1.0, magnitude(ref))


def _require_boundary(*objs: CausObject) -> None:
    for o in objs:
        if not o.first_order:
            raise MorphismError(f"boundary type {o.label!r} is not first order",
                                reason="boundary")


# ---------------------------------------------------------------------------
# family evaluation and the action of maps
# ---------------------------------------------------------------------------

@dataclass
class FImage:
    """States of ``[X, A (par) X']`` with the boundary kept alongside."""
    a: CausObject
    x: CausObject
    xp: CausObject
    carrier: CausObject

    def member(self, mat: np.ndarray) -> bool:
        return member(self.carrier, mat)

    def sample(self, rng) -> np.ndarray:
        return sample_member(self.carrier, rng)

    def splits(self):
        """Factor dims of the three blocks in carrier order."""
        return self.x.factor_dims, self.a.factor_dims, self.xp.factor_dims


def F_eval(a: CausObject, x: CausObject, xp: CausObject) -> FImage:
    """Evaluate the family of ``a`` at one boundary pair."""
    _require_boundary(x, xp)
    return FImage(a=a, x=x, xp=xp, carrier=hom_obj(x, par_obj(a, xp)))


def F_mor(f: CausMorphism, x: CausObject, xp: CausObject,
          tau: np.ndarray) -> np.ndarray:
    """Push a family element along a map of types; boundaries stay put."""
    tau = np.asarray(tau)
    dims = (x.dim, f.source.dim, xp.dim)
    n = x.dim * f.source.dim * xp.dim
    if tau.shape != (n, n):
        raise ShapeMismatchError(
            f"element shape {tau.shape} does not match boundary "
            f"({x.dim}, {xp.dim}) around {f.source.label!r}")
    return act_on_factors(tau, dims, 1, 1, f.map)


def identity_morphism(a: CausObject) -> CausMorphism:
    j = structural("identity", a.dim).J
    dims = a.factor_dims or (1,)
    return CausMorphism(map=ChoiMap(dims, dims, j, validate=False),
                        source=a, target=a)


def compose_morphisms(g: CausMorphism, f: CausMorphism) -> CausMorphism:
    """g after f; the middle type must agree."""
    if f.target.dim != g.source.dim:
        raise ShapeMismatchError(
            f"cannot compose {f.target.label!r} into {g.source.label!r}")
    return CausMorphism(map=g.map.compose(f.map, validate=False),
                        source=f.source, target=g.target)


def tensor_morphisms(f: CausMorphism, g: CausMorphism) -> CausMorphism:
    return CausMorphism(map=f.map.tensor(g.map, validate=False),
                        source=tensor_obj(f.source, g.source),
                        target=tensor_obj(f.target, g.target))


# ---------------------------------------------------------------------------
# boundary reindexing and strength
# ---------------------------------------------------------------------------

def profunctor_action(tau: np.ndarray, g: CausMorphism,
                      h: CausMorphism) -> np.ndarray:
    """Reindex the boundaries: feed ``g`` into the input side, ``h`` out of
    the output side.

    ``g : Y -> X`` turns an element at (X, X') into one at (Y, X'), acting
    through the mirror of ``g`` on the entangled input copy; ``h : X' -> Y'``
    acts directly.  Contravariant in ``g``, covariant in ``h``.
    """
    _require_boundary(g.source, g.target, h.source, h.target)
    tau = np.asarray(tau)
    dx, dxp = g.target.dim, h.source.dim
    n = tau.shape[0]
    if tau.shape != (n, n) or n % (dx * dxp):
        raise ShapeMismatchError(
            f"element of shape {tau.shape} does not factor through boundary "
            f"({dx}, {dxp})")
    da = n // (dx * dxp)
    out = act_on_factors(tau, (dx, da, dxp), 0, 1, transpose_channel(g.map))
    return act_on_factors(out, (g.source.dim, da, dxp), 2, 1, h.map)


def strength(img: FImage, tau: np.ndarray, k: CausMorphism) -> np.ndarray:
    """Thread a first-order map alongside an element.

    The result lives over the widened boundary (X (x) Y, X' (x) Y'): the
    original element with the name of ``k`` riding past the middle block.
    """
    _require_boundary(k.source, k.target)
    prod = np.kron(np.asarray(tau), state_of_choi(k.map))
    blocks = [*img.splits(), k.source.factor_dims, k.target.factor_dims]
    # product order (X, A, X', Y, Y') becomes (X, Y, A, X', Y')
    return regroup(prod, blocks, [0, 3, 1, 2, 4])


def lax_tensor(img1: FImage, tau1: np.ndarray,
               img2: FImage, tau2: np.ndarray) -> np.ndarray:
    """Parallel pairing: elements over (X1,X1') and (X2,X2') combine to one
    element over (X1 (x) X2, X1' (x) X2') for the tensor of the middles."""
    prod = np.kron(np.asarray(tau1), np.asarray(tau2))
    blocks = [*img1.splits(), *img2.splits()]
    return regroup(prod, blocks, [0, 3, 1, 4, 2, 5])


# ---------------------------------------------------------------------------
# sequential pairing
# ---------------------------------------------------------------------------

def lax_seq(pair: DecompPair) -> np.ndarray:
    """Rejoin a two-tooth decomposition into one family element.

    The output factor order is (first tooth's inputs, first tooth's
    outputs, second tooth's inputs, second tooth's outputs), with the
    mediating wire contracted away.  That matches the carrier layout for
    every consistent typing of the teeth: input wires beyond the past
    boundary belong to hom-shaped middle slots, and output wires beyond
    the slots form the future boundary.
    """
    return party_name(recompose(pair), len(pair.rho.out_dims) - 1,
                      len(pair.rho.in_dims))


def inverse_seq(tau: np.ndarray, a: CausObject, b: CausObject,
                x: CausObject, xp: CausObject, *,
                a_inputs: int = 0, b_inputs: int = 0) -> DecompPair:
    """Split one element over (X, X') into two teeth joined by a minimal wire.

    ``a_inputs`` (``b_inputs``) says how many leading factors of the first
    (second) middle slot are bent-in input wires; leave at 0 for a
    first-order slot.  Raises NotOneWayError when the element does not
    factor first-then-second.
    """
    fx, fa, fb, fxp = (o.factor_dims for o in (x, a, b, xp))
    if not (0 <= a_inputs <= len(fa) and 0 <= b_inputs <= len(fb)):
        raise ShapeMismatchError("slot input count exceeds its factors")
    fa_in, fa_out = fa[:a_inputs], fa[a_inputs:]
    fb_in, fb_out = fb[:b_inputs], fb[b_inputs:]
    if not fa_out:
        raise ShapeMismatchError("the first middle slot needs an output wire")
    tau = np.asarray(tau)
    total = math.prod(fx + fa + fb + fxp)
    if tau.shape != (total, total):
        raise ShapeMismatchError(
            f"element is {tau.shape}, typing wants ({total}, {total})")
    # tau is already party-interleaved: (X, A_in), A_out, B_in, (B_out, X')
    cm = party_choi(tau, fa_out + fb_out + fxp, (fx + fa_in + fb_in) or (1,),
                    len(fa_out), len(fx) + a_inputs)
    return comb_decompose(cm, n_out_a=len(fa_out), n_in_a=len(fx) + a_inputs)


# ---------------------------------------------------------------------------
# separation and reconstruction
# ---------------------------------------------------------------------------

def faithfulness_probe(f: CausMorphism, g: CausMorphism) -> bool:
    """True iff the two maps differ, decided on one entangled probe.

    The image of the scaled pair state at boundary (unit, all states of the
    source) contains the whole matrix of the map, so agreement there is
    agreement everywhere.
    """
    if f.source.dim != g.source.dim or f.target.dim != g.target.dim:
        return True
    a = f.source
    alpha = a.flat_lambda
    probe = alpha * cup_state(a.dim)
    u, allo = mk_unit(), mk_all_states(a)
    delta = F_mor(f, u, allo, probe) - F_mor(g, u, allo, probe)
    return not within(magnitude(delta) / alpha, PROBE_TOL,
                      max(magnitude(f.map.J), magnitude(g.map.J)))


@dataclass
class BlackBoxTransform:
    """A family transformer supplied from outside; nothing about it is trusted.

    ``fn`` maps (X, X', element over the declared source) to an element over
    the declared target at the same boundary.  Whether it is linear, natural,
    or comes from a map of types is for the probes to decide.
    """
    fn: Callable[[CausObject, CausObject, np.ndarray], np.ndarray]
    source: CausObject
    target: CausObject
    label: str = "blackbox"

    def __call__(self, x: CausObject, xp: CausObject,
                 element: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(x, xp, element))


def _transpose_box(a: CausObject, b: CausObject) -> BlackBoxTransform:
    """The partial transpose on the middle slot: linear and natural, not CP."""
    if a.dim != b.dim:
        raise ShapeMismatchError(
            "transpose probe needs equal source and target dims")
    d = a.dim
    swap = np.eye(d * d).reshape(d, d, d * d).transpose(1, 0, 2)
    tr = ChoiMap((d,), (d,), swap.reshape(d * d, d * d), validate=False)
    return BlackBoxTransform(
        fn=lambda x, xp, t: act_on_factors(t, (x.dim, d, xp.dim), 1, 1, tr),
        source=a, target=b, label="transpose")


def transform_of_morphism(f: CausMorphism,
                          label: str | None = None) -> BlackBoxTransform:
    """The transformer an honest map of types induces."""
    return BlackBoxTransform(fn=lambda x, xp, t: F_mor(f, x, xp, t),
                             source=f.source, target=f.target,
                             label=label or "induced")


@dataclass
class ReconstructReport:
    status: str                      # "ok" | "not_natural" | "not_in_image"
    morphism: CausMorphism | None
    residual: float
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _boundary_pair(rng, a_dim: int):
    while True:
        x = random_first_order(rng)
        xp = random_first_order(rng)
        if x.dim * a_dim * xp.dim <= _DIM_CAP:
            return x, xp


def fullness_reconstruct(S: BlackBoxTransform, a: CausObject, b: CausObject,
                         *, rng=None, probes: int = 8,
                         tol: float | None = None) -> ReconstructReport:
    """Pull the map of types out of a family transformer, then audit it.

    One evaluation on the scaled pair state at (unit, all states) pins the
    only possible candidate.  A candidate that is not a map of types means
    the transformer could not have come from one; a candidate that disagrees
    with the transformer at some other boundary means it was not natural,
    and the probe is returned as evidence.
    """
    tol = AGREE_TOL if tol is None else check_tol(tol)
    rng = rng_from(0 if rng is None else rng)
    alpha = a.flat_lambda
    u, allo = mk_unit(), mk_all_states(a)
    got = S(u, allo, alpha * cup_state(a.dim))
    n = b.dim * a.dim
    if got.shape != (n, n):
        raise ShapeMismatchError(
            f"transformer returned shape {got.shape}, expected ({n}, {n})")
    cand = ChoiMap(b.factor_dims or (1,), a.factor_dims or (1,), got / alpha,
                   validate=False)
    try:
        morph = check_morphism(cand, a, b)
    except MorphismError as err:
        return ReconstructReport(status="not_in_image", morphism=None,
                                 residual=float(err.residual),
                                 counterexample={"reason": str(err),
                                                 "kind": err.reason})
    worst = 0.0
    for _ in range(probes):
        x, xp = _boundary_pair(rng, a.dim)
        t = F_eval(a, x, xp).sample(rng)
        want = F_mor(morph, x, xp, t)
        have = S(x, xp, t)
        resid = _rel(have - want, want)
        worst = max(worst, resid)
        if not within(resid, tol):
            return ReconstructReport(
                status="not_natural", morphism=morph, residual=resid,
                counterexample={"x": x.label, "xp": xp.label, "element": t,
                                "expected": want, "got": have})
    return ReconstructReport(status="ok", morphism=morph, residual=worst)


# ---------------------------------------------------------------------------
# rebending: the hom family against maps out of the source
# ---------------------------------------------------------------------------

@dataclass
class StrongClosureReport:
    rank_family: int
    rank_bent: int
    transports_total: int
    transports_failed: int
    roundtrip_residual: float

    @property
    def ok(self) -> bool:
        return (self.rank_family == self.rank_bent
                and self.transports_failed == 0
                and within(self.roundtrip_residual, REBEND_TOL))


def strong_closure_check(a: CausObject, b: CausObject,
                         x: CausObject, xp: CausObject, *,
                         rng=None, n_members: int = 50) -> StrongClosureReport:
    """Audit that rebending identifies the hom family with maps out of ``a``.

    Family side: states of [X, [A,B] (par) X'].  Bent side: states of
    [A, [X, B (par) X']].  The rebend swaps the X and A factor blocks, so
    the check is rank equality, two-way membership transport on samples,
    and an exact round trip.
    """
    rng = rng_from(0 if rng is None else rng)
    _require_boundary(x, xp)
    lhs = F_eval(hom_obj(a, b), x, xp).carrier
    rhs = hom_obj(a, hom_obj(x, par_obj(b, xp)))
    fx, fa = x.factor_dims, a.factor_dims
    rest = b.factor_dims + xp.factor_dims

    def bend(m):
        return regroup(m, [fx, fa, rest], [1, 0, 2])

    def unbend(m):
        return regroup(m, [fa, fx, rest], [1, 0, 2])

    failed = 0
    total = 0
    rr = 0.0
    for _ in range(max(1, n_members // 2)):
        m = sample_member(lhs, rng)
        failed += not member(rhs, bend(m))
        rr = max(rr, _rel(unbend(bend(m)) - m, m))
        m2 = sample_member(rhs, rng)
        failed += not member(lhs, unbend(m2))
        total += 2
    return StrongClosureReport(rank_family=lhs.states.rank(),
                               rank_bent=rhs.states.rank(),
                               transports_total=total,
                               transports_failed=failed,
                               roundtrip_residual=rr)


# ---------------------------------------------------------------------------
# randomized law audit
# ---------------------------------------------------------------------------

_BUDGETS = {"small": 3, "medium": 6, "large": 12}


def _digest(*parts) -> str:
    return hashlib.sha1("|".join(str(p) for p in parts).encode()).hexdigest()[:12]


def law_suite(seed=0, budget="small") -> list[dict]:
    """Randomized audit of the family presentation, one record per trial.

    Records are plain dicts ready for JSON lines: law, seed, instance
    digest, pass, residual, and a counterexample payload on failure.
    ``budget`` is trials per law, or one of "small"/"medium"/"large";
    zero trials gives an empty report.
    """
    if isinstance(budget, str):
        if budget not in _BUDGETS:
            raise ValueError(f"unknown budget {budget!r}")
        trials = _BUDGETS[budget]
    else:
        trials = int(budget)
    records: list[dict] = []
    if trials <= 0:
        return records
    rng = rng_from(seed)

    def rec(law, instance, passed, residual, counterexample=None):
        row = {"law": law, "seed": str(seed),
               "instance": _digest(law, instance),
               "pass": bool(passed), "residual": float(residual)}
        if counterexample is not None and not passed:
            row["counterexample"] = counterexample
        records.append(row)

    u = mk_unit()
    fo2 = mk_first_order(2)
    fo3 = mk_first_order(3)
    chan = hom_obj(fo2, fo2)
    middles = [fo2, fo3, chan, tensor_obj(fo2, fo2), dual_obj(chan)]

    def pick_middle():
        return middles[int(rng.integers(len(middles)))]

    def fo(lo=1, hi=3):
        return mk_first_order(int(rng.integers(lo, hi + 1)))

    # identity action and composition of actions
    for t in range(trials):
        a = pick_middle()
        x, xp = _boundary_pair(rng, a.dim)
        tau = F_eval(a, x, xp).sample(rng)
        out = F_mor(identity_morphism(a), x, xp, tau)
        r = _rel(out - tau, tau)
        rec("functor_identity", (a.label, x.label, xp.label, t),
            within(r, FUNCTOR_TOL), r)

        s0, s1, s2 = fo(2), fo(2), fo(2)
        f = random_state_morphism(rng, s0, s1)
        g = random_state_morphism(rng, s1, s2)
        x2, xp2 = _boundary_pair(rng, s0.dim)
        tau2 = F_eval(s0, x2, xp2).sample(rng)
        lhs = F_mor(compose_morphisms(g, f), x2, xp2, tau2)
        rhs = F_mor(g, x2, xp2, F_mor(f, x2, xp2, tau2))
        r = _rel(lhs - rhs, lhs)
        rec("functor_compose", (s0.label, s1.label, s2.label, t),
            within(r, FUNCTOR_TOL), r)

    # boundary reindexing commutes with the middle action
    for t in range(trials):
        a = pick_middle()
        while True:
            ds = [int(rng.integers(1, 4)) for _ in range(4)]
            if a.dim * max(ds[0], ds[1]) * max(ds[2], ds[3]) <= _DIM_CAP:
                break
        y, x = mk_first_order(ds[0]), mk_first_order(ds[1])
        xp, yp = mk_first_order(ds[2]), mk_first_order(ds[3])
        g = random_state_morphism(rng, y, x)
        h = random_state_morphism(rng, xp, yp)
        f = random_coarse_graining(rng, a, mk_all_states(a))
        tau = F_eval(a, x, xp).sample(rng)
        lhs = F_mor(f, y, yp, profunctor_action(tau, g, h))
        rhs = profunctor_action(F_mor(f, x, xp, tau), g, h)
        r = _rel(lhs - rhs, lhs)
        rec("naturality_square", (a.label, x.label, y.label, t),
            within(r, SQUARE_TOL), r)

    # threading a side wire commutes with the middle action
    for t in range(trials):
        a = pick_middle()
        while True:
            ds = [int(rng.integers(1, 3)) for _ in range(4)]
            if a.dim * ds[0] * ds[1] * ds[2] * ds[3] <= _DIM_CAP:
                break
        x, xp = mk_first_order(ds[0]), mk_first_order(ds[1])
        k = random_state_morphism(rng, mk_first_order(ds[2]),
                                  mk_first_order(ds[3]))
        f = random_coarse_graining(rng, a, mk_all_states(a))
        img_a = F_eval(a, x, xp)
        img_b = F_eval(f.target, x, xp)
        tau = img_a.sample(rng)
        wide_x = tensor_obj(x, k.source)
        wide_xp = tensor_obj(xp, k.target)
        lhs = strength(img_b, F_mor(f, x, xp, tau), k)
        rhs = F_mor(f, wide_x, wide_xp, strength(img_a, tau, k))
        r = _rel(lhs - rhs, lhs)
        rec("strength_square", (a.label, x.label, k.source.label, t),
            within(r, SQUARE_TOL), r)

    # parallel pairing: membership, naturality in both slots, unit laws
    for t in range(trials):
        a, b = fo(2), fo(2)
        x1, x1p = fo(1, 2), fo(1, 2)
        x2, x2p = fo(1, 2), fo(1, 2)
        img1, img2 = F_eval(a, x1, x1p), F_eval(b, x2, x2p)
        t1, t2 = img1.sample(rng), img2.sample(rng)
        prod = lax_tensor(img1, t1, img2, t2)
        tgt = F_eval(tensor_obj(a, b), tensor_obj(x1, x2),
                     tensor_obj(x1p, x2p))
        ok = tgt.member(prod)
        rec("lax_tensor_member",
            (a.label, b.label, x1.label, x2.label, t), ok, 0.0 if ok else 1.0,
            None if ok else {"a": a.label, "b": b.label})

        f = random_state_morphism(rng, a, fo(2))
        g = random_state_morphism(rng, b, fo(2))
        img1b = F_eval(f.target, x1, x1p)
        img2b = F_eval(g.target, x2, x2p)
        lhs = lax_tensor(img1b, F_mor(f, x1, x1p, t1),
                         img2b, F_mor(g, x2, x2p, t2))
        rhs = F_mor(tensor_morphisms(f, g), tgt.x, tgt.xp, prod)
        r = _rel(lhs - rhs, lhs)
        rec("lax_tensor_natural", (a.label, b.label, t), within(r, SQUARE_TOL), r)

        unit_img = F_eval(u, u, u)
        one = np.array([[1.0]])
        right = lax_tensor(img1, t1, unit_img, one)
        left = lax_tensor(unit_img, one, img1, t1)
        r = max(_rel(right - t1, t1), _rel(left - t1, t1))
        rec("lax_tensor_unit", (a.label, x1.label, t), r == 0.0, r)

    # sequential pairing round trip, landing inside the one-way family
    seqcc = seq_obj(chan, chan)
    seq_img = F_eval(seqcc, u, u)
    for t in range(trials):
        d = int(rng.integers(2, 4))
        pair = random_decomp_pair(rng, d=2, z=d)
        tau = lax_seq(pair)
        inside = seq_img.member(tau)
        back = inverse_seq(tau, chan, chan, u, u, a_inputs=1, b_inputs=1)
        tau2 = lax_seq(back)
        r = _rel(tau2 - tau, tau)
        same = coend_equiv(back, pair)
        rec("seq_roundtrip", (2, d, t), inside and within(r, AGREE_TOL) and same, r,
            None if inside and same else {"member": inside,
                                          "z_original": pair.z_dim,
                                          "z_back": back.z_dim})

    # products of one-way pairs, parties regrouped, stay one-way
    seqff = seq_obj(fo2, fo2)
    for t in range(trials):
        party = fo2 if t % 2 == 0 else chan
        src = seqff if t % 2 == 0 else seqcc
        sa = sample_member(src, rng)
        sc = sample_member(src, rng)
        ok = interchange_check(sa, party, party, sc, party, party)
        rec("interchange", (party.label, t), ok, 0.0 if ok else 1.0)

    # distinct types have distinguishable families at (unit, all states)
    pool = middles + [mk_classical(2), seqcc]
    for t in range(trials):
        i, j = rng.choice(len(pool), size=2, replace=False)
        a, b = pool[int(i)], pool[int(j)]
        if objects_equal(a, b):
            continue
        if a.dim != b.dim:
            rec("injectivity", (a.label, b.label, t), True, 0.0)
            continue
        sa = par_obj(a, mk_all_states(a)).states
        sb = par_obj(b, mk_all_states(b)).states
        ok = not sa.equals(sb)
        rec("injectivity", (a.label, b.label, t), ok, 0.0 if ok else 1.0,
            None if ok else {"a": a.label, "b": b.label})

    # unit cells and the first-order collapse
    for t in range(trials):
        a = pick_middle()
        cells = [objects_equal(seq_obj(u, u), u),
                 objects_equal(tensor_obj(a, u), a),
                 objects_equal(seq_obj(a, u), a),
                 objects_equal(seq_obj(u, a), a),
                 objects_equal(par_obj(a, u), a)]
        fa, fb = fo(1, 2), fo(1, 2)
        cells.append(objects_equal(tensor_obj(fa, fb), seq_obj(fa, fb)))
        cells.append(objects_equal(seq_obj(fa, fb), par_obj(fa, fb)))
        ok = all(cells)
        rec("unit_cells", (a.label, fa.label, fb.label, t), ok,
            0.0 if ok else 1.0,
            None if ok else {"cells": [bool(c) for c in cells]})

    # one probe separates maps; equal maps are not separated
    for t in range(trials):
        a, b = fo(2), fo(2)
        f = random_state_morphism(rng, a, b)
        g = random_state_morphism(rng, a, b)
        while float(np.linalg.norm(f.map.J - g.map.J)) <= 1e3 * TOLS.sub:
            g = random_state_morphism(rng, a, b)
        ok = faithfulness_probe(f, g) and not faithfulness_probe(f, f)
        rec("faithfulness", (a.label, b.label, t), ok, 0.0 if ok else 1.0)

    # honest transformers reconstruct; a non-CP impostor is flagged
    for t in range(trials):
        a, b = fo(2), fo(2)
        h = random_state_morphism(rng, a, b)
        rep = fullness_reconstruct(transform_of_morphism(h), a, b,
                                   rng=rng, probes=3)
        r = rep.residual
        ok = rep.ok and within(_rel(rep.morphism.map.J - h.map.J, h.map.J), AGREE_TOL)
        rec("fullness_roundtrip", (a.label, b.label, t), ok, r)

        rep2 = fullness_reconstruct(_transpose_box(a, a), a, a, rng=rng, probes=1)
        rec("fullness_rejects_noncp", (a.label, t),
            rep2.status == "not_in_image", rep2.residual)

    return records
