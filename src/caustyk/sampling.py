"""Randomized generators for states, channels, types, and comb fixtures."""

from __future__ import annotations

import numpy as np

from .causobj import CausMorphism, CausObject, mk_first_order, tensor_obj
from .cpmaps import ChoiMap, choi_of_kraus, regroup, structural, transpose_channel
from .errors import InconsistencyError
from .hermspace import coords_to_herm, herm_to_coords, min_eig, psd_test
from .signalling import DecompPair, med_precompose, recompose
from .tolerances import TOLS


def rng_from(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_density(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_isometry(rng, d_in: int, d_out: int) -> np.ndarray:
    if d_out < d_in:
        raise InconsistencyError("an isometry needs d_out >= d_in")
    g = rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
    q, _ = np.linalg.qr(g)
    return q


def random_cptp(rng, d_in: int, d_out: int) -> ChoiMap:
    env = max(d_out, -(-d_in // d_out))   # isometry needs d_out*env >= d_in
    v = random_isometry(rng, d_in, d_out * env)
    kraus = v.reshape(d_out, env, d_in).transpose(1, 0, 2)
    return choi_of_kraus(list(kraus), d_in, d_out)


# -- members of a type ---------------------------------------------------------

def sample_member(obj: CausObject, rng) -> np.ndarray:
    """A state of the type: project random noise to the hull, pull toward flat.

    The pull keeps the point on the hull (both endpoints are) and the
    random shrink keeps samples spread instead of piling on the boundary.
    """
    d = obj.dim
    flat = obj.flat_lambda * np.eye(d)
    eps = obj.flat_lambda * 1e-2
    for _ in range(50):
        raw = random_density(rng, d)
        x = obj.states.project_vec(herm_to_coords(raw))
        mat = coords_to_herm(x, d)
        mu = min_eig(mat)
        t = 0.0 if mu >= eps else (eps - mu) / (obj.flat_lambda - mu)
        if not (0.0 <= t < 1.0):
            continue
        cand = (1.0 - t) * mat + t * flat
        s = rng.uniform(0.15, 0.95)
        out = flat + s * (cand - flat)
        if psd_test(out, TOLS.psd, "unit")[1]:
            return out
    raise InconsistencyError(f"could not sample a state of {obj.label!r}")


# -- random types ---------------------------------------------------------------

def random_first_order(rng) -> CausObject:
    """First-order type on one or two factors of dimension 1 to 3."""
    n = int(rng.integers(1, 3))
    dims = [int(rng.integers(1, 4)) for _ in range(n)]
    obj = mk_first_order(dims[0])
    for d in dims[1:]:
        obj = tensor_obj(obj, mk_first_order(d))
    return obj


# -- two-party channel fixtures -------------------------------------------------

def random_oneway_channel(rng, d: int = 2, z: int = 2) -> ChoiMap:
    """Two-party channel built from two teeth; only the first can signal on.

    Factor layout: out (a_out, b_out), in (a_in, b_in).
    """
    return recompose(random_decomp_pair(rng, d, z))


def random_twoway_channel(rng, d: int = 2) -> ChoiMap:
    """Swap-based channel: each party's input reaches the other's output."""
    u1, u2, u3, u4 = (random_unitary(rng, d) for _ in range(4))
    # unitary parts are CPTP by construction: only the final mix is validated
    pre = choi_of_kraus([u1], d, d).tensor(choi_of_kraus([u2], d, d), validate=False)
    post = choi_of_kraus([u3], d, d).tensor(choi_of_kraus([u4], d, d), validate=False)
    sw = post.compose(structural("swap", d, d), validate=False).compose(pre, validate=False)
    mixed = rng.uniform(0.4, 1.0)
    other = random_oneway_channel(rng, d)
    j = mixed * sw.J + (1.0 - mixed) * other.J
    return ChoiMap((d, d), (d, d), j)


# -- equivalent-pair surgery -----------------------------------------------------

def random_decomp_pair(rng, d: int = 2, z: int = 2):
    """A random one-way decomposition with qubit party legs."""
    r = random_cptp(rng, d, d * z)
    rho = ChoiMap((d, z), (d,), r.J)
    s = random_cptp(rng, z * d, d)
    sigma = ChoiMap((d,), (z, d), s.J)
    return DecompPair(rho=rho, sigma=sigma, z_dim=z)


def pad_pair(pair, rng, extra: int = 2):
    """Equivalent decomposition with a larger mediator.

    The first tooth embeds isometrically; the second inverts on the support
    and mixes off it, so the composite is untouched exactly.
    """
    z = pair.z_dim
    znew = z + extra
    w = random_isometry(rng, z, znew)
    embed = choi_of_kraus([w], z, znew)
    rho2 = pair.rho.act_on_out(len(pair.rho.out_dims) - 1, 1, embed)
    q = np.eye(znew) - w @ w.conj().T
    back = choi_of_kraus([w.conj().T], znew, z)
    # off the embedded support: collapse to the maximally mixed mediator
    reprep = ChoiMap((z,), (znew,), back.J + np.kron(np.eye(z) / z, q.conj()))
    sigma2 = med_precompose(pair.sigma, reprep)
    return DecompPair(rho=rho2, sigma=sigma2, z_dim=znew)


def rotate_pair(pair, rng):
    """Equivalent decomposition differing by a mediator unitary."""
    z = pair.z_dim
    u = random_unitary(rng, z)
    fwd = choi_of_kraus([u], z, z)
    bwd = choi_of_kraus([u.conj().T], z, z)
    rho2 = pair.rho.act_on_out(len(pair.rho.out_dims) - 1, 1, fwd)
    sigma2 = med_precompose(pair.sigma, bwd)
    return DecompPair(rho=rho2, sigma=sigma2, z_dim=z)


# -- morphism generators ---------------------------------------------------------

def _state_trace(a: CausObject) -> float:
    # every type here carries states of a fixed trace: the flat state says which
    return a.flat_lambda * a.dim


def random_state_morphism(rng, a: CausObject, b: CausObject):
    """A random map between first-order types; any channel qualifies."""
    cm = random_cptp(rng, a.dim, b.dim)
    return CausMorphism(map=ChoiMap(b.factor_dims or (1,), a.factor_dims or (1,),
                                    cm.J, validate=False),
                        source=a, target=b)


def random_channel_supermap(rng, src: CausObject, tgt: CausObject):
    """A random map between channel types built from input and output side maps.

    ``src`` and ``tgt`` must be hom types over single first-order factors,
    factor layout (input copy, output).  A convex mixture of two pre/post
    sandwiches stays inside the valid supermaps.
    """
    (ai, ao), (bi, bo) = src.factor_dims, tgt.factor_dims
    w = rng.dirichlet(np.ones(2))
    j = np.zeros((tgt.dim * src.dim, tgt.dim * src.dim), dtype=complex)
    for k in range(2):
        pre = random_cptp(rng, bi, ai)          # feeds the target input wire
        post = random_cptp(rng, ao, bo)
        j = j + w[k] * transpose_channel(pre).tensor(post, validate=False).J
    return CausMorphism(map=ChoiMap(tgt.factor_dims, src.factor_dims, j, validate=False),
                        source=src, target=tgt)


def random_coarse_graining(rng, src: CausObject, tgt: CausObject):
    """A random map into a first-order target: any channel, trace-rescaled."""
    if not tgt.first_order:
        raise InconsistencyError(
            f"coarse graining needs a first-order target, got {tgt.label!r}")
    scale = _state_trace(tgt) / _state_trace(src)
    cm = random_cptp(rng, src.dim, tgt.dim)
    return CausMorphism(map=ChoiMap(tgt.factor_dims or (1,), src.factor_dims or (1,),
                                    cm.J * scale, validate=False),
                        source=src, target=tgt)


def random_comb_relaxation(rng, src: CausObject, tgt: CausObject):
    """A random map from a one-way pair type into its unconstrained relative.

    ``src`` = first-then-second over two channel factors, ``tgt`` the same
    parties with the ordering constraint dropped; factor layout
    (first in, first out, second in, second out).  Party-local sandwiches
    keep combs combs; when the party shapes match, the draw is mixed with a
    role-swapped version, which swaps the parties on both sides and so is
    again party-local: the mixture stays inside the one-way set.
    """
    ai, ao, bi, bo = src.factor_dims

    def local(di, do):
        return transpose_channel(random_cptp(rng, di, di)).tensor(
            random_cptp(rng, do, do), validate=False)

    j = local(ai, ao).tensor(local(bi, bo), validate=False).J
    if (ai, ao) == (bi, bo):
        other = local(ai, ao).tensor(local(bi, bo), validate=False).J
        # swap the two parties on both the output and the input side
        other = regroup(other, [(ai, ao)] * 4, [1, 0, 3, 2])
        p = float(rng.uniform(0.2, 0.8))
        j = p * j + (1.0 - p) * other
    return CausMorphism(map=ChoiMap(tgt.factor_dims, src.factor_dims, j, validate=False),
                        source=src, target=tgt)
