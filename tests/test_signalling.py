"""Signalling verdicts, comb decomposition, and equivalence certificates."""

import dataclasses

import numpy as np
import pytest

from caustyk.causobj import (cup_state, hom_obj, member, mk_first_order,
                             par_obj, seq_member, seq_obj, state_of_choi,
                             tensor_obj)
from caustyk.cpmaps import ChoiMap, regroup, stinespring, structural
from caustyk.errors import (InconsistencyError, NotOneWayError,
                            ShapeMismatchError)
from caustyk.sampling import (pad_pair, random_cptp, random_decomp_pair,
                              random_density, random_oneway_channel,
                              random_twoway_channel, rng_from, rotate_pair,
                              sample_member)
from caustyk.signalling import (DecompPair, SignalVerdict, coend_equiv,
                                comb_decompose, equiv_certificate,
                                med_precompose, nonsignalling_test,
                                party_choi, party_name, recompose)


@pytest.fixture
def rng():
    return rng_from(42_2026)


def steers_first_party(cm: ChoiMap, rng, n_out_a=1, n_in_a=1,
                       trials=8, tol=1e-7) -> bool:
    """Brute force: does the early marginal move when the late input changes?"""
    marg = cm.marginal(list(range(n_out_a)))
    d_ai = 1
    for d in cm.in_dims[:n_in_a]:
        d_ai *= d
    d_bi = cm.d_in // d_ai
    worst = 0.0
    for _ in range(trials):
        x = random_density(rng, d_ai)
        y1 = random_density(rng, d_bi)
        y2 = random_density(rng, d_bi)
        out = marg.apply(np.kron(x, y1)) - marg.apply(np.kron(x, y2))
        worst = max(worst, float(np.linalg.norm(out)))
    return worst > tol


def two_qubit_unitary_choi(u: np.ndarray) -> ChoiMap:
    big = np.kron(u, np.eye(4))
    return ChoiMap((2, 2), (2, 2), big @ cup_state(4) @ big.conj().T)


def feedforward_choi() -> ChoiMap:
    # measure A in the computational basis, reprepare the outcome at A's
    # output, and flip B's wire conditioned on it
    j = np.zeros((16, 16), dtype=complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    for z in (0, 1):
        ez = np.zeros((2, 2))
        ez[z, z] = 1.0
        ja = np.kron(ez, ez)
        ext = np.kron(np.linalg.matrix_power(flip, z), np.eye(2))
        jb = ext @ cup_state(2) @ ext.conj().T
        term = np.kron(ja, jb).reshape((2,) * 8)
        # kron row order (a_out, a_in, b_out, b_in) -> (a_out, b_out, a_in, b_in)
        j += term.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    return ChoiMap((2, 2), (2, 2), j)


def flip_parties(cm: ChoiMap) -> ChoiMap:
    """Exchange the two parties of a qubit-leg two-party channel."""
    (o1, o2), (i1, i2) = cm.out_dims, cm.in_dims
    j = regroup(cm.J, [(o1,), (o2,), (i1,), (i2,)], [1, 0, 3, 2])
    return ChoiMap((o2, o1), (i2, i1), j)


class TestPartyBridges:
    def test_round_trip(self, rng):
        cm = random_cptp(rng, 6, 6)
        cm = ChoiMap((2, 3), (3, 2), cm.J)
        mat = party_name(cm, 1, 1)
        back = party_choi(mat, (2, 3), (3, 2), 1, 1)
        assert np.linalg.norm(back.J - cm.J) < 1e-12

    def test_product_name_factorizes(self, rng):
        f = random_cptp(rng, 2, 2)
        g = random_cptp(rng, 2, 2)
        prod = f.tensor(g)
        mat = party_name(prod, 1, 1)
        na = party_name(f, 1, 1)
        nb = party_name(g, 1, 1)
        assert np.linalg.norm(mat - np.kron(na, nb)) < 1e-12


class TestVerdicts:
    def test_product_blocked(self, rng):
        prod = random_cptp(rng, 2, 2).tensor(random_cptp(rng, 2, 2))
        assert nonsignalling_test(prod, 1, 1) is SignalVerdict.BOTH_BLOCKED

    def test_oneway_never_backwards(self, rng):
        saw_forward = False
        for _ in range(12):
            tau = random_oneway_channel(rng)
            v = nonsignalling_test(tau, 1, 1)
            assert v in (SignalVerdict.A_TO_B_ONLY, SignalVerdict.BOTH_BLOCKED)
            saw_forward = saw_forward or v is SignalVerdict.A_TO_B_ONLY
        assert saw_forward

    def test_reversed_oneway(self, rng):
        tau = random_oneway_channel(rng)
        while nonsignalling_test(tau, 1, 1) is not SignalVerdict.A_TO_B_ONLY:
            tau = random_oneway_channel(rng)
        assert nonsignalling_test(flip_parties(tau), 1, 1) \
            is SignalVerdict.B_TO_A_ONLY

    def test_swap_and_twoway(self, rng):
        sw = structural("swap", 2, 2)
        sw = ChoiMap((2, 2), (2, 2), sw.J)
        assert nonsignalling_test(sw, 1, 1) is SignalVerdict.TWO_WAY
        for _ in range(6):
            assert nonsignalling_test(random_twoway_channel(rng), 1, 1) \
                is SignalVerdict.TWO_WAY

    def test_controlled_not_kicks_back(self, rng):
        # the target leaks into the control through the conjugate basis,
        # and averaging the target input hides the forward influence, so
        # both directions only show up against structured probes
        cm = two_qubit_unitary_choi(np.eye(4)[:, [0, 1, 3, 2]])
        assert nonsignalling_test(cm, 1, 1) is SignalVerdict.TWO_WAY
        assert steers_first_party(cm, rng)

    def test_feedforward_is_one_way(self, rng):
        cm = feedforward_choi()
        assert cm.is_cptp()
        assert nonsignalling_test(cm, 1, 1) is SignalVerdict.A_TO_B_ONLY
        assert not steers_first_party(cm, rng)
        assert nonsignalling_test(flip_parties(cm), 1, 1) \
            is SignalVerdict.B_TO_A_ONLY

    def test_non_cptp_rejected(self, rng):
        j = np.eye(16) * 0.1
        with pytest.raises(InconsistencyError):
            nonsignalling_test(ChoiMap((2, 2), (2, 2), j), 1, 1)

    def test_agrees_with_brute_force(self, rng):
        for _ in range(10):
            cm = random_cptp(rng, 4, 4)
            cm = ChoiMap((2, 2), (2, 2), cm.J)
            v = nonsignalling_test(cm, 1, 1)
            back = v in (SignalVerdict.B_TO_A_ONLY, SignalVerdict.TWO_WAY)
            assert back == steers_first_party(cm, rng)


def dense_frame_teeth(tau: ChoiMap):
    """Teeth at the (1, 1) cut by the dense frame construction, as an oracle.

    The early marginal fed the maximally mixed late input is dilated to ``V``;
    the second tooth conjugates the channel by ``V (x) I`` built explicitly,
    then pre-composes the inverse env marginal as the dense ``I (x) r_inv^T``.
    """
    d_ao, d_ai = tau.out_dims[0], tau.in_dims[0]
    d_w, d_bi = tau.d_out // d_ao, tau.d_in // d_ai
    marg = tau.marginal([0]).J.reshape(d_ao, d_ai, d_bi, d_ao, d_ai, d_bi)
    j_early = np.einsum('olrqmr->olqm', marg).reshape(d_ao * d_ai, -1) / d_bi
    iso, env = stinespring(ChoiMap((d_ao,), (d_ai,), j_early, validate=False))
    v4 = iso.v.reshape(d_ao, env, d_ai)
    v3 = np.einsum('aei,bc->aebic', v4, np.eye(d_bi)).reshape(
        d_ao, env * d_bi, d_ai * d_bi)
    j8 = tau.J.reshape(d_ao, d_w, d_ai * d_bi, d_ao, d_w, d_ai * d_bi)
    c = np.einsum('afx,awxcgy,chy->wfgh', v3.conj(), j8, v3).reshape(
        d_w * env * d_bi, -1)
    vals, vecs = np.linalg.eigh(np.einsum('afx,agx->fg', v3.conj(), v3).T)
    cut = max(float(vals[-1]), 1.0) * 1e-12
    inv_vals = np.where(vals > cut, 1.0 / np.maximum(vals, cut), 0.0)
    lift = np.kron(np.eye(d_w), ((vecs * inv_vals) @ vecs.conj().T).T)
    return env, iso.as_choi().J, lift @ c @ lift.conj().T


def teeth_typed(pair: DecompPair, a, b, x, xp) -> bool:
    """Is the first tooth in [X, A par Z] and the second in [Z (x) X', B]?"""
    z = mk_first_order(pair.z_dim)
    return (member(hom_obj(x, par_obj(a, z)), state_of_choi(pair.rho))
            and member(hom_obj(tensor_obj(z, xp), b), state_of_choi(pair.sigma)))


def padded_recompose(pair: DecompPair) -> ChoiMap:
    """Recomposition by identity wires, as an oracle: the first tooth is
    tensored with one identity wire per late input, then the second tooth
    acts on the mediator and those wires."""
    wide = pair.rho
    for d in pair.sigma.in_dims[1:]:
        wide = wide.tensor(structural("identity", d), validate=False)
    return wide.act_on_out(len(pair.rho.out_dims) - 1, len(pair.sigma.in_dims),
                           pair.sigma)


def random_cp(rng, out_dims, in_dims) -> ChoiMap:
    d = int(np.prod(out_dims)) * int(np.prod(in_dims))
    g = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    return ChoiMap(out_dims, in_dims, g @ g.conj().T, validate=False)


class TestRecompose:
    @pytest.mark.parametrize("z", [1, 2, 3, 4])
    @pytest.mark.parametrize("legs", [
        ((1,), (1,), (1,), (1,)),
        ((2,), (2,), (2,), (2,)),
        ((3,), (3,), (3,), (3,)),
        ((), (3,), (2,), (2,)),            # no early output
        ((2, 3), (1,), (3,), ()),          # multi-factor early output, no late input
        ((1,), (2, 2), (1, 3), (2, 1)),    # trivial factors on every leg
        ((3,), (2,), (2,), (3, 2)),        # multi-factor late input
    ])
    def test_matches_identity_padded_construction(self, z, legs):
        a_out, a_in, b_out, b_in = legs
        rng = rng_from(100 * z + len(a_out) + 7 * len(b_in))
        for _ in range(3):
            pair = DecompPair(rho=random_cp(rng, a_out + (z,), a_in),
                              sigma=random_cp(rng, b_out, (z,) + b_in), z_dim=z)
            got, want = recompose(pair), padded_recompose(pair)
            assert (got.out_dims, got.in_dims) == (want.out_dims, want.in_dims)
            assert (got.out_dims, got.in_dims) == (a_out + b_out, a_in + b_in)
            scale = max(1.0, float(np.max(np.abs(want.J))))
            assert np.max(np.abs(got.J - want.J)) < 1e-14 * scale

    def test_mediator_mismatch_raises(self, rng):
        pair = random_decomp_pair(rng, 2, 2)
        with pytest.raises(ShapeMismatchError):
            recompose(dataclasses.replace(pair, z_dim=3))


class TestDecompose:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("z", [1, 2, 3, 4])
    def test_teeth_match_dense_frame_oracle(self, d, z):
        rng = rng_from(10 * d + z)
        for _ in range(3):
            tau = random_oneway_channel(rng, d, z)
            pair = comb_decompose(tau, 1, 1)
            env, rho, sigma = dense_frame_teeth(tau)
            assert pair.z_dim == env
            assert np.max(np.abs(pair.rho.J - rho)) < 1e-12
            assert np.max(np.abs(pair.sigma.J - sigma)) < 1e-12

    def test_identity_comb(self):
        idc = party_choi(np.kron(cup_state(2), cup_state(2)), (2, 2), (2, 2), 1, 1)
        pair = comb_decompose(idc, 1, 1)
        assert pair.z_dim <= 4
        assert pair.z_dim == 1    # both teeth are plain wires
        assert np.linalg.norm(recompose(pair).J - idc.J) < 1e-8
        assert pair.rho.is_cptp() and pair.sigma.is_cptp()

    def test_pure_product_state(self, rng):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho_a = np.outer(v, v.conj()) / np.linalg.norm(v) ** 2
        rho_b = random_density(rng, 2)
        tau = ChoiMap((2,), (1,), rho_a).tensor(ChoiMap((2,), (1,), rho_b))
        pair = comb_decompose(tau, 1, 1)
        assert pair.z_dim == 1
        assert np.linalg.norm(pair.rho.J - rho_a) < 1e-9
        assert np.linalg.norm(pair.sigma.J - rho_b) < 1e-9

    def test_mixed_product_state_mediator_rank(self, rng):
        rho_a = random_density(rng, 2)       # full rank generically
        rho_b = random_density(rng, 2)
        tau = ChoiMap((2,), (1,), rho_a).tensor(ChoiMap((2,), (1,), rho_b))
        pair = comb_decompose(tau, 1, 1)
        assert pair.z_dim == 2               # purification of the A marginal
        assert np.linalg.norm(recompose(pair).J - tau.J) < 1e-8

    def test_oneway_round_trips(self, rng):
        for _ in range(25):
            tau = random_oneway_channel(rng)
            pair = comb_decompose(tau, 1, 1)
            resid = np.linalg.norm(recompose(pair).J - tau.J)
            assert resid < 1e-8 * max(1.0, np.linalg.norm(tau.J))
            assert pair.rho.is_cptp() and pair.sigma.is_cptp()

    def test_wider_mediator_round_trip(self, rng):
        tau = random_oneway_channel(rng, d=2, z=3)
        pair = comb_decompose(tau, 1, 1)
        assert np.linalg.norm(recompose(pair).J - tau.J) < 1e-8

    def test_typing_of_output(self, rng):
        fo2 = mk_first_order(2)
        pair = comb_decompose(random_oneway_channel(rng), 1, 1)
        assert teeth_typed(pair, fo2, fo2, fo2, fo2)

    def test_twoway_rejected(self, rng):
        for _ in range(10):
            with pytest.raises(NotOneWayError) as err:
                comb_decompose(random_twoway_channel(rng), 1, 1)
            assert err.value.residual > 1e-6

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_overflowing_twoway_rejected(self, rng, scale):
        # the steering residual is relative: scaling the channel leaves it finite
        tau = random_twoway_channel(rng)
        big = ChoiMap(tau.out_dims, tau.in_dims, scale * tau.J, validate=False)
        with np.errstate(over="ignore"), pytest.raises(NotOneWayError) as err:
            comb_decompose(big, 1, 1)
        assert 1e-6 < err.value.residual < 10

    def test_swap_rejected(self):
        sw = structural("swap", 2, 2)
        with pytest.raises(NotOneWayError):
            comb_decompose(ChoiMap((2, 2), (2, 2), sw.J), 1, 1)

    def test_bad_cut(self, rng):
        tau = random_oneway_channel(rng)
        with pytest.raises(ShapeMismatchError):
            comb_decompose(tau, 3, 1)

    def test_matches_membership_test(self, rng):
        """Decomposability must agree with the linearized membership check."""
        chan = hom_obj(mk_first_order(2), mk_first_order(2))
        seq = seq_obj(chan, chan)
        par = par_obj(chan, chan)
        agree = 0
        for _ in range(12):
            mat = sample_member(seq, rng)
            cm = party_choi(mat, (2, 2), (2, 2), 1, 1)
            pair = comb_decompose(cm, 1, 1)    # must not raise
            assert np.linalg.norm(recompose(pair).J - cm.J) < 1e-6
            agree += 1
        rejected = 0
        for _ in range(30):
            mat = sample_member(par, rng)
            if seq_member(mat, chan, chan):
                continue
            with pytest.raises(NotOneWayError):
                comb_decompose(party_choi(mat, (2, 2), (2, 2), 1, 1), 1, 1)
            rejected += 1
        assert agree == 12 and rejected >= 5


class TestCoendEquiv:
    def test_pad_and_rotate_equivalent(self, rng):
        for _ in range(6):
            pair = random_decomp_pair(rng)
            assert coend_equiv(pair, pad_pair(pair, rng))
            assert coend_equiv(pair, rotate_pair(pair, rng))
            assert coend_equiv(pair, pad_pair(rotate_pair(pair, rng), rng))

    def test_surgery_is_exact(self, rng):
        pair = random_decomp_pair(rng)
        tau = recompose(pair)
        assert np.linalg.norm(recompose(pad_pair(pair, rng)).J - tau.J) < 1e-12
        assert np.linalg.norm(recompose(rotate_pair(pair, rng)).J - tau.J) < 1e-12

    def test_med_precompose_widens_mediator(self, rng):
        z = 2
        sigma = ChoiMap((2,), (z, 2, 3), random_cptp(rng, z * 6, 2).J)
        ch = random_cptp(rng, z + 2, z)
        got = med_precompose(sigma, ch)
        assert (got.out_dims, got.in_dims) == ((2,), (z + 2, 2, 3))
        # reference: the channel padded with identity wires, then sigma
        pad = ch.tensor(structural("identity", 2)).tensor(structural("identity", 3))
        for _ in range(4):
            x, y, w = (random_density(rng, d) for d in (z + 2, 2, 3))
            rho = np.kron(np.kron(x, y), w)
            np.testing.assert_allclose(got.apply(rho), sigma.apply(pad.apply(rho)),
                                       atol=1e-12)

    def test_different_channels(self, rng):
        p1 = random_decomp_pair(rng)
        p2 = random_decomp_pair(rng)
        assert not coend_equiv(p1, p2)

    def test_shape_mismatch_is_false(self, rng):
        p1 = random_decomp_pair(rng, z=2)
        p2 = comb_decompose(random_oneway_channel(rng, d=2, z=3), 1, 1)
        assert not coend_equiv(p1, p2)

    def test_surgery_preserves_typing(self, rng):
        fo2 = mk_first_order(2)
        pair = random_decomp_pair(rng)
        assert teeth_typed(pad_pair(pair, rng), fo2, fo2, fo2, fo2)
        assert teeth_typed(rotate_pair(pair, rng), fo2, fo2, fo2, fo2)


def check_certificate(cert, p1, p2, tol=1e-7):
    assert cert.ok, cert.reason
    tau = recompose(p1)
    scale = max(1.0, float(np.linalg.norm(tau.J)))
    for step in cert.steps:
        assert step.channel.is_cptp(1e-7)
        assert step.direction in ("left", "right")
        assert step.residual <= tol * 10
        drift = np.linalg.norm(recompose(step.pair_after).J - tau.J) / scale
        assert drift <= tol
    if cert.steps:
        last = cert.steps[-1].pair_after
        assert np.linalg.norm(recompose(last).J - recompose(p2).J) / scale <= tol


class TestCertificates:
    def test_identical_pairs(self, rng):
        pair = random_decomp_pair(rng)
        cert = equiv_certificate(pair, pair)
        assert cert.ok and cert.steps == []

    def test_rotations(self, rng):
        pair = comb_decompose(random_oneway_channel(rng), 1, 1)
        other = rotate_pair(pair, rng)
        check_certificate(equiv_certificate(pair, other), pair, other)

    def test_paddings(self, rng):
        pair = comb_decompose(random_oneway_channel(rng), 1, 1)
        other = pad_pair(pair, rng)
        check_certificate(equiv_certificate(pair, other), pair, other)

    def test_mixed_teeth_chain(self, rng):
        # teeth that are not minimal dilations force purification steps
        for _ in range(4):
            pair = random_decomp_pair(rng)
            other = pad_pair(rotate_pair(pair, rng), rng)
            cert = equiv_certificate(pair, other)
            check_certificate(cert, pair, other)
            assert any(s.kind == "isometry" for s in cert.steps)

    def test_independent_decompositions(self, rng):
        pair = random_decomp_pair(rng)
        redone = comb_decompose(recompose(rotate_pair(pair, rng)), 1, 1)
        check_certificate(equiv_certificate(pair, redone), pair, redone)

    def test_mismatch_has_no_chain(self, rng):
        p1 = random_decomp_pair(rng)
        p2 = random_decomp_pair(rng)
        cert = equiv_certificate(p1, p2)
        assert not cert.ok and cert.steps == []
        assert "different channels" in cert.reason

    def test_non_hermitian_tooth_is_unavailable(self, rng):
        bad = random_decomp_pair(rng)
        j = bad.rho.J.copy()
        j[0, 1] += 0.3
        bad = dataclasses.replace(bad, rho=ChoiMap(bad.rho.out_dims, bad.rho.in_dims,
                                                   j, validate=False))
        other = rotate_pair(bad, rng)
        assert coend_equiv(bad, other)
        cert = equiv_certificate(bad, other)
        assert not cert.ok and cert.steps == []
        assert cert.reason.startswith("certificate unavailable")
        assert "Hermiticity" in cert.reason


class TestSamplingFixtures:
    def test_oneway_channel_is_cptp_semicausal(self, rng):
        for _ in range(6):
            tau = random_oneway_channel(rng)
            assert tau.is_cptp()
            assert not steers_first_party(tau, rng)

    def test_twoway_channel_signals_backwards(self, rng):
        for _ in range(6):
            tau = random_twoway_channel(rng)
            assert tau.is_cptp()
            assert steers_first_party(tau, rng)

    def test_identity_comb_in_seq_type(self):
        chan = hom_obj(mk_first_order(2), mk_first_order(2))
        seq = seq_obj(chan, chan)
        assert member(seq, np.kron(cup_state(2), cup_state(2)))

    def test_decomp_pair_recomposes_to_member(self, rng):
        chan = hom_obj(mk_first_order(2), mk_first_order(2))
        seq = seq_obj(chan, chan)
        tau = recompose(random_decomp_pair(rng))
        assert member(seq, party_name(tau, 1, 1))
