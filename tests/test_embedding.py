"""Boundary-indexed state families: evaluation, actions, pairings, audits."""

import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import caustyk
from caustyk.causobj import (CausMorphism, cup_state, hom_obj, mk_all_states,
                             mk_first_order, mk_unit, objects_equal, par_obj,
                             seq_obj, tensor_obj)
from caustyk.cpmaps import ChoiMap, partial_trace, regroup
from caustyk.errors import MorphismError, NotOneWayError, ShapeMismatchError
from caustyk.embedding import (AGREE_TOL, BlackBoxTransform, F_eval, F_mor,
                               compose_morphisms, faithfulness_probe,
                               fullness_reconstruct, identity_morphism,
                               inverse_seq, law_suite, lax_seq, lax_tensor,
                               profunctor_action, strength,
                               strong_closure_check, tensor_morphisms,
                               transform_of_morphism)
from caustyk.sampling import (pad_pair, random_channel_supermap,
                              random_coarse_graining, random_comb_relaxation,
                              random_cptp, random_decomp_pair, random_density,
                              random_state_morphism, random_unitary, rng_from,
                              rotate_pair)
from caustyk.signalling import DecompPair, coend_equiv, comb_decompose, party_choi

# direction rank of the channel family probed between qubit boundaries,
# computed once from the affine machinery and pinned
CHANNEL_FAMILY_RANK = 240
# both sides of the big rebending instance
BIG_REBEND_RANK = 4044

FO2 = mk_first_order(2)
FO3 = mk_first_order(3)
UNIT = mk_unit()
CHAN = hom_obj(FO2, FO2)


@pytest.fixture
def rng():
    return rng_from(17_2026)


class TestFamilyEval:
    def test_unit_middle_gives_endo_hom(self):
        img = F_eval(UNIT, FO2, FO2)
        assert objects_equal(img.carrier, hom_obj(FO2, FO2))

    def test_unit_boundary_gives_object_back(self):
        img = F_eval(FO2, UNIT, UNIT)
        assert objects_equal(img.carrier, FO2)

    def test_channel_family_rank_regression(self):
        img = F_eval(CHAN, FO2, FO2)
        assert img.carrier.states.rank() == CHANNEL_FAMILY_RANK

    def test_rejects_higher_order_boundary(self):
        with pytest.raises(MorphismError):
            F_eval(FO2, CHAN, FO2)
        with pytest.raises(MorphismError):
            F_eval(FO2, FO2, CHAN)

    def test_sampled_elements_are_members(self, rng):
        img = F_eval(CHAN, FO2, UNIT)
        for _ in range(3):
            assert img.member(img.sample(rng))


class TestMiddleAction:
    def test_identity_fixes_elements(self, rng):
        img = F_eval(CHAN, FO2, FO2)
        tau = img.sample(rng)
        out = F_mor(identity_morphism(CHAN), FO2, FO2, tau)
        assert np.allclose(out, tau)

    def test_discard_gives_marginal(self, rng):
        img = F_eval(FO2, FO2, FO2)
        tau = img.sample(rng)
        disc = CausMorphism(map=ChoiMap((1,), (2,), np.eye(2), validate=False),
                            source=FO2, target=UNIT)
        out = F_mor(disc, FO2, FO2, tau)
        want = partial_trace(tau, (2, 2, 2), [0, 2])
        assert np.allclose(out, want)

    def test_unitary_conjugation_matches_kron(self, rng):
        u = random_unitary(rng, 2)
        ext = np.kron(u, np.eye(2))
        f = CausMorphism(
            map=ChoiMap((2,), (2,), ext @ cup_state(2) @ ext.conj().T,
                        validate=False),
            source=FO2, target=FO2)
        img = F_eval(FO2, FO3, FO2)
        tau = img.sample(rng)
        out = F_mor(f, FO3, FO2, tau)
        big = np.kron(np.kron(np.eye(3), u), np.eye(2))
        assert np.allclose(out, big @ tau @ big.conj().T, atol=1e-10)

    def test_composition_on_samples(self, rng):
        f = random_state_morphism(rng, FO2, FO3)
        g = random_coarse_graining(rng, FO3, FO2)
        img = F_eval(FO2, FO2, FO2)
        tau = img.sample(rng)
        lhs = F_mor(compose_morphisms(g, f), FO2, FO2, tau)
        rhs = F_mor(g, FO2, FO2, F_mor(f, FO2, FO2, tau))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))

    def test_lands_in_target_family(self, rng):
        f = random_channel_supermap(rng, CHAN, hom_obj(FO2, FO3))
        img = F_eval(CHAN, FO2, UNIT)
        tau = img.sample(rng)
        out = F_mor(f, FO2, UNIT, tau)
        assert F_eval(f.target, FO2, UNIT).member(out)

    def test_shape_mismatch_raises(self, rng):
        f = random_state_morphism(rng, FO2, FO2)
        with pytest.raises(ShapeMismatchError):
            F_mor(f, FO2, FO2, np.eye(3))


class TestBoundaryAction:
    def test_identity_boundaries_fix_element(self, rng):
        img = F_eval(FO2, FO2, FO3)
        tau = img.sample(rng)
        out = profunctor_action(tau, identity_morphism(FO2),
                                identity_morphism(FO3))
        assert np.allclose(out, tau)

    def test_prep_and_discard_contract(self, rng):
        img = F_eval(FO2, FO2, FO3)
        tau = img.sample(rng)
        rho = random_density(rng, 2)
        prep = CausMorphism(map=ChoiMap((2,), (1,), rho, validate=False),
                            source=UNIT, target=FO2)
        disc = CausMorphism(map=ChoiMap((1,), (3,), np.eye(3), validate=False),
                            source=FO3, target=UNIT)
        out = profunctor_action(tau, prep, disc)
        # the stored input copy pairs with rho entrywise, no conjugate
        sliced = np.einsum('sb,satbvq->atvq', rho,
                           tau.reshape(2, 2, 3, 2, 2, 3))
        want = np.einsum('atvt->av', sliced)
        assert np.allclose(out, want, atol=1e-10)

    def test_contravariant_in_first_slot(self, rng):
        img = F_eval(FO2, FO3, FO2)
        tau = img.sample(rng)
        g1 = random_state_morphism(rng, FO2, FO3)
        g2 = random_state_morphism(rng, FO3, FO2)
        hid = identity_morphism(FO2)
        one = profunctor_action(profunctor_action(tau, g2, hid), g1, hid)
        g21 = compose_morphisms(g2, g1)
        two = profunctor_action(tau, g21, hid)
        assert np.allclose(one, two, atol=1e-10)

    def test_covariant_in_second_slot(self, rng):
        img = F_eval(FO2, FO2, FO2)
        tau = img.sample(rng)
        h1 = random_state_morphism(rng, FO2, FO3)
        h2 = random_state_morphism(rng, FO3, FO2)
        gid = identity_morphism(FO2)
        one = profunctor_action(profunctor_action(tau, gid, h1), gid, h2)
        two = profunctor_action(tau, gid, compose_morphisms(h2, h1))
        assert np.allclose(one, two, atol=1e-10)

    def test_reindexed_element_is_member(self, rng):
        img = F_eval(CHAN, FO2, FO2)
        tau = img.sample(rng)
        g = random_state_morphism(rng, FO3, FO2)
        h = random_state_morphism(rng, FO2, FO3)
        out = profunctor_action(tau, g, h)
        assert F_eval(CHAN, FO3, FO3).member(out)

    def test_strength_with_identity_is_member(self, rng):
        img = F_eval(CHAN, FO2, UNIT)
        tau = img.sample(rng)
        out = strength(img, tau, identity_morphism(FO2))
        wide = F_eval(CHAN, tensor_obj(FO2, FO2), tensor_obj(UNIT, FO2))
        assert wide.member(out)

    def test_strength_square_commutes(self, rng):
        f = random_coarse_graining(rng, CHAN, mk_all_states(CHAN))
        k = random_state_morphism(rng, FO2, FO2)
        img_a = F_eval(CHAN, FO2, UNIT)
        img_b = F_eval(f.target, FO2, UNIT)
        tau = img_a.sample(rng)
        lhs = strength(img_b, F_mor(f, FO2, UNIT, tau), k)
        rhs = F_mor(f, tensor_obj(FO2, FO2), tensor_obj(UNIT, FO2),
                    strength(img_a, tau, k))
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(lhs))


class TestBlockLayouts:
    """Product inputs pin the factor order each structure map produces."""

    def test_lax_tensor_interleaves_boundaries(self, rng):
        x1, a1, p1, x2, a2, p2 = (rng.standard_normal((d, d)) for d in (2, 3, 2, 2, 2, 3))
        img1 = F_eval(FO3, FO2, FO2)
        img2 = F_eval(FO2, FO2, FO3)
        got = lax_tensor(img1, reduce(np.kron, (x1, a1, p1)),
                         img2, reduce(np.kron, (x2, a2, p2)))
        want = reduce(np.kron, (x1, x2, a1, a2, p1, p2))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_strength_threads_side_wire(self, rng):
        mx, ma, mp, my, myp = (rng.standard_normal((d, d)) for d in (2, 3, 2, 2, 3))
        img = F_eval(FO3, FO2, FO2)
        k = CausMorphism(map=ChoiMap((3,), (2,), np.kron(myp, my), validate=False),
                         source=FO2, target=FO3)
        got = strength(img, reduce(np.kron, (mx, ma, mp)), k)
        np.testing.assert_allclose(got, reduce(np.kron, (mx, my, ma, mp, myp)), atol=1e-12)

    def test_lax_seq_orders_teeth(self, rng):
        ai, ao, bi, bo = (rng.standard_normal((d, d)) for d in (2, 3, 3, 2))
        rho = ChoiMap((3, 1), (2,), np.kron(ao, ai), validate=False)
        sigma = ChoiMap((2,), (1, 3), np.kron(bo, bi), validate=False)
        got = lax_seq(DecompPair(rho=rho, sigma=sigma, z_dim=1))
        np.testing.assert_allclose(got, reduce(np.kron, (ai, ao, bi, bo)), atol=1e-12)

    def test_comb_relaxation_mixes_two_party_local_maps(self, rng):
        # each term acts on party A's slots apart from party B's, so the
        # operator Schmidt rank across the party cut is at most two
        for _ in range(5):
            h = random_comb_relaxation(rng, seq_obj(CHAN, CHAN), par_obj(CHAN, CHAN))
            j = regroup(h.map.J, [(2, 2)] * 4, [0, 2, 1, 3])
            cut = j.reshape(16, 16, 16, 16).transpose(0, 2, 1, 3).reshape(256, 256)
            sv = np.linalg.svd(cut, compute_uv=False)
            assert sv[2] <= 1e-12 * sv[0]


class TestLaxTensor:
    def test_identity_channel_names_combine(self):
        img = F_eval(UNIT, FO2, FO2)
        tau = cup_state(2)
        assert img.member(tau)
        prod = lax_tensor(img, tau, img, tau)
        wide = F_eval(UNIT, tensor_obj(FO2, FO2), tensor_obj(FO2, FO2))
        assert wide.member(prod)

    def test_random_members_combine(self, rng):
        img1 = F_eval(FO2, FO2, UNIT)
        img2 = F_eval(FO3, UNIT, FO2)
        t1, t2 = img1.sample(rng), img2.sample(rng)
        prod = lax_tensor(img1, t1, img2, t2)
        wide = F_eval(tensor_obj(FO2, FO3), FO2, FO2)
        assert wide.member(prod)

    def test_unit_laws_exact(self, rng):
        img = F_eval(FO2, FO2, FO3)
        tau = img.sample(rng)
        unit_img = F_eval(UNIT, UNIT, UNIT)
        one = np.array([[1.0]])
        assert np.array_equal(lax_tensor(img, tau, unit_img, one), tau)
        assert np.array_equal(lax_tensor(unit_img, one, img, tau), tau)

    def test_natural_in_both_slots(self, rng):
        img1 = F_eval(FO2, FO2, UNIT)
        img2 = F_eval(FO2, UNIT, FO2)
        t1, t2 = img1.sample(rng), img2.sample(rng)
        f = random_state_morphism(rng, FO2, FO3)
        g = random_state_morphism(rng, FO2, FO2)
        lhs = lax_tensor(F_eval(FO3, FO2, UNIT), F_mor(f, FO2, UNIT, t1),
                         F_eval(FO2, UNIT, FO2), F_mor(g, UNIT, FO2, t2))
        prod = lax_tensor(img1, t1, img2, t2)
        rhs = F_mor(tensor_morphisms(f, g), tensor_obj(FO2, UNIT),
                    tensor_obj(UNIT, FO2), prod)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestSeqPairing:
    def test_wire_comb_element_and_roundtrip(self):
        # two plain wires, in layout (a_in, a_out, b_in, b_out)
        name = np.kron(cup_state(2), cup_state(2))
        comb = party_choi(name, (2, 2), (2, 2), 1, 1)
        pair = comb_decompose(comb, 1, 1)
        assert pair.z_dim == 1
        tau = lax_seq(pair)
        # factor order equals the stored wire order, so nothing moves
        assert np.allclose(tau, name, atol=1e-9)
        back = inverse_seq(tau, CHAN, CHAN, UNIT, UNIT,
                           a_inputs=1, b_inputs=1)
        assert back.z_dim == 1
        assert np.allclose(lax_seq(back), tau, atol=1e-8)

    def test_product_pair_roundtrip(self, rng):
        c1 = random_cptp(rng, 2, 2)
        c2 = random_cptp(rng, 2, 2)
        comb = ChoiMap((2, 2), (2, 2),
                       c1.tensor(c2, validate=False).J, validate=False)
        pair = comb_decompose(comb, 1, 1)
        tau = lax_seq(pair)
        back = inverse_seq(tau, CHAN, CHAN, UNIT, UNIT,
                           a_inputs=1, b_inputs=1)
        assert np.allclose(lax_seq(back), tau, atol=1e-8)

    def test_random_pairs_roundtrip(self, rng):
        for _ in range(6):
            pair = random_decomp_pair(rng, d=2, z=2)
            tau = lax_seq(pair)
            back = inverse_seq(tau, CHAN, CHAN, UNIT, UNIT,
                               a_inputs=1, b_inputs=1)
            scale = max(1.0, float(np.linalg.norm(tau)))
            assert np.linalg.norm(lax_seq(back) - tau) <= 1e-8 * scale
            assert coend_equiv(back, pair)

    def test_distinct_decompositions_share_class(self, rng):
        p1 = random_decomp_pair(rng, d=2, z=2)
        p2 = pad_pair(rotate_pair(p1, rng), rng, extra=2)
        back = inverse_seq(lax_seq(p1), CHAN, CHAN, UNIT, UNIT,
                           a_inputs=1, b_inputs=1)
        assert coend_equiv(back, p1)
        assert coend_equiv(back, p2)

    def test_element_membership_both_typings(self, rng):
        pair = random_decomp_pair(rng, d=2, z=2)
        tau = lax_seq(pair)
        # fully bent: both teeth read as channel slots over trivial boundary
        assert F_eval(seq_obj(CHAN, CHAN), UNIT, UNIT).member(tau)
        # half bent: the first tooth's input wire is the past boundary
        assert F_eval(seq_obj(FO2, CHAN), FO2, UNIT).member(tau)

    def test_typed_split_matches_untyped(self, rng):
        pair = random_decomp_pair(rng, d=2, z=2)
        tau = lax_seq(pair)
        b1 = inverse_seq(tau, CHAN, CHAN, UNIT, UNIT,
                         a_inputs=1, b_inputs=1)
        b2 = inverse_seq(tau, FO2, CHAN, FO2, UNIT, b_inputs=1)
        assert b1.z_dim == b2.z_dim
        assert coend_equiv(b1, b2)

    def test_rejects_back_to_front_element(self):
        d = 2
        psi = np.zeros(16)
        for i in range(d):
            for k in range(d):
                psi[((i * d + k) * d + k) * d + i] = 1.0
        tau = np.outer(psi, psi)   # second output copies first input
        with pytest.raises(NotOneWayError):
            inverse_seq(tau, CHAN, CHAN, UNIT, UNIT,
                        a_inputs=1, b_inputs=1)

    def test_outputless_first_slot_rejected(self):
        with pytest.raises(ShapeMismatchError):
            inverse_seq(np.eye(4), UNIT, FO2, FO2, UNIT)

    def test_wrong_size_typing_rejected(self):
        with pytest.raises(ShapeMismatchError):
            inverse_seq(np.eye(8), CHAN, CHAN, UNIT, UNIT,
                        a_inputs=1, b_inputs=1)


class TestFaithfulness:
    def test_equal_maps_not_separated(self, rng):
        f = random_state_morphism(rng, FO2, FO3)
        assert not faithfulness_probe(f, f)

    def test_identity_vs_bit_flip(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        ext = np.kron(x, np.eye(2))
        g = CausMorphism(
            map=ChoiMap((2,), (2,), ext @ cup_state(2) @ ext.T,
                        validate=False),
            source=FO2, target=FO2)
        assert faithfulness_probe(identity_morphism(FO2), g)

    def test_tiny_difference_below_tolerance(self, rng):
        f = random_state_morphism(rng, FO2, FO2)
        bump = np.diag([1e-12, -1e-12, 0, 0])
        g = CausMorphism(map=ChoiMap((2,), (2,), f.map.J + bump, validate=False),
                         source=FO2, target=FO2)
        assert not faithfulness_probe(f, g)

    def test_random_pairs_separated(self, rng):
        for _ in range(20):
            f = random_state_morphism(rng, FO2, FO2)
            g = random_state_morphism(rng, FO2, FO2)
            if np.linalg.norm(f.map.J - g.map.J) <= 1e-6:
                continue
            assert faithfulness_probe(f, g)

    def test_supermaps_separated(self, rng):
        f = random_channel_supermap(rng, CHAN, CHAN)
        g = random_channel_supermap(rng, CHAN, CHAN)
        assert faithfulness_probe(f, g) == (
            np.linalg.norm(f.map.J - g.map.J) > 1e-9)


class TestFullness:
    def test_identity_recovered(self, rng):
        f = identity_morphism(FO2)
        rep = fullness_reconstruct(transform_of_morphism(f), FO2, FO2, rng=rng)
        assert rep.ok
        assert np.allclose(rep.morphism.map.J, f.map.J, atol=1e-9)

    def test_depolarizing_recovered(self, rng):
        j = 0.7 * cup_state(2) + 0.3 * np.eye(4) / 2.0
        h = CausMorphism(map=ChoiMap((2,), (2,), j), source=FO2, target=FO2)
        rep = fullness_reconstruct(transform_of_morphism(h), FO2, FO2, rng=rng)
        assert rep.ok and rep.residual <= AGREE_TOL
        assert np.linalg.norm(rep.morphism.map.J - j) <= 1e-8

    @pytest.mark.parametrize("shape", ["fo", "supermap", "hom_to_pair", "comb"])
    def test_shape_families_roundtrip(self, rng, shape):
        if shape == "fo":
            h = random_state_morphism(rng, FO2, FO3)
        elif shape == "supermap":
            h = random_channel_supermap(rng, CHAN, hom_obj(FO2, FO3))
        elif shape == "hom_to_pair":
            h = random_coarse_graining(rng, CHAN, tensor_obj(FO2, FO2))
        else:
            h = random_comb_relaxation(rng, seq_obj(CHAN, CHAN),
                                       par_obj(CHAN, CHAN))
        rep = fullness_reconstruct(transform_of_morphism(h), h.source,
                                   h.target, rng=rng, probes=4)
        assert rep.ok
        scale = max(1.0, float(np.linalg.norm(h.map.J)))
        assert np.linalg.norm(rep.morphism.map.J - h.map.J) <= 1e-8 * scale

    def test_transpose_not_in_image(self, rng):
        d = 2
        sw = np.zeros((4, 4))
        for i in range(d):
            for j in range(d):
                sw[i * d + j, j * d + i] = 1.0
        tr = ChoiMap((2,), (2,), sw, validate=False)
        from caustyk.cpmaps import act_on_factors
        S = BlackBoxTransform(
            fn=lambda x, xp, m: act_on_factors(m, (x.dim, 2, xp.dim), 1, 1, tr),
            source=FO2, target=FO2, label="transpose")
        rep = fullness_reconstruct(S, FO2, FO2, rng=rng)
        assert rep.status == "not_in_image"
        assert rep.counterexample["kind"] == "cp"

    def test_boundary_skew_not_natural(self, rng):
        h = random_state_morphism(rng, FO2, FO2)

        def skew(x, xp, t):
            out = F_mor(h, x, xp, t)
            if x.dim > 1:
                img = F_eval(FO2, x, xp)
                flat = img.carrier.flat_lambda * np.eye(out.shape[0])
                out = 0.9 * out + 0.1 * flat
            return out

        S = BlackBoxTransform(fn=skew, source=FO2, target=FO2, label="skew")
        rep = fullness_reconstruct(S, FO2, FO2, rng=rng, probes=12)
        assert rep.status == "not_natural"
        assert rep.counterexample is not None
        assert rep.residual > AGREE_TOL


class TestStrongClosure:
    def test_all_unit_one_point(self, rng):
        r = strong_closure_check(UNIT, UNIT, UNIT, UNIT, rng=rng, n_members=4)
        assert r.ok and r.rank_family == 0 and r.rank_bent == 0

    def test_channel_plane(self, rng):
        r = strong_closure_check(FO2, FO2, UNIT, UNIT, rng=rng, n_members=12)
        assert r.ok
        assert r.rank_family == 12 and r.rank_bent == 12

    def test_big_instance_regression(self, rng):
        r = strong_closure_check(CHAN, tensor_obj(FO2, FO2), FO2, FO2,
                                 rng=rng, n_members=10)
        assert r.ok
        assert r.rank_family == BIG_REBEND_RANK
        assert r.rank_bent == BIG_REBEND_RANK
        assert r.roundtrip_residual == 0.0


class TestLawSuite:
    def test_small_budget_all_pass(self):
        recs = law_suite(seed=2026, budget="small")
        assert recs
        failures = [r for r in recs if not r["pass"]]
        assert failures == []
        laws = {r["law"] for r in recs}
        assert {"functor_identity", "functor_compose", "naturality_square",
                "strength_square", "lax_tensor_member", "lax_tensor_natural",
                "lax_tensor_unit", "seq_roundtrip", "interchange",
                "injectivity", "unit_cells", "faithfulness",
                "fullness_roundtrip", "fullness_rejects_noncp"} <= laws

    def test_records_are_json_lines(self):
        recs = law_suite(seed=3, budget=1)
        for r in recs:
            line = json.dumps(r)
            assert set(json.loads(line)) >= {"law", "seed", "instance",
                                             "pass", "residual"}

    def test_empty_budget(self):
        assert law_suite(seed=0, budget=0) == []

    def test_unknown_budget_rejected(self):
        with pytest.raises(ValueError):
            law_suite(seed=0, budget="huge")


def test_law_tolerances_follow_the_pack():
    # the audited laws' contract tolerances are multiples of TOLS.sub, so
    # CAUSTYK_TOL rescales them with the rest of the pack
    defaults = {"FUNCTOR_TOL": 1e-10, "SQUARE_TOL": 1e-9, "PROBE_TOL": 1e-9,
                "AGREE_TOL": 1e-8, "REBEND_TOL": 1e-9}
    names = list(defaults)
    assert {n: getattr(caustyk.embedding, n) for n in names} == defaults
    src = str(Path(caustyk.__file__).resolve().parent.parent)
    script = ("import json\nimport caustyk.embedding as emb\n"
              f"print(json.dumps({{n: getattr(emb, n) for n in {names!r}}}))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, CAUSTYK_TOL="1e-7", PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for name, value in json.loads(proc.stdout).items():
        assert value == pytest.approx(100 * defaults[name], rel=1e-12), name
