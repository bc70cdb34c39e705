"""Type-constructor tests.

The regression ranks asserted here were computed by the sampling oracles in
this file (operational channel constructions, no type machinery) before the
constructors existed, then frozen.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from caustyk.causobj import (CausMorphism, CausObject, check_morphism, choi_of_state, cup_state,
                             dual_obj, hom_obj, interchange_check, matricize,
                             member, membership_report, mk_all_states,
                             mk_classical, mk_first_order, mk_unit,
                             objects_equal, par_member, par_obj, seq_member,
                             seq_obj, state_of_choi, tensor_obj)
from caustyk.cpmaps import ChoiMap, choi_of_kraus, permute_factors, structural
from caustyk.errors import (FlatnessError, HermiticityError, InvalidDimensionError,
                            MorphismError, ShapeMismatchError)
from caustyk import causobj, hermspace
from caustyk.hermspace import (AffineSubspace, check_hermitian, coords_to_herm,
                               herm_to_coords, min_eig, psd_check)
from caustyk.sampling import (random_channel_supermap, random_comb_relaxation,
                              sample_member)
from caustyk.tolerances import TOLS, magnitude


def random_cptp(rng, din, dout, env=None):
    env = env or dout
    g = rng.normal(size=(dout * env, din)) + 1j * rng.normal(size=(dout * env, din))
    q, _ = np.linalg.qr(g)
    kraus = q.reshape(dout, env, din).transpose(1, 0, 2)
    return choi_of_kraus(list(kraus), din, dout)


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def party_name(cm, dims_out, dims_in):
    """Two-party channel matrix reordered to (a_in, a_out, b_in, b_out)."""
    dims = tuple(dims_out) + tuple(dims_in)
    return permute_factors(cm.J, dims, [2, 0, 3, 1])


def random_oneway(rng, z=2):
    """Compose two random teeth; signalling can only run first -> second."""
    r = random_cptp(rng, 2, 2 * z)
    rho = ChoiMap((2, z), (2,), r.J)
    s = random_cptp(rng, z * 2, 2)
    sig = ChoiMap((2,), (z, 2), s.J)
    wide = rho.tensor(structural("identity", 2))
    comp = wide.act_on_out(1, 2, sig)      # out (a_out, b_out), in (a_in, b_in)
    return party_name(comp, (2, 2), (2, 2))


def random_channel_name(rng):
    cm = random_cptp(rng, 4, 4)
    two_party = ChoiMap((2, 2), (2, 2), cm.J)
    return party_name(two_party, (2, 2), (2, 2))


def affine_rank(rows):
    base = rows[0]
    d = np.asarray(rows[1:], dtype=float) - base
    s = np.linalg.svd(d, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > s[0] * 1e-9))


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture(scope="module")
def chan():
    return hom_obj(mk_first_order(2), mk_first_order(2))


@pytest.fixture(scope="module")
def oneway_names(rng):
    return np.stack([random_oneway(rng) for _ in range(420)])


class TestAtoms:
    def test_first_order_basics(self):
        fo = mk_first_order(3)
        assert fo.dim == 3 and fo.factor_dims == (3,)
        assert fo.first_order
        assert fo.states.rank() == 8
        assert abs(fo.flat_lambda - 1 / 3) < 1e-12

    def test_unit_self_dual(self):
        u = mk_unit()
        assert u.dim == 1 and u.factor_dims == ()
        assert objects_equal(dual_obj(u), u)
        assert abs(u.flat_lambda - 1.0) < 1e-12

    def test_classical_register(self, rng):
        c = mk_classical(3)
        assert c.states.rank() == 2
        assert not c.first_order
        assert member(c, np.diag([0.2, 0.5, 0.3]))
        coherent = np.full((3, 3), 1 / 3)
        assert not member(c, coherent)
        # effects leave off-diagonals free
        assert dual_obj(c).states.rank() == 9 - 1 - 2

    def test_zero_tol_means_zero(self, monkeypatch):
        # member's own Hermiticity gate reads tol=0.0 as zero, as psd_check
        # and contains do, so it rejects a 5e-10 defect before the PSD check
        fo = mk_first_order(2)
        skew = np.array([[0.5, 5e-10j], [0.0, 0.5]])
        assert member(fo, skew)
        monkeypatch.setattr("caustyk.causobj.psd_test",
                            lambda *args: pytest.fail("member's gate let it through"))
        with pytest.raises(HermiticityError):
            member(fo, skew, tol=0.0)

    @pytest.mark.parametrize("make", [
        mk_first_order, lambda d: mk_all_states(mk_first_order(d)), mk_classical],
        ids=["FO", "ANY", "CLA"])
    def test_flat_lambda_is_exactly_one_over_d(self, make):
        assert [make(d).flat_lambda for d in range(1, 17)] == [1 / d for d in range(1, 17)]

    def test_all_states_of_channel_type_is_first_order(self, chan):
        alls = mk_all_states(chan)
        assert alls.factor_dims == (2, 2)
        assert objects_equal(alls, mk_first_order(4))
        assert abs(alls.flat_lambda - 0.25) < 1e-12

    def test_non_flat_hull_rejected(self):
        pt = AffineSubspace.from_point(np.diag([1.0, 0.0]))
        with pytest.raises(FlatnessError):
            CausObject((2,), pt)


class TestChannelPlane:
    def test_rank_matches_sampling_oracle(self, rng, chan):
        names = np.stack([state_of_choi(random_cptp(rng, 2, 2)) for _ in range(40)])
        coords = herm_to_coords(names)
        assert affine_rank(coords) == 12
        assert chan.states.rank() == 12

    def test_identity_name_is_member(self, chan):
        assert member(chan, cup_state(2))

    def test_random_channels_are_members(self, rng, chan):
        for _ in range(20):
            assert member(chan, state_of_choi(random_cptp(rng, 2, 2)))

    def test_scaled_name_is_not(self, rng, chan):
        nm = state_of_choi(random_cptp(rng, 2, 2))
        assert not member(chan, 1.5 * nm)

    def test_dual_rank_frozen(self, rng, chan):
        rows = np.stack([herm_to_coords(np.kron(random_density(rng, 2), np.eye(2)))
                         for _ in range(30)])
        assert affine_rank(rows) == 3
        assert dual_obj(chan).states.rank() == 3
        assert abs(chan.flat_lambda - 0.5) < 1e-12

    def test_flatness_via_scrambling_channel(self, chan):
        scramble = structural("mix", 2).compose(structural("discard", 2))
        nm = state_of_choi(scramble)
        assert np.allclose(nm, np.eye(4) / 2)
        assert member(chan, nm)


class TestComposites:
    def test_tensor_rank_frozen(self, rng, chan):
        pairs = []
        for _ in range(200):
            a = state_of_choi(random_cptp(rng, 2, 2))
            b = state_of_choi(random_cptp(rng, 2, 2))
            pairs.append(herm_to_coords(np.kron(a, b)))
        assert affine_rank(np.stack(pairs)) == 168
        t = tensor_obj(chan, chan)
        assert t.states.rank() == 168
        assert t.factor_dims == (2, 2, 2, 2)

    def test_par_rank_frozen(self, rng, chan):
        names = np.stack([herm_to_coords(random_channel_name(rng))
                          for _ in range(280)])
        assert affine_rank(names) == 240
        p = par_obj(chan, chan)
        assert p.states.rank() == 240

    def test_par_equals_global_channel_plane(self, chan):
        # two qubit-to-qubit parties side by side form a 4-level channel type,
        # after interleaving (in, in, out, out) -> (in, out, in, out)
        p = par_obj(chan, chan)
        glob = hom_obj(mk_first_order(4), mk_first_order(4))

        def interleave(rows):
            mats = coords_to_herm(rows, 16)
            moved = np.stack([permute_factors(m, (2, 2, 2, 2), [0, 2, 1, 3])
                              for m in mats])
            return herm_to_coords(moved)

        moved = AffineSubspace.from_span_coords(
            16, interleave(glob.states.base_vec()[None, :])[0],
            interleave(glob.states.dirs_coords()))
        assert moved.equals(p.states)

    def test_seq_rank_frozen(self, chan, oneway_names):
        coords = herm_to_coords(oneway_names)
        assert affine_rank(coords) == 204
        s = seq_obj(chan, chan)
        assert s.states.rank() == 204

    def test_strict_containment_chain(self, chan):
        t = tensor_obj(chan, chan)
        s = seq_obj(chan, chan)
        p = par_obj(chan, chan)
        assert t.states.is_subset(s.states)
        assert s.states.is_subset(p.states)
        assert t.states.rank() < s.states.rank() < p.states.rank()

    def test_oneway_names_live_in_seq(self, chan, oneway_names):
        s = seq_obj(chan, chan)
        for nm in oneway_names[:25]:
            assert member(s, nm)

    def test_product_names_live_in_tensor(self, rng, chan):
        t = tensor_obj(chan, chan)
        for _ in range(5):
            a = state_of_choi(random_cptp(rng, 2, 2))
            b = state_of_choi(random_cptp(rng, 2, 2))
            assert member(t, np.kron(a, b))

    def test_swap_is_two_way(self, chan):
        s = seq_obj(chan, chan)
        p = par_obj(chan, chan)
        nm = party_name(structural("swap", 2, 2), (2, 2), (2, 2))
        assert member(p, nm)
        assert not member(s, nm)

    def test_generic_channel_not_oneway(self, rng, chan):
        s = seq_obj(chan, chan)
        hits = sum(member(s, random_channel_name(rng)) for _ in range(10))
        assert hits == 0

    def test_first_order_collapse(self):
        x, y = mk_first_order(2), mk_first_order(3)
        t, s, p = tensor_obj(x, y), seq_obj(x, y), par_obj(x, y)
        assert objects_equal(t, s) and objects_equal(s, p)
        assert objects_equal(t, mk_first_order(6))

    def test_seq_with_first_order_right_collapses(self, chan):
        x = mk_first_order(3)
        assert objects_equal(seq_obj(chan, x), par_obj(chan, x))

    def test_seq_with_first_order_left_does_not_collapse(self, chan):
        x = mk_first_order(2)
        s = seq_obj(x, chan)
        p = par_obj(x, chan)
        assert s.states.rank() < p.states.rank()

    def test_seq_slices_implied_by_par(self):
        # a single state on the left: the slice conditions hold on all of par
        a, b = dual_obj(mk_first_order(2)), mk_classical(3)
        assert objects_equal(seq_obj(a, b), par_obj(a, b))
        assert seq_obj(a, b).states.rank() == 8

    def test_unit_laws(self, chan):
        u = mk_unit()
        assert objects_equal(tensor_obj(chan, u), chan)
        assert objects_equal(par_obj(u, chan), chan)
        assert tensor_obj(chan, u).factor_dims == chan.factor_dims

    def test_flat_lambda_multiplicative(self, chan):
        t = tensor_obj(chan, mk_first_order(3))
        assert abs(t.flat_lambda - chan.flat_lambda / 3) < 1e-10
        p = par_obj(chan, chan)
        assert abs(p.flat_lambda - 0.25) < 1e-10

    def test_duality_involution_on_composites(self, chan):
        t = tensor_obj(chan, dual_obj(chan))
        dd = dual_obj(dual_obj(t))
        assert dd is t
        fresh = t.states.dual().dual()
        assert fresh.equals(t.states)

    def test_par_dual_cache_is_the_tensor(self, chan):
        p = par_obj(chan, chan)
        back = dual_obj(p)
        assert back.states.rank() == 15


def product_grid_hull(a, b):
    """Affine hull of every product of the factors' affine points, by SVD."""
    d = a.dim * b.dim
    ma = coords_to_herm(a.states.affine_points(), a.dim)
    mb = coords_to_herm(b.states.affine_points(), b.dim)
    rows = herm_to_coords(np.einsum('kab,lcd->klacbd', ma, mb).reshape(-1, d, d))
    return AffineSubspace.from_span_coords(d, rows[0], rows[1:] - rows[0])


def seq_slice_conditions(a, b):
    """The slice rows of a < b built with full-size Kronecker products."""
    d = a.dim * b.dim
    eff = b.effects
    basis = coords_to_herm(np.eye(a.dim * a.dim), a.dim)
    dirs = coords_to_herm(eff.dirs_coords(), b.dim)
    acons, avals = a.states.cons_rows()
    base = coords_to_herm(eff.base_vec(), b.dim)
    rows = np.concatenate([
        herm_to_coords(np.einsum('kab,lcd->lkacbd', basis, dirs).reshape(-1, d, d)),
        herm_to_coords(np.einsum('kab,cd->kacbd', coords_to_herm(acons, a.dim),
                                 base).reshape(-1, d, d))])
    vals = np.concatenate([np.zeros(rows.shape[0] - avals.size), avals])
    return rows, vals


def random_flat_type(rng, d):
    """A one-factor type whose hull has random complex directions.

    The atoms, and so every type the connectives build from them, have
    hulls closed under transposition; this one is not, so the oracle can
    tell a correct product from one with a factor transposed.
    """
    dirs = []
    for _ in range(int(rng.integers(1, d * d - 1))):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = g + g.conj().T
        dirs.append(h - np.trace(h).real / d * np.eye(d))
    return CausObject((d,), AffineSubspace.from_span(np.eye(d) / d, dirs),
                      label=f"RND({d})")


@pytest.fixture(scope="module")
def type_pairs(random_object):
    """200 seeded pairs of random types, both non-trivial, product dim <= 36."""
    rng = np.random.default_rng(36)
    pairs = []
    while len(pairs) < 200:
        cap = int(rng.integers(4, 37))
        a = random_object(rng, max_dim=min(4, cap // 2))
        if a.dim < 2:
            continue
        b = random_object(rng, max_dim=cap // a.dim)
        if b.dim < 2 or a.dim * b.dim > cap:
            continue
        if rng.uniform() < 0.2:
            a = random_flat_type(rng, a.dim)
        if rng.uniform() < 0.2:
            b = random_flat_type(rng, b.dim)
        pairs.append((a, b))
    return pairs


class TestClosedForms:
    """The closed-form tensor and constraint-form seq against generic hull builds."""

    def test_tensor_equals_product_grid_hull(self, type_pairs):
        for a, b in type_pairs:
            t = tensor_obj(a, b).states
            grid = product_grid_hull(a, b)
            ra, rb = a.states.rank(), b.states.rank()
            assert t.rank() == grid.rank() == ra * rb + ra + rb, (a.label, b.label)
            assert grid.equals(t), (a.label, b.label)

    def test_tensor_directions_orthonormal_to_base(self, type_pairs):
        orth = 1e-10
        for a, b in type_pairs:
            t = tensor_obj(a, b).states
            dirs, base = t.dirs_coords(), t.base_vec()
            gram = dirs @ dirs.T
            assert np.max(np.abs(gram - np.eye(len(gram))), initial=0.0) <= orth
            assert np.max(np.abs(dirs @ base), initial=0.0) <= \
                orth * max(1.0, np.linalg.norm(base))

    def test_tensor_builds_the_smaller_form(self, type_pairs):
        # span form while 2 (ra+1)(rb+1) <= m, else the orthonormal
        # constraint rows a^(x)b^, D*a(x)Herm(B), Ua(x)D*b (or mirrored); the
        # test above holds both sides to the product grid
        sides = Counter()
        for a, b in type_pairs:
            t = tensor_obj(a, b).states
            ra, rb, m = a.states.rank(), b.states.rank(), t.matrix_dim ** 2
            span = 2 * (ra + 1) * (rb + 1) <= m
            assert t.holds_span == span, (a.label, b.label)
            sides[span] += 1
            if not span:
                rows, vals = t.cons_rows()
                assert len(rows) == m - (ra + 1) * (rb + 1) + 1
                gram = rows @ rows.T
                assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-10, (a.label, b.label)
                assert np.count_nonzero(vals) == 1
        assert sides[True] >= 20 and sides[False] >= 20, sides

    def test_seq_equals_par_intersected_with_slices(self, type_pairs):
        cut = 0
        for a, b in type_pairs:
            if b.first_order:
                continue            # seq collapses to par, nothing to slice
            rows, vals = seq_slice_conditions(a, b)
            want = par_obj(a, b).states.intersect_linear(rows, vals)
            got = seq_obj(a, b).states
            assert got.rank() == want.rank(), (a.label, b.label)
            assert want.equals(got), (a.label, b.label)
            cut += 1
        assert cut >= 100

    def test_seq_rank_closed_form(self, type_pairs):
        for a, b in type_pairs:
            if b.first_order:
                continue
            want = a.dim * a.dim * b.states.rank() + a.states.rank()
            assert seq_obj(a, b).states.rank() == want, (a.label, b.label)

    def test_seq_rows_orthonormal(self, type_pairs):
        for a, b in type_pairs:
            if b.first_order:
                continue
            rows, _ = seq_obj(a, b).states.cons_rows()
            gram = rows @ rows.T
            assert np.max(np.abs(gram - np.eye(len(gram))), initial=0.0) <= 1e-10, \
                (a.label, b.label)

    def test_seq_builds_without_a_factorization(self, type_pairs, monkeypatch):
        # outside the collapse branch the two row blocks are the hull as they
        # stand: no par type, no constraint solve, no SVD
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        build = AffineSubspace.from_constraints.__func__
        monkeypatch.setattr(AffineSubspace, "from_constraints",
                            classmethod(counted("from_constraints", build)))
        monkeypatch.setattr("caustyk.causobj.par_obj",
                            counted("par_obj", par_obj))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        for a, b in type_pairs:
            if not b.first_order:
                seq_obj(a, b)
        assert calls == Counter()
        collapsed = [(a, b) for a, b in type_pairs if b.first_order]
        assert collapsed
        for a, b in collapsed:
            seq_obj(a, b)
        assert calls["par_obj"] == len(collapsed)

    @pytest.mark.parametrize("connective,p,q", [(tensor_obj, 2, 4), (seq_obj, 3, 3)])
    def test_no_complement_at_composite_size(self, connective, p, q, monkeypatch):
        # [FO(2),FO(4)]*[FO(2),FO(4)] (dim 64, constraint form) and
        # [FO(3),FO(3)]<[FO(3),FO(3)] (dim 81) complement at factor size only
        sizes = []

        def counted(rows, m):
            sizes.append(m)
            return complement(rows, m)

        complement = hermspace._complement
        monkeypatch.setattr(hermspace, "_complement", counted)
        connective(hom_obj(mk_first_order(p), mk_first_order(q)),
                   hom_obj(mk_first_order(p), mk_first_order(q)))
        assert sizes and max(sizes) <= (p * q) ** 2, sizes

    def test_grid_limit_refuses_before_allocating(self):
        fo = mk_first_order(23)             # 529 x 529 product points > 250,000
        tracemalloc.start()
        try:
            with pytest.raises(InvalidDimensionError):
                tensor_obj(fo, fo)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000


class TestMorphisms:
    def test_identity_checks(self, chan):
        f = structural("identity", 2)
        m = check_morphism(f, mk_first_order(2), mk_first_order(2))
        assert isinstance(m, CausMorphism)
        assert m.source.dim == m.target.dim == 2

    def test_trace_out_is_a_morphism(self):
        f = structural("identity", 2).tensor(structural("discard", 2))
        check_morphism(f, mk_first_order(4), mk_first_order(2))

    def test_transpose_fails_cp(self):
        # Choi of the transpose map is the swap matrix
        j = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for k in range(2):
                j[i * 2 + k, k * 2 + i] = 1.0
        f = ChoiMap((2,), (2,), j, validate=False)
        with pytest.raises(MorphismError) as ei:
            check_morphism(f, mk_first_order(2), mk_first_order(2))
        assert ei.value.reason == "cp"

    def test_doubling_fails_affine(self):
        f = ChoiMap((2,), (2,), 2.0 * structural("identity", 2).J, validate=False)
        with pytest.raises(MorphismError) as ei:
            check_morphism(f, mk_first_order(2), mk_first_order(2))
        assert ei.value.reason == "affine"
        assert ei.value.residual > 1e-3

    def test_non_hermitian_fails_hermiticity(self):
        # the symmetrizing eigen and coordinate maps would hide this defect
        j = structural("identity", 2).J.astype(complex)
        j[0, 3] += 1e-3j
        j[3, 0] += 1e-3j
        f = ChoiMap((2,), (2,), j, validate=False)
        with pytest.raises(MorphismError) as ei:
            check_morphism(f, mk_first_order(2), mk_first_order(2))
        assert ei.value.reason == "hermiticity"
        assert ei.value.residual == pytest.approx(2e-3)

    def test_hermiticity_gate_follows_membership_tol(self):
        # a 4e-10 defect sits under the default 1e-9 cut; a larger tol loosens it
        j = structural("identity", 2).J.astype(complex)
        j[0, 3] += 2e-10j
        j[3, 0] += 2e-10j
        f = ChoiMap((2,), (2,), j, validate=False)
        check_morphism(f, mk_first_order(2), mk_first_order(2))
        with pytest.raises(MorphismError):
            check_morphism(f, mk_first_order(2), mk_first_order(2), tol=1e-10)
        j[0, 3] += 1e-3j
        j[3, 0] += 1e-3j
        g = ChoiMap((2,), (2,), j, validate=False)
        check_morphism(g, mk_first_order(2), mk_first_order(2), tol=1e-2)

    @pytest.mark.parametrize("tol", [None, 1e-6])
    @pytest.mark.parametrize("depth", [0.5, 2.0])
    def test_cp_gate_floor(self, tol, depth):
        # identity channel with -c on |01><01| and +c on |11><11|: trace
        # preserving, Hermitian, min Choi eigenvalue exactly -c
        floor = max(1e-9, tol or 0.0) * 2.0
        c = depth * floor
        j = structural("identity", 2).J.astype(complex)
        j[1, 1] -= c
        j[3, 3] += c
        assert np.linalg.eigvalsh(j)[0] == pytest.approx(-c, rel=1e-6)
        assert max(1e-9, tol or 0.0) * np.linalg.norm(j) == pytest.approx(floor, rel=1e-5)
        f = ChoiMap((2,), (2,), j, validate=False)
        if depth < 1:
            check_morphism(f, mk_first_order(2), mk_first_order(2), tol=tol)
            return
        with pytest.raises(MorphismError) as err:
            check_morphism(f, mk_first_order(2), mk_first_order(2), tol=tol)
        assert err.value.reason == "cp"
        assert err.value.residual == -np.linalg.eigvalsh((j + j.conj().T) / 2)[0]

    def test_cp_gate_skips_spectrum_on_psd_maps(self, monkeypatch):
        # the Cholesky certificate decides CP maps without computing the spectrum
        calls, factor = [], np.linalg.cholesky
        monkeypatch.setattr("caustyk.hermspace.min_eig",
                            lambda m: calls.append("min_eig") or 0.0)
        monkeypatch.setattr("numpy.linalg.cholesky",
                            lambda m: calls.append("cholesky") or factor(m))
        # a rank-one Choi matrix (the identity channel) and a generic channel
        for f in (choi_of_kraus([np.eye(2)], 2, 2),
                  random_cptp(np.random.default_rng(3), 2, 2)):
            check_morphism(f, mk_first_order(2), mk_first_order(2))
        assert calls == ["cholesky", "cholesky"]

    def test_dimension_mismatch(self, chan):
        f = structural("identity", 2)
        with pytest.raises(ShapeMismatchError):
            check_morphism(f, mk_first_order(4), mk_first_order(2))

    def test_overflowing_non_cp_map_fails_cp(self):
        # |J| overflows numpy's norm; the CP floor, scaled by magnitude, stays finite
        f = ChoiMap((2,), (2,), -1e300 * cup_state(2), validate=False)
        with pytest.raises(MorphismError) as err:
            check_morphism(f, mk_first_order(2), mk_first_order(2))
        assert err.value.reason == "cp"
        assert err.value.residual == pytest.approx(2e300)

    @pytest.mark.parametrize("sign, reason", [(-1.0, "cp"), (1.0, "affine")])
    def test_cup_at_the_float_limit(self, sign, reason):
        # |J| = 2e308 is not a float, so the CP gate decides on J / max|J|
        f = ChoiMap((2,), (2,), sign * 1e308 * cup_state(2), validate=False)
        with pytest.raises(MorphismError) as err:
            check_morphism(f, mk_first_order(2), mk_first_order(2))
        assert err.value.reason == reason

    def test_overflowing_state_is_not_a_member(self):
        with np.errstate(over="ignore"):
            assert not member(mk_first_order(2), 1e300 * np.eye(2))

    @pytest.mark.parametrize("case", ["FO(2)->FO(3)", "chan->[FO(2),FO(3)]"])
    def test_pulled_rows_match_apply(self, chan, case, monkeypatch):
        # the rows check_morphism evaluates at the source's affine points are
        # the target's constraint rows pulled back through the map: each reads
        # at a point what its target row reads on ChoiMap.apply of it, d_in !=
        # d_out; off the source hull too, where a row's transpose would show
        rng = np.random.default_rng(31)
        fo2, fo3 = mk_first_order(2), mk_first_order(3)
        if case == "FO(2)->FO(3)":
            a, b, f = fo2, fo3, random_cptp(rng, 2, 3)
        else:
            a, b = chan, hom_obj(fo2, fo3)
            f = structural("identity", 2).tensor(random_cptp(rng, 2, 3))
        seen, pull = [], causobj._pull_back

        def spy(g, rows):
            seen.append((g, rows, pull(g, rows)))
            return seen[-1][2]

        monkeypatch.setattr(causobj, "_pull_back", spy)
        check_morphism(f, a, b)
        ((g, rows, got),) = seen
        cons, _ = b.states.cons_rows()
        assert g is f and rows is cons
        points = a.states.affine_points()
        assert points.shape == (a.states.rank() + 1, a.dim * a.dim)
        points = np.vstack([points, rng.normal(size=(4, a.dim * a.dim))])
        images = herm_to_coords(np.stack([f.apply(p) for p in coords_to_herm(points, a.dim)]))
        assert got.shape == (len(cons), a.dim * a.dim)
        assert np.max(np.abs(points @ got.T - images @ cons.T)) < 1e-12

    def test_channel_type_morphism(self, rng, chan):
        # conjugating a channel name by a local output unitary is a type map
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        post = choi_of_kraus([u], 2, 2)
        f = structural("identity", 2).tensor(post)
        check_morphism(f, chan, chan)


def push_distances(f: ChoiMap, a, b) -> tuple[np.ndarray, np.ndarray]:
    """The push, the reference the pull-back is held to: every affine point
    of ``a`` sent through ``f.apply``; the distance of each image to ``b``'s
    hull, and the norm of each image."""
    mats = coords_to_herm(a.states.affine_points(), a.dim)
    images = herm_to_coords(np.stack([f.apply(m) for m in mats]))
    return b.states.distances(images), magnitude(images, axis=1)


def push_residual(f: ChoiMap, a, b) -> float:
    """The affine residual by the push: each distance over its image's norm."""
    dists, norms = push_distances(f, a, b)
    return float(np.max(dists / np.maximum(1.0, norms)))


class TestPullBackAgainstPush:
    """Seeded maps on either side of the affine threshold get the verdict the
    push oracle gives them, and a rejected one the push's largest distance
    over the norm of the image of the source's flat point."""

    @staticmethod
    def _morphism(rng, case, chan):
        fo2, fo3 = mk_first_order(2), mk_first_order(3)
        if case == "chan->chan":
            return random_channel_supermap(rng, chan, chan)
        if case == "FO(2)->FO(3)":
            return CausMorphism(random_cptp(rng, 2, 3), fo2, fo3)
        if case == "chan->[FO(2),FO(3)]":
            f = structural("identity", 2).tensor(random_cptp(rng, 2, 3))
            return CausMorphism(f, chan, hom_obj(fo2, fo3))
        return random_comb_relaxation(rng, seq_obj(chan, chan), par_obj(chan, chan))

    @pytest.mark.parametrize("case", ["chan->chan", "FO(2)->FO(3)", "chan->[FO(2),FO(3)]",
                                      "seq(chan,chan)->par(chan,chan)"])
    def test_verdicts_match_push_oracle(self, chan, case):
        rng = np.random.default_rng(41)
        for _ in range(3):
            m = self._morphism(rng, case, chan)
            a, b, f = m.source, m.target, m.map
            # a CP map off the target hull; the mixture's residual grows with
            # its weight, so the threshold weight is read off a small one
            kraus = rng.normal(size=(2, b.dim, a.dim)) + 1j * rng.normal(size=(2, b.dim, a.dim))
            g = choi_of_kraus(list(kraus / np.linalg.norm(kraus)), a.dim, b.dim).J

            def mix(w):
                return ChoiMap(f.out_dims, f.in_dims, (1 - w) * f.J + w * g, validate=False)

            unit = push_residual(mix(1e-4), a, b) / 1e-4
            for ratio in (0.5, 2.0):
                h = mix(ratio * TOLS.sub / unit)
                want = push_residual(h, a, b) <= TOLS.sub
                assert want is (ratio < 1)
                try:
                    check_morphism(h, a, b)
                    got = True
                except MorphismError as err:
                    assert err.reason == "affine"
                    flat = np.linalg.norm(h.apply(a.flat_lambda * np.eye(a.dim)))
                    assert err.residual * max(1.0, flat) == pytest.approx(
                        np.max(push_distances(h, a, b)[0]), rel=1e-6)
                    got = False
                assert got is want, (case, ratio)

    @pytest.mark.parametrize("d, scale, form", [(2, 1e308, "eye"), (2, 5e307, "eye"),
                                                (3, 1e307, "eye"), (2, 1e308, "cup")])
    def test_float_limit_matches_push_oracle(self, d, scale, form):
        # Tr_in J overflows for 1e308 I, and the other maps stay just below the
        # limit; the hull residual must still be the push's, not a finite
        # residual over an infinite scale
        J = scale * (np.eye(d * d) if form == "eye" else cup_state(d))
        f = ChoiMap((d,), (d,), J.astype(complex), validate=False)
        fo = mk_first_order(d)
        with np.errstate(over="ignore"):
            want = push_residual(f, fo, fo)
            with pytest.raises(MorphismError) as err:
                check_morphism(f, fo, fo)
        assert want > TOLS.sub
        assert err.value.reason == "affine"
        assert err.value.residual == pytest.approx(want, rel=1e-12)


class TestAlpha:
    def test_values(self, chan):
        # the flat scalar scales the pair state into [a, all states]
        for a, want in [(mk_first_order(2), 0.5), (mk_first_order(3), 1 / 3),
                        (mk_unit(), 1.0), (chan, 0.5)]:
            assert abs(a.flat_lambda - want) < 1e-12
            assert member(par_obj(a, mk_all_states(a)),
                          a.flat_lambda * cup_state(a.dim))

    def test_verification_actually_runs(self, chan):
        # a wrongly scaled pair state is not a state of [a, all states]
        p = par_obj(chan, mk_all_states(chan))
        assert not member(p, 0.3 * cup_state(4))


class TestStructuralMembership:
    """The object-free membership path must agree with constructed objects."""

    def test_matricize_recovers_pairings(self, rng):
        x = random_density(rng, 4)
        c = matricize(x, 2, 2)
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        lhs = float(np.real(np.trace(np.kron(a, b) @ x)))
        rhs = float(herm_to_coords(a) @ c @ herm_to_coords(b))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("dl,dr", [(2, 3), (3, 2), (2, 4), (4, 2), (16, 16)])
    def test_matricize_matches_dense_basis_contraction(self, dl, dr):
        # oracle: contract x against every dense left basis matrix, then take
        # coordinates of the reduced right blocks; non-square cuts catch a swap
        x = random_density(np.random.default_rng(100 * dl + dr), dl * dr)
        basis_l = coords_to_herm(np.eye(dl * dl), dl)
        red = np.einsum('kab,buav->kuv', basis_l, x.reshape(dl, dr, dl, dr))
        got = matricize(x, dl, dr)
        assert got.shape == (dl * dl, dr * dr)
        assert np.max(np.abs(got - herm_to_coords(red))) < 1e-12

    def test_par_member_agrees(self, rng, chan):
        p = par_obj(chan, chan)
        cases = [random_channel_name(rng) for _ in range(6)]
        cases += [random_oneway(rng), cup_state(4) * 0.5]
        for x in cases:
            assert par_member(x, chan, chan) == member(p, x)

    def test_seq_member_agrees(self, rng, chan, oneway_names):
        s = seq_obj(chan, chan)
        cases = [random_channel_name(rng) for _ in range(6)]
        cases += list(oneway_names[:6])
        cases.append(party_name(structural("swap", 2, 2), (2, 2), (2, 2)))
        for x in cases:
            assert seq_member(x, chan, chan) == member(s, x)


class TestInterchange:
    def test_first_order_states(self, rng):
        fo = mk_first_order(2)
        a = random_density(rng, 4)
        c = random_density(rng, 4)
        assert interchange_check(a, fo, fo, c, fo, fo)

    def test_oneway_channel_pairs(self, rng, chan, oneway_names):
        assert interchange_check(oneway_names[0], chan, chan,
                                 oneway_names[1], chan, chan)

    def test_two_way_factor_fails(self, chan, oneway_names):
        swap_nm = party_name(structural("swap", 2, 2), (2, 2), (2, 2))
        assert not interchange_check(swap_nm, chan, chan,
                                     oneway_names[0], chan, chan)


class TestBridges:
    def test_state_choi_round_trip(self, rng):
        cm = random_cptp(rng, 3, 2)
        nm = state_of_choi(cm)
        back = choi_of_state(nm, (3,), (2,))
        assert np.allclose(back.J, cm.J)
        assert back.d_in == 3 and back.d_out == 2

    def test_report_fields(self, chan):
        rep = membership_report(chan, cup_state(2))
        assert rep["member"] is True
        assert rep["affine_distance"] < 1e-9
        assert rep["min_eigenvalue"] > -1e-12
        assert not rep["first_order"]


def member_oracle(obj, mat, tol=None):
    """Membership as it was composed before one gate served the whole verdict:
    member's gate, then psd_check and AffineSubspace.contains with their own."""
    mat = check_hermitian(mat, tol=max(TOLS.herm, TOLS.sub if tol is None else tol))
    if mat.shape[0] != obj.dim:
        raise ShapeMismatchError("dimension")
    return psd_check(mat, tol) and obj.states.contains(mat, tol)


def verdict(fn, *args):
    try:
        return fn(*args)
    except HermiticityError:
        return "not_hermitian"


class TestOneGate:
    """Each membership verdict gates, diagonalises and encodes its matrix once."""

    TOLS_GRID = [None, 0.0, 1e-6, 1e-12]

    @pytest.fixture(scope="class")
    def types(self):
        fo2, chan = mk_first_order(2), hom_obj(mk_first_order(2), mk_first_order(2))
        return [fo2, mk_first_order(3), mk_classical(3), chan, seq_obj(chan, chan),
                par_obj(chan, chan), tensor_obj(chan, fo2)]

    def inputs(self, rng, obj, tol):
        """Members, jittered members, Hermiticity defects near the gate, random
        densities, and hull points whose least eigenvalue sits near the PSD floor."""
        d = obj.dim
        gate = max(TOLS.herm, TOLS.sub if tol is None else tol)
        m = sample_member(obj, rng)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        yield m
        for eps in (1e-13, 1e-10, 1e-8):
            yield m + eps * h
        scale = max(float(np.max(np.abs(m))), 1.0)
        for f in (0.5, 0.999, 1.001, 2.0):
            skew = m.astype(complex)
            skew[0, d - 1] += 1j * f * gate * scale
            yield skew
        yield random_density(rng, d)
        # on the hull, with the least eigenvalue at -delta: bisect the segment
        # from the member towards a far hull point
        far = coords_to_herm(obj.states.project_vec(herm_to_coords(10 * h)), d)
        for delta in (1e-13, 1e-9, 1e-6):
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if min_eig(m + mid * (far - m)) > -delta else (lo, mid)
            yield m + hi * (far - m)

    def test_member_agrees_with_oracle(self, types):
        rng = np.random.default_rng(2026)
        seen = set()
        for obj in types:
            for tol in self.TOLS_GRID:
                for _ in range(3):
                    for mat in self.inputs(rng, obj, tol):
                        want = verdict(member_oracle, obj, mat, tol)
                        assert verdict(member, obj, mat, tol) == want, (obj, tol)
                        assert verdict(lambda *a: membership_report(*a)["member"],
                                       obj, mat, tol) == want, (obj, tol)
                        seen.add(want)
        assert seen == {True, False, "not_hermitian"}

    def test_report_measures_what_decides(self, types):
        rng = np.random.default_rng(17)
        for obj in types:
            for mat in (sample_member(obj, rng), random_density(rng, obj.dim)):
                rep = membership_report(obj, mat)
                assert rep["min_eigenvalue"] == min_eig(mat)
                assert rep["affine_distance"] == obj.states.distance(herm_to_coords(mat))

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("check_hermitian", "herm_to_coords"):
            wrapped = counting(name, getattr(hermspace, name))
            for module in ("caustyk.causobj", "caustyk.hermspace"):
                monkeypatch.setattr(f"{module}.{name}", wrapped)
        monkeypatch.setattr("numpy.linalg.cholesky",
                            counting("cholesky", np.linalg.cholesky))
        monkeypatch.setattr("caustyk.hermspace.min_eig",
                            counting("min_eig", hermspace.min_eig))
        return counts

    def test_one_pass_per_matrix(self, types, calls):
        # one gate and one certificate per matrix; the spectrum only for the
        # matrix that fails it, or for the report that prints it
        rng = np.random.default_rng(5)
        chan, s = types[3], types[4]
        good = sample_member(s, rng)
        w, v = np.linalg.eigh(good)
        bad = good - 2 * w[-1] * np.outer(v[:, -1], v[:, -1].conj())
        calls.clear()
        for mat, spectra in ((good, 0), (bad, 1)):
            member(s, mat)
            assert calls["check_hermitian"] == calls["cholesky"] == 1
            assert calls["min_eig"] == spectra and calls["herm_to_coords"] <= 1
            calls.clear()
            membership_report(s, mat)
            assert calls == {"check_hermitian": 1, "cholesky": 1, "min_eig": 1,
                             "herm_to_coords": 1}
            calls.clear()
            for fn in (par_member, seq_member):
                fn(mat, chan, chan)
                assert calls["check_hermitian"] == calls["cholesky"] == 1
                assert calls["min_eig"] == spectra
                calls.clear()
