"""Real-coordinate geometry of Hermitian matrix space.

The coordinate map is cross-checked against a slow trace-inner-product oracle
built from an explicitly constructed orthonormal Hermitian basis, so the fast
vectorized path never gets to define its own correctness.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caustyk.errors import (
    EmptyDualError,
    FlatnessError,
    HermiticityError,
    InconsistencyError,
    InvalidDimensionError,
    ShapeMismatchError,
)
import caustyk
from caustyk.causobj import CausObject
from caustyk.hermspace import (
    AffineSubspace,
    _complement,
    check_dimension,
    check_hermitian,
    coords_to_herm,
    herm_to_coords,
    kron_rows,
    matricize,
    min_eig,
    psd_check,
    psd_test,
    vec_identity,
)
from caustyk.tolerances import magnitude, within


def slow_basis(n):
    """Orthonormal Hermitian basis built element by element."""
    mats = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2)
            mats.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1j / np.sqrt(2)
            m[j, i] = 1j / np.sqrt(2)
            mats.append(m)
    return mats


def slow_coords(mat):
    """Coordinates via explicit trace inner products."""
    n = mat.shape[0]
    return np.array([np.trace(b.conj().T @ mat).real for b in slow_basis(n)])


def triu_coords(mats):
    """The coordinate map as two fancy-indexed reads of the upper triangle."""
    mats = np.asarray(mats, dtype=complex)
    n = mats.shape[-1]
    iu, ju = np.triu_indices(n, k=1)
    diag = np.real(np.diagonal(mats, axis1=-2, axis2=-1))
    re = np.sqrt(2.0) * np.real(mats[..., iu, ju])
    im = -np.sqrt(2.0) * np.imag(mats[..., iu, ju])
    return np.concatenate([diag, re, im], axis=-1)


def random_herm(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) * (scale / 2)


class TestCoordinateMap:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_trace_oracle(self, n):
        rng = np.random.default_rng(7 + n)
        for _ in range(5):
            m = random_herm(rng, n)
            np.testing.assert_allclose(herm_to_coords(m), slow_coords(m),
                                       atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_basis_gram_identity(self, n):
        basis = coords_to_herm(np.eye(n * n), n)
        assert len(basis) == n * n
        gram = np.array([[np.trace(a.conj().T @ b).real for b in basis]
                         for a in basis])
        np.testing.assert_allclose(gram, np.eye(n * n), atol=1e-12)

    @pytest.mark.parametrize("n", [*range(1, 10), 16])
    def test_gather_matches_triu_reference(self, n):
        # exact, not to rounding: one gather through the basis table reads
        # the same entries and scales them the same way; a non-Hermitian
        # input shows that only the diagonal and upper triangle are read
        rng = np.random.default_rng(n)
        g = rng.standard_normal((3, 4, n, n)) + 1j * rng.standard_normal((3, 4, n, n))
        for mats in (g, g[0, 0], g.real, g[0, 0].real, random_herm(rng, n),
                     np.swapaxes(g, -1, -2)):
            got, want = herm_to_coords(mats), triu_coords(mats)
            assert got.shape == want.shape == mats.shape[:-2] + (n * n,)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        m = random_herm(rng, 3)
        np.testing.assert_allclose(coords_to_herm(herm_to_coords(m), 3), m,
                                   atol=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(4)
        mats = np.stack([random_herm(rng, 2) for _ in range(6)])
        coords = herm_to_coords(mats)
        assert coords.shape == (6, 4)
        for k in range(6):
            np.testing.assert_allclose(coords[k], slow_coords(mats[k]), atol=1e-12)

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(5)
        a, b = random_herm(rng, 3), random_herm(rng, 3)
        lhs = float(np.trace(a @ b).real)
        rhs = float(herm_to_coords(a) @ herm_to_coords(b))
        assert abs(lhs - rhs) < 1e-10

    def test_identity_vector(self):
        v = vec_identity(2)
        np.testing.assert_allclose(coords_to_herm(v, 2), np.eye(2), atol=1e-14)

    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityError) as err:
            check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert err.value.deviation == 1.0      # the measured defect travels with it
        with pytest.raises(HermiticityError):
            check_hermitian(np.diag([1.0, np.nan]))

    def test_shape_rejected(self):
        with pytest.raises(ShapeMismatchError):
            check_hermitian(np.zeros((2, 3)))

    def test_scale_aware_tolerance(self):
        big = 1e8 * np.eye(3)
        big[0, 1] = 1e-4
        big[1, 0] = 1e-4
        check_hermitian(big)  # asymmetry tiny relative to scale


class TestKronecker:
    @pytest.mark.parametrize("na,nb", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4)])
    def test_rows_match_dense_kron(self, na, nb):
        rng = np.random.default_rng(10 * na + nb)
        xs = [random_herm(rng, na) for _ in range(3)]
        ys = [random_herm(rng, nb) for _ in range(2)]
        got = kron_rows(herm_to_coords(np.stack(xs)), herm_to_coords(np.stack(ys)), na, nb)
        want = herm_to_coords(np.stack([np.kron(x, y) for x in xs for y in ys]))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("na,nb", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4), (3, 9)])
    def test_matricize_is_the_transpose_of_kron_rows(self, na, nb):
        # kron_rows(L, R) @ coords(x) == (L @ matricize(x) @ R.T).ravel()
        rng = np.random.default_rng(100 * na + nb)
        left = rng.standard_normal((3, na * na))
        right = rng.standard_normal((4, nb * nb))
        x = random_herm(rng, na * nb)
        lhs = kron_rows(left, right, na, nb) @ herm_to_coords(x)
        rhs = (left @ matricize(x, na, nb) @ right.T).ravel()
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("na,nb", [(2, 3), (3, 2), (4, 4), (6, 9)])
    def test_whole_basis_blocks_equal_the_dense_identity(self, na, nb):
        # None is a factor's whole basis: two scatters, the entries of the
        # einsum against np.eye exactly (a zero may differ in sign)
        rng = np.random.default_rng(7 * na + nb)
        left = rng.standard_normal((3, na * na))
        right = rng.standard_normal((5, nb * nb))
        assert np.array_equal(kron_rows(None, right, na, nb),
                              kron_rows(np.eye(na * na), right, na, nb))
        assert np.array_equal(kron_rows(left, None, na, nb),
                              kron_rows(left, np.eye(nb * nb), na, nb))

    def test_rows_written_into_a_given_block(self):
        rng = np.random.default_rng(5)
        left, right = rng.standard_normal((2, 4)), rng.standard_normal((3, 9))
        stack = np.zeros((2 * 3 + 4 * 3, 36))
        assert kron_rows(left, right, 2, 3, out=stack[:6]).base is stack
        kron_rows(None, right, 2, 3, out=stack[6:])
        assert np.array_equal(stack, np.vstack([kron_rows(left, right, 2, 3),
                                                kron_rows(None, right, 2, 3)]))

    def test_only_hermspace_spells_the_basis(self):
        # the basis order and its sqrt(2) scaling live in one module, and
        # within it in one table; the others go through the conversions and
        # kron_rows/matricize
        offenders, table_sites = [], []
        for path in sorted(Path(caustyk.__file__).parent.glob("*.py")):
            text = path.read_text()
            own = path.name == "hermspace.py"
            if "sqrt(2" in text and not own:
                offenders.append(f"{path.name}: sqrt(2")
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if name == "triu_indices":
                        (table_sites if own else offenders).append(f"{path.name}:{node.lineno}")
        assert offenders == []
        assert len(table_sites) == 1, table_sites


class TestPsd:
    def test_pair_state_boundary(self):
        v = np.eye(2, dtype=complex).reshape(-1)
        omega = np.outer(v, v.conj())
        assert psd_check(omega)
        assert abs(min_eig(omega)) < 1e-12

    def test_negative(self):
        assert not psd_check(np.diag([1.0, -0.5]))

    def test_entries_near_the_float_limit_do_not_overflow(self):
        # halved before the adjoint is added: the spectrum is [0, 0, 0, inf]
        v = np.eye(2, dtype=complex).reshape(-1)
        big = 1e308 * np.outer(v, v)
        assert min_eig(big) == 0.0
        assert psd_check(big)
        assert min_eig(np.diag([1e308, 1e308])) == 1e308

    def test_invalid_dim(self):
        with pytest.raises(InvalidDimensionError):
            check_dimension(0)


ORACLE_SCALES = {"entry": lambda x: float(np.max(np.abs(x))), "frobenius": magnitude,
                 "unit": lambda x: 1.0}


def near_floor(rng, n, kind, tol, depth, size):
    """A Hermitian matrix whose least eigenvalue is ``-depth`` times its own
    floor ``tol * max(scale, 1)``; the other eigenvalues lie in [0.1, 1] * size."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = np.linalg.qr(g)[0]
    w = size * rng.uniform(0.1, 1.0, n)
    w[0] = 0.0
    a = (u * w) @ u.conj().T
    floor = tol * max(ORACLE_SCALES[kind](a), 1.0)
    return a - depth * floor * np.outer(u[:, 0], u[:, 0].conj())


class TestPsdGate:
    """psd_test decides as the spectrum does: within(-min_eig(x), tol, scale)."""

    @pytest.mark.parametrize("kind", sorted(ORACLE_SCALES))
    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_agrees_with_the_spectrum_near_the_floor(self, kind, tol):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4, 7, 16, 32, 81):
            for size in (0.3, 30.0):
                for depth in (0.5, 0.999, 1.001, 2.0):
                    x = near_floor(rng, n, kind, tol, depth, size)
                    want = within(-min_eig(x), tol, ORACLE_SCALES[kind](x))
                    assert want == (depth < 1)
                    assert psd_test(x, tol, kind)[1] == want, (n, size, depth)

    @pytest.mark.parametrize("kind", sorted(ORACLE_SCALES))
    @pytest.mark.parametrize("name, mat, psd", [
        ("zero", np.zeros((2, 2)), True),
        ("diag", np.diag([1e308, 1e308]), True),
        ("+1e308 cup", 1e308 * np.outer(np.eye(2).ravel(), np.eye(2).ravel()), True),
        ("-1e308 cup", -1e308 * np.outer(np.eye(2).ravel(), np.eye(2).ravel()), False),
        ("-1e300 cup", -1e300 * np.outer(np.eye(2).ravel(), np.eye(2).ravel()), False),
    ])
    def test_extreme_matrices(self, kind, name, mat, psd):
        # where the spectrum's bound is finite the gate agrees with it; where
        # it overflows (|cup| = 2e308) the gate decides on mat / max|mat|
        with np.errstate(over="ignore", invalid="ignore"):
            low, got = psd_test(mat, 1e-9, kind, report=True)
            scale = ORACLE_SCALES[kind](mat)
        assert got is psd and low == min_eig(mat)
        if np.isfinite(1e-9 * max(scale, 1.0)):
            assert within(-min_eig(mat), 1e-9, scale) is psd

    @pytest.mark.parametrize("depth", [0.5, 2.0])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_adjoint_and_layout_change_nothing(self, depth, layout):
        # the floor goes on the diagonal whatever the memory layout, and
        # neither the matrix nor a given adjoint is written
        rng = np.random.default_rng(8)
        x = np.asarray(near_floor(rng, 5, "frobenius", 1e-9, depth, 1.0), order=layout)
        keep, adj = x.copy(), np.asarray(x.conj().T, order=layout)
        got = psd_test(x, 1e-9, "frobenius", adjoint=adj)
        assert np.array_equal(got, psd_test(x, 1e-9, "frobenius"), equal_nan=True)
        assert got[1] is (depth < 1)
        assert np.array_equal(x, keep) and np.array_equal(adj, keep.conj().T)


def linear_span(mats):
    """The linear span of Hermitian matrices: an affine hull through zero."""
    return AffineSubspace.from_span(np.zeros_like(mats[0]), mats)


class TestSpan:
    def test_dependent_mats(self):
        w = linear_span([np.eye(2), 2 * np.eye(2)])
        assert w.rank() == 1

    def test_mixed_rank(self):
        z = np.diag([1.0, -1.0])
        w = linear_span([np.eye(2), z, np.eye(2) + z])
        assert w.rank() == 2

    def test_contains(self):
        z = np.diag([1.0, -1.0])
        w = linear_span([np.eye(2), z])
        assert w.contains(np.diag([3.0, 1.0]))
        assert not w.contains(np.array([[0, 1], [1, 0]], dtype=float))

    def test_empty_rejected(self):
        with pytest.raises(InconsistencyError):
            AffineSubspace(2)       # neither span nor constraint data

    def test_projection(self):
        z = np.diag([1.0, -1.0])
        w = linear_span([z])
        x = herm_to_coords(np.array([[2.0, 1.0], [1.0, 0.0]]))
        p = w.project_vec(x)
        np.testing.assert_allclose(coords_to_herm(p, 2), z, atol=1e-12)


def trace_one_plane(n):
    """All Hermitian matrices of unit trace, as an affine subspace."""
    base = np.eye(n) / n
    basis = coords_to_herm(np.eye(n * n), n)
    dirs = [b - (np.trace(b).real / n) * np.eye(n) for b in basis]
    return AffineSubspace.from_span(base, dirs)


class TestAffineDual:
    def test_point_identity_dualizes_to_trace_plane(self):
        # effects e with Tr(e I) = 1 form the trace-one plane
        point = AffineSubspace.from_point(np.eye(2))
        dual = point.dual()
        expect = trace_one_plane(2)
        assert dual.rank() == 3
        assert dual.equals(expect)

    def test_trace_plane_dualizes_to_identity_point(self):
        dual = trace_one_plane(2).dual()
        assert dual.rank() == 0
        assert dual.contains(np.eye(2))

    def test_scalar_self_dual(self):
        one = AffineSubspace.from_point(np.eye(1))
        dual = one.dual()
        assert dual.rank() == 0
        assert dual.contains(np.eye(1))

    def test_involution_random(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(0, n * n - 1))
            base = np.eye(n) / n + 0.05 * random_herm(rng, n)
            base = base / np.trace(base).real  # keep the hull flat-ish
            dirs = [random_herm(rng, n) for _ in range(k)]
            w = AffineSubspace.from_span(base, dirs)
            again = w.dual().dual()
            assert again.equals(w), f"trial {trial}: double dual changed the space"

    def test_antitone(self):
        rng = np.random.default_rng(13)
        base = np.eye(3) / 3
        d1 = [random_herm(rng, 3) for _ in range(2)]
        small = AffineSubspace.from_span(base, d1)
        big = AffineSubspace.from_span(base, d1 + [random_herm(rng, 3)])
        assert small.is_subset(big)
        assert not big.is_subset(small)
        assert big.dual().is_subset(small.dual())

    def test_pairing_on_duals(self):
        rng = np.random.default_rng(17)
        w = trace_one_plane(2)
        dual = w.dual()
        for _ in range(4):
            x = w.project_vec(herm_to_coords(random_herm(rng, 2)))
            y = dual.project_vec(herm_to_coords(random_herm(rng, 2)))
            assert abs(float(x @ y) - 1.0) < 1e-10

    def test_value_on_the_first_row_only(self):
        # the other rows are the dual's directions as they stand, the same
        # subspace the general path (value spread over the rows) finds
        rng = np.random.default_rng(19)
        rows = np.linalg.qr(rng.standard_normal((9, 4)))[0].T
        first = AffineSubspace(3, cons=rows, vals=np.array([0.5, 0.0, 0.0, 0.0]))
        mixed = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        spread = AffineSubspace(3, cons=mixed @ rows, vals=mixed @ first.cons_rows()[1])
        dual = first.dual()
        assert np.array_equal(dual.dirs_coords(), rows[1:])
        assert dual.equals(spread.dual())

    def test_empty_dual_raises(self):
        # a purely linear space through the origin has no normalizing dual
        z = np.diag([1.0, -1.0])
        w = AffineSubspace.from_span(np.zeros((2, 2)), [z])
        with pytest.raises(EmptyDualError):
            w.dual()


class TestAffineSubspace:
    def test_constraint_round_trip(self):
        w = trace_one_plane(3)
        rows, vals = w.cons_rows()
        again = AffineSubspace.from_constraints(3, rows, vals)
        assert again.equals(w)

    def test_zero_tol_means_zero(self):
        # tol=0.0 is a tolerance of zero, not the default: the Hermiticity
        # gate falls to TOLS.herm, so a 5e-10 defect is rejected
        w = trace_one_plane(2)
        skew = np.array([[0.5, 5e-10j], [0.0, 0.5]])
        assert w.contains(skew)
        with pytest.raises(HermiticityError):
            w.contains(skew, tol=0.0)

    def test_inconsistent_constraints(self):
        rows = np.stack([vec_identity(2), 2 * vec_identity(2)])
        with pytest.raises(InconsistencyError):
            AffineSubspace.from_constraints(2, rows, np.array([1.0, 5.0]))

    def test_intersect_linear(self):
        w = trace_one_plane(2)
        # add the constraint <Z, x> = 0
        z = herm_to_coords(np.diag([1.0, -1.0]))
        cut = w.intersect_linear(z[None, :], np.array([0.0]))
        assert cut.rank() == 2
        assert cut.contains(np.eye(2) / 2)
        assert not cut.contains(np.diag([1.0, 0.0]))

    def test_intersect_with_conditions_already_met(self):
        # multiples of the trace condition leave the rank-8 plane as it is
        w = trace_one_plane(3)
        scales = np.array([1.0, 0.3, -2.0])
        cut = w.intersect_linear(np.outer(scales, vec_identity(3)), scales)
        assert cut.rank() == 8
        assert cut.equals(w)

    def test_intersect_empty(self):
        point = AffineSubspace.from_point(np.eye(2) / 2)
        z = herm_to_coords(np.diag([1.0, -1.0]))
        with pytest.raises(InconsistencyError):
            point.intersect_linear(z[None, :], np.array([1.0]))

    def test_scalar_identity_of_trace_plane(self):
        # the unit-trace plane's min-norm point is I/3: a type reads lam off it
        assert abs(CausObject((3,), trace_one_plane(3)).flat_lambda - 1.0 / 3.0) < 1e-12

    def test_scalar_identity_rejects_nonflat(self):
        w = AffineSubspace.from_span(np.eye(2) / 2, list(coords_to_herm(np.eye(4), 2)))
        with pytest.raises(FlatnessError):
            CausObject((2,), w)

    def test_conjugation_moves_hull_onto_itself(self):
        w = trace_one_plane(2)
        # conjugation by X is orthogonal on coordinates
        x = np.array([[0, 1], [1, 0]], dtype=complex)

        def conj(rows):
            mats = coords_to_herm(rows, 2)
            return herm_to_coords(np.einsum('ab,kbc,cd->kad', x, mats, x))

        moved = AffineSubspace.from_span_coords(
            2, conj(w.base_vec()[None, :])[0], conj(w.dirs_coords()))
        assert moved.equals(w)  # the trace plane is conjugation invariant

    def test_distance(self):
        w = trace_one_plane(2)
        x = herm_to_coords(np.eye(2))  # trace 2, distance 1/sqrt(2) to plane
        assert abs(w.distance(x) - 1.0 / np.sqrt(2)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=3), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_dual_involution_property(n, k, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n * n - 1)
    base = np.eye(n) / n + 0.1 * random_herm(rng, n)
    tr = np.trace(base).real
    if abs(tr) < 0.2:
        base = np.eye(n) / n
        tr = 1.0
    base = base / tr
    dirs = [random_herm(rng, n) for _ in range(k)]
    w = AffineSubspace.from_span(base, dirs)
    dd = w.dual().dual()
    assert dd.equals(w)
    assert w.rank() + w.dual().rank() == n * n - 1


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_coords_isometry_property(n, seed):
    rng = np.random.default_rng(seed)
    m = random_herm(rng, n, scale=float(rng.uniform(0.1, 10)))
    v = herm_to_coords(m)
    assert abs(np.linalg.norm(v) - np.linalg.norm(m, 'fro')) < 1e-10 * max(
        1.0, np.linalg.norm(m, 'fro'))
    np.testing.assert_allclose(coords_to_herm(v, n), m, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 9, 16]),
       st.sampled_from(["0", "1+", "1-", "1 zero", "-e0", "2", "m-1", "m"]),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_complement_property(m, case, seed):
    rng = np.random.default_rng(seed)
    k = {"0": 0, "2": 2, "m-1": m - 1, "m": m}.get(case, 1)
    rows = np.linalg.qr(rng.standard_normal((m, m)))[0].T[:k]
    # the Householder shift takes the sign of the first entry; at -e0 the
    # opposite sign would cancel it to zero
    if case == "-e0":
        rows = -np.eye(m)[:1]
    elif case.startswith("1"):
        q = rows[0]
        q[0] = {"1+": abs(q[0]), "1-": -abs(q[0]), "1 zero": 0.0}[case]
        rows = rows / np.linalg.norm(q)
    out = _complement(rows, m)
    assert out.shape == (m - k, m)
    np.testing.assert_allclose(out @ out.T, np.eye(m - k), atol=1e-12)
    np.testing.assert_allclose(out @ rows.T, np.zeros((m - k, k)), atol=1e-12)
    # the projector onto the complement of orthonormal rows
    np.testing.assert_allclose(out.T @ out, np.eye(m) - rows.T @ rows, atol=1e-12)


def test_no_module_imports_scipy():
    # complements are closed form or a numpy QR; numpy is the only dependency
    offenders = []
    for path in sorted(Path(caustyk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
