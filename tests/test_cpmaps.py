"""CP-map calculus in Choi form.

Expected Choi matrices below are worked out by hand from the definition
``J = sum_ij Phi(E_ij) (x) E_ij``; composition laws are cross-checked on
families with known closed forms (amplitude damping) and on random inputs
against direct application.
"""

import ast
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import caustyk
from caustyk import cpmaps, hermspace
from caustyk.causobj import cup_state, mk_classical
from caustyk.cpmaps import (
    ChoiMap,
    Isometry,
    act_on_factors,
    choi_of_kraus,
    conditional_expectation,
    ctrl,
    dilation_isometry,
    partial_trace,
    permute_factors,
    regroup,
    shadow,
    stinespring,
    structural,
    support_projector,
)
from caustyk.errors import (
    InconsistencyError,
    InvalidDimensionError,
    NoIsometryError,
    ShapeMismatchError,
)


def random_density(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def amplitude_damping(gamma):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return choi_of_kraus([k0, k1], 2, 2)


class TestFactorPlumbing:
    def test_permute_swaps_kron(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            permute_factors(np.kron(a, b), (2, 3), [1, 0]), np.kron(b, a))

    def test_permute_three(self):
        rng = np.random.default_rng(1)
        mats = [rng.standard_normal((d, d)) for d in (2, 3, 2)]
        got = permute_factors(reduce(np.kron, mats), (2, 3, 2), [2, 0, 1])
        np.testing.assert_allclose(got, reduce(np.kron, [mats[2], mats[0], mats[1]]))

    def test_permute_rejects_bad_perm(self):
        with pytest.raises(ShapeMismatchError):
            permute_factors(np.eye(4), (2, 2), [0, 0])

    def test_partial_trace(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            partial_trace(np.kron(a, b), (2, 3), [0]), np.trace(b) * a)
        np.testing.assert_allclose(
            partial_trace(np.kron(a, b), (2, 3), [1]), np.trace(a) * b)

    def test_partial_trace_keeps_order(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((d, d)) for d in (2, 2, 3)]
        got = partial_trace(reduce(np.kron, mats), (2, 2, 3), [2, 0])
        np.testing.assert_allclose(got, np.trace(mats[1]) * np.kron(mats[2], mats[0]))


def random_layout(rng):
    """Blocks of 0-2 factors each, dims 1-3, total dim at most 64."""
    while True:
        blocks = [tuple(int(d) for d in rng.integers(1, 4, size=rng.integers(0, 3)))
                  for _ in range(rng.integers(1, 6))]
        d = int(np.prod([np.prod(b) for b in blocks]))
        if d <= 64:
            return blocks, d


class TestRegroup:
    def test_matches_block_transpose(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            blocks, d = random_layout(rng)
            order = list(rng.permutation(len(blocks)))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            # one axis per block, sized by the product of its factors
            bd = [int(np.prod(b)) for b in blocks]
            k = len(blocks)
            want = m.reshape(bd + bd).transpose(order + [k + o for o in order]) \
                .reshape(d, d)
            np.testing.assert_array_equal(regroup(m, blocks, order), want)

    def test_inverse_order_restores(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            blocks, d = random_layout(rng)
            order = list(rng.permutation(len(blocks)))
            m = rng.standard_normal((d, d))
            moved = regroup(m, blocks, order)
            back = [int(i) for i in np.argsort(order)]
            np.testing.assert_array_equal(
                regroup(moved, [blocks[o] for o in order], back), m)

    def test_no_factors_unchanged(self):
        m = np.array([[2.5]])
        assert regroup(m, [(), (), ()], [2, 0, 1]) is m
        assert regroup(m, [], []) is m

    def test_rejects_bad_order(self):
        with pytest.raises(ShapeMismatchError):
            regroup(np.eye(4), [(2,), (), (2,)], [0, 2])

    def test_permute_factors_called_only_in_cpmaps(self):
        # every other module reorders factor blocks through regroup
        offenders = []
        for path in sorted(Path(caustyk.__file__).parent.glob("*.py")):
            if path.name == "cpmaps.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if name == "permute_factors":
                        offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


def _call_name(node: ast.Call):
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _defaulted(fn: ast.FunctionDef, bound: bool):
    """(name, position among the call's arguments or None) per defaulted parameter."""
    a = fn.args
    pos = (a.posonlyargs + a.args)[int(bound):]
    first = len(pos) - len(a.defaults)
    return ([(p.arg, i) for i, p in enumerate(pos) if i >= first]
            + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def test_every_defaulted_option_has_a_caller():
    # an option no code sets is a constant in disguise; matching is by callee name
    root = Path(__file__).resolve().parents[1]
    calls: dict[str, list[ast.Call]] = {}
    for d in ("src", "tests", "perfbench"):
        for path in sorted((root / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    calls.setdefault(_call_name(node), []).append(node)

    def passes(call, name, pos):
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        return pos is not None and len(call.args) > pos

    unset = []
    for path in sorted((root / "src" / "caustyk").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            names = {cls, "cls"} if fn.name == "__init__" else {fn.name}
            for name, pos in _defaulted(fn, cls is not None and not static):
                if not any(passes(c, name, pos) for n in names for c in calls.get(n, [])):
                    qual = f"{cls}.{fn.name}" if cls else fn.name
                    unset.append(f"{path.stem}.{qual}({name}=)")
    assert not unset, f"{len(unset)} options no code sets: {', '.join(unset)}"


def test_every_import_is_used():
    # a name imported and never referenced is dead weight; __all__ counts as use
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*(root / "src" / "caustyk").glob("*.py"),
                        *(root / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= {e.value for e in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.parent.name}/{path.name}:{name}")
    assert not unused, f"imported but never used: {', '.join(unused)}"


def test_no_einsum_with_three_or_more_operands():
    # numpy runs a multi-operand einsum as one nested loop; contract pairwise
    # through reshapes and BLAS products instead
    offenders = []
    for path in sorted(Path(caustyk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and _call_name(node) == "einsum"
                    and len(node.args) - 1 >= 3):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_signalling_sits_below_the_type_layer():
    # teeth join and split in Choi form alone: signalling takes nothing from
    # the types, the families or the samplers built on top of it
    path = Path(caustyk.__file__).parent / "signalling.py"
    imported = {node.module for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imported & {"causobj", "embedding", "sampling"} == set()


def _count_gate_and_spectrum(monkeypatch) -> dict:
    """Count the Hermiticity gates, the Cholesky certificates and the spectra."""
    calls = {"check_hermitian": 0, "cholesky": 0, "min_eig": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    gate = counted("check_hermitian", hermspace.check_hermitian)
    for module in (cpmaps, hermspace):      # psd_check gates through hermspace's
        monkeypatch.setattr(module, "check_hermitian", gate)
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(hermspace, "min_eig", counted("min_eig", hermspace.min_eig))
    return calls


class TestChoiForms:
    def test_kraus_oracle_upper_units(self):
        # rho -> |0><0| rho |0><0| + |0><1| rho |1><0| maps everything onto |0><0|
        k1 = np.array([[1, 0], [0, 0]], dtype=complex)
        k2 = np.array([[0, 1], [0, 0]], dtype=complex)
        cm = choi_of_kraus([k1, k2], 2, 2)
        expect = np.kron(np.diag([1.0, 0.0]), np.eye(2))
        np.testing.assert_allclose(cm.J, expect, atol=1e-14)
        assert abs(np.trace(cm.J).real - 2.0) < 1e-12

    def test_depolarize_choi(self):
        # rho -> Tr(rho) I/2 has Choi I/2 (x) I = I_4 / 2
        half = np.eye(2) / 2
        ks = [np.sqrt(0.5) * np.outer(e1, e2)
              for e1 in np.eye(2) for e2 in np.eye(2)]
        cm = choi_of_kraus(ks, 2, 2)
        np.testing.assert_allclose(cm.J, np.eye(4) / 2, atol=1e-14)
        rng = np.random.default_rng(4)
        np.testing.assert_allclose(cm.apply(random_density(rng, 2)), half, atol=1e-12)

    def test_measure_prepare_rank(self):
        cm = choi_of_kraus([np.diag([1.0, 0]), np.diag([0, 1.0])], 2, 2)
        np.testing.assert_allclose(cm.J, np.diag([1.0, 0, 0, 1.0]), atol=1e-14)
        assert np.linalg.matrix_rank(cm.J) == 2

    def test_apply_matches_kraus(self):
        rng = np.random.default_rng(5)
        k = [rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
             for _ in range(2)]
        cm = choi_of_kraus(k, 2, 3)
        rho = random_density(rng, 2)
        direct = sum(ki @ rho @ ki.conj().T for ki in k)
        np.testing.assert_allclose(cm.apply(rho), direct, atol=1e-12)

    def test_validation(self):
        with pytest.raises(InconsistencyError):
            ChoiMap((2,), (2,), np.diag([1.0, -1.0, 0, 0]))
        ChoiMap((2,), (2,), np.diag([1.0, -1.0, 0, 0]), validate=False)

    def test_validation_near_the_float_limit(self):
        # the PSD gate's spectrum does not overflow: the scaled identity
        # channel is PSD, and no bare LinAlgError escapes the constructor
        big = 1e308 * cup_state(2).astype(complex)
        assert np.array_equal(ChoiMap((2,), (2,), big).J, big)
        with pytest.raises(InconsistencyError):
            ChoiMap((2,), (2,), -big)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            ChoiMap((2,), (2,), np.eye(3))

    def test_validation_gates_and_diagonalises_once(self, monkeypatch):
        # one Hermiticity gate and one failed certificate, then one spectrum
        # decides and reports a non-PSD J; a PSD J needs no spectrum
        bad = -cup_state(2)
        calls = _count_gate_and_spectrum(monkeypatch)
        with pytest.raises(InconsistencyError, match="min eig -2"):
            ChoiMap((2,), (2,), bad)
        assert calls == {"check_hermitian": 1, "cholesky": 1, "min_eig": 1}
        ChoiMap((2,), (2,), -bad)
        assert calls == {"check_hermitian": 2, "cholesky": 2, "min_eig": 1}


class TestComposition:
    def test_amplitude_damping_semigroup(self):
        got = amplitude_damping(0.4).compose(amplitude_damping(0.25))
        expect = amplitude_damping(1 - 0.6 * 0.75)
        np.testing.assert_allclose(got.J, expect.J, atol=1e-12)

    def test_compose_agrees_with_apply(self):
        rng = np.random.default_rng(6)
        f = amplitude_damping(0.2)
        g = choi_of_kraus([rng.standard_normal((3, 2)) * 0.5], 2, 3)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(
            g.compose(f).apply(rho), g.apply(f.apply(rho)), atol=1e-12)

    def test_tensor_on_products(self):
        rng = np.random.default_rng(7)
        f, g = amplitude_damping(0.1), amplitude_damping(0.8)
        r1, r2 = random_density(rng, 2), random_density(rng, 2)
        np.testing.assert_allclose(
            f.tensor(g).apply(np.kron(r1, r2)),
            np.kron(f.apply(r1), g.apply(r2)), atol=1e-12)

    def test_tensor_is_kron_then_regroup_exactly(self):
        rng = np.random.default_rng(12)

        def random_map(o, i):
            n = int(np.prod(o + i))
            j = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return ChoiMap(o, i, j, validate=False)

        for o1, i1, o2, i2 in [((2, 3), (2,), (1,), (3, 2)), ((2,), (2,), (2,), (2,)),
                               ((4,), (1,), (3,), (5,))]:
            f, g = random_map(o1, i1), random_map(o2, i2)
            want = regroup(np.kron(f.J, g.J), [o1, i1, o2, i2], [0, 2, 1, 3])
            got = f.tensor(g, validate=False)
            assert got.out_dims == o1 + o2 and got.in_dims == i1 + i2
            assert np.array_equal(got.J, want)

    def test_snake_identity(self):
        d = 3
        left = structural("identity", d).tensor(structural("cup", d))
        right = structural("cap", d).tensor(structural("identity", d))
        snake = right.compose(left)
        assert snake.out_dims == (1, d) and snake.in_dims == (d, 1)
        np.testing.assert_allclose(snake.J, structural("identity", d).J, atol=1e-12)

    def test_swap(self):
        rng = np.random.default_rng(8)
        a, b = random_density(rng, 2), random_density(rng, 3)
        sw = structural("swap", 2, 3)
        np.testing.assert_allclose(sw.apply(np.kron(a, b)), np.kron(b, a), atol=1e-12)

    def test_discard_mix_cap_cup(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 3)
        assert abs(structural("discard", 3).apply(rho)[0, 0] - 1.0) < 1e-12
        np.testing.assert_allclose(
            structural("mix", 3).apply(np.eye(1)), np.eye(3) / 3, atol=1e-14)
        pair = structural("cup", 2).apply(np.eye(1))
        v = np.eye(2).reshape(-1)
        np.testing.assert_allclose(pair, np.outer(v, v), atol=1e-14)
        # cap pairs the two halves: <cap, rho (x) sigma> = Tr(rho sigma^T)
        rho, sigma = random_density(rng, 2), random_density(rng, 2)
        val = structural("cap", 2).apply(np.kron(rho, sigma))[0, 0]
        assert abs(val - np.trace(rho @ sigma.T)) < 1e-12
        # on the unnormalized pair state the pairing gives <Omega|Omega>^2 = d^2
        assert abs(structural("cap", 2).apply(pair)[0, 0] - 4.0) < 1e-12

    def test_trace_preserving(self):
        assert amplitude_damping(0.5).is_cptp()
        assert not structural("cup", 2).is_trace_preserving()
        assert structural("mix", 5).is_trace_preserving()


class TestFactorSurgery:
    def test_act_on_middle_factor(self):
        rng = np.random.default_rng(11)
        a, b, c = (random_density(rng, d) for d in (2, 2, 3))
        f = amplitude_damping(0.6)
        got = act_on_factors(reduce(np.kron, [a, b, c]), (2, 2, 3), 1, 1, f)
        np.testing.assert_allclose(got, reduce(np.kron, [a, f.apply(b), c]), atol=1e-12)

    def test_act_changes_dimension(self):
        rng = np.random.default_rng(12)
        a, b = random_density(rng, 2), random_density(rng, 2)
        k = rng.standard_normal((3, 2)) * 0.7
        f = choi_of_kraus([k], 2, 3)
        got = act_on_factors(np.kron(a, b), (2, 2), 1, 1, f)
        np.testing.assert_allclose(got, np.kron(a, k @ b @ k.conj().T), atol=1e-12)

    def test_marginal_of_tensor(self):
        f, g = amplitude_damping(0.3), amplitude_damping(0.9)
        marg = f.tensor(g).marginal([0])
        # discarding the second output of f (x) g leaves f (x) discard
        expect = f.tensor(structural("discard", 2))
        np.testing.assert_allclose(marg.J, expect.J, atol=1e-12)

    def test_act_on_out(self):
        f = amplitude_damping(0.3)
        post = f.tensor(amplitude_damping(0.0)).act_on_out(1, 1, amplitude_damping(0.9))
        expect = f.tensor(amplitude_damping(0.9))
        np.testing.assert_allclose(post.J, expect.J, atol=1e-12)

    def test_permute_out(self):
        f, g = amplitude_damping(0.2), choi_of_kraus([np.eye(3)], 3, 3)
        fg, gf = f.tensor(g), g.tensor(f)
        swapped = regroup(fg.J, [(2,), (3,), (2,), (3,)], [1, 0, 3, 2])
        np.testing.assert_allclose(swapped, gf.J, atol=1e-12)


class TestStinespring:
    def test_minimal_dilation(self):
        cm = amplitude_damping(0.35)
        iso, env = stinespring(cm)
        assert env == 2
        assert iso.isometric_defect < 1e-9
        recon = iso.as_choi().marginal([0])
        np.testing.assert_allclose(recon.J, cm.J, atol=1e-10)

    def test_unitary_channel_env_one(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        iso, env = stinespring(choi_of_kraus([x], 2, 2))
        assert env == 1

    def test_non_psd_rejected(self):
        bad = ChoiMap((2,), (2,), np.diag([1.0, -1.0, 0, 0]), validate=False)
        with pytest.raises(InconsistencyError):
            stinespring(bad)

    def test_dilation_isometry_recovers_embedding(self):
        cm = amplitude_damping(0.45)
        p1, env = stinespring(cm)
        w = np.zeros((3, env))
        w[:env, :] = np.eye(env)  # embed the environment into dim 3
        v2 = np.kron(np.eye(2), w) @ p1.v
        p2 = Isometry(v2, 2, (2, 3))
        v = dilation_isometry(p1, p2)
        np.testing.assert_allclose(v.v, w, atol=1e-8)

    def test_dilation_isometry_rotated_env(self):
        cm = amplitude_damping(0.25)
        p1, env = stinespring(cm)
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((env, env))
                            + 1j * rng.standard_normal((env, env)))
        p2 = Isometry(np.kron(np.eye(2), q) @ p1.v, 2, (2, env))
        v = dilation_isometry(p1, p2)
        np.testing.assert_allclose(v.v, q, atol=1e-8)
        resid = np.kron(np.eye(2), v.v) @ p1.v - p2.v
        assert np.max(np.abs(resid)) < 1e-9

    def test_dilation_isometry_rejects_shrunk_intertwiner(self):
        # the intertwiner comes out 6e-8 short of an isometry: past the
        # TOLS.psd gate, so no isometry relates the two dilations
        p1, env = stinespring(amplitude_damping(0.25))
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((env, env))
                            + 1j * rng.standard_normal((env, env)))
        p2 = Isometry(np.kron(np.eye(2), (1 - 3e-8) * q) @ p1.v, 2, (2, env),
                      allow_contraction=True)
        with pytest.raises(NoIsometryError, match="not an isometry"):
            dilation_isometry(p1, p2)

    def test_dilation_isometry_rejects_different_channels(self):
        p1, _ = stinespring(amplitude_damping(0.2))
        p2, _ = stinespring(amplitude_damping(0.7))
        with pytest.raises(NoIsometryError):
            dilation_isometry(p1, p2)

    def test_isometry_validation(self):
        with pytest.raises(InconsistencyError):
            Isometry(np.array([[2.0], [0.0]]), 1, (2,))
        Isometry(np.array([[0.5], [0.0]]), 1, (2,), allow_contraction=True)


class TestShadow:
    def test_full_support_gives_identity(self):
        cm = amplitude_damping(0.4)
        dil, env = stinespring(cm)
        pi, res = shadow(structural("discard", env), dil, env)
        np.testing.assert_allclose(pi.J, structural("identity", env).J, atol=1e-9)
        assert max(res.values()) < 1e-9

    def test_padded_env_projects(self):
        cm = amplitude_damping(0.4)
        p1, env = stinespring(cm)
        w = np.zeros((4, env))
        w[:env, :] = np.eye(env)
        dil = Isometry(np.kron(np.eye(2), w) @ p1.v, 2, (2, 4))
        pi, res = shadow(structural("discard", 4), dil, 4)
        assert res["idempotent"] < 1e-10
        assert res["trace_preserving"] < 1e-10
        assert res["absorb_dilation"] < 1e-10
        # the shadow must not be the identity here
        assert np.max(np.abs(pi.J - structural("identity", 4).J)) > 0.1

    def test_relation_equation(self):
        cm = amplitude_damping(0.4)
        p1, env = stinespring(cm)
        rng = np.random.default_rng(14)
        q, _ = np.linalg.qr(rng.standard_normal((env, env))
                            + 1j * rng.standard_normal((env, env)))
        # sigma routed through the rotated frame agrees after sliding back
        sigma = choi_of_kraus([q], env, env)
        relation = choi_of_kraus([np.eye(env)], env, env).compose(sigma)
        pi, res = shadow(sigma, p1, env, relation=relation)
        assert res["absorb_relation"] < 1e-9

    def test_support_projector(self):
        p = support_projector(np.diag([0.5, 0.5, 0.0]))
        np.testing.assert_allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_conditional_expectation_idempotent(self):
        p = np.diag([1.0, 1.0, 0.0])
        omega = np.diag([0.25, 0.75, 0.0])
        pi = conditional_expectation(p, omega)
        assert np.max(np.abs(pi.compose(pi).J - pi.J)) < 1e-12
        assert pi.is_trace_preserving()
        x = np.diag([0.0, 0.0, 1.0])
        np.testing.assert_allclose(pi.apply(x), omega, atol=1e-12)


class TestCtrl:
    def test_branch_selection(self):
        rng = np.random.default_rng(15)
        r0, r1 = random_density(rng, 2), random_density(rng, 2)
        cm = ctrl([r0, r1])
        np.testing.assert_allclose(cm.apply(np.diag([1.0, 0.0])), r0, atol=1e-12)
        np.testing.assert_allclose(cm.apply(np.diag([0.0, 1.0])), r1, atol=1e-12)
        np.testing.assert_allclose(
            cm.apply(np.diag([0.3, 0.7])), 0.3 * r0 + 0.7 * r1, atol=1e-12)

    def test_coherences_dephased(self):
        rng = np.random.default_rng(16)
        r0, r1 = random_density(rng, 2), random_density(rng, 2)
        cm = ctrl([r0, r1])
        plus = np.full((2, 2), 0.5)
        np.testing.assert_allclose(cm.apply(plus), (r0 + r1) / 2, atol=1e-12)

    def test_rejects_nonstates(self):
        with pytest.raises(InconsistencyError):
            ctrl([np.diag([2.0, 0.0])])
        with pytest.raises(InvalidDimensionError):
            ctrl([])

    def test_branches_gated_and_diagonalised_once(self, monkeypatch):
        branches = [np.diag([1.0, 0.0]), np.full((2, 2), 0.5), np.eye(2) / 2]
        calls = _count_gate_and_spectrum(monkeypatch)
        ctrl(branches)
        assert calls == {"check_hermitian": 3, "cholesky": 3, "min_eig": 0}

    def test_classical_object(self):
        # the control register of ctrl is the classical type CLA(n)
        assert mk_classical(3).factor_dims == (3,)
        with pytest.raises(InvalidDimensionError):
            mk_classical(0)
