"""The one decision rule, and guards that every tolerance gate goes through it
and that positivity is decided in ``hermspace.psd_test`` alone."""

import ast
from pathlib import Path

import numpy as np
import pytest

import caustyk
from caustyk import causobj as C
from caustyk import embedding as E
from caustyk import sampling as SM
from caustyk import signalling as S
from caustyk.cpmaps import structural
from caustyk.hermspace import check_hermitian, herm_to_coords, psd_check
from caustyk.tolerances import check_tol, magnitude, within

SRC = Path(caustyk.__file__).parent

# Comparisons against a tolerance that are not verdicts, by (module,
# function): how many the function holds, and why each stays a bare cut.
ALLOWED = {
    ("cpmaps", "stinespring"): (1, "keep mask: the Choi eigenvalues that become Kraus operators"),
    ("cpmaps", "support_projector"): (1, "rank cut: the eigenvectors that span the support"),
    ("hermspace", "_orthonormalize"): (1, "rank cut of a constructor only tests and the tracer use"),
    ("hermspace", "from_constraints"): (2, "rank cut and consistency gate, as above"),
    ("hermspace", "intersect_linear"): (2, "consistency gate and rank cut, as above"),
    ("embedding", "law_suite"): (1, "the faithfulness trial redraws maps: a sampling rule"),
}

_NOT_ORDERING = (ast.Is, ast.IsNot, ast.In, ast.NotIn)


def _own_nodes(fn):
    """Nodes of a function body, without those of the functions nested in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if not isinstance(child, (ast.FunctionDef, ast.ClassDef)))


_ARITHMETIC = ("max", "min", "abs", "float")


def _reads(node, names) -> bool:
    """Whether ``node`` computes with a ``TOLS`` field, a ``*_TOL`` constant
    or one of ``names``; a tolerance passed on to another call is that
    call's to decide with, unless the call is plain arithmetic."""
    todo = [node]
    while todo:
        sub = todo.pop()
        if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id == "TOLS"):
            return True
        if isinstance(sub, ast.Name) and (sub.id in names or sub.id.endswith("_TOL")):
            return True
        if (isinstance(sub, ast.Call)
                and not (isinstance(sub.func, ast.Name) and sub.func.id in _ARITHMETIC)):
            todo.append(sub.func)
        else:
            todo.extend(ast.iter_child_nodes(sub))
    return False


def _assigned(node):
    """``(target name, value)`` pairs of an assignment, tuples unpacked pairwise."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value is not None:
        targets = [node.target]
    else:
        return
    for target in targets:
        if (isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                and len(target.elts) == len(node.value.elts)):
            yield from ((t.id, v) for t, v in zip(target.elts, node.value.elts)
                        if isinstance(t, ast.Name))
        else:
            yield from ((t.id, node.value) for t in ast.walk(target)
                        if isinstance(t, ast.Name))


def tolerance_compares(source: str) -> dict:
    """Per function, the lines of comparisons whose operands read a tolerance:
    a ``TOLS`` field, a ``*_TOL`` constant, a name ``tol``, or a local name
    assigned from one of those."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(fn))
        tainted, grew = {"tol"}, True
        while grew:
            grew = False
            for node in nodes:
                for name, value in _assigned(node):
                    if name not in tainted and _reads(value, tainted):
                        tainted.add(name)
                        grew = True
        for node in nodes:
            if (isinstance(node, ast.Compare)
                    and not all(isinstance(op, _NOT_ORDERING) for op in node.ops)
                    and _reads(node, tainted)):
                found.setdefault(fn.name, []).append(node.lineno)
    return found


def test_every_tolerance_gate_is_within():
    flagged, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for fn, lines in tolerance_compares(path.read_text(encoding="utf-8")).items():
            key = (path.stem, fn)
            if key in ALLOWED and len(lines) == ALLOWED[key][0]:
                seen.add(key)
            else:
                flagged.append(f"{path.name}:{fn} lines {sorted(lines)}")
    assert flagged == [], "compare through tolerances.within, or allowlist with a reason"
    assert seen == set(ALLOWED), f"stale allowlist entries: {set(ALLOWED) - seen}"


def test_guard_sees_the_idioms_it_replaces():
    src = ("def f(x, tol):\n"
           "    if x > tol: pass\n"
           "def g(x):\n"
           "    bound = TOLS.sub * 10\n"
           "    return bound < np.inf and x <= bound\n"
           "def h(r):\n"
           "    return r <= SQUARE_TOL\n"
           "def ok(x, tol=None):\n"
           "    tol = TOLS.sub if tol is None else tol\n"
           "    return within(x, tol)\n")
    assert tolerance_compares(src) == {"f": [2], "g": [5, 5], "h": [7]}


# Positivity decisions made outside ``psd_test``, by (module, function): how
# many the function holds, and why each stays.
ALLOWED_SPECTRAL = {
    ("cpmaps", "stinespring"): (1, "the eigh is needed for the Kraus operators anyway; a "
                                   "Cholesky would add a factorization to every dilation"),
}


def _spectral(node, names) -> bool:
    """Whether ``node`` calls ``min_eig`` or ``eigh``, or reads one of ``names``."""
    return any((isinstance(sub, ast.Call)
                and getattr(sub.func, "attr", getattr(sub.func, "id", None))
                in ("min_eig", "eigh"))
               or (isinstance(sub, ast.Name) and sub.id in names)
               for sub in ast.walk(node))


def positivity_decisions(source: str) -> dict:
    """Per function, the lines that decide positivity themselves: a call of
    ``cholesky`` or ``eigvalsh``, or a ``within`` whose value is computed
    from ``min_eig`` or ``eigh`` (directly or through local names)."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(fn))
        tainted, grew = set(), True
        while grew:
            grew = False
            for node in nodes:
                for name, value in _assigned(node):
                    if name not in tainted and _spectral(value, tainted):
                        tainted.add(name)
                        grew = True
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "attr", getattr(node.func, "id", None))
            if called in ("cholesky", "eigvalsh") or (
                    called == "within" and node.args and _spectral(node.args[0], tainted)):
                found.setdefault(fn.name, []).append(node.lineno)
    return {fn: sorted(lines) for fn, lines in found.items()}


def test_positivity_is_decided_in_hermspace_only():
    flagged, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "hermspace":
            continue
        for fn, lines in positivity_decisions(path.read_text(encoding="utf-8")).items():
            key = (path.stem, fn)
            if key in ALLOWED_SPECTRAL and len(lines) == ALLOWED_SPECTRAL[key][0]:
                seen.add(key)
            else:
                flagged.append(f"{path.name}:{fn} lines {lines}")
    assert flagged == [], "decide positivity through hermspace.psd_test"
    assert seen == set(ALLOWED_SPECTRAL), f"stale allowlist: {set(ALLOWED_SPECTRAL) - seen}"


def test_positivity_guard_sees_the_idioms_it_replaces():
    src = ("def f(h, j):\n"
           "    np.linalg.cholesky(h)\n"
           "    me = min_eig(j)\n"
           "    return within(-me, 1e-9) and within(-min_eig(h), 1e-9)\n"
           "def g(j):\n"
           "    return np.linalg.eigvalsh(j)[0]\n"
           "def k(j):\n"
           "    vals, vecs = np.linalg.eigh(j)\n"
           "    top = float(vals[-1])\n"
           "    return within(-vals[0], 1e-9, top) and within(-eigh(j)[0][0], 1e-9)\n"
           "def ok(j):\n"
           "    low, psd = psd_test(j)\n"
           "    return psd and within(abs(low), 1.0) and min_eig(j) < 0\n")
    assert positivity_decisions(src) == {"f": [2, 4, 4], "g": [6], "k": [10, 10]}


class TestWithin:
    def test_bound_is_tol_times_scale_at_least_one(self):
        assert within(1e-9, 1e-9) and not within(1.1e-9, 1e-9)
        assert within(1e-9, 1e-9, scale=0.5)
        assert within(3e-9, 1e-9, scale=3.0) and not within(3e-9, 1e-9, scale=2.0)
        assert within(0.0, 0.0) and not within(1e-300, 0.0)

    @pytest.mark.parametrize("value, tol, scale", [
        (np.nan, 1.0, 1.0),         # a NaN measurement
        (0.0, 1.0, np.nan),         # a NaN scale
        (0.0, 1.0, np.inf),         # an overflowed scale leaves no bound
        (0.0, 0.0, np.inf),         # 0 * inf is NaN
        (np.inf, 1.0, 1.0),
    ])
    def test_nan_and_infinite_bounds_fail(self, value, tol, scale):
        assert within(value, tol, scale) is False


class TestMagnitude:
    def test_equals_numpy_norm_where_finite(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        assert magnitude(x) == np.linalg.norm(x)
        assert np.array_equal(magnitude(x, axis=1), np.linalg.norm(x, axis=1))

    def test_overflowing_norm_is_rescaled(self):
        with np.errstate(over="ignore"):
            big = -1e300 * np.eye(4, dtype=complex)
            assert magnitude(big) == pytest.approx(2e300, rel=1e-15)
            rows = np.array([[1e300, 1e300], [3.0, 4.0], [0.0, 0.0]])
            assert magnitude(rows, axis=1) == pytest.approx([np.sqrt(2) * 1e300, 5.0, 0.0])

    def test_only_an_unrepresentable_norm_is_infinite(self):
        with np.errstate(over="ignore"):
            assert magnitude(np.full(4, 1e308)) == np.inf
            assert magnitude(np.array([np.inf, 1.0])) == np.inf
            assert np.isnan(magnitude(np.array([np.nan, 1e308, 1e308])))


def _tol_takers():
    """Each public function the README lists as taking a per-call ``tol``,
    called on a valid input with the given ``tol``."""
    rng = np.random.default_rng(5)
    fo2 = C.mk_first_order(2)
    rho = np.eye(2) / 2
    ident = structural("identity", 2)
    oneway = SM.random_oneway_channel(rng, 2, 2)
    pair = SM.random_decomp_pair(rng, 2, 2)
    box = E.transform_of_morphism(E.identity_morphism(fo2))
    return {
        "member": lambda tol: C.member(fo2, rho, tol),
        "membership_report": lambda tol: C.membership_report(fo2, rho, tol),
        "check_morphism": lambda tol: C.check_morphism(ident, fo2, fo2, tol),
        "nonsignalling_test": lambda tol: S.nonsignalling_test(oneway, 1, 1, tol),
        "comb_decompose": lambda tol: S.comb_decompose(oneway, 1, 1, tol),
        "coend_equiv": lambda tol: S.coend_equiv(pair, pair, tol),
        "equiv_certificate": lambda tol: S.equiv_certificate(pair, pair, tol),
        "fullness_reconstruct": lambda tol: E.fullness_reconstruct(box, fo2, fo2, tol=tol),
        "check_hermitian": lambda tol: check_hermitian(rho, tol),
        "psd_check": lambda tol: psd_check(rho, tol),
        "AffineSubspace.contains": lambda tol: fo2.states.contains(rho, tol),
        "AffineSubspace.contains_vec":
            lambda tol: fo2.states.contains_vec(herm_to_coords(rho), tol),
        "ChoiMap.is_cptp": lambda tol: ident.is_cptp(tol),
        "ChoiMap.is_trace_preserving": lambda tol: ident.is_trace_preserving(tol),
    }


@pytest.mark.parametrize("name", sorted(_tol_takers()))
def test_per_call_tol_is_validated(name):
    # a negative, NaN or infinite tol is refused before any gate reads it
    call = _tol_takers()[name]
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got"):
            call(bad)
    for good in (None, 1e-6):
        call(good)


def test_check_tol_names_the_setting():
    assert check_tol(None) is None and check_tol(0.0) == 0.0 and check_tol(2.5) == 2.5
    with pytest.raises(ValueError, match=r"^--tol must be a finite number >= 0, got -1"):
        check_tol(-1, "--tol")
