"""Shared test plumbing: acceptance verdict lines echoed in the summary, and
random types built from atoms and every connective."""

import pytest

from caustyk.causobj import (dual_obj, hom_obj, mk_classical, mk_first_order,
                             par_obj, seq_obj, tensor_obj)
from caustyk.errors import CaustykError

_LINES = []


@pytest.fixture
def criterion():
    """Record one PASS/FAIL line for an acceptance criterion, then assert."""
    def report(tag: str, ok: bool, detail: str):
        line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
        _LINES.append(line)
        print(line)
        assert ok, line
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)


def _random_atom(rng):
    if rng.uniform() < 0.2:
        return mk_classical(int(rng.integers(2, 4)))
    return mk_first_order(int(rng.integers(1, 4)))


def _random_object(rng, *, max_dim: int = 16, depth: int = 3):
    """A random type built from atoms and all five connectives, dim bounded."""
    if depth <= 0 or rng.uniform() < 0.3:
        return _random_atom(rng)
    kind = rng.choice(["dual", "tensor", "par", "seq", "hom"])
    if kind == "dual":
        return dual_obj(_random_object(rng, max_dim=max_dim, depth=depth - 1))
    a = _random_object(rng, max_dim=max_dim, depth=depth - 1)
    budget = max_dim // max(1, a.dim)
    if budget < 1:
        return a
    b = _random_object(rng, max_dim=budget, depth=depth - 1)
    if a.dim * b.dim > max_dim:
        b = mk_first_order(1)
    build = {"tensor": tensor_obj, "par": par_obj, "seq": seq_obj, "hom": hom_obj}
    try:
        return build[kind](a, b)
    except CaustykError:
        return a


@pytest.fixture(scope="session")
def random_object():
    """``random_object(rng, max_dim=16, depth=3)``: a seeded random type."""
    return _random_object
