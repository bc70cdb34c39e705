"""Numerical tolerance pack and the one rule every verdict decides by.

All thresholds live here so that the whole stack can be loosened or tightened
coherently. The environment variable ``CAUSTYK_TOL`` overrides the base
subspace tolerance (default 1e-9); the remaining thresholds scale with it.

Every tolerance gate in the package is :func:`within`, and the norms that feed
one are :func:`magnitude`, so that an overflow never decides a verdict.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Bundle of numerical thresholds used across the package.

    Each field drives at least one decision in the package. Only the
    functions behind a CLI verdict, and the membership and matrix checks
    they call, take a per-call ``tol`` in place of these defaults.

    Attributes:
        herm: allowed deviation from Hermiticity.
        psd: eigenvalue floor for positive-semidefinite checks.
        sub: base rank/containment tolerance for subspaces. Rank decisions are
            scale-aware: singular values count when they exceed
            ``sub * max(sigma_max, 1)``.
        decomp: acceptance threshold for decomposition residuals.
        roundtrip: threshold for recomposition round trips.
        slide: per-step threshold for rewriting certificates.
    """

    herm: float = 1e-10
    psd: float = 1e-9
    sub: float = 1e-9
    decomp: float = 1e-6
    roundtrip: float = 1e-8
    slide: float = 1e-7

    def rank_cut(self, sigma_max: float) -> float:
        """Singular-value cutoff for rank decisions at the given scale."""
        return self.sub * max(sigma_max, 1.0)


_BASE = Tolerances.sub      # fields at the base (psd, sub) scale to CAUSTYK_TOL exactly


def check_tol(tol: float | None, name: str = "tol") -> float | None:
    """``tol`` itself if it is unset or a finite number >= 0; else a
    ``ValueError`` naming it. Every public function that takes a per-call
    ``tol`` passes it here before reading it, and so does the CLI's ``--tol``.
    ``CAUSTYK_TOL`` is checked where it is read: it must also be positive,
    since the other fields scale with it."""
    if tol is not None and not 0.0 <= tol < math.inf:     # NaN fails both
        raise ValueError(f"{name} must be a finite number >= 0, got {tol!r}")
    return tol


def _from_env() -> Tolerances:
    raw = os.environ.get("CAUSTYK_TOL")
    if raw is None:
        return Tolerances()
    try:
        base = float(raw)
    except ValueError:
        base = math.nan
    if not (math.isfinite(base) and base > 0):
        raise ValueError(f"CAUSTYK_TOL must be a positive finite number, got {raw!r}")
    s = base / _BASE
    return Tolerances(**{f.name: base if f.default == _BASE else f.default * s
                         for f in fields(Tolerances)})


TOLS = _from_env()


def within(value: float, tol: float, scale: float = 1.0) -> bool:
    """Whether ``value <= tol * max(scale, 1)``. A NaN value or scale fails,
    and so does an infinite bound: a scale that overflowed leaves none."""
    bound = tol * max(scale, 1.0)      # max keeps a NaN scale: it is the first argument
    return bool(bound < math.inf and value <= bound)


def magnitude(x, axis: int | None = None):
    """Frobenius norm of ``x``, or of each slice along ``axis``; where numpy's
    norm overflows it is taken again on the entries divided by their largest
    modulus (Higham, *Accuracy and Stability of Numerical Algorithms*, 27.5)."""
    n = np.linalg.norm(x, axis=axis)
    if (n == math.inf).any():
        top = np.max(np.abs(x), axis=axis, keepdims=True)
        with np.errstate(invalid="ignore"):     # 0/0 and inf/inf, in slices not kept
            scaled = np.squeeze(top, axis) * np.linalg.norm(x / top, axis=axis)
        n = np.where(np.isinf(n) & np.isfinite(scaled), scaled, n)
    return float(n) if axis is None else n
