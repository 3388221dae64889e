"""Smooth Wasserstein lower bounds over certified test-function families,
and the exponential-ergodicity probe for the interpolating family.

The distance of order r is a supremum over functions whose derivative
bounds up to order r are all at most one; a finite family of rescaled
Gaussian bumps (closed-form bounds, so membership is certifiable) gives
a lower bound of that supremum.  Acceptance uses decay shape, never the
absolute values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._errors import DomainError
from .numerics import _normalized_bump_params
from .sampling import CHUNK, SampleBatch, make_rng, sample_isotropic_stable

__all__ = ["DistanceEstimate", "ErgodicityFit", "dwr_lower_bound", "ergodicity_probe", "export_probe_csv"]


@dataclass(frozen=True)
class DistanceEstimate:
    """Lower bound of the order-r smooth distance from a finite family."""

    value: float
    family_size: int
    order: int

    def __post_init__(self):
        if self.value < 0.0:
            raise DomainError("distance estimates are nonnegative")


def dwr_lower_bound(
    batch_a: SampleBatch,
    batch_b: SampleBatch,
    r: int,
    family: Optional[Sequence] = None,
    family_size: int = 50,
    seed: int = 1234,
) -> DistanceEstimate:
    """max over the family of |mean_a h - mean_b h|: a lower bound of the
    order-r smooth distance by construction."""
    if batch_a.dim != batch_b.dim:
        raise DomainError("batches live in different dimensions")
    if family is None:
        params = _normalized_bump_params(batch_a.dim, r, family_size, make_rng(seed, stream=7))
        size, means = len(params), lambda pts: _bump_means(pts, params)
    else:
        size, means = len(family), lambda pts: _family_means(pts, family)
    if size == 0:
        raise DomainError("empty test-function family")
    best = _largest_gap(means(batch_a.points), means(batch_b.points))
    return DistanceEstimate(value=best, family_size=size, order=r)


def _family_means(points, family) -> list:
    """mean h(x) over the points for each h of any family.  The values go
    into one length-n buffer in CHUNK-row blocks, which keeps the
    temporaries of ``h.evaluate`` small, and each mean is taken over the
    whole buffer, so it keeps the bits of a whole-batch evaluation."""
    values = np.empty(points.shape[0])
    means = []
    for h in family:
        for start in range(0, points.shape[0], CHUNK):
            values[start : start + CHUNK] = h.evaluate(points[start : start + CHUNK])
        means.append(float(np.mean(values)))
    return means


def _bump_means(points, params, scale: float = 1.0) -> list:
    """mean amplitude * exp(-a |scale x - c|^2) over the points for each
    (a, c, amplitude) of ``params``: the means of the plain bumps
    ``normalized_bumps`` builds from them, with the bits of
    ``np.mean(h.evaluate(scale * points))``.

    Each bump goes through one preallocated (n, d) work array and one
    length-n buffer by in-place ufuncs, so a family allocates O(n) once
    instead of temporaries per bump.  |y|^2 is the same ``einsum`` call
    as ``evaluate``; for d = 1 it is ``np.square``, which gives the same
    bits in any summation order, since a one-term sum is one rounding."""
    pts = points if scale == 1.0 else scale * points
    work = np.empty_like(pts)
    values = np.empty(pts.shape[0])
    means = []
    for a, c, amp in params:
        np.subtract(pts, c, out=work)
        if pts.shape[1] == 1:
            np.square(work[:, 0], out=values)
        else:
            np.einsum("nd,nd->n", work, work, out=values)
        values *= -a
        np.exp(values, out=values)
        if amp != 1.0:
            values *= amp
        means.append(float(np.mean(values)))
    return means


def _largest_gap(means_a, means_b) -> float:
    best = 0.0
    for va, vb in zip(means_a, means_b):
        best = max(best, abs(va - vb))
    return best


@dataclass(frozen=True)
class ErgodicityFit:
    """Least-squares decay fit of log-distance against t."""

    slope: float
    intercept: float
    r_squared: float
    t_grid: np.ndarray
    distances: np.ndarray
    status: str  # 'ok' | 'inconclusive'


def ergodicity_probe(
    alpha: float,
    d: int,
    t_grid: Sequence[float],
    n: int,
    seed: int,
    family_size: int = 24,
) -> ErgodicityFit:
    """Fitted decay rate of the order-1 distance between the time-t member
    and the target along the grid.

    The t-member batch is the target batch scaled by
    (1 - e^{-alpha t})^{1/alpha}, exactly as ``sample_residual_law`` draws
    it from the same seed (common random numbers), so the comparison
    noise scales with the signal instead of flooring it.  The target is
    drawn once; ``_bump_means`` scales it once per time and writes every
    bump of the family into one buffer, with the bits of ``h.evaluate``."""
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if np.any(t_grid <= 0.0):
        raise DomainError("probe times must be positive")
    target = sample_isotropic_stable(alpha, d, n, seed).points
    params = _normalized_bump_params(d, 1, family_size, make_rng(seed, stream=11))
    # the order-1 distance of dwr_lower_bound, with the target means taken once
    target_means = _bump_means(target, params)
    dists = []
    for t in t_grid:
        scale = (1.0 - math.exp(-alpha * float(t))) ** (1.0 / alpha)
        dists.append(_largest_gap(target_means, _bump_means(target, params, scale)))
    dists = np.asarray(dists)
    floor = 1e-14
    live = dists > floor
    if live.sum() < 3:
        return ErgodicityFit(0.0, 0.0, 0.0, t_grid, dists, "inconclusive")
    y = np.log(dists[live])
    slope, intercept = np.polyfit(t_grid[live], y, 1)
    fitted = slope * t_grid[live] + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return ErgodicityFit(float(slope), float(intercept), r2, t_grid, dists, "ok")


def export_probe_csv(fit: ErgodicityFit, path, std_errors: Optional[np.ndarray] = None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "distance", "std_error"])
        se = std_errors if std_errors is not None else np.zeros_like(fit.distances)
        for t, dist, s in zip(fit.t_grid, fit.distances, se):
            writer.writerow([t, dist, s])
