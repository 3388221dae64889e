"""Random-vector generation for stable laws and the interpolating family,
plus a Monte Carlo expectation engine with standard errors.

All randomness flows through a counter-based generator keyed by
(seed, stream), so batches are reproducible bit for bit regardless of
how the downstream computation is chunked or threaded.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
import numpy as np

from ._errors import DomainError, EvaluationError, RegimeError, UnsupportedFamilyError
from .levy import EULER_GAMMA, IDLaw, _is_isotropic, convert_representation

__all__ = [
    "SampleBatch",
    "MCEstimate",
    "make_rng",
    "sample_positive_stable",
    "sample_isotropic_stable",
    "sample_residual_law",
    "sample_stable_law",
    "mc_expectation",
    "export_csv",
]

CHUNK = 4096


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SampleBatch:
    """n x d matrix of draws plus the metadata needed to regenerate it."""

    points: np.ndarray
    seed: int
    law: dict

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 1:
            raise DomainError("a batch holds at least one sample")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            raise EvaluationError(f"non-finite sample in row {int(np.argmin(finite))}")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo value with standard error and sample count."""

    value: np.ndarray
    std_error: np.ndarray
    n: int

    def __post_init__(self):
        v = np.asarray(self.value, dtype=float)
        s = np.asarray(self.std_error, dtype=float)
        if np.any(s < 0.0):
            raise DomainError("standard errors are nonnegative")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "std_error", s)

    def within(self, target, n_se: float = 3.0) -> bool:
        return bool(np.all(np.abs(self.value - target) <= n_se * self.std_error))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _kanter(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """One-sided stable draws with Laplace transform exp(-lambda^alpha).

    Kanter's (a(u) / E)^((1-alpha)/alpha), with
    a(u) = sin((1-alpha)u) sin(alpha u)^(alpha/(1-alpha)) / sin(u)^(1/(1-alpha)),
    written as B^(1/alpha) with B = (sin((1-alpha)u) / E)^(1-alpha)
    sin(alpha u)^alpha / sin u.  No factor of B is raised to a power that
    grows as alpha -> 1, where sin(u)^(1/(1-alpha)) underflows to 0."""
    u = rng.uniform(0.0, math.pi, n)
    e = rng.exponential(1.0, n)
    b = (np.sin((1.0 - alpha) * u) / e) ** (1.0 - alpha) * np.sin(alpha * u) ** alpha / np.sin(u)
    return b ** (1.0 / alpha)


def sample_positive_stable(
    alpha_prime: float, scale: float, n: int, seed: int, stream: int = 0
) -> np.ndarray:
    """i.i.d. totally skewed positive stable variables with
    E exp(-lambda X) = exp(-scale * lambda^alpha_prime).  A draw beyond the
    float range (1 in 1200 at alpha_prime 0.01) raises EvaluationError."""
    if not (0.0 < alpha_prime < 1.0):
        raise DomainError("one-sided sampling needs an index in (0, 1)")
    if scale <= 0.0:
        raise DomainError("scale must be positive")
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = make_rng(seed, stream)
    with np.errstate(over="ignore"):  # reported below, by index
        x = scale ** (1.0 / alpha_prime) * _kanter(alpha_prime, n, rng)
    finite = np.isfinite(x)
    if not finite.all():
        raise EvaluationError(f"non-finite draw at index {int(np.argmin(finite))}")
    return x


def sample_isotropic_stable(alpha: float, d: int, n: int, seed: int, stream: int = 0) -> SampleBatch:
    """Rotationally invariant alpha-stable vectors with characteristic
    function exp(-|xi|^alpha / 2), via the subordinated-Gaussian product
    X = sqrt(A) Z with A one-sided (alpha/2)-stable of scale 2^(alpha/2-1)."""
    if not (0.0 < alpha < 2.0):
        raise DomainError("alpha must lie in (0, 2)")
    if d < 1 or n < 1:
        raise DomainError("need d >= 1 and n >= 1")
    rng = make_rng(seed, stream)
    scale = 2.0 ** (alpha / 2.0 - 1.0)
    a = scale ** (2.0 / alpha) * _kanter(alpha / 2.0, n, rng)
    z = rng.standard_normal((n, d))
    pts = np.sqrt(a)[:, None] * z
    return SampleBatch(points=pts, seed=seed, law={"family": "isotropic_stable", "alpha": alpha, "d": d})


def sample_residual_law(
    alpha: float, d: int, t: float, b0, n: int, seed: int, stream: int = 0
) -> SampleBatch:
    """Draws from the time-t member of the interpolating family: the
    point mass at 0 for t = 0, else the scaled stable vector
    (1 - e^{-alpha t})^{1/alpha} X plus the drift part (1 - e^{-t}) b0."""
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    b0 = np.zeros(d) if b0 is None else np.asarray(b0, dtype=float)
    if b0.shape != (d,):
        raise DomainError(f"b0 must have shape ({d},)")
    law = {"family": "residual_isotropic_stable", "alpha": alpha, "d": d, "t": t}
    if t == 0.0:
        return SampleBatch(points=np.zeros((n, d)), seed=seed, law=law)
    base = sample_isotropic_stable(alpha, d, n, seed, stream)
    pts = (1.0 - math.exp(-alpha * t)) ** (1.0 / alpha) * base.points
    pts = pts + (1.0 - math.exp(-t)) * b0
    return SampleBatch(points=pts, seed=seed, law=law)


def _skewed_cauchy_ray(weight: float, c: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Scalar draws whose characteristic exponent equals
    weight * c * int_0^inf (e^{i t r} - 1 - i t r 1_{r<=1}) r^{-2} dr."""
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    e = rng.exponential(1.0, n)
    x0 = (2.0 / math.pi) * (
        (math.pi / 2.0 + u) * np.tan(u)
        - np.log(((math.pi / 2.0) * e * np.cos(u)) / (math.pi / 2.0 + u))
    )
    sigma = weight * c * math.pi / 2.0
    mu = (2.0 / math.pi) * sigma * math.log(sigma) - weight * c * (EULER_GAMMA - 1.0)
    return sigma * x0 + mu


def sample_stable_law(law: IDLaw, n: int, seed: int, stream: int = 0) -> SampleBatch:
    """Exact sampler for the stable laws the package can simulate.

    Supported: the normalized rotationally invariant law in any dimension
    and under any shift, as decided by ``levy._is_isotropic`` (isotropic
    path); spheres of at most 8 atoms with alpha < 1 in the drift
    representation (sums of one-sided rays) or alpha = 1 in the triplet
    representation (skewed Cauchy rays).  Everything else, an anisotropic
    sphere of many atoms among it, raises, with the reason.
    """
    kf = law.levy.kf
    if kf.family != "stable":
        raise UnsupportedFamilyError(
            f"no exact sampler for the {kf.family!r} family; only stable members are simulated"
        )
    alpha = kf.alpha
    d = law.dim
    sphere = law.levy.sphere
    desc = {"family": "stable", "alpha": alpha, "d": d, "rep": law.rep}

    if _is_isotropic(law):
        # a symmetric sphere gives every representation the same shift
        base = sample_isotropic_stable(alpha, d, n, seed, stream)
        return SampleBatch(points=base.points + law.shift, seed=seed, law=desc)

    if sphere.atoms.shape[0] > 8:
        raise UnsupportedFamilyError(
            "atomic-sphere stable sampling is limited to <= 8 atoms; "
            "use the uniform sphere (>= 64 atoms in d >= 2) with the normalized amplitude instead"
        )
    rng = make_rng(seed, stream)
    pts = np.zeros((n, d))
    if alpha < 1.0:
        drift = law if law.rep == "drift_b0" else convert_representation(law, "drift_b0")
        g_neg = math.gamma(2.0 - alpha) / (alpha * (alpha - 1.0))  # gamma(-alpha)
        for x, w in zip(sphere.atoms, sphere.weights):
            ray_scale = -w * kf.c * g_neg  # = w c |gamma(-alpha)| > 0
            a = ray_scale ** (1.0 / alpha) * _kanter(alpha, n, rng)
            pts += a[:, None] * x
        pts += drift.shift
        return SampleBatch(points=pts, seed=seed, law=desc)
    if alpha == 1.0:
        trip = law if law.rep == "triplet_b" else convert_representation(law, "triplet_b")
        for x, w in zip(sphere.atoms, sphere.weights):
            y = _skewed_cauchy_ray(float(w), kf.c, n, rng)
            pts += y[:, None] * x
        pts += trip.shift
        return SampleBatch(points=pts, seed=seed, law=desc)
    raise UnsupportedFamilyError(
        "atomic-sphere sampling with alpha > 1 is not provided; "
        "use the isotropic path for the finite-mean regime"
    )


# ---------------------------------------------------------------------------
# Monte Carlo expectations
# ---------------------------------------------------------------------------


def mc_expectation(f, batch: SampleBatch, growth_order: float = 0.0) -> MCEstimate:
    """Sample mean and standard error of f over the batch.

    The reduction runs over fixed-size chunks in index order, so reruns
    on the same batch give the same bits.
    Expectations of unbounded integrands are only offered when the
    declared ``growth_order`` p (|f(x)| <= C (1 + |x|)^p) is strictly
    below the law's tail index; otherwise the moment may not exist and
    the engine refuses.
    """
    alpha = batch.law.get("alpha")
    if growth_order > 0.0 and alpha is not None and growth_order >= alpha:
        raise RegimeError(
            f"declared growth order {growth_order} is not below the tail index {alpha}; "
            "the expectation may not exist"
        )
    return _chunked_mean(batch, f)


def _chunked_mean(batch: SampleBatch, per_chunk) -> MCEstimate:
    """Mean and standard error of a per-sample statistic, evaluated by
    ``per_chunk`` on CHUNK rows of the batch at a time.

    Each chunk contributes its count, mean and centred sum of squares,
    merged in chunk-index order by the pairwise update of Chan, Golub and
    LeVeque (1983), so the result is deterministic and a mean that is
    large against the spread costs the variance no precision."""
    n = 0
    for start in range(0, batch.n, CHUNK):
        vals = np.asarray(per_chunk(batch.points[start : start + CHUNK]), dtype=float)
        k = min(CHUNK, batch.n - start)
        if vals.shape[:1] != (k,):
            raise DomainError("f must return one value per sample point")
        finite = np.isfinite(vals).reshape(k, -1).all(axis=1)
        if not finite.all():
            bad = start + int(np.argmin(finite))
            raise EvaluationError(f"non-finite integrand at sample index {bad}", node=bad)
        mean_k = vals.mean(axis=0)
        m2_k = ((vals - mean_k) ** 2).sum(axis=0)
        if n == 0:
            mean, m2 = mean_k, m2_k
        else:
            delta = mean_k - mean
            mean = mean + delta * (k / (n + k))
            m2 = m2 + m2_k + delta**2 * (n * k / (n + k))
        n += k
    se = np.sqrt(m2 / n / max(n - 1, 1))
    return MCEstimate(value=mean, std_error=se, n=n)


def empirical_char_fn(batch: SampleBatch, xi) -> tuple:
    """Empirical characteristic function at xi with its (complex-mean)
    standard error sqrt(E|probe - mean|^2 / n)."""
    xi = np.asarray(xi, dtype=float)
    probe = np.exp(1j * batch.points @ xi)
    mean = complex(probe.mean())
    se = float(np.sqrt(np.mean(np.abs(probe - mean) ** 2) / batch.n))
    return mean, se


def export_csv(batch: SampleBatch, path) -> None:
    """Write the batch as CSV with header x1..xd."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(batch.dim)])
        writer.writerows(batch.points.tolist())
