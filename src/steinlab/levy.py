"""Lévy-measure data model in polar form and the Fourier-side machinery
built on it: characteristic exponents in three representations, the
derived measure obtained by radial differentiation of the k-function,
and the one- and two-frequency symbols of the associated non-local
operators.

Each built-in k-function has two radial densities, written once in
``_density``: rho = k(r)/r for the Lévy measure nu and rho = -k'(r) for
the derived measure nu~, both of the form amp r^-p e^(-lam r) (1 + b r).
A density carries its derivatives, one decay horizon, and one tail
moment ``_tail_moment``; the jump quadrature of ``jumps`` uses the same
densities.  Every symbol is one profile sum ``_symbol``, the sphere's
weights against the radial profile integral

    int_0^inf phi(r s) rho(r) dr,   s = <atom, v>,

of one phase phi; sigma~ and rho~ are the cocycles
S(xi + zeta) - S(xi) - S(zeta) of the ball and the sigma profile sums of
nu~.  Profiles are evaluated with cancellation-safe phase functions, an
analytic Taylor correction below the smallest node, and three-term
integration-by-parts tails for the oscillatory part.  One integrator,
``_log_quad_panels``, takes the panels of every frequency of a profile
sum at once: all panels advance one level of a nested log-Simpson grid
per pass, each level evaluates only its new nodes, and a panel's value
does not depend on the others in the batch.  Pure power-law profiles are
reduced to cached base integrals at |s| = 1 through exact scaling, and
the center form is the ball form less one tail moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from ._errors import DomainError, EvaluationError, RegimeError, UnsupportedFamilyError
from .numerics import SphericalGrid, log_radial_grid, radial_integral, uniform_sphere

__all__ = [
    "KFunction",
    "LevyPolar",
    "IDLaw",
    "TildeNu",
    "stable_k",
    "tempered_k",
    "gamma_k",
    "c_alpha_d",
    "cauchy_c",
    "isotropic_stable_law",
    "lk_exponent",
    "char_fn",
    "tilde_nu",
    "convert_representation",
    "symbol_sigma_nu",
    "symbol_sigma_tilde",
    "symbol_rho_tilde",
    "normalization_check",
]

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# normalizing constants
# ---------------------------------------------------------------------------


def c_alpha_d(alpha: float, d: int) -> float:
    """Radial amplitude making the uniform-sphere stable law's
    characteristic function equal exp(-|xi|^alpha / 2).

    Valid on alpha in (0, 2) excluding 1 (pole of the closed form); the
    alpha = 1 amplitude is :func:`cauchy_c`.
    """
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise DomainError(f"alpha must lie in (0,1) or (1,2), got {alpha}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    num = -alpha * (alpha - 1.0) * math.gamma((alpha + d) / 2.0)
    den = (
        4.0
        * math.cos(alpha * math.pi / 2.0)
        * math.gamma((alpha + 1.0) / 2.0)
        * math.pi ** ((d - 1) / 2.0)
        * math.gamma(2.0 - alpha)
    )
    return num / den


def cauchy_c(d: int) -> float:
    """Amplitude for the alpha = 1 rotationally invariant law with
    characteristic function exp(-|xi| / 2)."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return math.gamma((d + 1) / 2.0) / (2.0 * math.pi ** ((d + 1) / 2.0))


def _isotropic_amplitude(alpha: float, d: int) -> float:
    """The normalizing amplitude for every alpha: :func:`c_alpha_d`, or
    :func:`cauchy_c` at its pole alpha = 1."""
    return cauchy_c(d) if alpha == 1.0 else c_alpha_d(alpha, d)


def _is_isotropic(law: IDLaw) -> bool:
    """The one isotropy rule: a stable law on a uniform sphere
    (``SphericalGrid.is_uniform``) with the normalizing amplitude (rel
    1e-10), under any shift."""
    kf = law.levy.kf
    return (
        kf.family == "stable"
        and math.isclose(kf.c, _isotropic_amplitude(kf.alpha, law.dim), rel_tol=1e-10)
        and law.levy.sphere.is_uniform()
    )


# ---------------------------------------------------------------------------
# k-functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KFunction:
    """Decreasing radial profile k(r) of a self-decomposable Lévy measure.

    Built-in families:
      stable:    k(r) = c r^-alpha
      tempered:  k(r) = c r^-alpha exp(-lam r)
      gamma:     k(r) = c exp(-lam r)
    Custom profiles supply ``eval_fn`` (and ideally ``deriv_fn``); their
    derivative falls back to five-point differences on the log grid.
    """

    family: str
    alpha: float = float("nan")
    c: float = 1.0
    lam: float = 0.0
    eval_fn: Optional[Callable] = None
    deriv_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.family not in ("stable", "tempered", "gamma", "custom"):
            raise DomainError(f"unknown k-function family {self.family!r}")
        if self.family in ("stable", "tempered"):
            if not (0.0 < self.alpha < 2.0):
                raise DomainError("stable/tempered families need alpha in (0, 2)")
        if self.family in ("tempered", "gamma") and self.lam <= 0.0:
            raise DomainError("tempering rate must be positive")
        if self.family != "custom" and self.c <= 0.0:
            raise DomainError("amplitude must be positive")
        if self.family == "custom" and self.eval_fn is None:
            raise DomainError("custom family needs eval_fn")
        if self.family != "custom":
            self._check_decreasing()

    # -- pointwise -----------------------------------------------------

    def k(self, r):
        r = np.asarray(r, dtype=float)
        if self.family != "custom":
            # r rho_nu(r), as the density one power lower: finite at r = 0
            nu = _density(self, "nu")
            return replace(nu, p=nu.p - 1.0).rho(r)
        return np.asarray(self.eval_fn(r), dtype=float)

    def dk(self, r):
        """dk/dr (<= 0).  Five-point log-grid differences for custom
        profiles without an analytic derivative."""
        r = np.asarray(r, dtype=float)
        if self.family != "custom":
            return -_density(self, "tilde").rho(r)
        if self.deriv_fn is not None:
            return np.asarray(self.deriv_fn(r), dtype=float)
        h = 1e-3  # five-point stencil in log r
        lr = np.log(r)
        vals = [self.k(np.exp(lr + j * h)) for j in (-2, -1, 1, 2)]
        dlog = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        return dlog / r

    def q(self, r):
        """Radial density of the derived measure: -dk/dr."""
        return -self.dk(r)

    # -- structure -----------------------------------------------------

    @property
    def small_exponent(self) -> float:
        """p with k(r) ~ c r^-p as r -> 0+ (0 for the gamma family)."""
        if self.family in ("stable", "tempered"):
            return self.alpha
        if self.family == "gamma":
            return 0.0
        raise UnsupportedFamilyError("custom profiles carry no declared small-r exponent")

    @property
    def small_jump_integrable(self) -> bool:
        """int_0^1 k(r) dr < infinity, i.e. the small jumps of the Lévy
        measure have a first moment."""
        return self.small_exponent < 1.0

    @property
    def tail_integrable(self) -> bool:
        """int_1^inf k(r) dr < infinity (big jumps have a first moment)."""
        return self.family != "stable" or self.alpha > 1.0

    @property
    def r_k_limit_zero(self) -> bool:
        """r k(r) -> 0 as r -> 0+ (small-jump characterization regime)."""
        return self.small_exponent < 1.0

    @property
    def r_k_limit_matches_k1(self) -> bool:
        """r k(r) -> k(1) as r -> 0+, the hallmark of the alpha = 1 profile."""
        # a tempered alpha = 1 profile has r k(r) -> c but k(1) = c e^-lam
        return self.family == "stable" and self.alpha == 1.0

    def _check_decreasing(self):
        r = np.logspace(-6, 4, 64)
        kv = self.k(r)
        if np.any(kv < 0.0) or np.any(np.diff(kv) > 1e-12 * (1.0 + np.abs(kv[:-1]))):
            raise DomainError("k-function must be nonnegative and decreasing")

    # -- closed radial moments ------------------------------------------

    def k_moment_small(self) -> float:
        """int_0^1 k(r) dr (requires small-jump integrability)."""
        if not self.small_jump_integrable:
            raise RegimeError("int_0^1 k diverges for this profile")
        if self.family == "stable":
            return self.c / (1.0 - self.alpha)
        if self.family == "gamma":
            return self.c * (1.0 - math.exp(-self.lam)) / self.lam
        grid = log_radial_grid(1e-12, 1.0, points_per_decade=48)
        val = radial_integral(lambda r: self.k(r), grid, rel_tol=1e-10)
        # analytic continuation below the smallest node
        p = self.small_exponent
        return val + self.c * 1e-12 ** (1.0 - p) / (1.0 - p)

    def k_moment_tail(self) -> float:
        """int_1^inf k(r) dr (requires tail integrability)."""
        if not self.tail_integrable:
            raise RegimeError("int_1^inf k diverges for this profile")
        if self.family != "custom":
            return _tail_moment(_density(self, "nu"), 1.0, 1)
        hi = RadialDensity(self.c, 0.0, max(self.lam, 1e-12)).horizon
        grid = log_radial_grid(1.0, hi, points_per_decade=48)
        return radial_integral(lambda r: self.k(r), grid, rel_tol=1e-10)


def stable_k(alpha: float, c: float) -> KFunction:
    return KFunction(family="stable", alpha=alpha, c=c)


def tempered_k(alpha: float, c: float, lam: float) -> KFunction:
    return KFunction(family="tempered", alpha=alpha, c=c, lam=lam)


def gamma_k(c: float, lam: float) -> KFunction:
    return KFunction(family="gamma", c=c, lam=lam)


# ---------------------------------------------------------------------------
# radial densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialDensity:
    """Radial density rho(r) = amp r^-p e^(-lam r) (1 + b r): a pure power
    law when lam = 0 (and then b = 0), exponentially decaying otherwise."""

    amp: float
    p: float
    lam: float = 0.0
    b: float = 0.0

    @property
    def horizon(self) -> float:
        """Radius past which amp e^(-lam r) < e^-45 (inf for a pure power)."""
        if self.lam == 0.0:
            return math.inf
        return (45.0 + math.log1p(self.amp)) / self.lam + 2.0

    @property
    def extra(self):
        """r -> rho(r) / (amp r^-p), or None for a pure power law."""
        return None if self.lam == 0.0 else self._extra

    def _extra(self, r):
        e = np.exp(-self.lam * r)
        return e if self.b == 0.0 else e * (1.0 + self.b * r)

    def _scaled(self, r, k: float):
        """amp r^-(p + k) e^(-lam r)."""
        base = self.amp * r ** -(self.p + k)
        return base if self.lam == 0.0 else base * np.exp(-self.lam * r)

    def rho(self, r):
        r = np.asarray(r, dtype=float)
        base = self.amp * r**-self.p
        return base if self.lam == 0.0 else base * self._extra(r)

    def drho(self, r):
        """rho'(r), by the product rule."""
        r = np.asarray(r, dtype=float)
        q, br = self.p + self.lam * r, self.b * r
        return self._scaled(r, 1.0) * (br - q * (1.0 + br))

    def d2rho(self, r):
        """rho''(r), by the product rule."""
        r = np.asarray(r, dtype=float)
        q, br = self.p + self.lam * r, self.b * r
        return self._scaled(r, 2.0) * ((q * q + self.p) * (1.0 + br) - 2.0 * br * q)


def _density(kf: KFunction, kind: str) -> RadialDensity:
    """kind 'nu' -> rho = k(r)/r;  kind 'tilde' -> rho = -k'(r)."""
    nu = kind == "nu"
    if kf.family == "stable":
        return RadialDensity(kf.c if nu else kf.alpha * kf.c, kf.alpha + 1.0)
    if kf.family == "tempered":
        a, lam = kf.alpha, kf.lam
        return RadialDensity(kf.c, a + 1.0, lam) if nu else RadialDensity(a * kf.c, a + 1.0, lam, lam / a)
    if kf.family == "gamma":
        return RadialDensity(kf.c, 1.0, kf.lam) if nu else RadialDensity(kf.c * kf.lam, 0.0, kf.lam)
    raise UnsupportedFamilyError(
        "radial densities exist for the stable / tempered / gamma families only"
    )


def density_nu(kf: KFunction) -> RadialDensity:
    """k(r)/r, the radial density of the Lévy measure."""
    return _density(kf, "nu")


def density_tilde(kf: KFunction) -> RadialDensity:
    """-k'(r), the radial density of the derived measure."""
    return _density(kf, "tilde")


def _tail_moment(dens: RadialDensity, A, power: int):
    """int_A^inf r^power rho(r) dr for a radius A or an array of radii:
    closed form for a pure power law, else the refined log-Simpson rule up
    to the horizon (0 beyond it)."""
    if dens.lam == 0.0:
        if dens.p <= power + 1.0:
            raise RegimeError("the big-jump tail has no moment of this order")
        return dens.amp * A ** (power + 1.0 - dens.p) / (dens.p - power - 1.0)
    radii = np.asarray(A, dtype=float)
    out = np.zeros(radii.shape)
    live = radii < dens.horizon
    # the node spacing near A, A du, must also resolve the decay length 1/lam
    du = 1.0 / (32.0 * (1.0 + dens.lam * radii[live]))
    out[live] = _log_quad_panels(radii[live], dens.horizon, du, lambda r, i: r**power * dens.rho(r)).real
    return out if radii.ndim else float(out)


# ---------------------------------------------------------------------------
# polar Lévy measures and ID laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyPolar:
    """Lévy measure nu(du) = 1(r>0) k(r)/r dr sigma(dx) in polar form."""

    sphere: SphericalGrid
    kf: KFunction
    small_jump_first_moment: bool = field(default=None)
    tail_first_moment: bool = field(default=None)

    def __post_init__(self):
        sj = self.kf.small_jump_integrable if self.small_jump_first_moment is None else self.small_jump_first_moment
        tl = self.kf.tail_integrable if self.tail_first_moment is None else self.tail_first_moment
        if sj != self.kf.small_jump_integrable and self.kf.family != "custom":
            raise RegimeError("declared small-jump flag contradicts the family tag")
        if tl != self.kf.tail_integrable and self.kf.family != "custom":
            raise RegimeError("declared tail flag contradicts the family tag")
        object.__setattr__(self, "small_jump_first_moment", sj)
        object.__setattr__(self, "tail_first_moment", tl)
        self._spot_check_levy_integrability()

    def _spot_check_levy_integrability(self):
        # int (1 ^ r^2) k(r)/r dr must be finite; sample it on a default grid
        grid = log_radial_grid(1e-10, 1e6, points_per_decade=24)
        r = grid.nodes
        vals = np.minimum(1.0, r**2) * self.kf.k(r) / r
        if not np.all(np.isfinite(vals)):
            raise DomainError("k(r)/r not evaluable on the default grid")
        total = float(np.dot(grid.weights, vals))
        if not np.isfinite(total):
            raise DomainError("Lévy integrability check failed")

    @property
    def dim(self) -> int:
        return self.sphere.dim


REPRESENTATIONS = ("triplet_b", "drift_b0", "center_b1")


@dataclass(frozen=True)
class IDLaw:
    """Infinitely divisible law: shift vector + polar Lévy measure +
    the representation the shift refers to (triplet / drift / center)."""

    shift: np.ndarray
    levy: LevyPolar
    rep: str = "triplet_b"

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=float)
        if shift.shape != (self.levy.dim,):
            raise DomainError(f"shift must have shape ({self.levy.dim},)")
        if self.rep not in REPRESENTATIONS:
            raise DomainError(f"rep must be one of {REPRESENTATIONS}")
        if self.rep == "drift_b0" and not self.levy.small_jump_first_moment:
            raise RegimeError("drift representation needs small jumps with a first moment")
        if self.rep == "center_b1" and not self.levy.tail_first_moment:
            raise RegimeError("center representation needs an integrable big-jump tail")
        object.__setattr__(self, "shift", shift)

    @property
    def dim(self) -> int:
        return self.levy.dim


@dataclass(frozen=True)
class TildeNu:
    """Derived Lévy measure: radial density -dk/dr against sigma(dx)."""

    sphere: SphericalGrid
    kf: KFunction

    def radial_density(self, r):
        return self.kf.q(r)

    @property
    def dim(self) -> int:
        return self.sphere.dim


def tilde_nu(kf: KFunction, sphere: SphericalGrid) -> TildeNu:
    """Derived measure of a polar profile; rejects increasing profiles."""
    r = np.logspace(-6, 4, 64)
    q = kf.q(r)
    if np.any(q < -1e-12 * (1.0 + np.abs(q))):
        raise DomainError("monotonicity violation: k must be decreasing (found dk/dr > 0)")
    return TildeNu(sphere=sphere, kf=kf)


def isotropic_stable_law(
    alpha: float,
    d: int,
    n_atoms: Optional[int] = None,
    rep: str = "triplet_b",
    c: Optional[float] = None,
) -> IDLaw:
    """Rotationally invariant alpha-stable law normalized so that the
    characteristic function is exp(-|xi|^alpha / 2)."""
    kf = stable_k(alpha, c if c is not None else _isotropic_amplitude(alpha, d))
    lp = LevyPolar(sphere=uniform_sphere(d, n_atoms), kf=kf)
    return IDLaw(shift=np.zeros(d), levy=lp, rep=rep)


# ---------------------------------------------------------------------------
# radial profile integrals
# ---------------------------------------------------------------------------


def _complex(re, im):
    """re + i im, without complex arithmetic."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _cphi_raw(theta):
    """e^{i theta} - 1 without small-angle cancellation in the real part."""
    return _complex(-2.0 * np.sin(theta / 2.0) ** 2, np.sin(theta))


def _cphi_full(theta):
    """e^{i theta} - 1 - i theta; series for the imaginary part near 0."""
    theta = np.asarray(theta, dtype=float)
    t2 = theta * theta
    series = -theta * t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0 * (1.0 - t2 / 72.0)))
    im = np.where(np.abs(theta) < 0.5, series, np.sin(theta) - theta)
    return _complex(-2.0 * np.sin(theta / 2.0) ** 2, im)


def _cphi_sigma(theta):
    """i theta (e^{i theta} - 1)."""
    return 1j * theta * _cphi_raw(theta)


# integrand nodes the panel integrator evaluates at once; a panel with
# more new nodes than this at one level is summed in pieces of this size,
# so peak memory depends neither on the number of frequencies nor on their
# size
_NODE_BLOCK = 1 << 14

# floor of the panel-size denominators: a frequency whose square or cube
# underflows takes the widest panels instead of dividing by zero
_TINY = np.finfo(float).tiny

# floor of the frequencies that size panels: 12 / s and 2 pi / (10 s r)
# stay finite, and a decaying density's panels are the same below it
_S_FLOOR = 1e-300


def _segment_starts(counts):
    """Offset of each of the consecutive segments of the given lengths."""
    return np.cumsum(counts) - counts


def _ragged_arange(counts):
    """(k, owner): 0, ..., c - 1 for each entry c of ``counts``, concatenated,
    and the entry each k belongs to."""
    owner = np.repeat(np.arange(counts.size), counts)
    return np.arange(owner.size) - _segment_starts(counts)[owner], owner


def _node_sums(f, ulo, h, first: int, count, panel) -> np.ndarray:
    """sum_{k < count_i} g(ulo_i + (first + 2 k) h_i) for each panel i, with
    g(u) = f(r, panel_i) r at r = e^u.

    A panel's nodes are summed in pieces of ``_NODE_BLOCK`` counted from its
    first node, and its pieces in order: ``np.add.reduceat`` reduces each
    piece on its own, whatever else is evaluated in the same block."""
    n_pieces = -(-count // _NODE_BLOCK)
    q, owner = _ragged_arange(n_pieces)
    size = np.minimum(count[owner] - q * _NODE_BLOCK, _NODE_BLOCK)
    j0 = first + 2 * _NODE_BLOCK * q  # node index of each piece's first node
    ends = np.cumsum(size)
    sums = np.empty(owner.size, dtype=complex)
    a = 0
    while a < owner.size:
        before = ends[a] - size[a]  # nodes in the pieces before piece a
        b = max(int(np.searchsorted(ends, before + _NODE_BLOCK, side="right")), a + 1)
        sz, o = size[a:b], owner[a:b]
        starts = _segment_starts(sz)
        j = 2 * np.arange(ends[b - 1] - before) + np.repeat(j0[a:b] - 2 * starts, sz)
        r = np.exp(np.repeat(ulo[o], sz) + j * np.repeat(h[o], sz))
        sums[a:b] = np.add.reduceat(f(r, np.repeat(panel[o], sz)) * r, starts)
        a = b
    return np.add.reduceat(sums, _segment_starts(n_pieces))


def _log_quad_panels(lo, hi, du_cap, f, rel=1e-9) -> np.ndarray:
    """Adaptive composite Simpson of f(r, i) dr on log grids over the panels
    (lo_i, hi_i), where i holds each node's panel.

    A panel starts from max(16, log(hi/lo) / min(du_cap, 1/48)) intervals,
    rounded up to even, and doubles them at most four times, until two
    levels agree to ``rel`` relative (the rule of ``numerics._refine``).
    All panels advance one level per pass.  A level evaluates f only at its
    new (odd) nodes; each panel keeps running sums of its end, odd and even
    nodes.  Returns each panel's last level."""
    lo, hi, du_cap = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float)) for x in (lo, hi, du_cap)))
    if not lo.size:
        return np.zeros(0, dtype=complex)
    n = np.maximum(16, np.ceil(np.log(hi / lo) / np.minimum(du_cap, 1.0 / 48.0)).astype(np.int64) + 1)
    n += n % 2
    ulo, uhi = np.log(lo), np.log(hi)
    h = (uhi - ulo) / n
    panel = np.arange(lo.size)
    r = np.exp(np.concatenate([ulo, uhi]))
    g = f(r, np.concatenate([panel, panel])) * r
    ends = g[: lo.size] + g[lo.size :]
    odd = _node_sums(f, ulo, h, 1, n // 2, panel)
    even = _node_sums(f, ulo, h, 2, n // 2 - 1, panel)
    value = h / 3.0 * (ends + 4.0 * odd + 2.0 * even)
    for level in range(1, 5):
        if not panel.size:
            break
        even[panel] += odd[panel]
        h[panel] /= 2.0
        odd[panel] = _node_sums(f, ulo[panel], h[panel], 1, n[panel] << (level - 1), panel)
        new = h[panel] / 3.0 * (ends[panel] + 4.0 * odd[panel] + 2.0 * even[panel])
        done = np.abs(new - value[panel]) <= rel * np.maximum(np.abs(new), 1e-300)
        value[panel] = new
        panel = panel[~done]
    return value


def _osc_tail(A, rho, dens: RadialDensity, power: int) -> np.ndarray:
    """int_A^inf e^{i r rho} r^power dens(r) dr for arrays of radii A and
    nonzero frequencies rho.

    0 from the decay horizon on, where the density is e^-45 of its
    amplitude; else three-term integration by parts from
    B = max(A, 12 / |rho|), where |rho| B >= 12 makes it hold, with the
    stretch (A, B) by quadrature."""
    A, rho = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(rho, dtype=float))
    out = np.zeros(A.shape, dtype=complex)
    live = A < dens.horizon
    A, rho = A[live], rho[live]
    B = np.minimum(np.maximum(A, 12.0 / np.maximum(np.abs(rho), _S_FLOOR)), dens.horizon)
    tail = np.zeros(A.shape, dtype=complex)
    head = B > A
    if head.any():
        rh = rho[head]
        du = np.minimum(1.0 / 48.0, 2.0 * math.pi / (10.0 * np.abs(rh) * B[head]))
        f = lambda r, i: np.exp(1j * r * rh[i]) * r**power * dens.rho(r)
        tail[head] = _log_quad_panels(A[head], B[head], du, f)
    ibp = B < dens.horizon
    B, rho = B[ibp], rho[ibp]
    v, vp, vpp = dens.rho(B), dens.drho(B), dens.d2rho(B)
    if power == 1:
        v, vp, vpp = B * v, v + B * vp, 2.0 * vp + B * vpp
    z = 1j * rho
    tail[ibp] += np.exp(1j * B * rho) * (-v / z + vp / z**2 - vpp / z**3)
    out[live] = tail
    return out


def _projections(sphere, xi) -> np.ndarray:
    """<atom, xi> for every atom, with |s| <= 64 eps |xi| set to 0: an atom
    orthogonal to xi up to rounding (uniform_sphere(2) holds (6.1e-17, 1))
    would otherwise enter the profiles as a frequency of 1e-17."""
    xi = np.asarray(xi, dtype=float)
    s = sphere.atoms @ xi
    s[np.abs(s) <= 64.0 * np.finfo(float).eps * np.linalg.norm(xi)] = 0.0
    return s


def _cutoff_A(dens: RadialDensity, s_abs, tol, power: int):
    """End of the octave panels for frequencies |s| >= ``_S_FLOOR``."""
    p = dens.p - power
    A = (dens.amp * max(p, 0.5) * (p + 1.0) / np.maximum(tol * s_abs**3, _TINY)) ** (1.0 / (p + 2.0))
    # beyond the decay horizon the density is numerically zero, and the
    # tail past a cap there is dropped
    return np.minimum(np.maximum(np.maximum(16.0, 12.0 / s_abs), A), dens.horizon)


_PHASE = {"raw": _cphi_raw, "ball": _cphi_full, "sigma": _cphi_sigma}


def _profile_generic(s, dens: RadialDensity, mode: str, tol: float = 1e-10):
    """int_0^inf phi_mode(r s) rho(r) dr for an array of nonzero frequencies
    s (a float gives a complex).

    The panels of every frequency -- (r_lo, 1], the octaves of (1, A] and
    the stretch (A, horizon) of the tail moment -- go to one
    ``_log_quad_panels`` call each, and each frequency's value does not
    depend on the others."""
    if mode not in _PHASE:
        raise DomainError(f"unknown profile mode {mode!r}")
    p0, c0 = dens.p, dens.amp
    if mode == "raw" and p0 >= 2.0:
        raise RegimeError("raw-mode profile diverges at small radii for this weight")
    s_in = np.asarray(s, dtype=float)
    s = s_in.ravel()
    sa = np.maximum(np.abs(s), _S_FLOOR)

    # small panel (r_lo, 1], fully compensated phase where needed; the
    # analytic correction leaves the next Taylor term, s^3 r^(4 - p0), which
    # is far below rounding at r_lo = 1e-100, where rho(r_lo) is still
    # finite (the unfloored r_lo underflows as alpha -> 2)
    r_lo = np.minimum(1e-3, (2.0 * tol * (3.0 - p0) / np.maximum(c0 * sa**2, _TINY)) ** (1.0 / (3.0 - p0)))
    r_lo = np.maximum(r_lo, 1e-100)
    m2 = c0 * r_lo ** (3.0 - p0) / (3.0 - p0)
    if mode == "raw":
        small_corr = 1j * s * (c0 * r_lo ** (2.0 - p0) / (2.0 - p0)) - 0.5 * s * s * m2
    elif mode == "ball":
        small_corr = -0.5 * s * s * m2
    else:
        small_corr = -s * s * m2
    phase = _PHASE[mode]
    small = _log_quad_panels(r_lo, 1.0, 1.0 / 48.0, lambda r, i: phase(r * s[i]) * dens.rho(r)) + small_corr

    # big panel (1, A] in octaves, oscillation-resolving node density; the
    # sigma phase i r s (e^{irs} - 1) carries one more power of r
    power = 1 if mode == "sigma" else 0
    A = _cutoff_A(dens, sa, tol, power)
    # the octaves (2^k, min(2^(k + 1), A)] up to A, counted exactly by frexp
    mantissa, exponent = np.frexp(A)
    n_oct = exponent - (mantissa == 0.5)
    k, freq = _ragged_arange(n_oct)
    lo = np.ldexp(1.0, k)
    hi = np.minimum(2.0 * lo, A[freq])
    du = np.minimum(1.0 / 48.0, 2.0 * math.pi / (10.0 * sa[freq] * hi))
    sf, phase = s[freq], _PHASE["raw" if mode == "ball" else mode]
    big = np.add.reduceat(_log_quad_panels(lo, hi, du, lambda r, i: phase(r * sf[i]) * dens.rho(r)), _segment_starts(n_oct))
    tail = _osc_tail(A, s, dens, power) - _tail_moment(dens, A, power)
    out = small + big + (1j * s * tail if power else tail)
    return complex(out[0]) if s_in.ndim == 0 else out.reshape(s_in.shape)


_BASE_CACHE: dict = {}


def _profile(s_values, kf: KFunction, kind: str, mode: str, tol: float = 1e-10) -> np.ndarray:
    """Vectorized profile integral over an array of frequencies.

    Each distinct |s| is evaluated once and s < 0 is read as the complex
    conjugate, profile(-s) = conj(profile(s)).  Exact power-law weights
    are reduced by scaling to cached base values at |s| = 1; for other
    families all distinct |s| go to one ``_profile_generic`` call.  The
    center form 'full' is the ball form less i s int_1^inf r rho dr.
    """
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    dens = _density(kf, kind)
    if mode == "full":
        return _profile(s_values, kf, kind, "ball", tol) - 1j * s_values * _tail_moment(dens, 1.0, 1)
    out = np.zeros(s_values.shape, dtype=complex)
    nz = s_values != 0.0
    if not nz.any():
        return out
    sa, inverse = np.unique(np.abs(s_values[nz]), return_inverse=True)
    if dens.lam == 0.0:
        a = kf.alpha
        key = (kf.family, kf.alpha, kf.c, kf.lam, kind, mode, tol)
        base = _BASE_CACHE.get(key)
        if base is None:
            base = _profile_generic(1.0, dens, mode, tol)
            _BASE_CACHE[key] = base
        vals = sa**a * base
        if mode == "ball":
            if a == 1.0:
                vals = vals - 1j * dens.amp * sa * np.log(sa)
            else:
                vals = vals + 1j * dens.amp * (sa**a - sa) / (1.0 - a)
    else:
        vals = _profile_generic(sa, dens, mode, tol)
    vals = vals[inverse]
    out[nz] = np.where(s_values[nz] < 0.0, np.conj(vals), vals)
    return out


_MODE_BY_REP = {"triplet_b": "ball", "drift_b0": "raw", "center_b1": "full"}


def _symbol(sphere: SphericalGrid, kf: KFunction, kind: str, mode: str, v, tol: float):
    """sum_j w_j profile(<atom_j, v>), checked for finiteness."""
    vals = _profile(_projections(sphere, v), kf, kind, mode, tol)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("radial profile integral returned non-finite values")
    return np.dot(sphere.weights, vals)


# ---------------------------------------------------------------------------
# exponents, characteristic functions, representations
# ---------------------------------------------------------------------------


def lk_exponent(law: IDLaw, xi, tol: float = 1e-10) -> complex:
    """Characteristic exponent log phi(xi) by spherical x radial quadrature,
    with the jump compensation matching the law's representation."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (law.dim,):
        raise DomainError(f"xi must have shape ({law.dim},)")
    # IDLaw admits a representation only where its compensator converges
    vals = _symbol(law.levy.sphere, law.levy.kf, "nu", _MODE_BY_REP[law.rep], xi, tol)
    return complex(1j * float(law.shift @ xi) + vals)


def char_fn(law: IDLaw, xi, tol: float = 1e-10) -> complex:
    """Characteristic function exp(lk_exponent)."""
    return complex(np.exp(lk_exponent(law, xi, tol)))


def _shift_corrections(law: IDLaw):
    kf = law.levy.kf
    atoms, w = law.levy.sphere.atoms, law.levy.sphere.weights
    mean_dir = w @ atoms
    v_small = mean_dir * kf.k_moment_small() if law.levy.small_jump_first_moment else None
    v_tail = mean_dir * kf.k_moment_tail() if law.levy.tail_first_moment else None
    return v_small, v_tail


def convert_representation(law: IDLaw, target: str) -> IDLaw:
    """Re-express the shift in another representation; the correction is
    the mean jump over the unit ball (drift) or outside it (center)."""
    if target not in REPRESENTATIONS:
        raise DomainError(f"target must be one of {REPRESENTATIONS}")
    if target == law.rep:
        return law
    v_small, v_tail = _shift_corrections(law)
    if law.rep == "triplet_b":
        b = law.shift
    elif law.rep == "drift_b0":
        b = law.shift + v_small
    else:
        b = law.shift - v_tail
    if target == "triplet_b":
        shift = b
    elif target == "drift_b0":
        if v_small is None:
            raise RegimeError("drift representation needs small jumps with a first moment")
        shift = b - v_small
    else:
        if v_tail is None:
            raise RegimeError("center representation needs an integrable big-jump tail")
        shift = b + v_tail
    return IDLaw(shift=shift, levy=law.levy, rep=target)


# ---------------------------------------------------------------------------
# Fourier symbols
# ---------------------------------------------------------------------------


def symbol_sigma_nu(law: IDLaw, xi, tol: float = 1e-10) -> complex:
    """One-frequency symbol int i<u,xi> (e^{i<u,xi>} - 1) nu(du)."""
    if not law.levy.tail_first_moment:
        raise RegimeError("sigma_nu needs an integrable big-jump tail")
    return complex(_symbol(law.levy.sphere, law.levy.kf, "nu", "sigma", xi, tol))


def _cocycle(tnu: TildeNu, mode: str, xi, zeta, tol: float) -> complex:
    """S(xi + zeta) - S(xi) - S(zeta) for the nu~ profile sum S of one mode."""
    xi, zeta = np.asarray(xi, dtype=float), np.asarray(zeta, dtype=float)
    S = lambda v: _symbol(tnu.sphere, tnu.kf, "tilde", mode, v, tol)
    return complex(S(xi + zeta) - S(xi) - S(zeta))


def symbol_sigma_tilde(tnu: TildeNu, xi, zeta, tol: float = 1e-10) -> complex:
    """Two-frequency symbol int (e^{i<u,xi>} - 1)(e^{i<u,zeta>} - 1) dnu~.

    Any common compensator cancels in the three-term combination, so each
    piece is evaluated in the unit-ball-compensated form (convergent for
    every admissible profile)."""
    return _cocycle(tnu, "ball", xi, zeta, tol)


def symbol_rho_tilde(tnu: TildeNu, xi, zeta, tol: float = 1e-10) -> complex:
    """Symmetrized cross symbol
    int i<u,zeta> e^{i<u,zeta>} (e^{i<u,xi>} - 1) dnu~  + (xi <-> zeta).

    With a = <u,xi>, b = <u,zeta> and g(v) = i v (e^{iv} - 1), the
    integrand is pointwise

        i b e^{ib} (e^{ia} - 1) + i a e^{ia} (e^{ib} - 1) = g(a + b) - g(a) - g(b),

    so rho~ is the cocycle of the sigma profile sum
    Sigma(v) = int i<u,v> (e^{i<u,v>} - 1) dnu~, which converges when the
    big jumps of nu~ have a first moment."""
    if not tnu.kf.tail_integrable:
        raise RegimeError("rho symbol diverges for stable profiles with alpha <= 1")
    return _cocycle(tnu, "sigma", xi, zeta, tol)


def normalization_check(alpha: float, d: int, n_atoms: Optional[int] = None) -> float:
    """Relative deviation of the quadrature exponent from -1/2 at |xi| = 1
    for the normalized rotationally invariant stable law, on n_atoms sphere
    atoms: by default `uniform_sphere`'s count, and 4096 in d = 3, where its
    1024 atoms read 1.0e-4 to 1.8e-4 for alpha in [1.5, 1.95] and 4096
    read 5e-6 to 9e-6."""
    law = isotropic_stable_law(alpha, d, n_atoms=4096 if n_atoms is None and d == 3 else n_atoms)
    xi = np.zeros(d)
    xi[0] = 1.0
    val = lk_exponent(law, xi)
    return abs(val - (-0.5)) / 0.5
