"""Dirac spectra of curve families and the induced dimension/trace data.

A curve of length l carries the eigenvalue family (2k+1)*pi/(2l), k in Z;
its |D|^(-p) trace has the closed form beta_p * l^p with

    beta_p = 2^(p+1) (1 - 2^(-p)) zeta(p) / pi^p.

A gasket model contributes one curve per edge per generation, so its
trace is a Dirichlet-type series over the length spectrum.  For the
geometric families of the flat variants the series sums in closed form
and its abscissa of convergence (the spectral dimension) is
log(branching) / -log(ratio).  The Dixmier trace of |D|^(-ds) is
computed throughout as the residue lim_{s->1+} (s-1) tr(|D|^(-ds*s)),
never through an extended limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from gasketlab.geometry import GasketError, check_alpha

__all__ = [
    "DivergenceError",
    "riemann_zeta",
    "curve_trace_constant",
    "curve_trace",
    "GeometricFamily",
    "LengthSpectrum",
    "sg_length_spectrum",
    "stretched_length_spectrum",
    "single_curve_spectrum",
    "scale_spectrum",
    "union_spectrum",
    "spectrum_trace",
    "DimensionEstimate",
    "spectral_dimension",
    "abscissa_bracket",
    "stretched_dimension",
    "stretched_dixmier_constant",
    "ResidueResult",
    "residue_estimate",
    "growth_root",
    "dimension_interval_from_tables",
    "kh_dimension_interval",
    "kh_trace_interval",
    "KH_DIMENSION_UPPER",
]


class DivergenceError(GasketError):
    """Trace series evaluated at or below its abscissa of convergence."""


# ---------------------------------------------------------------------------
# zeta and the single-curve trace
# ---------------------------------------------------------------------------

# Bernoulli numbers B_2 .. B_14
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_ZETA_CUTOFF = 64


def riemann_zeta(p: float) -> float:
    """Riemann zeta by Euler-Maclaurin summation.

    Truncation error of the correction series is far below 1e-12 for
    p > 1 + 1e-9 at the fixed cutoff; arguments at or below that are
    rejected.
    """
    if not p > 1.0 + 1e-9:
        raise GasketError(f"zeta argument must exceed 1 + 1e-9, got {p}")
    n = np.arange(1.0, _ZETA_CUTOFF)
    big_n = float(_ZETA_CUTOFF)
    out = float(np.sum(n ** (-p)))
    out += big_n ** (1.0 - p) / (p - 1.0) + 0.5 * big_n ** (-p)
    rising = 1.0
    factorial = 1.0
    for k, b2k in enumerate(_BERNOULLI, start=1):
        if k == 1:
            rising = p
            factorial = 2.0
        else:
            rising *= (p + 2 * k - 3) * (p + 2 * k - 2)
            factorial *= (2 * k) * (2 * k - 1)
        out += b2k / factorial * rising * big_n ** (-p - 2 * k + 1)
    return out


def curve_trace_constant(p: float) -> float:
    """Trace of |D|^(-p) for a unit-length curve: 2^(p+1)(1-2^(-p))zeta(p)/pi^p."""
    if not p > 1.0:
        raise GasketError(f"curve trace needs p > 1, got {p}")
    return 2.0 ** (p + 1) * (1.0 - 2.0 ** (-p)) * riemann_zeta(p) / math.pi ** p


def curve_trace(length: float, p: float) -> float:
    """Closed-form trace of |D|^(-p) for one curve of the given length."""
    if not length > 0.0:
        raise GasketError(f"curve length must be positive, got {length}")
    return curve_trace_constant(p) * length ** p


# ---------------------------------------------------------------------------
# Length spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricFamily:
    """Curve family with generation-n entries (l_i ratio^n, m_i branching^n)."""

    base: tuple[tuple[float, int], ...]
    ratio: float
    branching: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise GasketError("family ratio must lie in (0, 1)")
        for length, mult in self.base:
            if length <= 0.0 or mult < 1:
                raise GasketError("family base entries need length > 0, mult >= 1")

    @property
    def abscissa(self) -> float:
        return math.log(self.branching) / -math.log(self.ratio)

    def base_power_sum(self, p: float) -> float:
        return sum(mult * length ** p for length, mult in self.base)

    def generation_terms(self, p: float, generations: int) -> np.ndarray:
        n = np.arange(generations)
        return self.base_power_sum(p) * (self.branching * self.ratio ** p) ** n


@dataclass(frozen=True)
class LengthSpectrum:
    """Multiset of curve lengths: explicit entries plus geometric families."""

    entries: tuple[tuple[float, int], ...] = ()
    families: tuple[GeometricFamily, ...] = ()

    def __post_init__(self) -> None:
        for length, mult in self.entries:
            if length <= 0.0 or mult < 1:
                raise GasketError("spectrum entries need length > 0, mult >= 1")

    @property
    def abscissa(self) -> float:
        """Abscissa of convergence; 0 for a finite spectrum."""
        if not self.families:
            return 0.0
        return max(f.abscissa for f in self.families)


def sg_length_spectrum(scale: float = 1.0) -> LengthSpectrum:
    """Triangle-edge curves of the classical gasket: lengths scale/2^n, mult 3^(n+1)."""
    return LengthSpectrum(families=(GeometricFamily(((scale, 3),), 0.5),))


def stretched_length_spectrum(alpha: float, scale: float = 1.0) -> LengthSpectrum:
    """Stretched-variant curves: per generation, 3^(n+1) triangle edges of
    length ((1-alpha)/2)^n and 3^(n+1) joining edges of length
    alpha((1-alpha)/2)^n, both scaled."""
    alpha = check_alpha(alpha)
    ratio = (1.0 - alpha) / 2.0
    return LengthSpectrum(
        families=(GeometricFamily(((scale, 3), (scale * alpha, 3)), ratio),)
    )


def single_curve_spectrum(length: float, mult: int = 1) -> LengthSpectrum:
    return LengthSpectrum(entries=((length, mult),))


def scale_spectrum(spectrum: LengthSpectrum, factor: float) -> LengthSpectrum:
    if factor <= 0.0:
        raise GasketError("scale factor must be positive")
    entries = tuple((length * factor, mult) for length, mult in spectrum.entries)
    families = tuple(
        GeometricFamily(tuple((length * factor, mult) for length, mult in f.base),
                        f.ratio, f.branching)
        for f in spectrum.families
    )
    return LengthSpectrum(entries, families)


def union_spectrum(*spectra: LengthSpectrum) -> LengthSpectrum:
    entries: list = []
    families: list = []
    for s in spectra:
        entries.extend(s.entries)
        families.extend(s.families)
    return LengthSpectrum(tuple(entries), tuple(families))


def spectrum_trace(spectrum: LengthSpectrum, p: float) -> float:
    """Trace of |D|^(-p) for the direct sum over the whole spectrum.

    Geometric families sum in closed form; raises DivergenceError at or
    below the abscissa.
    """
    if p <= spectrum.abscissa:
        raise DivergenceError(
            f"trace diverges for p <= {spectrum.abscissa}, got {p}"
        )
    beta = curve_trace_constant(p)
    total = sum(mult * length ** p for length, mult in spectrum.entries)
    for family in spectrum.families:
        q = family.branching * family.ratio ** p
        total += family.base_power_sum(p) / (1.0 - q)
    return beta * total


# ---------------------------------------------------------------------------
# Spectral dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionEstimate:
    lower: float
    upper: float
    method: str

    @property
    def width(self) -> float:
        return self.upper - self.lower


def spectral_dimension(spectrum: LengthSpectrum) -> DimensionEstimate:
    """Abscissa of convergence of the trace series, as a point estimate."""
    value = spectrum.abscissa
    return DimensionEstimate(value, value, "closed-form")


def stretched_dimension(alpha: float) -> float:
    """log 3 / (log 2 - log(1-alpha)); also the Hausdorff dimension."""
    alpha = check_alpha(alpha)
    return math.log(3.0) / (math.log(2.0) - math.log(1.0 - alpha))


def _bisect(below: Callable[[float], bool], lo: float, hi: float, *,
            tol: float = 0.0, steps: Optional[int] = None) -> tuple[float, float]:
    """Halve [lo, hi] around the point where ``below`` turns false.

    ``below(p)`` holds left of the root.  Stops once the width is at
    most ``tol``, after ``steps`` halvings, or once a halving would leave
    [lo, hi] unchanged: for adjacent doubles the midpoint rounds onto the
    end it replaces, and a ``tol`` below one ulp is never met.
    """
    step = 0
    while hi - lo > tol and (steps is None or step < steps):
        mid = 0.5 * (lo + hi)
        left = below(mid)
        if mid == (lo if left else hi):
            break
        if left:
            lo = mid
        else:
            hi = mid
        step += 1
    return lo, hi


#: relative distance from the abscissa inside which the growth predicate's
#: answer rests on rounding: over alpha in (0, 1/3) its turning point lies
#: up to 2 ulps from the closed form, which itself carries about 2 ulps
GROWTH_ROUNDING = 8 * 2.0 ** -52


def abscissa_bracket(
    spectrum: LengthSpectrum,
    generations: int = 30,
    tol: float = 1e-3,
    p_range: tuple[float, float] = (0.5, 4.0),
) -> tuple[float, float]:
    """Bracket the abscissa by bisecting on partial-sum growth.

    Independent of the closed-form dimension formula: a candidate p is
    below the abscissa when the per-generation term sums still grow at
    the last materialized generation, above it when they shrink.  An end
    the predicate cannot tell from the abscissa is moved out by
    ``GROWTH_ROUNDING``, so the bracket encloses it at any ``tol``.
    """
    if not spectrum.families:
        raise GasketError("growth bracketing needs a geometric family")

    def grows(p: float) -> bool:
        terms = np.zeros(generations)
        for family in spectrum.families:
            terms = terms + family.generation_terms(p, generations)
        return bool(terms[-1] > terms[-2])

    lo, hi = p_range
    if grows(hi) or not grows(lo):
        raise GasketError(f"abscissa not bracketed by p_range {p_range}")
    lo, hi = _bisect(grows, lo, hi, tol=tol)
    # Within GROWTH_ROUNDING of the abscissa, grows() may answer either
    # way.  An end whose answer still holds twice that far inward is on the
    # right side; any other end is moved out by the rounding, so the
    # bracket encloses the abscissa even at a tol below one ulp.
    pad = GROWTH_ROUNDING * hi
    if not grows(lo + 2.0 * pad):
        lo -= pad
    if grows(hi - 2.0 * pad):
        hi += pad
    return lo, hi


# ---------------------------------------------------------------------------
# Dixmier residues
# ---------------------------------------------------------------------------


def stretched_dixmier_constant(alpha: float) -> float:
    """Dixmier trace of |D|^(-ds) for the stretched variant, closed form."""
    alpha = check_alpha(alpha)
    ds = stretched_dimension(alpha)
    num = 2.0 ** (ds + 1) * (2.0 ** ds - 1.0) * riemann_zeta(ds) * (3.0 + 3.0 * alpha ** ds)
    den = ds * math.pi ** ds * (
        2.0 ** ds * math.log(2.0) - 3.0 * (1.0 - alpha) ** ds * math.log(1.0 - alpha)
    )
    return num / den


@dataclass(frozen=True)
class ResidueResult:
    """Extrapolated residue with its epsilon ladder for inspection."""

    value: float
    converged: bool
    ladder: tuple[float, ...]
    raw: tuple[float, ...]
    extrapolants: tuple[float, ...]

    def __float__(self) -> float:
        return self.value


def _richardson(g: np.ndarray) -> np.ndarray:
    """Order-2 Richardson extrapolation on a ratio-1/2 epsilon ladder."""
    r1 = 2.0 * g[1:] - g[:-1]
    return (4.0 * r1[1:] - r1[:-1]) / 3.0


def _check_rungs(rungs: int) -> None:
    """Two order-2 Richardson passes leave rungs - 2 extrapolants, and the
    convergence test compares the last two."""
    if rungs < 4:
        raise GasketError("ladder needs at least 4 rungs")


def _ladder_eps(eps_start: float, rungs: int) -> np.ndarray:
    """The epsilon rungs ``extrapolate_ladder`` evaluates: eps_start / 2^k."""
    return eps_start * 0.5 ** np.arange(rungs)


def extrapolate_ladder(
    values: Callable[[float], float],
    eps_start: float = 0.1,
    rungs: int = 8,
    rel_tol: float = 1e-3,
) -> ResidueResult:
    """Evaluate g on the geometric epsilon ladder and extrapolate to 0+.

    Converged when the last two extrapolants agree to ``rel_tol``,
    measured against the larger of the limit and the coarsest rung (so
    vanishing limits register as converged rather than forever failing a
    pure relative test).
    """
    _check_rungs(rungs)
    eps = _ladder_eps(eps_start, rungs)
    g = np.array([values(e) for e in eps])
    extr = _richardson(g)
    diff = abs(extr[-1] - extr[-2])
    converged = diff <= rel_tol * max(abs(extr[-1]), abs(g[0]), 1e-300)
    return ResidueResult(float(extr[-1]), bool(converged),
                         tuple(eps), tuple(g), tuple(extr))


def residue_estimate(
    spectrum: LengthSpectrum,
    ds: float,
    eps_start: float = 0.1,
    rungs: int = 8,
) -> ResidueResult:
    """Residue lim_{s->1+} (s-1) tr(|D|^(-ds*s)) by ladder extrapolation.

    At the abscissa this recovers the Dixmier trace of |D|^(-ds); for a
    finite spectrum the trace stays bounded and the limit is 0.
    """
    def g(eps: float) -> float:
        return eps * spectrum_trace(spectrum, ds * (1.0 + eps))

    return extrapolate_ladder(g, eps_start, rungs)


# ---------------------------------------------------------------------------
# Truncated series with length intervals (harmonic gasket)
# ---------------------------------------------------------------------------

#: a-priori upper dimension bound log 3 / (log 5 - log 3)
KH_DIMENSION_UPPER = math.log(3.0) / (math.log(5.0) - math.log(3.0))


def growth_root(
    generation_lengths: Sequence[np.ndarray],
    p_range: tuple[float, float] = (1.0, KH_DIMENSION_UPPER),
    iterations: int = 60,
) -> float:
    """Exponent at which per-generation power sums stop growing.

    Uses the mean log-ratio of the sums from generation 1 to the last
    (generation 0 carries boundary effects), so only those two
    generations are summed; clamps to ``p_range`` when the sign never
    flips inside it.
    """
    if len(generation_lengths) < 3:
        raise GasketError("growth root needs at least 3 generations")
    first, last = generation_lengths[1], generation_lengths[-1]
    steps = len(generation_lengths) - 2

    def mean_log_growth(p: float) -> float:
        return math.log(np.sum(last ** p) / np.sum(first ** p)) / steps

    lo, hi = p_range
    if mean_log_growth(hi) > 0.0:
        return hi
    if mean_log_growth(lo) < 0.0:
        return lo
    lo, hi = _bisect(lambda p: mean_log_growth(p) > 0.0, lo, hi, steps=iterations)
    return 0.5 * (lo + hi)


def dimension_interval_from_tables(
    tables: Sequence[tuple[np.ndarray, np.ndarray]],
    bounds: tuple[float, float] = (1.0, KH_DIMENSION_UPPER),
) -> DimensionEstimate:
    """Dimension interval from per-generation length-bound tables.

    Lower-bound lengths and envelope lengths each yield a growth-root
    estimate; the pair, intersected with the a-priori bounds, brackets
    the truncation uncertainty.
    """
    root_lo = growth_root([lo for lo, _ in tables], p_range=bounds)
    root_hi = growth_root([hi for _, hi in tables], p_range=bounds)
    lower = max(bounds[0], min(root_lo, root_hi))
    upper = min(bounds[1], max(root_lo, root_hi))
    return DimensionEstimate(lower, upper, "truncation+tail")


def kh_dimension_interval(depth: int) -> DimensionEstimate:
    """Dimension interval of the harmonic gasket at truncation depth.

    Uses generations 0..depth with edge-length bounds at subdivision
    depth ``depth``; the interval narrows as the depth grows.
    """
    from gasketlab import harmonic  # deferred: keeps the import one-way

    tables = harmonic.edge_length_tables(depth, depth)
    return dimension_interval_from_tables(tables)


def kh_trace_interval(p: float, depth: int) -> tuple[float, float]:
    """Trace interval for the harmonic gasket at exponent p.

    Lower end sums polyline length bounds over generations 0..depth;
    upper end sums the envelopes and appends the geometric tail
    3^(m+1) (2 C (3/5)^m)^p over the omitted generations, with C the
    sampled diameter.  The tail (hence the upper end) is finite only
    above the a-priori dimension bound.
    """
    from gasketlab import harmonic

    tables = harmonic.edge_length_tables(depth, depth)
    beta = curve_trace_constant(p)
    lo = beta * sum(float(np.sum(t[0] ** p)) for t in tables)
    hi_main = sum(float(np.sum(t[1] ** p)) for t in tables)
    q = 3.0 * 0.6 ** p
    if q >= 1.0:
        return lo, math.inf
    c = harmonic.gasket_diameter()
    tail = 3.0 * (2.0 * c) ** p * q ** (depth + 1) / (1.0 - q)
    return lo, beta * (hi_main + tail)
