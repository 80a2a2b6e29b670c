"""Dirac spectra of curve families and the induced dimension/trace data.

A curve of length l carries the eigenvalue family (2k+1)*pi/(2l), k in Z;
its |D|^(-p) trace has the closed form beta_p * l^p with

    beta_p = 2^(p+1) (1 - 2^(-p)) zeta(p) / pi^p.

A gasket model contributes one curve per edge per generation, so its
trace is a Dirichlet-type series over the length spectrum.  The curves
of a flat variant form one geometric family, so the series sums in
closed form and its abscissa of convergence (the spectral dimension) is
log 3 / -log(ratio).  The Dixmier trace of |D|^(-ds) is computed
throughout as the residue lim_{s->1+} (s-1) tr(|D|^(-ds*s)), never
through an extended limit, read off one fixed ladder: 8 rungs
s = 1 + eps_start / 2^k from eps_start 0.1 (0.4 for the harmonic ratio).
Every root comes from one bisection, halving to its tolerance or to
adjacent doubles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from gasketlab.geometry import GasketError, check_alpha


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


#: largest p at which pi^p is a finite double; 2^(p+1) stays finite to p = 1022
_P_OVERFLOW = math.log(sys.float_info.max) / math.log(math.pi)


def curve_trace_constant(p: float) -> float:
    """Trace of |D|^(-p) for a unit-length curve: 2^(p+1)(1-2^(-p))zeta(p)/pi^p."""
    if not p > 1.0:
        raise GasketError(f"curve trace needs p > 1, got {p}")
    if p > _P_OVERFLOW:
        raise GasketError(f"curve trace needs p <= {_P_OVERFLOW!r}, past which pi^p "
                          f"overflows a double, got {p}")
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
class LengthSpectrum:
    """Geometric curve family: generation n holds 3^n copies of the base
    curves, scaled by ratio^n, so its entries are (l_i ratio^n, m_i 3^n)."""

    base: tuple[tuple[float, int], ...]
    ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise GasketError("family ratio must lie in (0, 1)")
        for length, mult in self.base:
            if length <= 0.0 or mult < 1:
                raise GasketError("family base entries need length > 0, mult >= 1")

    @property
    def abscissa(self) -> float:
        """Abscissa of convergence log 3 / -log(ratio)."""
        return math.log(3) / -math.log(self.ratio)

    def base_power_sum(self, p: float) -> float:
        return sum(mult * length ** p for length, mult in self.base)

    def generation_terms(self, p: float, generations: int) -> np.ndarray:
        n = np.arange(generations)
        return self.base_power_sum(p) * (3 * self.ratio ** p) ** n


def sg_length_spectrum() -> LengthSpectrum:
    """Triangle-edge curves of the classical gasket: lengths 1/2^n, mult 3^(n+1)."""
    return LengthSpectrum(((1.0, 3),), 0.5)


def stretched_length_spectrum(alpha: float) -> LengthSpectrum:
    """Stretched-variant curves: per generation, 3^(n+1) triangle edges of
    length ((1-alpha)/2)^n and 3^(n+1) joining edges of length
    alpha((1-alpha)/2)^n."""
    alpha = check_alpha(alpha)
    return LengthSpectrum(((1.0, 3), (alpha, 3)), (1.0 - alpha) / 2.0)


def spectrum_trace(spectrum: LengthSpectrum, p: float) -> float:
    """Trace of |D|^(-p) for the direct sum over the whole family, in
    closed form; raises DivergenceError at or below the abscissa."""
    if p <= spectrum.abscissa:
        raise DivergenceError(
            f"trace diverges for p <= {spectrum.abscissa}, got {p}"
        )
    beta = curve_trace_constant(p)
    return beta * (spectrum.base_power_sum(p) / (1.0 - 3 * spectrum.ratio ** p))


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


def stretched_dimension(alpha: float) -> float:
    """log 3 / (log 2 - log(1-alpha)); also the Hausdorff dimension."""
    alpha = check_alpha(alpha)
    return math.log(3.0) / (math.log(2.0) - math.log(1.0 - alpha))


def _bisect(below: Callable[[float], bool], lo: float, hi: float, *,
            tol: float = 0.0) -> tuple[float, float]:
    """Halve [lo, hi] around the point where ``below`` turns false.

    ``below(p)`` holds left of the root.  Stops once the width is at
    most ``tol``, or once a halving would leave [lo, hi] unchanged: for
    adjacent doubles the midpoint rounds onto the end it replaces, and a
    ``tol`` below one ulp is never met.  Doubles at or above 1 are at
    least 2^-52 apart, so a range there ends after about
    log2((hi - lo) 2^52) halvings: 53 on [1, 3].
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        left = below(mid)
        if mid == (lo if left else hi):
            break
        if left:
            lo = mid
        else:
            hi = mid
    return lo, hi


#: relative distance from the abscissa inside which the growth predicate's
#: answer rests on rounding: over alpha in (0, 1/3) its turning point lies
#: up to 2 ulps from the closed form, which itself carries about 2 ulps
GROWTH_ROUNDING = 8 * 2.0 ** -52


def abscissa_bracket(spectrum: LengthSpectrum, tol: float = 1e-3) -> tuple[float, float]:
    """Bracket the abscissa by bisecting on partial-sum growth.

    Independent of the closed-form dimension formula: a candidate p in
    (0.5, 4.0) is below the abscissa when the per-generation term sums
    still grow at generation 29, above it when they shrink.  An end the
    predicate cannot tell from the abscissa is moved out by
    ``GROWTH_ROUNDING``, so the bracket encloses it at any ``tol``.
    """
    def grows(p: float) -> bool:
        terms = spectrum.generation_terms(p, 30)
        return bool(terms[-1] > terms[-2])

    lo, hi = 0.5, 4.0
    if grows(hi) or not grows(lo):
        raise GasketError(f"abscissa not bracketed by p_range {(lo, hi)}")
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


def _richardson(g: np.ndarray) -> np.ndarray:
    """Order-2 Richardson extrapolation on a ratio-1/2 epsilon ladder."""
    r1 = 2.0 * g[1:] - g[:-1]
    return (4.0 * r1[1:] - r1[:-1]) / 3.0


#: rungs of every residue ladder; the convergence test compares the last
#: two of the 6 extrapolants two Richardson passes leave
LADDER_RUNGS = 8


def _ladder_eps(eps_start: float, rungs: int = LADDER_RUNGS) -> np.ndarray:
    """The epsilon rungs eps_start / 2^k, k < ``rungs``."""
    return eps_start * 0.5 ** np.arange(rungs)


def extrapolate_ladder(values: Callable[[float], float],
                       eps_start: float = 0.1) -> ResidueResult:
    """Evaluate g on the ``LADDER_RUNGS`` rungs from ``eps_start`` and
    extrapolate to 0+.

    Converged when the last two extrapolants agree to 1e-3, measured
    against the larger of the limit and the coarsest rung (so vanishing
    limits register as converged rather than forever failing a pure
    relative test).
    """
    eps = _ladder_eps(eps_start)
    g = np.array([values(e) for e in eps])
    extr = _richardson(g)
    diff = abs(extr[-1] - extr[-2])
    converged = diff <= 1e-3 * max(abs(extr[-1]), abs(g[0]), 1e-300)
    return ResidueResult(float(extr[-1]), bool(converged),
                         tuple(eps), tuple(g), tuple(extr))


def residue_estimate(spectrum: LengthSpectrum, ds: float) -> ResidueResult:
    """Residue lim_{s->1+} (s-1) tr(|D|^(-ds*s)) by ladder extrapolation.

    At the abscissa this recovers the Dixmier trace of |D|^(-ds).
    """
    def g(eps: float) -> float:
        return eps * spectrum_trace(spectrum, ds * (1.0 + eps))

    return extrapolate_ladder(g)


# ---------------------------------------------------------------------------
# Truncated series with length intervals (harmonic gasket)
# ---------------------------------------------------------------------------

#: a-priori upper dimension bound log 3 / (log 5 - log 3)
KH_DIMENSION_UPPER = math.log(3.0) / (math.log(5.0) - math.log(3.0))


def growth_root(generation_lengths: Sequence[np.ndarray]) -> float:
    """Exponent at which per-generation power sums stop growing.

    Uses the mean log-ratio of the sums from generation 1 to the last
    (generation 0 carries boundary effects), so only those two
    generations are summed; clamps to [1, ``KH_DIMENSION_UPPER``] when
    the sign never flips inside it.
    """
    if len(generation_lengths) < 3:
        raise GasketError("growth root needs at least 3 generations")
    first, last = generation_lengths[1], generation_lengths[-1]
    steps = len(generation_lengths) - 2

    def mean_log_growth(p: float) -> float:
        return math.log(np.sum(last ** p) / np.sum(first ** p)) / steps

    lo, hi = 1.0, KH_DIMENSION_UPPER
    if mean_log_growth(hi) > 0.0:
        return hi
    if mean_log_growth(lo) < 0.0:
        return lo
    lo, hi = _bisect(lambda p: mean_log_growth(p) > 0.0, lo, hi)
    return 0.5 * (lo + hi)


def kh_dimension_interval(depth: int) -> DimensionEstimate:
    """Dimension interval of the harmonic gasket at truncation depth.

    Uses generations 0..depth with edge-length bounds at subdivision
    depth ``depth`` >= 2 (three generations); the interval narrows as the
    depth grows.
    """
    if depth < 2:
        raise GasketError(f"harmonic dimension needs depth >= 2, got {depth}")
    from gasketlab import harmonic  # deferred: keeps the import one-way

    tables = harmonic.edge_length_tables(depth, depth)
    # the growth roots of the lower-bound and of the envelope lengths,
    # intersected with the a-priori bounds, bracket the truncation error
    root_lo = growth_root([lo for lo, _ in tables])
    root_hi = growth_root([hi for _, hi in tables])
    lower = max(1.0, min(root_lo, root_hi))
    upper = min(KH_DIMENSION_UPPER, max(root_lo, root_hi))
    return DimensionEstimate(lower, upper, "truncation+tail")


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
