"""Sierpinski gasket variants: constructions, spectra, geodesics, measures.

The package builds the classical gasket, its stretched variant, and the
harmonic-embedding variant; assembles the length spectra of their
direct-sum curve operators; and recovers spectral dimension, geodesic
distance, and Dixmier-trace measures numerically.

Importing the package loads none of its modules.  Each public name, and
each submodule name such as ``gasketlab.metric``, resolves on first use
through the module ``__getattr__`` (PEP 562), which imports the module
that defines it; a resolved name is stored here, so later lookups are
plain attribute reads.  A process therefore compiles only the modules
it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "geometry": (
        "AffineMap",
        "EdgeCurve",
        "GasketError",
        "GasketModel",
        "ResourceCapError",
        "Word",
        "build_model",
        "compose_word",
        "generator_map",
    ),
    "harmonic": (
        "harmonic_structure",
    ),
    "metric": (
        "GeodesicResult",
        "MetricGraph",
        "geodesic",
        "lipschitz_witness_check",
        "to_metric_graph",
    ),
    "measure": (
        "FunctionalSample",
        "dixmier_functional",
        "functional_sample",
        "harmonic_midpoint_functional",
        "joining_edge_functional",
        "selfaffine_mass_spread",
        "sg_midpoint_functional",
    ),
    "spectrum": (
        "DimensionEstimate",
        "DivergenceError",
        "LengthSpectrum",
        "ResidueResult",
        "abscissa_bracket",
        "curve_trace",
        "curve_trace_constant",
        "kh_dimension_interval",
        "residue_estimate",
        "riemann_zeta",
        "sg_length_spectrum",
        "spectral_dimension",
        "spectrum_trace",
        "stretched_dimension",
        "stretched_dixmier_constant",
        "stretched_length_spectrum",
    ),
    "expr": ("TestFunction", "parse_expr"),
}

_SUBMODULES = frozenset(("cli", "expr", "geometry", "harmonic", "measure",
                         "metric", "serialize", "spectrum", "svg"))

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
