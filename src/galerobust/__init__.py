"""Strong robustness of codimension-2 toric ideals via planar Gale diagrams.

The library decides whether the Graver basis of a corank-2 toric ideal
equals its set of indispensable binomials, producing the full certificate
chain on the way: kernel lattice bases, the reduced Gale configuration,
per-cone Hilbert bases, bouquet decompositions, and independent
brute-force verifications of every claim.

The public names are loaded on first use (PEP 562), so a program that
needs only the Gale transform never imports the fan or oracle modules.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    "errors": (
        "ConsistencyError",
        "GaleRobustError",
        "GradingError",
        "MatrixFormatError",
        "RankError",
        "ShellWarning",
        "ZeroRowError",
    ),
    "gale": (
        "Bouquet",
        "GaleConfiguration",
        "ReducedGaleConfiguration",
        "bouquets",
        "gale_transform",
        "is_positively_graded",
        "reduce_configuration",
    ),
    "hilbert": (
        "Cone2D",
        "HilbertBasisSet",
        "fan_hilbert_union",
        "fan_radius_bound",
        "hilbert_basis",
    ),
    "intlinalg": (
        "IntegerMatrix",
        "rank",
    ),
    "oracle": (
        "SHELL_WIDTH",
        "graver_bruteforce",
        "is_indispensable_oracle",
    ),
    "toric": (
        "Binomial",
        "RobustnessReport",
        "is_strongly_robust",
        "render_binomial",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
