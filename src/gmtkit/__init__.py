"""gmtkit: a numerical toolkit for measure-theoretic real analysis.

Modules
-------
grids       lattice samples and masks, and the primitives the others share
measures    finite atomic signed/vector measures and their decompositions
hausdorff   premeasures, box-counting dimension, IFS attractors
pointwise   derivatives, densities, approximate limits, Lebesgue points
smoothing   mollifiers, mollification, weak-derivative certification
sobolev_bv  Sobolev norms, embedding checks, BV variation and perimeter
area        linear/parametric area formulas, multiplicity, substitution
cli         batch front end (JSON/CSV reports, SVG plots)

The others import only ``grids`` and ``errors``.  ``import gmtkit`` loads
none of them: each (and ``GridFunction``, ``RasterSet``) loads on first
access (PEP 562), so a CLI job pays only for its module and ``grids``.
"""

__version__ = "0.1.0"

_MODULES = ("area", "grids", "hausdorff", "measures", "pointwise", "smoothing", "sobolev_bv")
_FROM_GRIDS = ("GridFunction", "RasterSet")

__all__ = [
    "GridFunction",
    "RasterSet",
    "area",
    "hausdorff",
    "measures",
    "pointwise",
    "smoothing",
    "sobolev_bv",
    "__version__",
]


def __getattr__(name: str):
    if name in _FROM_GRIDS:
        return getattr(__getattr__("grids"), name)
    if name in _MODULES:
        # an import statement, not importlib.import_module: the latter's
        # pure-Python path is not logged by ``python -X importtime``
        __import__(f"{__name__}.{name}")
        return globals()[name]  # the import binds the submodule here
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MODULES) | set(_FROM_GRIDS))
