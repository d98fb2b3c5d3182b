"""Fuchsian uniformization toolkit for the curves y^2 = z^(2g+1) +/- 1.

Builds the elliptic side-pairing maps of the regular hyperbolic polygon
spanned by the branch points on the unit disk, the hyperbolic surface
subgroup generated by their pairwise products, the closed-form generator
family coming from quotients of hypergeometric solutions, and the
{p, q} tessellation bookkeeping for the covered degree families.

`import fuchsian` loads no layer: each submodule is imported the first
time one of its names (or the submodule itself) is looked up on the
package, and the name is then bound here like an ordinary attribute.
"""

import importlib

__version__ = "0.1.0"


class NumericalError(Exception):
    """A numerical breakdown on valid input (the CLI's exit 3), as
    opposed to bad arguments. Each layer's numerical errors also derive
    from `ValueError`, their historical base class.
    """


# submodule -> the names the package re-exports from it
_EXPORTS = {
    "curves": ("HyperellipticCurve", "fde_coefficient", "roots"),
    "disk_geometry": (
        "GeodesicArc",
        "HyperbolicPolygon",
        "fundamental_polygon",
        "geodesic_apex",
        "geodesic_between",
        "polygon_area",
        "root_polygon",
    ),
    "group_builder": (
        "FuchsianGroupSpec",
        "VerifyEntry",
        "VerifyReport",
        "boundary_generators",
        "side_pairing_elliptic",
        "subgroup_generators",
        "verify_group",
    ),
    "moebius": (
        "INFINITY",
        "MapClass",
        "MoebiusMap",
        "apply",
        "classify",
        "compose",
        "cross_ratio",
        "inverse",
        "normalize",
    ),
    "tessellation": (
        "CycleCount",
        "GenusRange",
        "TessellationSpec",
        "cycle_count",
        "euler_characteristic",
        "genus_range",
        "is_hyperbolic_tessellation",
        "q_from_euler",
        "tessellation_for_degree",
    ),
    "whittaker": (
        "HdeParams",
        "connection_map",
        "connection_map_from_gammas",
        "continuation_residual",
        "gamma_fn",
        "hde_params",
        "hyp2f1",
        "monodromy_zero",
        "whittaker_subgroup",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        if name not in _EXPORTS:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        return importlib.import_module(f"{__name__}.{name}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
