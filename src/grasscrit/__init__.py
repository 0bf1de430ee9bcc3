"""grasscrit: Riemannian geometry of the real Grassmannian G(k, n),
nearest-point problems for simple Schubert varieties, and critical-point
complexity of the Grassmann distance to algebraic hypersurfaces.

Submodules are imported on first access (``grasscrit.search``,
``from grasscrit import core``), so importing the package loads none.
"""

__version__ = "0.1.0"

__all__ = ["bounds", "core", "cutlocus", "errors", "lowrank", "schubert", "search", "serialize"]


def __getattr__(name: str):
    if name in __all__:
        # the import statement's path (importlib.import_module is not
        # reported by -X importtime); it binds the submodule here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
