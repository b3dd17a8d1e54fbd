"""Backend registry: a uniform solve protocol over interchangeable solvers.

Every backend is a callable ``solve(model, **options)`` returning an
:class:`~repro.lp.model.LPSolution`, registered under a name in a
:class:`BackendRegistry` together with a capability description.  The
default registry ships two entries:

``"highs"``
    :func:`repro.lp.scipy_backend.solve_highs` — sparse, handles the large
    LPs generated from application graphs, provides duals/reduced costs;
``"simplex"``
    :func:`repro.lp.simplex.solve_simplex` — dense two-phase simplex,
    additionally provides lower-bound ranging (Gurobi's ``SALBLow``); an
    independent reference the tests compare HiGHS against (small models
    only: it hits its iteration limit on large application graphs).

Adding a solver is one decorator::

    from repro.lp.backends import default_registry

    @default_registry.register("glpk", description="GLPK via swiglpk")
    def solve_glpk(model, **options):
        ...
        return LPSolution(...)

after which ``model.solve(backend="glpk")`` and every LP above it
(:class:`~repro.core.lp_builder.GraphLP`, the ``repro.testing`` oracles,
``repro.placement.predicted_runtime``) can use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .model import LPModel, LPSolution

__all__ = ["BackendSpec", "BackendRegistry", "default_registry"]


#: ``solve(model, **options) -> LPSolution``
SolveFn = Callable[..., LPSolution]


@dataclass(frozen=True)
class BackendSpec:
    """A registered backend: its solve callable plus declared capabilities."""

    name: str
    solve: SolveFn
    description: str = ""
    supports_duals: bool = True
    supports_ranging: bool = False


class BackendRegistry:
    """Named collection of LP solver backends with a uniform solve protocol."""

    def __init__(self) -> None:
        self._specs: dict[str, BackendSpec] = {}

    # -- registration ---------------------------------------------------------

    def register(
        self,
        name: str,
        *,
        description: str = "",
        supports_duals: bool = True,
        supports_ranging: bool = False,
        replace: bool = False,
    ) -> Callable[[SolveFn], SolveFn]:
        """Decorator registering ``fn`` as backend ``name``."""
        if not name:
            raise ValueError("backend name must be non-empty")

        def decorator(fn: SolveFn) -> SolveFn:
            if name in self._specs and not replace:
                raise ValueError(
                    f"backend {name!r} is already registered; pass replace=True to override"
                )
            self._specs[name] = BackendSpec(
                name=name,
                solve=fn,
                description=description,
                supports_duals=supports_duals,
                supports_ranging=supports_ranging,
            )
            return fn

        return decorator

    def unregister(self, name: str) -> None:
        """Remove backend ``name`` (KeyError if absent)."""
        del self._specs[name]

    # -- lookup ---------------------------------------------------------------

    def get(self, name: str) -> BackendSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ValueError(
                f"unknown LP backend {name!r}; registered backends: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[BackendSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    # -- solving ----------------------------------------------------------------

    def solve(
        self, model: LPModel, backend: str = "highs", **options: object
    ) -> LPSolution:
        """Solve ``model`` with the named backend."""
        return self.get(backend).solve(model, **options)


#: The registry used by :meth:`LPModel.solve` and everything above it.
default_registry = BackendRegistry()


@default_registry.register(
    "highs",
    description="scipy.optimize.linprog with the HiGHS solver (sparse, scalable)",
    supports_duals=True,
)
def _solve_highs_backend(model: LPModel, **options: object) -> LPSolution:
    from .scipy_backend import solve_highs

    return solve_highs(model, **options)


@default_registry.register(
    "simplex",
    description="dense two-phase simplex with lower-bound ranging (small models)",
    supports_duals=True,
    supports_ranging=True,
)
def _solve_simplex_backend(model: LPModel, **options: object) -> LPSolution:
    from .simplex import solve_simplex

    return solve_simplex(model, **options)
