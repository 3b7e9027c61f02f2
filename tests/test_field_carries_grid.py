"""A function that takes a Field reads the grid from it.

Passing the grid a second time lets the two disagree: a field on one grid,
evaluated with another grid's weights and stencils, gives a wrong number
without an error.  This inspects the public functions of the modules that
work on fields and fails if one of them takes both a Field (or a
MinimizeResult, which carries one) and a grid.
"""

import inspect
import typing

import pytest

from polarmin import cli, functional, grids, rearrange, solve, spectral
from polarmin.grids import Field, PolarGrid
from polarmin.solve import MinimizeResult

MODULES = (grids, functional, solve, cli, rearrange, spectral)
FIELD_TYPES = (Field, MinimizeResult)


def public_functions():
    for module in MODULES:
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name[0] != "_":
                yield pytest.param(fn, id=f"{module.__name__}.{name}")


def mentions(annotation, types) -> bool:
    """Whether an annotation is, or is a union or generic containing, one of types."""
    if annotation in types:
        return True
    return any(mentions(arg, types) for arg in typing.get_args(annotation))


def field_and_grid_params(fn) -> tuple[list, list]:
    """The parameters of fn that take a field, and those that take a grid."""
    hints = typing.get_type_hints(fn)
    params = inspect.signature(fn).parameters
    field_params = [p for p in params if mentions(hints.get(p), FIELD_TYPES)]
    grid_params = [p for p in params if p == "grid" or mentions(hints.get(p), (PolarGrid,))]
    return field_params, grid_params


@pytest.mark.parametrize("fn", public_functions())
def test_no_function_takes_a_field_and_its_grid(fn):
    field_params, grid_params = field_and_grid_params(fn)
    assert not (field_params and grid_params), (
        f"{fn.__name__} takes {field_params} and the grid {grid_params}; "
        "read the grid from the field"
    )


def test_the_guard_recognises_a_field_and_a_grid():
    def offender(grid: PolarGrid, f: Field | None, res: MinimizeResult) -> float:
        return 0.0

    assert field_and_grid_params(offender) == (["f", "res"], ["grid"])
    assert field_and_grid_params(functional.eval_objective) == (["v"], [])
    assert field_and_grid_params(solve.minimize) == ([], ["grid"])
