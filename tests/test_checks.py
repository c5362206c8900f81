"""The seeded invariant suites themselves: determinism and coverage."""

import pytest

from dlscape import DomainError, ZoneError, build, run_suite
from dlscape.checks import SUITES


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suites_pass_on_h_graph(suite):
    result = run_suite(suite, build("h_graph"), 36, 40, seed=7)
    assert result.ok, result.violations[:3]
    assert result.checked > 0


def test_suites_deterministic():
    space = build("line")
    a = run_suite("monotone", space, 30, 30, seed=3)
    b = run_suite("monotone", space, 30, 30, seed=3)
    assert a.to_json() == b.to_json()


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite("nope", build("line"), 20, 10, seed=0)


@pytest.mark.parametrize("suite", ["gromov", "coray"])
@pytest.mark.parametrize("radius", [0, 3, 5])
def test_an_empty_suite_schedule_names_the_radius(suite, radius):
    """The schedule of gromov and coray is empty up to radius 5: each
    raises a radius ZoneError that names 6, the smallest radius with a
    non-empty schedule."""
    with pytest.raises(ZoneError) as info:
        run_suite(suite, build("line"), radius, 10, seed=0)
    assert (info.value.parameter, info.value.need) == ("radius", 6)
    assert run_suite(suite, build("line"), 6, 10, seed=0).checked > 0


@pytest.mark.parametrize("suite,radius,need", [
    ("monotone", 0, 2), ("monotone", 1, 2), ("sphere", 0, 1)])
def test_a_suite_that_draws_no_case_names_the_radius(suite, radius, need):
    """The monotone suite draws r1 < r2 <= R - d(base, x), which has no
    pair below radius 2, and the sphere suite draws r from 1..R: each
    raises a radius ZoneError with that radius as its need, and checks
    cases there."""
    with pytest.raises(ZoneError) as info:
        run_suite(suite, build("line"), radius, 10, seed=0)
    assert (info.value.parameter, info.value.need) == ("radius", need)
    assert run_suite(suite, build("line"), need, 10, seed=0).checked > 0


@pytest.mark.parametrize("name", ["line", "grid2d", "h_graph"])
@pytest.mark.parametrize("radius", [6, 7])
def test_coray_suite_draws_its_starts_from_the_valued_zone(name, radius):
    """At radius 6 and 7 the suite's r-max is below its zone, so the field
    is valued on a smaller ball; starts drawn from it all trace."""
    result = run_suite("coray", build(name), radius, 60, seed=1)
    assert result.ok and result.checked > 0
