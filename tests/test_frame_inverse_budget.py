"""The frame inverse of a curved 6-D so(4)* splitting, within a CPU budget.

With the cometric diag(1+x0^2, 1, 1, 1, 1, 1+x5^2) the pairing blocks of
``frame_inverse`` fill with rational functions in all six coordinates, and
an elimination whose intermediate entries grow runs for minutes on them.
The budget is several times what Gauss–Jordan on canonical ScalarFields
needs, and a profiling timer enforces it, so a slow elimination fails in
bounded time instead of running on.
"""

import signal

import pytest

from poisgeo import ScalarField, parse_scalar
from poisgeo.connection import CoMetric
from poisgeo.foliation import split_cotangent

from test_lie_poisson_betti import so4_star

BUDGET_S = 20.0
SAMPLES = [(1, 2, 3, 4, 5, 6), (1, 0, 2, 0, 3, 1)]


class BudgetExceeded(Exception):
    pass


def _over_budget(signum, frame):
    raise BudgetExceeded(f"more than {BUDGET_S} s of CPU time")


def test_curved_so4_frame_inverse_within_budget():
    pi = so4_star()
    chart = pi.chart
    one = ScalarField.one(chart)
    diag = [parse_scalar("1+x0^2", chart), one, one, one, one, parse_scalar("1+x5^2", chart)]
    previous = signal.signal(signal.SIGPROF, _over_budget)
    signal.setitimer(signal.ITIMER_PROF, BUDGET_S)
    try:
        g = CoMetric.from_upper(chart, {(i, i): e for i, e in enumerate(diag)})
        split = split_cotangent(pi, g, 4, SAMPLES)
        inv = split.frame_inverse()
    except BudgetExceeded as exc:
        pytest.fail(str(exc))
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    identity = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    for pt in SAMPLES + [(2, -1, 1, 3, 0, 5)]:
        assert (inv.eval_at(pt) @ split.frame_matrix().eval_at(pt)).entries == identity
