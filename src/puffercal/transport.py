"""Comonotone couplings of discrete distributions and their transport functionals.

In one dimension the quantile-aligned (north-west) coupling minimizes the
expected cost for every convex function of the displacement, so all
calibration functionals in this package are evaluated on that single plan.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .dist import DiscreteDistribution, log_sum_exp
from .errors import InvalidValue

_MASS_TOL = 1e-12
# Rounding bound per term of a float cumulative-mass ladder whose levels are
# at most 1: the term's own mass rounding plus its partial sum's rounding,
# each at most the unit roundoff 2^-53.
_LADDER_ULP = 2.0**-52


@dataclass(frozen=True)
class Coupling:
    """Finite transport plan: (source atom, target atom, mass) triples.

    Entries are lexicographically sorted and comonotone: the target atoms
    never decrease as the source atoms increase.
    """

    entries: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise InvalidValue("coupling needs at least one entry")
        total = math.fsum(m for _, _, m in self.entries)
        if abs(total - 1.0) > _MASS_TOL:
            raise InvalidValue(f"coupling mass sums to {total!r}, expected 1")
        prev = None
        for entry in self.entries:
            x, x2, m = entry
            if not (m > 0.0 and math.isfinite(m)):
                raise InvalidValue(f"coupling mass {m!r} is not strictly positive")
            if prev is not None:
                if entry[:2] < prev[:2]:
                    raise InvalidValue("coupling entries are not sorted")
                if x >= prev[0] and x2 < prev[1]:
                    raise InvalidValue("coupling support is not comonotone")
            prev = entry

    def displacements(self) -> list[float]:
        return [abs(x - x2) for x, x2, _ in self.entries]

    @cached_property
    def displacement_array(self) -> np.ndarray:
        return np.array(self.displacements())

    @cached_property
    def _max_displacement(self) -> float:
        return float(self.displacement_array.max())

    @cached_property
    def log_masses(self) -> np.ndarray:
        return np.array([math.log(m) for _, _, m in self.entries])

    def max_displacement(self) -> float:
        """The largest |x - x'| of the plan, computed once.

        On the quantile-aligned plan this is W_inf: in one dimension no
        coupling has a smaller worst-case displacement.
        """
        return self._max_displacement


@lru_cache(maxsize=64)
def monotone_coupling(P: DiscreteDistribution, Q: DiscreteDistribution) -> Coupling:
    """Quantile-aligned coupling of two sorted discrete distributions.

    Sweeps both cumulative-mass ladders once, pairing the mass between
    consecutive cumulative levels. Optimal for every convex cost of the
    displacement |x - x'|; ties in cumulative levels advance both sides.
    Levels closer than the two ladders' accumulated rounding bound count
    as ties, so a float residue never pairs far-apart atoms; no entry with
    more mass than that bound is dropped. Memoized: a grid over one pair
    builds its plan once.
    """
    cum_p = []
    acc = 0.0
    for m in P.masses:
        acc += m
        cum_p.append(acc)
    cum_q = []
    acc = 0.0
    for m in Q.masses:
        acc += m
        cum_q.append(acc)

    entries = []
    i = j = 0
    level_prev = 0.0
    while i < len(cum_p) and j < len(cum_q):
        # cum_p[i] sums i + 1 rounded masses and cum_q[j] sums j + 1.
        tie = abs(cum_p[i] - cum_q[j]) <= (i + j + 2) * _LADDER_ULP
        level = min(cum_p[i], cum_q[j])
        mass = level - level_prev
        if mass > 0.0:
            entries.append((P.atoms[i], Q.atoms[j], mass))
        level_prev = level
        if tie or cum_p[i] <= level:
            i += 1
        if tie or cum_q[j] <= level:
            j += 1
    return Coupling(entries=tuple(entries))


def coupling_log_expectation(plan: Coupling, log_g: Callable[[np.ndarray], np.ndarray]):
    """log E[exp(log_g(|x - x'|))] under the plan, computed by log-sum-exp.

    log_g maps the plan's displacement array to the per-entry log
    integrand, or to a (rows x entries) block of them: a float comes back
    for one integrand and an array of one value per row for a block, each
    row's value bit-identical to that row's own call. Working in log space
    keeps large exponentials (e.g. at extreme divergence orders) from
    overflowing.
    """
    values = log_sum_exp(plan.log_masses + log_g(plan.displacement_array))
    return float(values) if np.ndim(values) == 0 else values
