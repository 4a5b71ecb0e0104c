"""The input domain shared by the property tests.

Masses are 10**exponents over 1e-6..1e6 (or all equal to the first), n runs
from 1, and clocks are tied by copying one drawn clock onto another.  Each
test sets its own size and tie caps and its own level rule.
"""
from hypothesis import strategies as st

from mcmosaic.core import ClockAssignment, RngStream, WeightedConfig, sample_clocks


def domain(max_n: int = 40, max_ties: int = 6) -> tuple:
    """Strategies for (exponents, equal, seed, ties)."""
    index = st.integers(0, max_n - 1)
    return (
        st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=max_n),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(index, index), max_size=max_ties),
    )


def domain_instance(exponents, equal, seed, ties) -> tuple[WeightedConfig, ClockAssignment]:
    """Config and clocks of one example drawn from ``domain``."""
    masses = [10.0 ** exponents[0]] * len(exponents) if equal else [10.0**e for e in exponents]
    cfg = WeightedConfig(tuple(masses))
    xi = list(sample_clocks(cfg, RngStream(seed).named("clocks")).xi)
    for a, b in ties:
        xi[a % len(xi)] = xi[b % len(xi)]
    return cfg, ClockAssignment.from_xi(xi)
