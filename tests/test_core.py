"""Mass configs, clock assignments, and the stream-addressable RNG."""

import importlib
import json
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcmosaic.core import (
    ClockAssignment,
    RngStream,
    WeightedConfig,
    check_positive,
    find,
    groups,
    load_config,
    sample_clocks,
    union,
)


def test_config_basics():
    cfg = WeightedConfig((1.0, 0.5, 2.0))
    assert len(cfg) == 3
    assert math.fsum(cfg.masses) == pytest.approx(3.5)
    arr = cfg.as_array()
    assert arr.dtype == float
    # as_array hands out a fresh buffer, mutating it must not leak back
    arr[0] = 99.0
    assert cfg.masses[0] == 1.0


def test_config_coerces_to_float():
    cfg = WeightedConfig((1, 2))
    assert cfg.masses == (1.0, 2.0)
    assert isinstance(cfg.masses[0], float)


@pytest.mark.parametrize("bad", [(), (0.0,), (-1.0, 2.0), (float("nan"),), (float("inf"),)])
def test_config_rejects_bad_masses(bad):
    with pytest.raises(ValueError):
        WeightedConfig(bad)


@pytest.mark.parametrize("masses", [(1e308,) * 3, (1.7e308, 1.7e308), (1e308, 8e307)])
def test_config_rejects_masses_whose_total_overflows(masses):
    """Finite masses whose total is not a finite double are refused by name
    (every reader sums the masses of a block); a total just below is kept."""
    with pytest.raises(ValueError, match="must total a finite double, got a total of inf"):
        WeightedConfig(masses)
    assert WeightedConfig((1e308, 7e307)).masses == (1e308, 7e307)


@pytest.mark.parametrize("v", [1, 2.5, np.float64(0.25), np.int64(3), 1.7976931348623157e308])
def test_check_positive_returns_a_float(v):
    assert check_positive("q", v) == float(v) and type(check_positive("q", v)) is float


@pytest.mark.parametrize(
    "v",
    [0, 0.0, -1.0, math.nan, math.inf, pytest.param(10**400, id="10**400"), True, False, "1",
     None, [1.0]],
)
def test_check_positive_refuses_what_is_not_a_finite_number_above_zero(v):
    with pytest.raises(ValueError, match=f"^q must be finite and > 0, got {re.escape(repr(v))}$"):
        check_positive("q", v)


def test_clock_assignment_sorting():
    ca = ClockAssignment.from_xi((0.7, 0.2, 1.5, 0.4))
    assert ca.perm == (1, 3, 0, 2)
    assert ca.sorted_xi() == (0.2, 0.4, 0.7, 1.5)
    assert len(ca) == 4


def test_clock_assignment_tie_break_is_stable():
    # equal clocks keep vertex order, so the permutation is well defined
    ca = ClockAssignment.from_xi((0.5, 0.5, 0.1))
    assert ca.perm == (2, 0, 1)


def test_clock_assignment_rejects_nonpositive():
    with pytest.raises(ValueError):
        ClockAssignment.from_xi((0.5, 0.0))
    with pytest.raises(ValueError):
        ClockAssignment.from_xi((0.5, float("nan")))


@pytest.mark.parametrize(
    "xi, first",
    [
        ((0.5, 0.0, -1.0), "0.0"),
        ((0.5, -2.0, math.nan), "-2.0"),
        (np.array([1.0, np.nan, 0.0], dtype=np.float32), "nan"),
        ((2.0, math.inf), "inf"),
        ((-math.inf, 1.0), "-inf"),
    ],
)
def test_clock_assignment_names_the_first_bad_value(xi, first):
    with pytest.raises(ValueError, match=f"got {first}$"):
        ClockAssignment.from_xi(xi)


def test_clock_assignment_holds_python_numbers():
    xi = np.array([0.7, 0.2, 0.7], dtype=np.float32)
    ca = ClockAssignment.from_xi(xi)
    assert ca.xi == tuple(float(v) for v in xi) and ca.perm == (1, 0, 2)
    assert all(type(v) is float for v in ca.xi) and all(type(v) is int for v in ca.perm)


def test_rng_stream_reproducible():
    a = RngStream(42).generator().random(8)
    b = RngStream(42).generator().random(8)
    assert np.array_equal(a, b)


def test_rng_named_streams_differ_and_are_stable():
    root = RngStream(42)
    x = root.named("clocks").generator().random(4)
    y = root.named("merge-edges").generator().random(4)
    assert not np.array_equal(x, y)
    assert np.array_equal(x, root.named("clocks").generator().random(4))


def test_rng_indexed_streams_differ():
    root = RngStream(7).named("reps")
    draws = [tuple(root.indexed(k).generator().random(3)) for k in range(20)]
    assert len(set(draws)) == 20
    with pytest.raises(ValueError):
        root.indexed(-1)


def test_rng_derivation_order_matters():
    root = RngStream(7)
    a = root.named("a").named("b").generator().random(2)
    b = root.named("b").named("a").generator().random(2)
    assert not np.array_equal(a, b)


def test_sample_clocks_law():
    """Clock of a mass-m vertex is Exp(m): check the mean of each column."""
    cfg = WeightedConfig((1.0, 4.0))
    reps = 4000
    root = RngStream(11)
    draws = np.array(
        [sample_clocks(cfg, root.indexed(k)).xi for k in range(reps)]
    )
    means = draws.mean(axis=0)
    # Exp(m) has mean 1/m and sd 1/m; 5 sigma slack
    assert abs(means[0] - 1.0) < 5.0 / math.sqrt(reps)
    assert abs(means[1] - 0.25) < 5.0 * 0.25 / math.sqrt(reps)
    assert np.all(draws > 0.0)


def test_sample_clocks_deterministic():
    cfg = WeightedConfig((1.0, 2.0, 3.0))
    a = sample_clocks(cfg, RngStream(3).named("clocks"))
    b = sample_clocks(cfg, RngStream(3).named("clocks"))
    assert a.xi == b.xi and a.perm == b.perm


def test_load_config_from_path(tmp_path):
    p = tmp_path / "conf.json"
    p.write_text(json.dumps({"masses": [1.0, 2.0], "seed": 5, "q": 0.3}))
    cfg, rest = load_config(p)
    assert cfg.masses == (1.0, 2.0)
    assert rest == {"seed": 5, "q": 0.3}


def test_load_config_from_mapping_leaves_input_alone():
    src = {"masses": [1.5], "seed": 1}
    cfg, rest = load_config(src)
    assert cfg.masses == (1.5,)
    assert "masses" in src  # caller's dict is not mutated
    assert rest == {"seed": 1}


def test_load_config_requires_masses():
    with pytest.raises(ValueError):
        load_config({"seed": 3})


@pytest.mark.parametrize("masses", ["123", {"1": 2.0}, [True, 1.0], [1.0, False]])
def test_load_config_rejects_masses_that_are_not_a_list_of_numbers(masses):
    with pytest.raises(ValueError, match="'masses' must be a list of numbers"):
        load_config({"masses": masses})


@pytest.mark.parametrize("payload", ["5", "[1.0, 2.0]", '"masses"', "null"])
def test_load_config_requires_an_object(payload, tmp_path):
    p = tmp_path / "conf.json"
    p.write_text(payload)
    with pytest.raises(ValueError, match="config must be a JSON object"):
        load_config(p)


# -- union-find ---------------------------------------------------------------


def _bfs_partition(n, edges):
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, parts = set(), set()
    for v in range(n):
        if v in seen:
            continue
        comp, frontier = {v}, [v]
        while frontier:
            nxt = [w for u in frontier for w in adj[u] if w not in comp]
            comp.update(nxt)
            frontier = nxt
        seen |= comp
        parts.add(frozenset(comp))
    return frozenset(parts)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))


@given(edge_lists())
def test_union_find_matches_bfs(case):
    """Self-loops and repeated pairs included: the partition is the BFS one,
    and union reports a merge exactly n - (number of components) times."""
    n, edges = case
    parent = list(range(n))
    merges = sum(union(parent, a, b) for a, b in edges)
    want = _bfs_partition(n, edges)
    assert groups(parent) == want
    assert merges == n - len(want)
    for comp in want:
        assert len({find(parent, v) for v in comp}) == 1


def test_every_exported_name_resolves():
    """Each name in the package's and every submodule's __all__ is defined,
    so a deleted member left in an export list fails here instead of in
    ``from mcmosaic import *``."""
    import mcmosaic

    names = [m.name for m in pkgutil.iter_modules(mcmosaic.__path__)]
    for mod in [mcmosaic] + [importlib.import_module(f"mcmosaic.{n}") for n in names]:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__}: {missing}"
