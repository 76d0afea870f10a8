"""Every registry entry over drawn scenarios and pinned examples, and its planted mutation."""

import itertools
import zlib
from fnmatch import fnmatchcase

import numpy as np
import pytest
from hypothesis import given, seed, settings
from parity import Tolerance, first_difference, not_compared

from oracles.invariants import assert_invariants
from oracles.records import run_cluster
from oracles.registry import ENTRIES, IMBALANCED
from oracles.scenarios import DIMENSIONS, scenarios

# One test per (control, uplink sharing, drop policy) cell an entry allows,
# each on a seed of its own.  An entry's ~10 draws (500 under the ci profile,
# tests/conftest.py) spread over its cells, at least two a cell: hypothesis
# draws the simplest scenario first.
BUDGET = settings.default.max_examples if settings.default.derandomize else 10
SPLIT = ("control", "uplink_sharing", "drop_policy")


def cells():
    for entry in ENTRIES.values():
        cells = list(itertools.product(*((DIMENSIONS | entry.dimensions)[d] for d in SPLIT)))
        for cell in cells:
            narrowed = entry.dimensions | {d: (value,) for d, value in zip(SPLIT, cell)}
            cell_id = "-".join([entry.name, *(getattr(value, "value", value) for value in cell)])
            yield pytest.param(entry, narrowed, max(2, -(-BUDGET // len(cells))), id=cell_id)


def assert_equivalent(entry, scenario):
    reference, variant = entry.reference(scenario), entry.variant(scenario)
    for record in (reference, variant):
        assert_invariants(scenario, record)
    difference = first_difference(reference, variant, entry.tolerances)
    assert difference is None, f"{entry.name}: {difference}"


@pytest.mark.parametrize("entry, narrowed, examples", cells())
def test_variant_matches_reference(entry, narrowed, examples, request):
    @seed(zlib.crc32(request.node.callspec.id.encode()))
    @settings(max_examples=examples, deadline=None)
    @given(scenario=scenarios(**narrowed))
    def check(scenario):
        assert_equivalent(entry, scenario)

    check()


@pytest.mark.parametrize(
    "entry, scenario",
    [
        pytest.param(entry, *example.values, id=f"{entry.name}-{example.id}", marks=example.marks)
        for entry in ENTRIES.values()
        for example in entry.examples
    ],
)
def test_pinned_example(entry, scenario):
    assert_equivalent(entry, scenario)


@pytest.mark.parametrize("name", ENTRIES)
def test_planted_mutation_is_caught(name, monkeypatch):
    entry = ENTRIES[name]
    mutation = entry.mutation
    mutation.plant(monkeypatch)
    reference, variant = entry.reference(mutation.scenario), entry.variant(mutation.scenario)
    difference = first_difference(reference, variant, entry.tolerances)
    assert difference is not None, f"{entry.name} missed: {mutation.description}"
    assert fnmatchcase(difference.path, mutation.path), str(difference)


def test_the_imbalanced_cluster_migrates_and_sheds():
    cluster = run_cluster(IMBALANCED).cluster
    assert cluster["migrations_performed"] > 0 and cluster["shedding_interventions"] > 0


def test_comparator_is_exact_unless_a_tolerance_is_declared():
    reference = {"x": [1.0, 2.0], "y": np.array([0.5, 0.25]), "z": "a"}
    assert first_difference(reference, dict(reference)) is None
    variant = {"x": [1.0, 2.0], "y": np.array([0.5, 0.25 + 1e-12]), "z": "b"}
    assert str(first_difference(reference, variant)) == (
        "y[1]: reference 0.25 != variant 0.250000000001"
    )
    tolerances = {"y": Tolerance("why", abs=1e-9), "z": not_compared("why")}
    assert first_difference(reference, variant, tolerances) is None
    assert first_difference({"x": [1.0, 2.0]}, {"x": [1.0]}).path == "x.length"
    assert first_difference({"x": 1}, {"w": 1}).path == "x"
