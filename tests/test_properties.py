"""Round trips of the constructive decompositions over drawn two-qubit networks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclonet import (
    CyclicNetwork,
    build_u4,
    classify,
    compile_cycle,
    decompose_u3,
    extract_so3_angles,
    extract_u4_parameters,
    synthesize_so3,
)
from cyclonet.linalg import is_block_form

from helpers import random_control_gate, random_gate

ROUND_TRIP_TOL = 1e-12  # worst seen over 3000 drawn networks: 5.3e-16 (U4), 5.6e-16 (U3), 4.1e-15 (SO3)


@st.composite
def two_qubit_networks(draw):
    """0-8 gates from a drawn seed: any of the seven kinds, kinds that keep |00> inert, or single-angle rotations."""
    family = draw(st.sampled_from(["any", "inert_00", "rotation"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = int(rng.integers(0, 9))  # from the seed: hypothesis would draw mostly empty networks
    if family == "rotation":  # alternating or not, so classify says SO3
        gates = [random_control_gate(rng, "down" if rng.integers(2) else "up", "so3") for _ in range(size)]
    else:
        gates = [random_gate(rng, 2, inert_00=family == "inert_00") for _ in range(size)]
    return CyclicNetwork(2, tuple(gates))


def deviation(a, b) -> float:
    return float(np.max(np.abs(a - b)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(two_qubit_networks())
def test_decompositions_rebuild_the_cycle(net):
    u = compile_cycle(net)
    assert deviation(build_u4(extract_u4_parameters(u)), u) <= ROUND_TRIP_TOL
    if not is_block_form(u):
        with pytest.raises(ValueError, match="block form"):
            decompose_u3(u)
        return
    assert deviation(compile_cycle(CyclicNetwork(2, tuple(decompose_u3(u)))), u) <= ROUND_TRIP_TOL
    if classify(net).tag == "SO3":
        for leading in ("up", "down"):
            rebuilt = compile_cycle(synthesize_so3(*extract_so3_angles(u[1:, 1:], leading), leading))
            assert deviation(rebuilt, u) <= ROUND_TRIP_TOL
