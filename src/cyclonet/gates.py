"""Gate constructors and cyclic-network compilation.

A cyclic network is an ordered list of gates over one or two loop qubits;
the qubits traverse the same gates once per cycle.  Compiling a network
multiplies the gate matrices in reverse list order (the first gate the
qubits encounter sits rightmost in the matrix product), so the compiled
matrix applied to a column vector performs one full cycle.

Angle conventions follow the general 2x2 unitary

    u2(alpha, phi, beta, delta) =
        e^{i delta} [[ e^{i alpha} cos phi,  e^{i beta} sin phi],
                     [-e^{-i beta} sin phi,  e^{-i alpha} cos phi]]

with control-gate blocks acting on |10>,|11> (control on top line) or
|01>,|11> (control on bottom line).  Angles are stored as given; no
canonical range reduction is applied.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .linalg import Spectrum, check_integer, check_real, check_unitary, dense_eigendecomposition

TWO_LEVEL_PAIRS = ((3, 4), (2, 3), (2, 4), (1, 2), (1, 3), (1, 4))
# Diagonal-phase extension is only defined for the two control-gate shaped pairs.
EXTENDED_PAIRS = ((2, 4), (3, 4))

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_X.flags.writeable = False  # gate_matrix returns it as the one-qubit NotGate matrix
_EYE2 = np.eye(2, dtype=complex)  # read, never written
_EYE4 = np.eye(4, dtype=complex)  # copied, never written


# ----------------------------------------------------------------------------
# Gate specs


class _GateSpec:
    """Base of the gate specs: each field is checked by name at construction and kept as a plain int or float."""

    def __post_init__(self):
        for f in fields(self):
            name = f"{type(self).__name__} field {f.name!r}"
            value = getattr(self, f.name)
            if f.type == "int":
                check_integer(value, name, low=-np.inf)  # its range: TwoLevel, ControlNot and compile_cycle check it
                object.__setattr__(self, f.name, int(value))
            else:
                object.__setattr__(self, f.name, check_real(value, name))


@dataclass(frozen=True)
class SingleQubit(_GateSpec):
    """Arbitrary U(2) gate on one loop line (line 1 = top/leftmost bit)."""

    line: int
    alpha: float = 0.0
    phi: float = 0.0
    beta: float = 0.0
    delta: float = 0.0


@dataclass(frozen=True)
class ControlDown(_GateSpec):
    """Control on the top loop, U(2) block on the bottom qubit (|10>,|11>)."""

    alpha: float = 0.0
    phi: float = 0.0
    beta: float = 0.0
    delta: float = 0.0


@dataclass(frozen=True)
class ControlUp(_GateSpec):
    """Control on the bottom loop, U(2) block on the top qubit (|01>,|11>)."""

    alpha: float = 0.0
    phi: float = 0.0
    beta: float = 0.0
    delta: float = 0.0


@dataclass(frozen=True)
class TwoLevel(_GateSpec):
    """Two-level factor mixing basis levels p and r (1-based), optionally phased."""

    p: int
    r: int
    phi: float = 0.0
    beta: float = 0.0
    gamma_p: float = 0.0
    gamma_r: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if (self.p, self.r) not in TWO_LEVEL_PAIRS:
            raise ValueError(f"invalid two-level pair ({self.p},{self.r}); must be one of {TWO_LEVEL_PAIRS}")
        if (self.gamma_p != 0.0 or self.gamma_r != 0.0) and (self.p, self.r) not in EXTENDED_PAIRS:
            raise ValueError(f"diagonal-phase extension undefined for pair ({self.p},{self.r})")


@dataclass(frozen=True)
class DiagonalLayer(_GateSpec):
    """Diagonal phase gate diag(e^{i g1}, ..., e^{i g4})."""

    gammas: tuple[float, float, float, float]

    def __post_init__(self):
        vector = isinstance(self.gammas, (tuple, list)) or isinstance(self.gammas, np.ndarray) and self.gammas.ndim == 1
        if not vector or len(self.gammas) != 4:
            raise ValueError(f"DiagonalLayer field 'gammas' must hold four angles, got {self.gammas!r}")
        gammas = tuple(check_real(g, f"DiagonalLayer field 'gamma{i}'") for i, g in enumerate(self.gammas, start=1))
        object.__setattr__(self, "gammas", gammas)


@dataclass(frozen=True)
class NotGate(_GateSpec):
    """Bit flip on one loop line."""

    line: int


@dataclass(frozen=True)
class ControlNot(_GateSpec):
    """Controlled-Not between the two loop lines."""

    control: int
    target: int

    def __post_init__(self):
        super().__post_init__()
        if {self.control, self.target} != {1, 2}:
            raise ValueError("control and target must be lines 1 and 2")


GateSpec = (
    SingleQubit | ControlDown | ControlUp | TwoLevel | DiagonalLayer | NotGate | ControlNot
)

_CONTROL_KINDS = (ControlDown, ControlUp)


# ----------------------------------------------------------------------------
# Gate matrices, built from the checked fields of a gate spec


def _u2(alpha: float, phi: float, beta: float, delta: float) -> np.ndarray:
    """General 2x2 unitary with determinant e^{2i delta}, from float angles.

    Entries use scalar math/cmath (the bits of numpy's scalar ufuncs, cheaper) with
    c and s complex, so each entry is a full complex product as in numpy (Python
    3.14 multiplies complex by float part-wise).  The e^{i delta} factor stays a
    numpy array product, which rounds unlike a scalar one.
    """
    c, s = complex(math.cos(phi)), complex(math.sin(phi))
    return cmath.exp(1j * delta) * np.array(
        [
            [cmath.exp(1j * alpha) * c, cmath.exp(1j * beta) * s],
            [-cmath.exp(-1j * beta) * s, cmath.exp(-1j * alpha) * c],
        ]
    )


def _on_levels(block: np.ndarray, p: int, r: int) -> np.ndarray:
    """4x4 identity with the 2x2 block on basis levels p < r (1-based)."""
    g = _EYE4.copy()
    levels = slice(p - 1, r, r - p)  # rows and columns p and r, as a basic slice
    g[levels, levels] = block
    return g


def _embed_single(u2: np.ndarray, line: int, qubits: int) -> np.ndarray:
    if not 1 <= line <= qubits:
        raise ValueError(f"line {line} out of range for a {qubits}-qubit network")
    if qubits == 1:
        return u2
    # np.kron(u2, eye(2)) or np.kron(eye(2), u2), with the same products (-0.0 zeros included).
    if line == 1:
        return (u2[:, None, :, None] * _EYE2[None, :, None, :]).reshape(4, 4)
    return (_EYE2[:, None, :, None] * u2[None, :, None, :]).reshape(4, 4)


def gate_matrix(gate: GateSpec, qubits: int) -> np.ndarray:
    """Dense matrix of one gate embedded in the network's full space, from the spec's checked fields."""
    if qubits not in (1, 2) or type(qubits) is not int and not isinstance(qubits, np.integer):  # True == 1
        raise ValueError(f"qubits must be 1 or 2, got {qubits!r}")
    if isinstance(gate, SingleQubit):
        return _embed_single(_u2(gate.alpha, gate.phi, gate.beta, gate.delta), gate.line, qubits)
    if isinstance(gate, NotGate):
        return _embed_single(SIGMA_X, gate.line, qubits)
    if qubits != 2:
        raise ValueError(f"{type(gate).__name__} requires a two-qubit network")
    if isinstance(gate, ControlDown):  # block on |10>,|11>
        return _on_levels(_u2(gate.alpha, gate.phi, gate.beta, gate.delta), 3, 4)
    if isinstance(gate, ControlUp):  # block on |01>,|11>
        return _on_levels(_u2(gate.alpha, gate.phi, gate.beta, gate.delta), 2, 4)
    if isinstance(gate, TwoLevel):  # u2(0, phi, beta, 0) on levels p, r; rows p and r then phased by e^{i gamma}
        g = _on_levels(_u2(0.0, gate.phi, gate.beta, 0.0), gate.p, gate.r)
        if gate.gamma_p != 0.0 or gate.gamma_r != 0.0:
            d = np.ones(4, dtype=complex)
            d[gate.p - 1] = np.exp(1j * gate.gamma_p)
            d[gate.r - 1] = np.exp(1j * gate.gamma_r)
            g = d[:, None] * g
        return g
    if isinstance(gate, DiagonalLayer):
        return np.diag(np.exp(1j * np.array(gate.gammas)))
    if isinstance(gate, ControlNot):  # flips levels |10>,|11> or |01>,|11>
        return _on_levels(SIGMA_X, 3 if gate.control == 1 else 2, 4)
    raise TypeError(f"unknown gate spec {gate!r}")


# ----------------------------------------------------------------------------
# Matrix constructors: each checks its arguments as the fields of its gate spec


def u2_matrix(alpha: float, phi: float, beta: float, delta: float = 0.0) -> np.ndarray:
    """General 2x2 unitary with determinant e^{2i delta}: SingleQubit(1, ...)'s matrix."""
    return gate_matrix(SingleQubit(1, alpha, phi, beta, delta), 1)


def control_down_matrix(alpha: float, phi: float, beta: float, delta: float = 0.0) -> np.ndarray:
    """Controlled U(2) with control on the top loop; block acts on |10>,|11>."""
    return gate_matrix(ControlDown(alpha, phi, beta, delta), 2)


def control_up_matrix(alpha: float, phi: float, beta: float, delta: float = 0.0) -> np.ndarray:
    """Controlled U(2) with control on the bottom loop; block acts on |01>,|11>."""
    return gate_matrix(ControlUp(alpha, phi, beta, delta), 2)


def two_level_matrix(
    p: int,
    r: int,
    phi: float,
    beta: float,
    gamma_p: float = 0.0,
    gamma_r: float = 0.0,
) -> np.ndarray:
    """Two-level mixing of basis levels p and r (1-based) of a 4-dim space.

    The 2x2 block is u2(0, phi, beta, 0); nonzero gamma_p / gamma_r
    left-multiply by diagonal phases e^{i gamma} on rows p and r, which is
    only defined for pairs (2,4) and (3,4).
    """
    return gate_matrix(TwoLevel(p, r, phi, beta, gamma_p, gamma_r), 2)


def diagonal_matrix(gammas) -> np.ndarray:
    """diag(e^{i gamma_1}, ..., e^{i gamma_4}) of a list, tuple or 1-D array of four angles."""
    return gate_matrix(DiagonalLayer(gammas), 2)


# ----------------------------------------------------------------------------
# Networks


@dataclass(frozen=True)
class CyclicNetwork:
    """Ordered gates over one or two loop qubits.

    Gates are listed in the order the qubits encounter them during a cycle;
    compile_cycle therefore multiplies them in reverse.
    """

    qubits: int
    gates: tuple = ()

    def __post_init__(self):
        check_integer(self.qubits, "CyclicNetwork field 'qubits'", 1, 2)
        if not isinstance(self.gates, (tuple, list)):
            raise ValueError(f"CyclicNetwork field 'gates' must be a tuple or list, got {self.gates!r}")
        for i, gate in enumerate(self.gates):
            if not isinstance(gate, _GateSpec):
                raise ValueError(f"CyclicNetwork field 'gates[{i}]' must be a gate spec, got {gate!r}")
        object.__setattr__(self, "qubits", int(self.qubits))
        object.__setattr__(self, "gates", tuple(self.gates))


def compile_cycle(net: CyclicNetwork) -> np.ndarray:
    """Per-cycle unitary of a network: product of gate matrices in reverse list order.

    Built and checked on the first call on a network, then kept read-only on that
    (immutable) network: every later call returns the same array.
    """
    u = net.__dict__.get("_cycle")
    if u is None:
        u = _EYE4[: 2**net.qubits, : 2**net.qubits].copy()
        for gate in net.gates:
            u = gate_matrix(gate, net.qubits) @ u
        u = check_unitary(u, "compiled cycle")
        object.__setattr__(net, "_cycle", u)
    u.flags.writeable = False  # here, not above: a deep copy or unpickled network holds a writable copy
    return u


def cycle_spectrum(net: CyclicNetwork) -> Spectrum:
    """dense_eigendecomposition(compile_cycle(net)), kept on the network read-only as compile_cycle's is."""
    spectrum = net.__dict__.get("_spectrum")
    if spectrum is None:
        spectrum = dense_eigendecomposition(compile_cycle(net))
        object.__setattr__(net, "_spectrum", spectrum)
    spectrum.phases.flags.writeable = spectrum.vectors.flags.writeable = False  # as in compile_cycle
    return spectrum


def u2_parameters(w: np.ndarray) -> tuple[float, float, float, float]:
    """Recover (alpha, phi, beta, delta) with u2_matrix(...) == w for a 2x2 unitary."""
    w = check_unitary(w, "w", 2)
    delta = 0.5 * float(np.angle(np.linalg.det(w)))
    w0 = np.exp(-1j * delta) * w
    phi = float(np.arctan2(abs(w0[0, 1]), abs(w0[0, 0])))
    return float(np.angle(w0[0, 0])), phi, float(np.angle(w0[0, 1])), delta


def compress_same_orientation(gates) -> ControlDown | ControlUp:
    """Collapse a run of same-orientation control gates to a single gate.

    The replacement's U(2) block is the product of the input blocks in
    compile order (last gate leftmost), so the compiled matrices agree.
    """
    gates = tuple(gates)
    if not gates:
        raise ValueError("nothing to compress")
    kind = type(gates[0])
    if kind not in _CONTROL_KINDS or any(type(g) is not kind for g in gates):
        raise ValueError("compress_same_orientation requires gates of one control orientation")
    if len(gates) == 1:
        return gates[0]
    block = np.eye(2, dtype=complex)
    for g in gates:
        block = _u2(g.alpha, g.phi, g.beta, g.delta) @ block
    return kind(*u2_parameters(block))


def compress_network(net: CyclicNetwork) -> CyclicNetwork:
    """Merge maximal adjacent runs of same-orientation control gates."""
    merged: list[GateSpec] = []
    for kind, run in itertools.groupby(net.gates, key=type):
        if kind in _CONTROL_KINDS:
            merged.append(compress_same_orientation(run))
        else:
            merged.extend(run)
    return CyclicNetwork(net.qubits, tuple(merged))


def alternating_pair_network(phi: float, alpha: float = 0.0, beta: float = 0.0) -> CyclicNetwork:
    """Two-gate cycle compiling to ControlUp·ControlDown with shared angles.

    With alpha = beta = 0 this is the rotation-pair worked example whose
    active block lies in SO(3); with nonzero alpha it lands in SU(3).
    """
    return CyclicNetwork(
        2,
        (ControlDown(alpha, phi, beta, 0.0), ControlUp(alpha, phi, beta, 0.0)),
    )


# ----------------------------------------------------------------------------
# JSON wire format

_KIND_TO_CLASS = {
    "u2": SingleQubit,
    "control_down": ControlDown,
    "control_up": ControlUp,
    "two_level": TwoLevel,
    "diagonal": DiagonalLayer,
    "not": NotGate,
    "control_not": ControlNot,
}
_CLASS_TO_KIND = {cls: kind for kind, cls in _KIND_TO_CLASS.items()}


def _gate_to_json(gate: GateSpec) -> dict:
    if isinstance(gate, DiagonalLayer):
        return {"kind": "diagonal", **{f"gamma{i}": g for i, g in enumerate(gate.gammas, start=1)}}
    return {"kind": _CLASS_TO_KIND[type(gate)], **{f.name: getattr(gate, f.name) for f in fields(gate)}}


def _diagonal_from_json(gamma1, gamma2, gamma3, gamma4) -> DiagonalLayer:
    return DiagonalLayer((gamma1, gamma2, gamma3, gamma4))  # the wire's four fields are the spec's one field


def _gate_from_json(doc: dict) -> GateSpec:
    """The gate one entry of 'gates' describes; the gate spec names a missing or unknown field and checks the values."""
    if not isinstance(doc, dict):
        raise ValueError(f"each entry of 'gates' must be an object, got {doc!r}")
    if not isinstance(kind := doc.get("kind"), str) or kind not in _KIND_TO_CLASS:
        raise ValueError(f"gate field 'kind' must be one of {sorted(_KIND_TO_CLASS)}, got {kind!r}")
    make = _diagonal_from_json if kind == "diagonal" else _KIND_TO_CLASS[kind]
    try:
        return make(**{key: value for key, value in doc.items() if key != "kind"})
    except TypeError as exc:  # a missing or unknown keyword, named by Python
        raise ValueError(f"gate kind {kind!r}: {exc}") from None


def network_to_json(net: CyclicNetwork) -> dict:
    """Plain-dict form of a network (angles in radians)."""
    return {"qubits": net.qubits, "gates": [_gate_to_json(g) for g in net.gates]}


def network_from_json(doc: dict) -> CyclicNetwork:
    """Parse the plain-dict form, naming the offending field on error."""
    if not isinstance(doc, dict):
        raise ValueError(f"network document must be an object, got {doc!r}")
    if "qubits" not in doc or not doc.keys() <= {"qubits", "gates"}:
        raise ValueError(f"network document must hold 'qubits' and may hold 'gates', got fields {list(doc)}")
    gates = doc.get("gates", [])
    if not isinstance(gates, list):
        raise ValueError(f"field 'gates' must be a list, got {gates!r}")
    return CyclicNetwork(doc["qubits"], tuple(_gate_from_json(g) for g in gates))


def dumps_network(net: CyclicNetwork) -> str:
    return json.dumps(network_to_json(net), indent=2)


def loads_network(text: str) -> CyclicNetwork:
    return network_from_json(json.loads(text))


def load_network(path) -> CyclicNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_network(fh.read())


def save_network(net: CyclicNetwork, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_network(net) + "\n")
