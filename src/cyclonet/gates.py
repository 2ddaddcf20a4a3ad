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

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .linalg import ZERO_TOL, check_unitary

TWO_LEVEL_PAIRS = ((3, 4), (2, 3), (2, 4), (1, 2), (1, 3), (1, 4))
# Diagonal-phase extension is only defined for the two control-gate shaped pairs.
EXTENDED_PAIRS = ((2, 4), (3, 4))

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


# ----------------------------------------------------------------------------
# Matrix constructors


def _check_two_level(p: int, r: int, gamma_p: float, gamma_r: float) -> None:
    if (p, r) not in TWO_LEVEL_PAIRS:
        raise ValueError(f"invalid two-level pair ({p},{r}); must be one of {TWO_LEVEL_PAIRS}")
    if (gamma_p != 0.0 or gamma_r != 0.0) and (p, r) not in EXTENDED_PAIRS:
        raise ValueError(f"diagonal-phase extension undefined for pair ({p},{r})")


def _check_cnot_lines(control: int, target: int) -> None:
    if {control, target} != {1, 2}:
        raise ValueError("control and target must be lines 1 and 2")


def u2_matrix(alpha: float, phi: float, beta: float, delta: float = 0.0) -> np.ndarray:
    """General 2x2 unitary with determinant e^{2i delta}."""
    c, s = np.cos(phi), np.sin(phi)
    return np.exp(1j * delta) * np.array(
        [
            [np.exp(1j * alpha) * c, np.exp(1j * beta) * s],
            [-np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c],
        ]
    )


def control_down_matrix(alpha: float, phi: float, beta: float, delta: float = 0.0) -> np.ndarray:
    """Controlled U(2) with control on the top loop; block acts on |10>,|11>."""
    g = np.eye(4, dtype=complex)
    g[2:, 2:] = u2_matrix(alpha, phi, beta, delta)
    return g


def control_up_matrix(alpha: float, phi: float, beta: float, delta: float = 0.0) -> np.ndarray:
    """Controlled U(2) with control on the bottom loop; block acts on |01>,|11>."""
    g = np.eye(4, dtype=complex)
    idx = np.ix_((1, 3), (1, 3))
    g[idx] = u2_matrix(alpha, phi, beta, delta)
    return g


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
    _check_two_level(p, r, gamma_p, gamma_r)
    g = np.eye(4, dtype=complex)
    idx = np.ix_((p - 1, r - 1), (p - 1, r - 1))
    g[idx] = u2_matrix(0.0, phi, beta, 0.0)
    if gamma_p != 0.0 or gamma_r != 0.0:
        d = np.ones(4, dtype=complex)
        d[p - 1] = np.exp(1j * gamma_p)
        d[r - 1] = np.exp(1j * gamma_r)
        g = d[:, None] * g
    return g


def diagonal_matrix(gammas) -> np.ndarray:
    """diag(e^{i gamma_1}, ..., e^{i gamma_4})."""
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape != (4,):
        raise ValueError("diagonal gate takes exactly four phase angles")
    return np.diag(np.exp(1j * gammas))


def cnot_matrix(control: int, target: int) -> np.ndarray:
    """Controlled-Not on two qubits, lines 1 (top) and 2 (bottom)."""
    _check_cnot_lines(control, target)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    if control == 1:
        return np.kron(p0, eye) + np.kron(p1, SIGMA_X)
    return np.kron(eye, p0) + np.kron(SIGMA_X, p1)


# ----------------------------------------------------------------------------
# Gate specs


class _AngleGate:
    """Base of the gate specs that carry angles: every angle must be finite."""

    def _angles(self) -> list[tuple[str, float]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self) if f.type == "float"]

    def __post_init__(self):
        for name, value in self._angles():
            if not math.isfinite(value):
                raise ValueError(f"{type(self).__name__} field {name!r} must be finite, got {value!r}")


@dataclass(frozen=True)
class SingleQubit(_AngleGate):
    """Arbitrary U(2) gate on one loop line (line 1 = top/leftmost bit)."""

    line: int
    alpha: float = 0.0
    phi: float = 0.0
    beta: float = 0.0
    delta: float = 0.0


@dataclass(frozen=True)
class ControlDown(_AngleGate):
    """Control on the top loop, U(2) block on the bottom qubit (|10>,|11>)."""

    alpha: float = 0.0
    phi: float = 0.0
    beta: float = 0.0
    delta: float = 0.0


@dataclass(frozen=True)
class ControlUp(_AngleGate):
    """Control on the bottom loop, U(2) block on the top qubit (|01>,|11>)."""

    alpha: float = 0.0
    phi: float = 0.0
    beta: float = 0.0
    delta: float = 0.0


@dataclass(frozen=True)
class TwoLevel(_AngleGate):
    """Two-level factor mixing basis levels p and r (1-based), optionally phased."""

    p: int
    r: int
    phi: float = 0.0
    beta: float = 0.0
    gamma_p: float = 0.0
    gamma_r: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        _check_two_level(self.p, self.r, self.gamma_p, self.gamma_r)


@dataclass(frozen=True)
class DiagonalLayer(_AngleGate):
    """Diagonal phase gate diag(e^{i g1}, ..., e^{i g4})."""

    gammas: tuple[float, float, float, float]

    def _angles(self) -> list[tuple[str, float]]:
        return [(f"gamma{i}", g) for i, g in enumerate(self.gammas, start=1)]


@dataclass(frozen=True)
class NotGate:
    """Bit flip on one loop line."""

    line: int


@dataclass(frozen=True)
class ControlNot:
    """Controlled-Not between the two loop lines."""

    control: int
    target: int

    def __post_init__(self):
        _check_cnot_lines(self.control, self.target)


GateSpec = (
    SingleQubit | ControlDown | ControlUp | TwoLevel | DiagonalLayer | NotGate | ControlNot
)

_CONTROL_KINDS = (ControlDown, ControlUp)


def _embed_single(u2: np.ndarray, line: int, qubits: int) -> np.ndarray:
    if not 1 <= line <= qubits:
        raise ValueError(f"line {line} out of range for a {qubits}-qubit network")
    if qubits == 1:
        return u2
    eye = np.eye(2, dtype=complex)
    return np.kron(u2, eye) if line == 1 else np.kron(eye, u2)


def gate_matrix(gate: GateSpec, qubits: int) -> np.ndarray:
    """Dense matrix of one gate embedded in the network's full space."""
    if isinstance(gate, SingleQubit):
        return _embed_single(u2_matrix(gate.alpha, gate.phi, gate.beta, gate.delta), gate.line, qubits)
    if isinstance(gate, NotGate):
        return _embed_single(SIGMA_X, gate.line, qubits)
    if qubits != 2:
        raise ValueError(f"{type(gate).__name__} requires a two-qubit network")
    if isinstance(gate, ControlDown):
        return control_down_matrix(gate.alpha, gate.phi, gate.beta, gate.delta)
    if isinstance(gate, ControlUp):
        return control_up_matrix(gate.alpha, gate.phi, gate.beta, gate.delta)
    if isinstance(gate, TwoLevel):
        return two_level_matrix(gate.p, gate.r, gate.phi, gate.beta, gate.gamma_p, gate.gamma_r)
    if isinstance(gate, DiagonalLayer):
        return diagonal_matrix(gate.gammas)
    if isinstance(gate, ControlNot):
        return cnot_matrix(gate.control, gate.target)
    raise TypeError(f"unknown gate spec {gate!r}")


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
        if self.qubits not in (1, 2):
            raise ValueError("networks support 1 or 2 loop qubits")
        object.__setattr__(self, "gates", tuple(self.gates))


def compile_cycle(net: CyclicNetwork) -> np.ndarray:
    """Per-cycle unitary of a network: product of gate matrices in reverse list order."""
    dim = 2**net.qubits
    u = np.eye(dim, dtype=complex)
    for gate in net.gates:
        u = gate_matrix(gate, net.qubits) @ u
    return check_unitary(u)


def u2_parameters(w: np.ndarray) -> tuple[float, float, float, float]:
    """Recover (alpha, phi, beta, delta) with u2_matrix(...) == w for a 2x2 unitary."""
    w = np.asarray(w, dtype=complex)
    delta = 0.5 * float(np.angle(np.linalg.det(w)))
    w0 = np.exp(-1j * delta) * w
    c, s = abs(w0[0, 0]), abs(w0[0, 1])
    phi = float(np.arctan2(s, c))
    alpha = float(np.angle(w0[0, 0])) if c > ZERO_TOL else 0.0
    beta = float(np.angle(w0[0, 1])) if s > ZERO_TOL else 0.0
    return alpha, phi, beta, delta


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
        block = u2_matrix(g.alpha, g.phi, g.beta, g.delta) @ block
    return kind(*u2_parameters(block))


def compress_network(net: CyclicNetwork) -> CyclicNetwork:
    """Merge maximal adjacent runs of same-orientation control gates."""
    merged: list[GateSpec] = []
    run: list[GateSpec] = []

    def flush():
        if len(run) == 1:
            merged.append(run[0])
        elif run:
            merged.append(compress_same_orientation(run))
        run.clear()

    for gate in net.gates:
        if type(gate) in _CONTROL_KINDS:
            if run and type(run[-1]) is not type(gate):
                flush()
            run.append(gate)
        else:
            flush()
            merged.append(gate)
    flush()
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
    doc = {"kind": _CLASS_TO_KIND[type(gate)]}
    if isinstance(gate, DiagonalLayer):
        for i, g in enumerate(gate.gammas, start=1):
            doc[f"gamma{i}"] = float(g)
        return doc
    for f in fields(gate):
        value = getattr(gate, f.name)
        doc[f.name] = float(value) if isinstance(value, float) else value
    return doc


def _json_number(doc: dict, name: str, integer: bool) -> int | float:
    """doc[name] as an int (integer=True) or a float, raising ValueError that names the field."""
    value = doc[name]
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"field {name!r} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if integer:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"field {name!r} must be finite, got a {len(str(value))}-digit integer") from None


def _gate_from_json(doc: dict) -> GateSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"each entry of 'gates' must be an object, got {doc!r}")
    if "kind" not in doc:
        raise ValueError("gate entry missing 'kind'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _KIND_TO_CLASS:
        raise ValueError(f"unknown gate kind {kind!r}")
    cls = _KIND_TO_CLASS[kind]
    if cls is DiagonalLayer:
        try:
            gammas = tuple(_json_number(doc, f"gamma{i}", integer=False) for i in range(1, 5))
        except KeyError as exc:
            raise ValueError(f"diagonal gate missing field {exc.args[0]!r}") from exc
        return DiagonalLayer(gammas)
    kwargs = {}
    for f in fields(cls):
        if f.name in doc:
            kwargs[f.name] = _json_number(doc, f.name, integer=f.type == "int")
        elif f.default is MISSING:
            raise ValueError(f"gate kind {kind!r} missing field {f.name!r}")
    return cls(**kwargs)


def network_to_json(net: CyclicNetwork) -> dict:
    """Plain-dict form of a network (angles in radians)."""
    return {"qubits": net.qubits, "gates": [_gate_to_json(g) for g in net.gates]}


def network_from_json(doc: dict) -> CyclicNetwork:
    """Parse the plain-dict form, naming the offending field on error."""
    if not isinstance(doc, dict):
        raise ValueError(f"network document must be an object, got {doc!r}")
    if "qubits" not in doc:
        raise ValueError("network document missing 'qubits'")
    qubits = _json_number(doc, "qubits", integer=True)
    gates = doc.get("gates", [])
    if not isinstance(gates, list):
        raise ValueError(f"field 'gates' must be a list, got {gates!r}")
    return CyclicNetwork(qubits, tuple(_gate_from_json(g) for g in gates))


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
