"""Circuit intermediate representation.

Circuits exist at two levels. Abstract circuits may use the full gate
vocabulary, including the probability-weighted rotation G, its controlled
form CG, and the zero-controlled Hadamard ZERO_CH. Lowered circuits are
restricted to {H, X, Z, RY, CNOT, CZ}.

Register convention: qubit 0 is the most significant bit of the basis
index, so basis state |j0 j1 ... j_{n-1}> has index sum(j_k * 2**(n-1-k)).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class Level(Enum):
    """Abstraction level of a circuit."""

    ABSTRACT = "abstract"
    LOWERED = "lowered"


_SQRT_HALF = 1.0 / math.sqrt(2.0)
_HADAMARD = (_SQRT_HALF, _SQRT_HALF, _SQRT_HALF, -_SQRT_HALF)
_SWAP = (0.0, 1.0, 1.0, 0.0)
_FLIP = (1.0, 0.0, 0.0, -1.0)


class GateKind(Enum):
    """A gate kind, named by ``value`` ("h", "cnot", ...), and the facts every layer reads.

    ``active_control``: the control bit value that makes the gate act, or None.
    ``param``: the parameter the gate takes, "angle", "prob" or None.
    ``qasm``: its OpenQASM word, or None if a lowered circuit may not hold it (``lowered``).
    ``entries``: its target matrix (``Gate.entries``), or None where the parameter sets it.
    ``action``: what that matrix does to each pair of amplitudes that differ
    in the target bit: "flip" (Z's) negates the one with the bit set, "swap"
    (X's) exchanges the two and "mix" (any other) applies it as it stands.
    """

    H = ("h", None, None, "h", _HADAMARD)
    X = ("x", None, None, "x", _SWAP)
    Z = ("z", None, None, "z", _FLIP)
    RY = ("ry", None, "angle", "ry", None)
    G = ("g", None, "prob", None, None)
    CG = ("cg", 1, "prob", None, None)
    ZERO_CH = ("zero_ch", 0, None, None, _HADAMARD)
    CNOT = ("cnot", 1, None, "cx", _SWAP)
    CZ = ("cz", 1, None, "cz", _FLIP)

    def __new__(cls, value, active_control, param, qasm, entries):
        member = object.__new__(cls)
        member._value_ = value
        member.active_control = active_control
        member.param = param
        member.qasm = qasm
        member.lowered = qasm is not None
        member.entries = entries
        member.action = {_FLIP: "flip", _SWAP: "swap"}.get(entries, "mix")
        return member


# The members in definition order, for the Gate builders.
_H, _X, _Z, _RY, _G, _CG, _ZERO_CH, _CNOT, _CZ = GateKind


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """One gate application. Its kind's facts say which of control, angle and prob it takes.

    A Gate is built only through its own ``__init__``, which checks every
    argument and writes each field once; keyword calls, the builders below
    and ``dataclasses.replace`` all go through it.
    """

    kind: GateKind
    target: int
    control: int | None = None
    angle: float | None = None
    prob: Fraction | None = None

    def __init__(self, kind: GateKind, target: int, control: int | None = None,
                 angle: float | None = None, prob: Fraction | None = None) -> None:
        if type(kind) is not GateKind:
            raise ValueError(f"kind must be a GateKind, got {kind!r}")
        # bool is a subclass of int, so qubit indices need an exact type check.
        if type(target) is not int:
            raise ValueError(f"target must be an integer, got {target!r}")
        if target < 0:
            raise ValueError(f"target {target} must be non-negative")
        if kind.active_control is not None:
            if control is None:
                raise ValueError(f"{kind.name} requires a control qubit")
            if type(control) is not int:
                raise ValueError(f"control must be an integer, got {control!r}")
            if control < 0:
                raise ValueError(f"control {control} must be non-negative")
            if control == target:
                raise ValueError(f"{kind.name} control equals target ({target})")
        elif control is not None:
            raise ValueError(f"{kind.name} does not take a control qubit")

        # A bad prob is reported before a bad angle; `is None` is cheaper than `None == "prob"`.
        if (param := kind.param) is not None or prob is not None or angle is not None:
            if param == "prob":
                if prob is None:
                    raise ValueError(f"{kind.name} requires a probability")
                if type(prob) is int:
                    prob = Fraction(prob)
                elif type(prob) is not Fraction:
                    raise TypeError(f"prob must be an exact rational (Fraction), got {prob!r}")
                # A Fraction's denominator is positive: this is 0 <= prob <= 1 without
                # Fraction's comparison, which costs a few us on wide numerators.
                if not 0 <= prob.numerator <= prob.denominator:
                    raise ValueError(f"prob {prob} outside [0, 1]")
            elif prob is not None:
                raise ValueError(f"{kind.name} does not take a probability")
            if param == "angle":
                if angle is None:
                    raise ValueError(f"{kind.name} requires an angle")
                if type(angle) is not float:
                    # float subclasses (numpy.float64) are numbers; bool is not.
                    if not isinstance(angle, (int, float)) or isinstance(angle, bool):
                        raise ValueError(f"angle must be a number, got {angle!r}")
                    try:
                        angle = float(angle)
                    except OverflowError:
                        angle = math.inf
                if not math.isfinite(angle):
                    raise ValueError(f"angle {angle} must be finite")
            elif angle is not None:
                raise ValueError(f"{kind.name} does not take an angle")

        _set_kind(self, kind)
        _set_target(self, target)
        _set_control(self, control)
        _set_angle(self, angle)
        _set_prob(self, prob)

    @property
    def entries(self) -> tuple[float, float, float, float]:
        """(a, b, c, d) of the real matrix [[a, b], [c, d]] the gate applies to its target.

        A controlled gate applies it where its control is active. RY(t) is [[c, -s], [s, c]]
        with c = cos(t/2) and s = sin(t/2); G(p) and CG(p) take c = sqrt(p), s = sqrt(1-p).
        """
        if self.kind.entries is not None:
            return self.kind.entries
        if self.kind.param == "angle":
            c, s = math.cos(self.angle / 2.0), math.sin(self.angle / 2.0)
        else:
            p = float(self.prob)
            c, s = math.sqrt(p), math.sqrt(1.0 - p)
        return c, -s, s, c

    @property
    def qubits(self) -> tuple[int, ...]:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)

    # The builders pass module-level kinds and every field positionally: on Python
    # 3.11 a GateKind.RY lookup and a keyword call add about 0.2 us to a 0.7 us call.
    @staticmethod
    def h(target: int) -> Gate:
        return Gate(_H, target)

    @staticmethod
    def x(target: int) -> Gate:
        return Gate(_X, target)

    @staticmethod
    def z(target: int) -> Gate:
        return Gate(_Z, target)

    @staticmethod
    def ry(target: int, angle: float) -> Gate:
        return Gate(_RY, target, None, angle)

    @staticmethod
    def g(target: int, prob: Fraction) -> Gate:
        return Gate(_G, target, None, None, prob)

    @staticmethod
    def cg(control: int, target: int, prob: Fraction) -> Gate:
        return Gate(_CG, target, control, None, prob)

    @staticmethod
    def zero_ch(control: int, target: int) -> Gate:
        return Gate(_ZERO_CH, target, control)

    @staticmethod
    def cnot(control: int, target: int) -> Gate:
        return Gate(_CNOT, target, control)

    @staticmethod
    def cz(control: int, target: int) -> Gate:
        return Gate(_CZ, target, control)


# The slots' own setters. The frozen class's __setattr__ refuses every write,
# so Gate.__init__ writes each field once through these.
_set_kind, _set_target, _set_control, _set_angle, _set_prob = (
    getattr(Gate, name).__set__ for name in ("kind", "target", "control", "angle", "prob"))


@dataclass(frozen=True)
class Circuit:
    """An immutable gate sequence on a fixed-width register."""

    n_qubits: int
    gates: tuple[Gate, ...]
    level: Level = Level.ABSTRACT

    def __post_init__(self) -> None:
        if type(self.n_qubits) is not int:
            raise ValueError(f"n_qubits must be an integer, got {self.n_qubits!r}")
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits {self.n_qubits} must be at least 1")
        if type(self.level) is not Level:
            raise ValueError(f"level must be a Level, got {self.level!r}")
        try:
            object.__setattr__(self, "gates", tuple(self.gates))
        except TypeError:
            raise ValueError(f"gates must be an iterable of Gates, got {self.gates!r}") from None
        n, lowered = self.n_qubits, self.level is Level.LOWERED
        for i, gate in enumerate(self.gates):
            if type(gate) is not Gate:
                raise ValueError(f"gate {i}: expected a Gate, got {gate!r}")
            # Gate makes its indices non-negative ints; the control, if any, is named first.
            if gate.control is not None and gate.control >= n:
                raise ValueError(f"gate {i}: qubit {gate.control} out of range for {n} qubits")
            if gate.target >= n:
                raise ValueError(f"gate {i}: qubit {gate.target} out of range for {n} qubits")
            if lowered and not gate.kind.lowered:
                raise ValueError(f"gate {i}: {gate.kind.name} not allowed in a lowered circuit")

    def __len__(self) -> int:
        return len(self.gates)


def entangler_count(circuit: Circuit) -> int:
    """Number of two-qubit entangling gates, at either level.

    Every two-qubit gate costs exactly one entangler: CNOT and CZ are one,
    and lowering rewrites each CG and ZERO_CH with exactly one of them.
    """
    if not isinstance(circuit, Circuit):
        raise ValueError(f"circuit must be a Circuit, got {type(circuit).__name__}")
    return sum(1 for gate in circuit.gates if gate.kind.active_control is not None)


def depth(circuit: Circuit) -> int:
    """Circuit depth under greedy as-early-as-possible layering.

    The frontier holds only the qubits the gates name, so a wide register
    declared for a few gates costs no memory for the rest.
    """
    if not isinstance(circuit, Circuit):
        raise ValueError(f"circuit must be a Circuit, got {type(circuit).__name__}")
    frontier = defaultdict(int)
    for gate in circuit.gates:
        target, control = gate.target, gate.control
        if control is None:
            frontier[target] += 1
        else:
            layer = max(frontier[target], frontier[control]) + 1
            frontier[target] = frontier[control] = layer
    return max(frontier.values(), default=0)
