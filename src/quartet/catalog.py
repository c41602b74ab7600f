"""Named reference states.

Covers the cat family, the balanced four-qubit example with a 2/2/1 pair-entropy
split, the third-root-of-unity four-qubit state and its conjugate, the two
three-qubit residues left by measuring one party of that state, the elementary
two-qubit and one-qubit vectors, and a four-level four-party tensor whose pair
reductions are all maximally mixed.
"""

import itertools
import math

import numpy as np

from .core import DomainError, PureState, from_terms

OMEGA = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
OMEGA2 = OMEGA.conjugate()


def cat_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits, 2 <= n <= 8."""
    if not 2 <= n <= 8:
        raise DomainError(f"cat states are provided for 2..8 qubits, got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState((2,) * n, amps)


def even_permutation(p) -> bool:
    """True iff ``p`` is an even-parity permutation of (1, 2, 3, 4)."""
    p = tuple(p)
    if sorted(p) != [1, 2, 3, 4]:
        return False
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2 == 0


def _m4() -> PureState:
    r = 1.0 / math.sqrt(6.0)
    return from_terms(
        (2, 2, 2, 2),
        {
            (0, 0, 1, 1): r,
            (1, 1, 0, 0): r,
            (1, 0, 1, 0): r * OMEGA,
            (0, 1, 0, 1): r * OMEGA,
            (1, 0, 0, 1): r * OMEGA2,
            (0, 1, 1, 0): r * OMEGA2,
        },
    )


def _psi_example() -> PureState:
    return from_terms(
        (2, 2, 2, 2),
        {occ: 0.5 for occ in [(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0)]},
    )


def _residual(excited: int) -> PureState:
    r = 1.0 / math.sqrt(3.0)
    if excited:
        terms = {(1, 0, 0): r, (0, 1, 0): r * OMEGA, (0, 0, 1): r * OMEGA2}
    else:
        terms = {(0, 1, 1): r, (1, 0, 1): r * OMEGA, (1, 1, 0): r * OMEGA2}
    return from_terms((2, 2, 2), terms)


def _ame44() -> PureState:
    # 1/4 on i=j=k=l and on the 12 even permutations of the four levels.
    terms = [(i,) * 4 for i in range(4)]
    terms += [p for p in itertools.permutations(range(4)) if even_permutation(q + 1 for q in p)]
    return from_terms((4, 4, 4, 4), dict.fromkeys(terms, 0.25))


def _pair(sign: float) -> PureState:
    r = 1.0 / math.sqrt(2.0)
    return from_terms((2, 2), {(1, 0): r, (0, 1): sign * r})


def _single(sign: float) -> PureState:
    r = 1.0 / math.sqrt(2.0)
    return PureState((2,), np.array([r, sign * r], dtype=complex))


_BUILDERS = {
    "C2": lambda: cat_state(2),
    "C3": lambda: cat_state(3),
    "C4": lambda: cat_state(4),
    "C5": lambda: cat_state(5),
    "C6": lambda: cat_state(6),
    "C7": lambda: cat_state(7),
    "C8": lambda: cat_state(8),
    "PSI_EXAMPLE": _psi_example,
    "M4": _m4,
    "M4_BAR": lambda: PureState((2, 2, 2, 2), _m4().amps.conj()),
    "PHI_PLUS": lambda: _pair(1.0),
    "PHI_MINUS": lambda: _pair(-1.0),
    "PLUS": lambda: _single(1.0),
    "MINUS": lambda: _single(-1.0),
    "RESIDUAL_0": lambda: _residual(0),
    "RESIDUAL_1": lambda: _residual(1),
    "AME44": _ame44,
}


def tags() -> tuple:
    """Known catalog tags, in a stable order."""
    return tuple(_BUILDERS)


def make(tag: str) -> PureState:
    """Construct a catalog state by tag (case-insensitive)."""
    key = str(tag).strip().upper()
    try:
        builder = _BUILDERS[key]
    except KeyError:
        raise DomainError(f"unknown catalog tag {tag!r}; known tags: {', '.join(tags())}") from None
    return builder()
