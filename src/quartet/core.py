"""Complex amplitude tensors and their reductions for small multi-party systems.

Amplitudes are stored flat in row-major order with party 0 most significant:
for four parties the flat index of the multi-index (i, j, k, l) is
``((i*d1 + j)*d2 + k)*d3 + l``.  A ``PureState`` is immutable after construction
and holds complex128 amplitudes.  Local rotations complete a unit vector v by the
Householder reflection that takes e_0 to v up to a phase, with v itself as column 0.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-10
UNIT_NORM_TOL = 1e-8
MAX_PARTIES = 8
PARTY_LETTERS = "ABCDEFGH"


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class DomainError(ValueError):
    """Input lies outside an operation's domain."""


def check_count(name: str, value, minimum: int = 0) -> None:
    """Reject anything but an integer of at least ``minimum``; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")


def check_normalized(amps) -> None:
    """Reject amplitudes ``(..., R)`` with a squared norm off 1 by more than UNIT_NORM_TOL, or NaN."""
    if not np.all(np.abs(np.linalg.norm(amps, axis=-1) ** 2 - 1.0) <= UNIT_NORM_TOL):
        raise DomainError(f"squared norm deviates from 1 by more than {UNIT_NORM_TOL}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Pure state of ``len(dims)`` parties with local dimensions ``dims``."""

    dims: tuple
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(self.dims)
        for d in dims:
            check_count("local dimension", d, 2)
        if not 1 <= len(dims) <= MAX_PARTIES:
            raise DomainError(f"a state has 1 to {MAX_PARTIES} parties, got {len(dims)}")
        dims = tuple(int(d) for d in dims)
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ShapeError(f"got {amps.size} amplitudes, not the product of the dims {dims}")
        if not np.all(np.isfinite(amps)):
            raise DomainError("amplitudes must be finite")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", _frozen(amps))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party."""
        return self.amps.reshape(self.dims)


def from_terms(dims, terms) -> PureState:
    """Build a state from a mapping of multi-indices to amplitudes."""
    dims = tuple(int(d) for d in dims)
    amps = np.zeros(math.prod(dims), dtype=complex)
    for occ, coeff in terms.items():
        amps[np.ravel_multi_index(tuple(occ), dims)] += coeff
    return PureState(dims, amps)


def reduced_matrix(amps: np.ndarray, dims, keep) -> np.ndarray:
    """Raw reduced density matrix over the kept parties, with no validation."""
    dims = tuple(dims)
    keep = tuple(sorted(keep))
    t = np.asarray(amps, dtype=complex).reshape(dims)
    traced = tuple(i for i in range(len(dims)) if i not in keep)
    rho = np.tensordot(t, t.conj(), axes=(traced, traced))
    d = math.prod(dims[i] for i in keep)
    return rho.reshape(d, d)


@functools.cache
def balanced_cuts(n: int) -> tuple:
    """Row parties of each cut of ``n`` parties into n // 2 and the rest, in ``combinations``
    order; for even n only the side that holds party 0, so four give AB|CD, AC|BD, AD|BC."""
    return tuple(rows for rows in itertools.combinations(range(n), n // 2) if n % 2 or 0 in rows)


@functools.lru_cache(maxsize=None)
def cut_indices(dims: tuple, rows: tuple) -> tuple:
    """Gather index (C, D, K) into flat amplitudes and its scatter inverse (C, D*K)."""
    flat = np.arange(math.prod(dims)).reshape(dims)
    mats = [np.transpose(flat, keep + tuple(a for a in range(len(dims)) if a not in keep))
            .reshape(math.prod(dims[a] for a in keep), -1) for keep in rows]
    if len({m.shape for m in mats}) != 1:
        raise ShapeError(f"cuts {rows} of dims {dims} have different matrix shapes")
    gather = np.stack(mats)
    scatter = np.argsort(gather.reshape(len(rows), -1), axis=1)
    return _frozen(gather), _frozen(scatter + gather[0].size * np.arange(len(rows))[:, None])


def pair_cuts(amps: np.ndarray, dims: tuple, rows: tuple) -> tuple:
    """Stacked cut matrices m (..., C, D, K) and row reductions rho = m m^dagger
    (..., C, D, D) of every cut of every state in ``amps`` shaped (..., R).

    Cut c has the parties ``rows[c]`` on its rows and the rest on its columns,
    each in row-major order; every cut must give the same (D, K).  Each state
    of a stack gets bitwise the matrices a call on that state alone gives.
    """
    gather, _ = cut_indices(tuple(dims), rows)
    amps = np.asarray(amps, dtype=complex)
    # A lone state takes numpy's fast path for one index array; "..." costs more.
    m = amps[gather] if amps.ndim == 1 else amps[..., gather]
    return m, m @ m.conj().swapaxes(-1, -2)


def scatter_cuts(g: np.ndarray, dims: tuple, rows: tuple) -> np.ndarray:
    """Sum a stacked per-cut array shaped like ``pair_cuts``' m back onto flat amplitudes."""
    _, scatter = cut_indices(tuple(dims), rows)
    return g.reshape(-1)[scatter].sum(0)


def partial_trace(s: PureState, keep) -> np.ndarray:
    """Reduced density matrix of ``s`` with every party not listed in ``keep`` traced out.

    Parties are indices or letters; kept parties retain their original relative
    order, and ``keep`` must be a nonempty proper subset of the parties.  This
    is the reduction that tests and acceptance checks hold ``pair_cuts`` to.
    """
    keep = sorted({party_index(p, s.n_parties) for p in keep})
    if not keep:
        raise DomainError("keep set must be nonempty")
    if len(keep) == s.n_parties:
        raise DomainError("keep set must be a proper subset of the parties")
    return reduced_matrix(s.amps, s.dims, keep)


def apply_local_unitary(s: PureState, party, u) -> PureState:
    """Apply a unitary to one party (an index or a letter), leaving the others untouched."""
    party = party_index(party, s.n_parties)
    d = s.dims[party]
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ShapeError(f"expected a {d}x{d} matrix for party {party}, got {u.shape}")
    if np.linalg.norm(u.conj().T @ u - np.eye(d)) >= UNITARY_TOL:
        raise DomainError("matrix is not unitary within tolerance")
    return PureState(s.dims, apply_kept_operator(s.tensor(), u, (party,)).reshape(-1))


def apply_kept_operator(t: np.ndarray, op: np.ndarray, keep) -> np.ndarray:
    """Apply ``op`` on the kept axes of tensor ``t`` (identity elsewhere)."""
    keep = tuple(keep)
    moved = np.moveaxis(t, keep, range(len(keep)))
    head = math.prod(moved.shape[: len(keep)])
    out = (op @ moved.reshape(head, -1)).reshape(moved.shape)
    return np.moveaxis(out, range(len(keep)), keep)


def random_state(dims, rng) -> PureState:
    """Haar-random pure state: normalized i.i.d. standard complex Gaussians."""
    n = math.prod(tuple(dims))
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(tuple(dims), z / np.linalg.norm(z))


def random_unitary(d: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def unitary_from_first_column(v) -> np.ndarray:
    """Complete ``v`` to a unitary whose first column is ``v / |v|``.

    The other columns are those of the Householder reflection I - w w^dagger / (1 + |h|),
    where h is the first entry of v / |v| and w = v / |v| + (h / |h|) e_0 (e_0 where h = 0);
    that sign leaves no cancellation, and e_0 completes to the identity.  A stack
    ``(..., d)`` gives the stack ``(..., d, d)``, each bitwise its own single call.
    A row whose norm is zero or not finite has no unitary and raises ``DomainError``.
    """
    v = np.asarray(v, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
    if not 0 < norm.min() < math.inf:
        raise DomainError("a first column needs a finite nonzero norm")
    v = v / norm
    mag = np.abs(v[..., :1])
    w = v.copy()
    w[..., :1] += np.where(mag > 0, v[..., :1], 1) / np.where(mag > 0, mag, 1)
    u = np.eye(v.shape[-1]) - w[..., :, None] * (w.conj() / (1 + mag))[..., None, :]
    u[..., :, 0] = v
    return u


def party_index(party, n_parties: int) -> int:
    """Resolve a party given as an integer index (not a bool) or a letter A, B, C, ..."""
    if isinstance(party, str):
        label = party.strip().upper()
        if len(label) == 1 and label in PARTY_LETTERS[:n_parties]:
            return PARTY_LETTERS.index(label)
        if label.isdigit():
            party = int(label)
        else:
            raise DomainError(f"unknown party {party!r} for {n_parties} parties")
    if isinstance(party, bool) or not isinstance(party, numbers.Integral):
        raise DomainError(f"a party is an integer or a letter, got {party!r}")
    party = int(party)
    if party < 0 or party >= n_parties:
        raise DomainError(f"party {party} out of range for {n_parties} parties")
    return party


def state_to_json(s: PureState) -> dict:
    """JSON form: {"dims": [...], "amps": [[re, im], ...]} in row-major order."""
    return {
        "dims": [int(d) for d in s.dims],
        "amps": [[float(z.real), float(z.imag)] for z in s.amps],
    }


@functools.lru_cache(maxsize=None)
def _is_real_type(kind: type) -> bool:  # float() would also take a bool or a numeric string
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def state_from_json(obj) -> PureState:
    """Parse the JSON state form, rejecting malformed or mismatched payloads."""
    if not isinstance(obj, dict):
        raise DomainError("state payload must be a JSON object")
    if "dims" not in obj or "amps" not in obj:
        raise DomainError('state payload needs "dims" and "amps" keys')
    dims = obj["dims"]
    amps = obj["amps"]
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):  # a bool is no dim
        raise DomainError('"dims" must be a list of integers')
    if not isinstance(amps, list):
        raise DomainError('"amps" must be a list of [re, im] pairs')
    if not 1 <= len(dims) <= MAX_PARTIES:
        raise DomainError(f"a state has 1 to {MAX_PARTIES} parties, got {len(dims)}")
    if any(d < 2 for d in dims):
        raise DomainError('"dims" entries must all be >= 2')
    # Parseable dims can multiply past Python's integer-to-text limit: never print the product.
    if len(amps) != math.prod(dims):
        raise DomainError(f'"amps" has {len(amps)} entries, not the product of the dims')
    for i, pair in enumerate(amps):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DomainError(f'"amps"[{i}] is not an [re, im] pair')
        if not (_is_real_type(type(pair[0])) and _is_real_type(type(pair[1]))):
            raise DomainError(f'"amps"[{i}] is not numeric')
    try:
        flat = np.array(amps, dtype=float).view(complex).reshape(-1)
    except OverflowError as exc:
        for i, pair in enumerate(amps):  # name the first pair beyond float range
            try:
                np.array(pair, dtype=float)
            except OverflowError:
                raise DomainError(f'"amps"[{i}] is not numeric') from exc
    return PureState(tuple(dims), flat)
