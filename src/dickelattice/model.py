"""Parameters and the rescaled per-site mean-field state.

All frequencies are in units of a reference omega and times in 1/omega.
Photon amplitudes carry a 1/sqrt(N_a) rescaling and spin expectation
values a 1/N_a rescaling, so the atom number per site never appears
anywhere in the package.  Physical spin states live on the sphere
|s_j|^2 + z_j^2 = 1/4.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError


class BoundaryCondition(enum.Enum):
    Periodic = "periodic"
    Open = "open"


@dataclass(frozen=True)
class LatticeParams:
    """Physical parameters of the lattice.

    The boundary hop lam is derived, never stored: lam = xi when the
    chain is closed into a ring, 0 when the ends are open.  xi may be
    negative.  Construction performs no checking; call validate().
    """

    n_sites: int
    omega_c: float = 1.0
    omega_a: float = 1.0
    g: float = 0.0
    xi: float = 0.0
    kappa: float = 0.0
    bc: BoundaryCondition = BoundaryCondition.Periodic

    @property
    def lam(self) -> float:
        return self.xi if self.bc is BoundaryCondition.Periodic else 0.0


def validate(params: LatticeParams) -> None:
    """Raise DomainError naming the violated invariant; return None if ok."""
    n = params.n_sites
    _check_integer("n_sites", n)
    if n < 2:
        raise DomainError(f"n_sites must be >= 2, got {n}")
    for name in ("omega_c", "omega_a", "g", "xi", "kappa"):
        val = getattr(params, name)
        if not np.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val!r}")
    if params.omega_c <= 0:
        raise DomainError(f"omega_c must be > 0, got {params.omega_c}")
    if params.omega_a <= 0:
        raise DomainError(f"omega_a must be > 0, got {params.omega_a}")
    if params.kappa < 0:
        raise DomainError(f"kappa must be >= 0, got {params.kappa}")
    if params.g < 0:
        raise DomainError(f"g must be >= 0, got {params.g}")
    if not isinstance(params.bc, BoundaryCondition):
        raise DomainError(f"bc must be a BoundaryCondition, got {params.bc!r}")


def _check_integer(name, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def validate_rng_seed(rng_seed) -> None:
    """Raise DomainError unless rng_seed is an integer >= 0."""
    _check_integer("rng_seed", rng_seed)
    if rng_seed < 0:
        raise DomainError(f"rng_seed must be >= 0, got {rng_seed}")


@dataclass(frozen=True, eq=False)
class MeanFieldState:
    """Per-site order parameters (a_j, s_j, z_j).

    a_j is the photon amplitude, s_j the spin coherence, z_j the real
    inversion.  Arrays are read-only after construction.  The spin
    constraint is not enforced here; measure it with spin_defect().
    """

    a: np.ndarray
    s: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=complex)
        s = np.array(self.s, dtype=complex)
        z = np.array(self.z, dtype=float)
        if not (a.ndim == s.ndim == z.ndim == 1):
            raise ShapeError("a, s, z must be one-dimensional arrays")
        if not (a.size == s.size == z.size):
            raise ShapeError(
                f"site counts differ: a has {a.size}, s has {s.size}, z has {z.size}")
        for arr, name in ((a, "a"), (s, "s"), (z, "z")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.a.size

    def pack(self) -> np.ndarray:
        """Real coordinate vector [Re a, Im a, Re s, Im s, z], length 5N."""
        return np.concatenate(
            [self.a.real, self.a.imag, self.s.real, self.s.imag, self.z])

    @classmethod
    def from_packed(cls, y) -> "MeanFieldState":
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or y.size % 5 != 0:
            raise ShapeError(f"packed vector must have length 5N, got shape {y.shape}")
        u, v, p, q, z = y.reshape(5, -1)
        return cls(a=u + 1j * v, s=p + 1j * q, z=z)

    def spin_defect(self) -> float:
        """max_j | |s_j|^2 + z_j^2 - 1/4 |, zero for exact spin states."""
        return float(np.max(np.abs(np.abs(self.s) ** 2 + self.z ** 2 - 0.25)))


def validate_n_sites(n_sites) -> None:
    """Raise DomainError unless a state's site count is an integer >= 1."""
    _check_integer("n_sites", n_sites)
    if n_sites < 1:
        raise DomainError(f"n_sites must be >= 1, got {n_sites}")


def _dark_state(n_sites, z) -> MeanFieldState:
    """a = s = 0 and the inversion z on every site."""
    validate_n_sites(n_sites)
    n = int(n_sites)
    return MeanFieldState(
        a=np.zeros(n, complex), s=np.zeros(n, complex), z=np.full(n, z))


def normal_state(n_sites: int) -> MeanFieldState:
    """Dark state: a = s = 0, z = -1/2 on every site."""
    return _dark_state(n_sites, -0.5)


def inverted_normal_state(n_sites: int) -> MeanFieldState:
    """Fully inverted dark state: a = s = 0, z = +1/2 on every site."""
    return _dark_state(n_sites, 0.5)


# ---------------------------------------------------------------------------
# symmetry operations

@functools.cache
def symmetry_group(n_sites: int, bc: BoundaryCondition):
    """The sign flip times the lattice symmetry group as signed
    permutations of the packed 5N vector, y -> y[perm[k]] * sign[k]: the
    cyclic shifts by 0..N-1 sites (ring) or identity and reflection (open
    chain), then each of them times the flip (a, s) -> (-a, -s).  The
    identity comes first; perm and sign are read-only, of shape (G, 5N)."""
    sites = np.arange(n_sites)
    spatial = ([np.roll(sites, r) for r in range(n_sites)]
               if bc is BoundaryCondition.Periodic else [sites, sites[::-1]])
    perm = np.tile(spatial * 2, 5) + np.arange(5 * n_sites) // n_sites * n_sites
    sign = np.ones(perm.shape)
    sign[len(spatial):, :4 * n_sites] = -1.0
    perm.flags.writeable = sign.flags.writeable = False
    return perm, sign


def symmetry_orbit(rows, bc: BoundaryCondition) -> np.ndarray:
    """All images of a stack of packed states (R, 5N) under
    symmetry_group, as (R G, 5N) rows: root by root, identity first.
    Ring: 2N images per state, open chain: 4.  Symmetric states have
    coinciding images, all kept."""
    y = np.asarray(rows, dtype=float)
    if y.ndim != 2 or y.shape[1] % 5:
        raise ShapeError(f"packed stack must have shape (R, 5N), got {y.shape}")
    perm, sign = symmetry_group(y.shape[1] // 5, bc)
    return (y[:, perm] * sign).reshape(-1, y.shape[1])


# ---------------------------------------------------------------------------
# plain-data serialization helpers (JSON-friendly dicts)

def params_to_jsonable(params: LatticeParams) -> dict:
    return {
        "n_sites": int(params.n_sites),
        "omega_c": float(params.omega_c),
        "omega_a": float(params.omega_a),
        "g": float(params.g),
        "xi": float(params.xi),
        "kappa": float(params.kappa),
        "bc": params.bc.value,
    }


def params_from_jsonable(d: dict) -> LatticeParams:
    return LatticeParams(
        n_sites=int(d["n_sites"]),
        omega_c=float(d.get("omega_c", 1.0)),
        omega_a=float(d.get("omega_a", 1.0)),
        g=float(d.get("g", 0.0)),
        xi=float(d.get("xi", 0.0)),
        kappa=float(d.get("kappa", 0.0)),
        bc=BoundaryCondition(d.get("bc", "periodic")),
    )


_STATE_KEYS = ("re_a", "im_a", "re_s", "im_s", "z")


def packed_to_jsonable(y) -> dict:
    """The five blocks of a packed state, as lists under _STATE_KEYS."""
    return dict(zip(_STATE_KEYS, np.asarray(y, float).reshape(5, -1).tolist()))


def state_from_jsonable(d: dict) -> MeanFieldState:
    if not isinstance(d, dict):
        raise DomainError(
            f"state must be a JSON object, got {type(d).__name__}")
    missing = [k for k in _STATE_KEYS if k not in d]
    if missing:
        raise DomainError(f"state is missing keys {missing}")
    blocks = []
    for key in _STATE_KEYS:
        # JSON numbers only: no quoted number, no boolean
        if not (isinstance(d[key], list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in d[key])):
            raise DomainError(f"state {key} must be a list of numbers")
        block = np.array(d[key], float)
        if blocks and block.size != blocks[0].size:
            raise DomainError(f"state {key} has {block.size} entries, "
                              f"re_a has {blocks[0].size}")
        blocks.append(block)
    re_a, im_a, re_s, im_s, z = blocks
    return MeanFieldState(a=re_a + 1j * im_a, s=re_s + 1j * im_s, z=z)
