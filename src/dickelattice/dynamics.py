"""Mean-field equations of motion, their linearization, and time integration.

Packed real layout used everywhere: y = [Re a, Im a, Re s, Im s, z], five
blocks of N.  In these variables, with T the hopping matrix,

    d(Re a) = -kappa Re a + omega_c Im a - T Im a
    d(Im a) = -kappa Im a - omega_c Re a + T Re a - 2 g Re s
    d(Re s) =  omega_a Im s
    d(Im s) = -omega_a Re s + 4 g Re a z
    dz      = -4 g Re a Im s

The spin length |s_j|^2 + z_j^2 is conserved exactly by this flow, so its
drift along a numerical trajectory measures integrator error; it is
reported, not projected away.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import _dop853
from .errors import DomainError, ShapeError, StepFailure
from .model import (LatticeParams, MeanFieldState, validate_n_sites,
                    validate_rng_seed)

# Chosen so that the spin-sphere drift over a t = 400 run stays below 1e-8
# (measured 4.9e-10); at these tolerances the order-8 stepper (_dop853)
# halves RK45's flow calls.
RTOL = 1e-9
ATOL = 1e-11
SETTLE_TOL = 1e-9
T_MAX = 400.0
RELAX_CHECKPOINT = 25.0     # time between relax_to_steady's settle checks
PERTURB_SCALE = 1e-3        # perturbed_normal_state's kick, by default
# most records one trajectory may ask for (t_end / record_every); at N = 50
# that many states take about 0.4 GB
MAX_RECORDS = 100_000

def hop_matrix(params: LatticeParams) -> np.ndarray:
    """Symmetric photon hopping matrix: xi on nearest-neighbour bonds,
    lam across the ends."""
    n = params.n_sites
    t = np.zeros((n, n))
    for j in range(n - 1):
        t[j, j + 1] += params.xi
        t[j + 1, j] += params.xi
    lam = params.lam
    t[0, n - 1] += lam
    t[n - 1, 0] += lam
    return t


def rhs_packed(y, params: LatticeParams, t_hop=None) -> np.ndarray:
    """The flow at one packed state y, or at each row of a stack y of
    shape (S, 5N); each row gets exactly the bits of a one-state call."""
    y = np.asarray(y, dtype=float)
    n = params.n_sites
    if y.shape != (5 * n,) and (y.ndim != 2 or y.shape[1] != 5 * n):
        raise ShapeError(f"expected packed length {5 * n}, got shape {y.shape}")
    if t_hop is None:
        t_hop = hop_matrix(params)
    u, v, p, q, z = (y[..., :n], y[..., n:2 * n], y[..., 2 * n:3 * n],
                     y[..., 3 * n:4 * n], y[..., 4 * n:])
    wc, wa, g, kap = params.omega_c, params.omega_a, params.g, params.kappa
    out = np.empty(y.shape)
    out[..., :n] = -kap * u + wc * v - matvec_rows(t_hop, v)
    out[..., n:2 * n] = -kap * v - wc * u + matvec_rows(t_hop, u) - 2.0 * g * p
    out[..., 2 * n:3 * n] = wa * q
    out[..., 3 * n:4 * n] = -wa * p + 4.0 * g * u * z
    out[..., 4 * n:] = -4.0 * g * u * q
    return out


def matvec_rows(mat, rows):
    """mat @ row for one row or each row of a stack, each as its own
    matrix-vector product: a row's bits do not depend on the stack it
    shares (one matrix-matrix product rounds differently)."""
    return np.matmul(mat, rows[..., None])[..., 0]


def rhs_sup_norm(state: MeanFieldState, params: LatticeParams) -> float:
    return float(np.max(np.abs(rhs_packed(state.pack(), params))))


# The entries of the Jacobian that depend on the state, one per site j on
# the diagonal of an N x N block: (block row, block column, coefficient,
# block of y), e.g. d(Im s_j)/d(Re a_j) = 4 g z_j.  Every other entry,
# the signed zeros of these blocks included, is the same at every state.
_BILINEAR = ((3, 0, 4.0, 4), (3, 4, 4.0, 0), (4, 0, -4.0, 3), (4, 3, -4.0, 0))


def jacobian_packed(y, params: LatticeParams) -> np.ndarray:
    """Analytic 5N x 5N derivative of rhs_packed at one packed state y,
    or at each row of a stack y of shape (S, 5N) as (S, 5N, 5N); each
    matrix gets exactly the bits of a one-state call."""
    y = np.asarray(y, dtype=float)
    n = params.n_sites
    if y.shape != (5 * n,) and (y.ndim != 2 or y.shape[1] != 5 * n):
        raise ShapeError(f"expected packed length {5 * n}, got shape {y.shape}")
    t_hop = hop_matrix(params)
    wc, wa, g, kap = params.omega_c, params.omega_a, params.g, params.kappa
    i_n = np.eye(n)
    # (block row, block column, value) of the state-independent blocks,
    # then the signed zeros of the bilinear blocks
    blocks = (
        (0, 0, -kap * i_n), (0, 1, wc * i_n - t_hop),
        (1, 0, -wc * i_n + t_hop), (1, 1, -kap * i_n), (1, 2, -2.0 * g * i_n),
        (2, 3, wa * i_n), (3, 2, -wa * i_n),
    )
    blocks += tuple((r, c, coef * g * np.zeros((n, n)))
                    for r, c, coef, _ in _BILINEAR)
    template = np.zeros((5 * n, 5 * n))
    for r, c, block in blocks:
        template[r * n:(r + 1) * n, c * n:(c + 1) * n] = block
    rows = y.reshape(-1, 5 * n)
    jac = np.repeat(template[None], len(rows), axis=0)
    i = np.arange(n)
    for r, c, coef, b in _BILINEAR:
        jac[:, r * n + i, c * n + i] = coef * g * rows[:, b * n:(b + 1) * n]
    return jac if y.ndim == 2 else jac[0]


# ---------------------------------------------------------------------------
# trajectories

@dataclass
class Trajectory:
    """Recorded states at increasing times, starting at t = 0."""

    times: np.ndarray
    states: list
    params: LatticeParams
    spin_drift: float = 0.0  # max spin-sphere defect over the records

    @property
    def final_state(self) -> MeanFieldState:
        return self.states[-1]

    def to_csv(self, path) -> None:
        """Columns: t, then per site Re a_j, Im a_j, Re s_j, Im s_j, z_j."""
        n = self.params.n_sites
        header = ["t"]
        for j in range(1, n + 1):
            header += [f"re_a_{j}", f"im_a_{j}", f"re_s_{j}", f"im_s_{j}", f"z_{j}"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t, st in zip(self.times, self.states):
                # site by site: the five blocks of the packed state
                y = st.pack().reshape(5, n).T.ravel()
                writer.writerow([repr(float(t))] + [repr(float(x)) for x in y])


def _flow(state0: MeanFieldState, params: LatticeParams):
    """The flow f(t, y) that the stepper integrates, for states of params;
    a state0 of another site count raises ShapeError, a non-finite one
    DomainError."""
    if state0.n != params.n_sites:
        raise ShapeError(
            f"state has {state0.n} sites, params expect {params.n_sites}")
    if not np.all(np.isfinite(state0.pack())):
        raise DomainError("initial state must be finite")
    t_hop = hop_matrix(params)
    return lambda _t, y: rhs_packed(y, params, t_hop)


def _solve(f, t0, y0, t_eval, rtol, atol):
    """_dop853.solve, with the state of a StepFailure as a MeanFieldState."""
    try:
        return _dop853.solve(f, t0, y0, t_eval, rtol, atol)
    except StepFailure as exc:
        raise StepFailure(str(exc), t=exc.t,
                          state=MeanFieldState.from_packed(exc.state)) from None


def integrate(state0: MeanFieldState, params: LatticeParams, t_end: float, *,
              rtol: float = RTOL, atol: float = ATOL,
              record_every: float = 1.0) -> Trajectory:
    """Adaptive explicit integration of the mean-field flow.

    Parameters
    ----------
    state0 : MeanFieldState
        Initial condition; should satisfy the spin constraint.
    t_end : float
        Final time, finite and > 0.
    record_every : float
        Cadence of recorded samples, at least t_end / MAX_RECORDS; t_end
        itself is always recorded.

    Returns
    -------
    Trajectory with the max spin-sphere defect over the records in
    spin_drift.

    Raises
    ------
    DomainError
        If state0 is not finite, or a limit is out of range.
    StepFailure
        If the step size underflows; carries the time and state of the
        last accepted step.
    """
    f = _flow(state0, params)
    for name, value in (("t_end", t_end), ("rtol", rtol), ("atol", atol)):
        if not 0 < value < np.inf:
            raise DomainError(f"{name} must be finite and > 0, got {value}")
    if not record_every > 0:
        raise DomainError(f"record_every must be > 0, got {record_every}")
    if not t_end / record_every <= MAX_RECORDS:
        raise DomainError(f"t_end / record_every must be <= {MAX_RECORDS}, "
                          f"got {t_end / record_every:.6g}")
    t_eval = np.arange(0.0, t_end, record_every)
    if t_eval.size == 0 or t_eval[-1] < t_end:
        t_eval = np.append(t_eval, t_end)

    rows = _solve(f, 0.0, state0.pack(), t_eval, rtol, atol)
    states = [MeanFieldState.from_packed(y) for y in rows]
    drift = max(st.spin_defect() for st in states)
    return Trajectory(times=t_eval, states=states, params=params,
                      spin_drift=drift)


@dataclass
class RelaxResult:
    """Endpoint of relax_to_steady, tagged settled or not."""

    state: MeanFieldState
    settled: bool
    t_final: float
    rhs_norm: float


def relax_to_steady(state0: MeanFieldState, params: LatticeParams, *,
                    t_max: float = T_MAX,
                    settle_tol: float = SETTLE_TOL) -> RelaxResult:
    """Integrate until the sup norm of the flow drops below settle_tol.

    Checks at multiples of RELAX_CHECKPOINT; stops early once settled,
    otherwise runs to t_max and reports settled=False.  settle_tol bounds
    the flow's sup norm, not the distance to the fixed point: near a slow
    mode of decay rate lambda that distance is up to about rhs_norm /
    |lambda| (the N = 50 open chain at xi = 0.45, g = 0.5, kappa = 0.4 has
    lambda = -1.6e-3: its flow of 9.5e-7 lies 1.5e-4 from the root).
    StepFailure propagates, with the time and state of the last accepted
    step; a non-finite state0, or a t_max or settle_tol that is not finite
    and positive, raises DomainError.
    """
    f = _flow(state0, params)
    for name, value in (("t_max", t_max), ("settle_tol", settle_tol)):
        if not 0 < value < np.inf:
            raise DomainError(f"{name} must be finite and > 0, got {value}")
    y = state0.pack()
    t = 0.0
    norm = float(np.max(np.abs(f(t, y))))
    while norm >= settle_tol and t < t_max:
        t_next = min(t + RELAX_CHECKPOINT, t_max)
        # the checkpoint state is the step's interpolant at its end, which
        # can differ from the step's own end state in the last bits
        [y] = _solve(f, t, y, np.array([t_next]), RTOL, ATOL)
        t = t_next
        norm = float(np.max(np.abs(f(t, y))))
    return RelaxResult(state=MeanFieldState.from_packed(y),
                       settled=bool(norm < settle_tol), t_final=t, rhs_norm=norm)


def perturbed_normal_state(n_sites: int, rng_seed: int = 0,
                           scale: float = PERTURB_SCALE) -> MeanFieldState:
    """Normal state kicked by a small seeded perturbation.

    Each a_j gets magnitude scale at a random phase; each spin is moved
    tangentially by the same scale and kept exactly on the sphere.  An
    n_sites that is not an integer >= 1 raises DomainError.
    """
    validate_n_sites(n_sites)
    validate_rng_seed(rng_seed)
    if not abs(scale) <= 0.5:       # NaN too
        raise DomainError(f"scale must be finite, |scale| <= 0.5, got {scale}")
    rng = np.random.default_rng(rng_seed)
    ph_a = rng.uniform(0.0, 2.0 * np.pi, n_sites)
    ph_s = rng.uniform(0.0, 2.0 * np.pi, n_sites)
    a = scale * np.exp(1j * ph_a)
    s = scale * np.exp(1j * ph_s)
    z = -np.sqrt(0.25 - np.abs(s) ** 2)
    return MeanFieldState(a=a, s=s, z=z)
