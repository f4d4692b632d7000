"""The explicit Runge-Kutta method DOP853 of order 8 (Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, 2nd ed., 1993, sec.
II.10), with its error control and dense output.

`solve` repeats, operation by operation, the arithmetic of scipy 1.17.1's
`scipy.integrate.solve_ivp(method="DOP853", t_eval=...)`: the same first
step, stages, error norm, step-size control and interpolant, so it
returns the same bits.  The tableau is not copied here: it is read from
scipy's own coefficient file, which imports numpy only, so neither scipy
nor scipy.integrate gets imported (the latter costs about 40 MB and 0.5 s
at start-up).
"""

from __future__ import annotations

import functools
import importlib.util
import os
import warnings

import numpy as np

from .errors import StepFailure

SAFETY = 0.9            # multiplies the step the error estimate asks for
MIN_FACTOR = 0.2        # most a rejected step may shrink by
MAX_FACTOR = 10         # most an accepted step may grow by
ERROR_EXPONENT = -1 / 8  # -1 / (order of the error estimator + 1)
RTOL_FLOOR = 100 * np.finfo(float).eps
# select_initial_step's thresholds: a state or flow norm below
# INITIAL_TINY_NORM starts from the trial step INITIAL_TRIAL_STEP; flow and
# curvature norms both below INITIAL_FLAT_NORM give the step
# max(INITIAL_TRIAL_STEP, INITIAL_FLAT_RATIO * trial step)
INITIAL_TINY_NORM = 1e-5
INITIAL_TRIAL_STEP = 1e-6
INITIAL_FLAT_NORM = 1e-15
INITIAL_FLAT_RATIO = 1e-3
COEFFICIENTS = os.path.join("integrate", "_ivp", "dop853_coefficients.py")


@functools.cache
def _coefficients():
    """scipy's module of DOP853 coefficients, loaded from its file."""
    spec = importlib.util.find_spec("scipy")
    root = spec.submodule_search_locations[0] if spec else "scipy"
    path = os.path.join(root, COEFFICIENTS)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"DOP853 coefficients not found at {path}")
    spec = importlib.util.spec_from_file_location("_dop853_coefficients", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _norm(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < INITIAL_TINY_NORM or d1 < INITIAL_TINY_NORM:
        h0 = INITIAL_TRIAL_STEP
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= INITIAL_FLAT_NORM and d2 <= INITIAL_FLAT_NORM:
        h1 = max(INITIAL_TRIAL_STEP, h0 * INITIAL_FLAT_RATIO)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _stages(fun, t, y, h, a_rows, c, K, first):
    """Stages first, first + 1, ... of the step (t, y, h) into rows of K."""
    for s, (a, c_s) in enumerate(zip(a_rows, c), start=first):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c_s * h, y + dy)


def solve(fun, t0, y0, t_eval, rtol, atol):
    """The solution of y' = fun(t, y), y(t0) = y0, at the increasing times
    t_eval (each >= t0), as rows; integration ends at t_eval[-1] > t0.

    Each time is read off the interpolant of the step that covers it, a
    step's end included.  A step that falls below ten spacings of floats
    at t raises StepFailure carrying the time and the state (an array) of
    the last accepted step.
    """
    co = _coefficients()
    n_stages = co.N_STAGES
    A = co.A[:n_stages, :n_stages]
    C = co.C[:n_stages]
    if rtol < RTOL_FLOOR:
        warnings.warn(f"rtol {rtol} is below 100 machine epsilons; "
                      f"using {RTOL_FLOOR}", stacklevel=4)
        rtol = np.maximum(rtol, RTOL_FLOOR)
    t_bound = t_eval[-1]
    t, y = t0, np.asarray(y0, dtype=float)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, f, rtol, atol)
    K_extended = np.empty((co.N_STAGES_EXTENDED, y.size))
    K = K_extended[:n_stages + 1]
    out = np.empty((len(t_eval), y.size))
    i_eval = 0
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepFailure(
                    f"integration failed at t={t:.6g}: the step size fell "
                    "below the spacing of floats", t=float(t), state=y)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            _stages(fun, t, y, h, A[1:], C[1:], K, 1)
            y_new = y + h * np.dot(K[:-1].T, co.B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5_norm_2 = np.linalg.norm(np.dot(K.T, co.E5) / scale) ** 2
            err3_norm_2 = np.linalg.norm(np.dot(K.T, co.E3) / scale) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = (np.abs(h) * err5_norm_2
                              / np.sqrt(denom * len(scale)))
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        i_new = np.searchsorted(t_eval, t_new, side="right")
        if i_new > i_eval:
            # dense output: three more stages, then the interpolant
            _stages(fun, t, y, h, co.A[n_stages + 1:], co.C[n_stages + 1:],
                    K_extended, n_stages + 1)
            delta_y = y_new - y
            F = np.empty((co.INTERPOLATOR_POWER, y.size))
            F[0] = delta_y
            F[1] = h * K[0] - delta_y
            F[2] = 2 * delta_y - h * (f_new + K[0])
            F[3:] = h * np.dot(co.D, K_extended)
            x = ((t_eval[i_eval:i_new] - t) / h)[:, None]
            y_at = np.zeros((len(x), y.size))
            for i, row in enumerate(reversed(F)):
                y_at += row
                y_at *= x if i % 2 == 0 else 1 - x
            out[i_eval:i_new] = y_at + y
            i_eval = i_new
        t, y, f = t_new, y_new, f_new
    return out
