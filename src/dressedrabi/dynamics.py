"""Time integration, steady-state solving, and observable extraction.

Works on whatever representation a generator carries: reduced dressed
coordinates for generators built from a dressed basis, the full truncated
space otherwise.  States passed in the full space are projected onto the
retained subspace (with the lost weight reported) before integrating a
reduced generator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .adiabatic import DressedBasis
from .hilbert import hermiticity_defect, max_abs
from .lindblad import MasterEquation

__all__ = [
    "NumericsError",
    "Trajectory",
    "SteadyState",
    "evolve",
    "steady_state_nullspace",
    "steady_state_longtime",
    "steady_state_timeaveraged",
    "observables",
    "expand_state",
    "coherent_dressed_ket",
]


class NumericsError(RuntimeError):
    """Raised when an integration or solve breaches its accuracy contract."""


@dataclass
class Trajectory:
    times: np.ndarray
    states: list[np.ndarray] | None
    observables: dict[str, np.ndarray]
    rep: str
    metadata: dict = field(default_factory=dict)


@dataclass
class SteadyState:
    rho: np.ndarray
    residual: float
    method: str
    rep: str
    metadata: dict = field(default_factory=dict)


def generator_scale(me: MasterEquation) -> float:
    """Magnitude scale of a generator: largest rate or Hamiltonian entry."""
    scale = max_abs(me.hamiltonian)
    for term in me.jumps:
        scale = max(scale, term.rate)
    return max(scale, 1e-300)


def _slowest_relaxation_rate(me: MasterEquation) -> float:
    """Smallest positive rate of a non-Hermitian jump, the default time unit of the solvers.

    A Hermitian jump (pure dephasing through S_z) moves no population and so
    sets no relaxation time.
    """
    rates = [term.rate for term in me.jumps if term.rate > 0 and hermiticity_defect(term.op) > 0]
    return min(rates) if rates else generator_scale(me)


def _prepare_state(me: MasterEquation, rho0: np.ndarray) -> tuple[np.ndarray, float]:
    """Bring an initial state into the generator's representation."""
    if rho0.shape == (me.dim, me.dim):
        return rho0.astype(complex, copy=True), 0.0
    if me.rep == "dressed" and me.basis is not None:
        full_dim = me.basis.dims.total_dim
        if rho0.shape == (full_dim, full_dim):
            rho_d, leakage = me.basis.project_density(rho0)
            if leakage > 1e-10:
                warnings.warn(
                    f"initial state has weight {leakage:.3g} outside the retained "
                    "dressed subspace; that weight is dropped from the evolution",
                    stacklevel=3,
                )
            return rho_d, leakage
    raise ValueError(f"state shape {rho0.shape} fits neither the generator nor the full space")


def expand_state(me: MasterEquation, rho: np.ndarray) -> np.ndarray:
    """Map a state from the generator's representation back to the full space."""
    if me.rep == "dressed" and me.basis is not None and rho.shape == (me.dim, me.dim):
        return me.basis.expand(rho)
    return rho


def observables(rho: np.ndarray, b: DressedBasis) -> dict[str, float]:
    """Dressed-ladder observables of a state given in either representation.

    Returns the per-ladder excitation numbers, their sum, the two sector
    populations, and the weight outside the retained basis.
    """
    if rho.shape == (b.reduced_dim, b.reduced_dim):
        rho_d, leakage = rho, 0.0
        total = float(np.real(np.trace(rho)))
    else:
        rho_d, leakage = b.project_density(rho)
        total = float(np.real(np.trace(rho)))
    pops = np.real(np.diag(rho_d))
    L = b.n_levels
    n = np.arange(L)
    return {
        "n_minus": float(n @ pops[:L]),
        "n_plus": float(n @ pops[L:]),
        "n_total": float(n @ pops[:L] + n @ pops[L:]),
        "sector_minus": float(pops[:L].sum()),
        "sector_plus": float(pops[L:].sum()),
        "leakage": float(total - pops.sum()) if leakage == 0.0 else leakage,
        "trace": total,
    }


def _rk4_step(me: MasterEquation, rho: np.ndarray, t: float, dt: float) -> np.ndarray:
    k1 = me.rhs(rho, t)
    k2 = me.rhs(rho + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = me.rhs(rho + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = me.rhs(rho + dt * k3, t + dt)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def evolve(
    me: MasterEquation,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    *,
    t0: float = 0.0,
    tol: float | None = None,
    stride: int = 1,
    store_states: bool = True,
    extra_observables: dict[str, np.ndarray] | None = None,
    trace_tol: float = 1e-8,
    eig_floor: float = -1e-7,
) -> Trajectory:
    """Integrate d(rho)/dt = L[rho] with classical RK4.

    ``dt`` is the (initial) step.  With ``tol`` set, each step is checked by
    step halving: the full step is compared against two half steps and the
    step size is halved until the Richardson error estimate drops below
    ``tol``, doubling back when the estimate is far below it.  Drive tones
    are evaluated exactly at the stage times.  The trace is never
    renormalized; trace drift beyond ``trace_tol`` or a stored state with an
    eigenvalue below ``eig_floor`` aborts with a diagnostic.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rho, leakage = _prepare_state(me, rho0)
    trace0 = float(np.real(np.trace(rho)))

    times = [t0]
    states = [rho.copy()] if store_states else None
    obs_records = [_observe(me, rho, extra_observables)]

    t = t0
    step = dt
    dt_min = dt * 2.0**-40
    accepted = 0
    max_drift = 0.0
    min_eig_seen = 0.0
    horizon_eps = 1e-12 * max(abs(t_end - t0), 1.0)
    while t < t_end - horizon_eps:
        step = min(step, t_end - t)
        if tol is None:
            rho_new = _rk4_step(me, rho, t, step)
            taken = step
        else:
            while True:
                full = _rk4_step(me, rho, t, step)
                half = _rk4_step(me, rho, t, 0.5 * step)
                half = _rk4_step(me, half, t + 0.5 * step, 0.5 * step)
                err = max_abs(half - full) / 15.0
                if err <= tol:
                    rho_new = half
                    taken = step
                    if err < tol / 64.0:
                        step = step * 2.0
                    break
                step *= 0.5
                if step < dt_min:
                    raise NumericsError(
                        f"step size underflow at t={t:.6g} (dt={step:.3g}, err={err:.3g})"
                    )
        t += taken
        rho = rho_new
        accepted += 1
        if accepted % stride == 0 or t >= t_end - horizon_eps:
            drift = abs(float(np.real(np.trace(rho))) - trace0)
            max_drift = max(max_drift, drift)
            if drift > trace_tol:
                raise NumericsError(f"trace drift {drift:.3g} exceeds {trace_tol:.3g} at t={t:.6g}")
            min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
            min_eig_seen = min(min_eig_seen, min_eig)
            if min_eig < eig_floor:
                raise NumericsError(f"state eigenvalue {min_eig:.3g} below {eig_floor:.3g} at t={t:.6g}")
            times.append(t)
            if store_states:
                states.append(rho.copy())
            obs_records.append(_observe(me, rho, extra_observables))

    obs = {key: np.array([rec[key] for rec in obs_records]) for key in obs_records[0]}
    return Trajectory(
        times=np.array(times),
        states=states,
        observables=obs,
        rep=me.rep,
        metadata={
            "initial_leakage": leakage,
            "max_trace_drift": max_drift,
            "min_eigenvalue": min_eig_seen,
            "steps": accepted,
        },
    )


def _observe(me: MasterEquation, rho: np.ndarray, extra) -> dict[str, float]:
    rec: dict[str, float] = {"trace": float(np.real(np.trace(rho)))}
    if me.basis is not None:
        rec.update(observables(rho, me.basis))
    if extra:
        for name, op in extra.items():
            rec[name] = float(np.real(np.trace(op @ rho)))
    return rec


# ---------------------------------------------------------------------------
# steady states


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape((d, d), order="F")


def _clip_and_report(rho: np.ndarray, clip_floor: float = 1e-10):
    rho = 0.5 * (rho + rho.conj().T)
    vals, vecs = np.linalg.eigh(rho)
    clipped = float(-vals[vals < 0].sum()) if np.any(vals < 0) else 0.0
    if vals[0] < -clip_floor:
        warnings.warn(f"steady state eigenvalue {vals[0]:.3g} clipped to zero", stacklevel=3)
    vals = np.clip(vals, 0.0, None)
    rho = (vecs * vals) @ vecs.conj().T
    rho /= np.real(np.trace(rho))
    return rho, clipped


def steady_state_nullspace(
    me: MasterEquation,
    residual_tol: float = 1e-10,
    degeneracy_check: bool = False,
) -> SteadyState:
    """Steady state of a time-independent generator from the vectorized nullspace.

    Solves L vec(rho) = 0 with the unit-trace condition folded in as a linear
    constraint, Hermitizes, and clips any negative eigenvalues at readout
    (reported, never silently).  With ``degeneracy_check`` the nullspace
    dimension is inspected and a degenerate family is returned in the
    metadata instead of a single state.
    """
    if me.time_dependent:
        raise ValueError("nullspace solver requires a time-independent generator")
    d = me.dim
    liouvillian = me.liouvillian()
    scale = generator_scale(me)

    if degeneracy_check:
        _, svals, vh = np.linalg.svd(liouvillian.toarray())
        null_dim = int(np.sum(svals < 1e-12 * max(svals[0], 1e-300)))
        if null_dim > 1:
            family = []
            for row in vh[-null_dim:]:
                cand = _unvec(row, d)
                cand = 0.5 * (cand + cand.conj().T)
                tr = np.real(np.trace(cand))
                if abs(tr) > 1e-12:
                    cand = cand / tr
                family.append(cand)
            return SteadyState(
                rho=family[0],
                residual=float(max_abs(me.rhs(family[0]))),
                method="nullspace",
                rep=me.rep,
                metadata={"degenerate": True, "null_dim": null_dim, "family": family},
            )

    # fold the trace row into the system: weighted trace condition added to row 0
    weight = scale
    trace_cols = np.arange(d) * (d + 1)
    trace_fold = csc_matrix(
        (np.full(d, weight, dtype=complex), (np.zeros(d, dtype=int), trace_cols)), shape=liouvillian.shape
    )
    b = np.zeros(d * d, dtype=complex)
    b[0] = weight
    try:
        v = splu(liouvillian + trace_fold).solve(b)
        rho = _unvec(v, d)
        rho, clipped = _clip_and_report(rho)
        residual = float(max_abs(me.rhs(rho)))
    except (RuntimeError, np.linalg.LinAlgError):
        # splu reports an exactly singular factor as a RuntimeError
        residual = math.inf
    # written so that a NaN residual fails the check
    if not residual <= residual_tol * scale:
        # retry with the explicitly appended trace row and dense least squares
        stacked = np.vstack([liouvillian.toarray(), trace_fold[0].toarray()])
        rhs = np.zeros(d * d + 1, dtype=complex)
        rhs[-1] = weight
        v, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
        rho = _unvec(v, d)
        rho, clipped = _clip_and_report(rho)
        residual = float(max_abs(me.rhs(rho)))
        if not residual <= residual_tol * scale:
            raise NumericsError(
                f"nullspace residual {residual:.3g} exceeds {residual_tol:.1g} * scale; "
                "the generator may have a degenerate steady family"
            )
    return SteadyState(
        rho=rho,
        residual=residual,
        method="nullspace",
        rep=me.rep,
        metadata={"clipped_weight": clipped, "degenerate": False},
    )


def steady_state_longtime(
    me: MasterEquation,
    rho0: np.ndarray,
    dt: float,
    residual_tol: float = 1e-7,
    block_time: float | None = None,
    max_time: float | None = None,
) -> SteadyState:
    """Steady state by integrating until the generator residual is negligible."""
    if me.time_dependent:
        raise ValueError("long-time solver requires a time-independent generator")
    scale = generator_scale(me)
    rho, _ = _prepare_state(me, rho0)
    slowest = _slowest_relaxation_rate(me)
    block = block_time if block_time is not None else 5.0 / slowest
    limit = max_time if max_time is not None else 200.0 / slowest
    t = 0.0
    while t < limit:
        traj = evolve(me, rho, block, dt, store_states=True, stride=10**9)
        rho = traj.states[-1]
        t += block
        residual = float(max_abs(me.rhs(rho)))
        if residual < residual_tol * scale:
            rho, clipped = _clip_and_report(rho)
            return SteadyState(
                rho=rho,
                residual=float(max_abs(me.rhs(rho))),
                method="longtime",
                rep=me.rep,
                metadata={"time": t, "clipped_weight": clipped},
            )
    raise NumericsError(f"long-time residual did not reach {residual_tol:.1g}*scale by t={limit:.3g}")


def steady_state_timeaveraged(
    me: MasterEquation,
    rho0: np.ndarray,
    dt: float,
    t_start: float | None = None,
    window: float | None = None,
    stride: int | None = None,
) -> SteadyState:
    """Steady state of a (possibly time-dependent) generator by time averaging.

    Integrates past a burn-in ``t_start`` (default 10 over the slowest
    relaxation rate), then averages the state over ``window``.  For a driven generator
    the window must cover at least 20 periods of the slowest drive tone.
    The peak-to-peak oscillation of each observable over the window is
    reported instead of a residual threshold.
    """
    if t_start is None:
        t_start = 10.0 / _slowest_relaxation_rate(me)
    if me.drive:
        min_tone = min(abs(tone.frequency) for tone in me.drive)
        min_window = 20.0 * 2.0 * math.pi / min_tone
        if window is None:
            window = min_window
        elif window < min_window:
            raise ValueError(
                f"window {window:.3g} too short: need >= 20 tone periods = {min_window:.3g}"
            )
    elif window is None:
        window = t_start / 2.0

    rho, _ = _prepare_state(me, rho0)
    if t_start > 0:
        burn = evolve(me, rho, t_start, dt, store_states=True, stride=10**9)
        rho = burn.states[-1]
    if stride is None:
        # cap storage at a few thousand samples while keeping the tone resolved
        stride = max(1, int(math.ceil(window / dt / 4000.0)))
    traj = evolve(me, rho, t_start + window, dt, t0=t_start, stride=stride, store_states=True)
    avg = sum(traj.states) / len(traj.states)
    avg = 0.5 * (avg + avg.conj().T)
    ptp = {
        key: float(np.ptp(series))
        for key, series in traj.observables.items()
    }
    residual = ptp.get("n_total", max(ptp.values()) if ptp else 0.0)
    return SteadyState(
        rho=avg,
        residual=residual,
        method="timeaveraged",
        rep=me.rep,
        metadata={
            "t_start": t_start,
            "window": window,
            "ptp_oscillation": ptp,
            "samples": len(traj.states),
        },
    )


def coherent_dressed_ket(b: DressedBasis, alpha: complex, sector: str) -> np.ndarray:
    """Coherent state of one dressed ladder in reduced coordinates (renormalized)."""
    L = b.n_levels
    n = np.arange(L)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, L, dtype=float))]))
    amps = np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / np.exp(0.5 * log_fact)
    ket = np.zeros(2 * L, dtype=complex)
    block = slice(0, L) if sector == "-" else slice(L, 2 * L)
    ket[block] = amps
    return ket / np.linalg.norm(ket)
