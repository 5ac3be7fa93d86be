"""Time integration, steady-state solving, and observable extraction.

Works on whatever representation a generator carries: reduced dressed
coordinates for generators built from a dressed basis, the full truncated
space otherwise.  An initial state must be given in that representation.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import schur
from scipy.sparse.linalg import expm_multiply, splu

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
    "coherent_dressed_ket",
]


class NumericsError(RuntimeError):
    """Raised when an integration or solve breaches its accuracy contract."""


@dataclass
class Trajectory:
    times: np.ndarray
    states: list[np.ndarray] | None
    observables: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)


@dataclass
class SteadyState:
    rho: np.ndarray
    residual: float
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


def observables(rho: np.ndarray, b: DressedBasis) -> dict[str, float]:
    """Dressed-ladder observables of a state given in either representation.

    Returns the per-ladder excitation numbers, their sum, the two sector
    populations, the population of the dressed ground state |Psi_0^->
    (``ground``), and the weight outside the retained basis.
    """
    rho_d = rho if rho.shape == (b.reduced_dim, b.reduced_dim) else b.isometry.conj().T @ rho @ b.isometry
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
        "ground": float(pops[0]),
        "leakage": float(total - pops.sum()),
        "trace": total,
    }


def _rk4_step(me: MasterEquation, rho: np.ndarray, dt: float) -> np.ndarray:
    k1 = me.rhs(rho)
    k2 = me.rhs(rho + 0.5 * dt * k1)
    k3 = me.rhs(rho + 0.5 * dt * k2)
    k4 = me.rhs(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape((d, d), order="F")


def _horizon_eps(t_end: float) -> float:
    """Tolerance within which ``_step_grid`` takes a time as t_end."""
    return 1e-12 * max(abs(t_end), 1.0)


def _step_grid(t_end: float, dt: float, stride: int):
    """Steps of ``evolve``'s grid: (t, step, sample) for each step of dt from 0 to t_end.

    The last step is shortened to end at t_end; ``sample`` marks every
    ``stride``-th step and the last one.
    """
    horizon_eps = _horizon_eps(t_end)
    t, taken = 0.0, 0
    while t < t_end - horizon_eps:
        step = min(dt, t_end - t)
        taken += 1
        yield t, step, taken % stride == 0 or t + step >= t_end - horizon_eps
        t += step


def _transpose_partner(k: np.ndarray, d: int) -> np.ndarray:
    """The vec index j + i d of rho_ji for each vec index k = i + j d of rho_ij."""
    return k // d + d * (k % d)


def _reachable_block(liouvillian: sparse.csc_matrix, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Unknowns of vec(rho) reachable from the support of x, and the weight of x outside them.

    A breadth-first search on the graph of L.T plus the transpose pairing
    rho_ij <-> rho_ji, one sparse product per level: the set starts from the
    entries of x above 1e-13 max|x| and takes in every i with L[i, j] != 0
    for a j already in it, and the partner of every entry it takes.  So L
    maps a vector supported on the returned (sorted) indices to one supported
    on them, and so does exp(tL), and ``_hermitian_embedding`` takes them.
    The weight is the sum of |x| over the sub-floor entries left outside, a
    bound on their trace norm.
    """
    n = x.size
    pairing = sparse.csc_matrix(
        (np.ones(n, dtype=bool), (_transpose_partner(np.arange(n), math.isqrt(n)), np.arange(n))), shape=(n, n)
    )
    pattern = sparse.csc_matrix(
        (liouvillian.data != 0, liouvillian.indices, liouvillian.indptr), shape=liouvillian.shape
    ) + pairing
    frontier = np.abs(x) > 1e-13 * max_abs(x)
    reached = frontier.copy()
    while frontier.any():
        frontier = (pattern @ frontier) & ~reached
        reached |= frontier
    return np.flatnonzero(reached), float(np.abs(x[~reached]).sum())


def _hermitian_embedding(indices: np.ndarray, d: int) -> tuple[sparse.csc_matrix, sparse.csr_matrix]:
    """The embedding E of real coordinates into vec(rho) on ``indices``, and its left inverse E+.

    ``indices`` is a sorted set of vec indices i + j d closed under
    (i, j) -> (j, i).  A Hermitian rho supported there has m = indices.size
    real coordinates w: rho_ii, then Re rho_ij, then Im rho_ij for i < j, in
    the order of the indices.  The sparse d^2 x m matrix E maps w to vec(rho),
    so E w is Hermitian for every real w; E+ = diag(1, 1/2, 1/2) E^dag gives
    E+ E = I, and E+ L E is real for a Hermiticity-preserving L.
    """
    rows, cols = indices % d, indices // d
    diagonal, upper = indices[rows == cols], indices[rows < cols]
    lower = _transpose_partner(upper, d)
    n_diag, h = diagonal.size, upper.size
    k = np.arange(h) + n_diag
    # w_k = Re rho_ij and w_{h+k} = Im rho_ij: rho_ij = w_k + i w_{h+k}, rho_ji = w_k - i w_{h+k}
    entries = (
        np.concatenate([diagonal, upper, lower, upper, lower]),
        np.concatenate([np.arange(n_diag), k, k, k + h, k + h]),
    )
    values = np.concatenate([np.ones(n_diag, dtype=complex), np.repeat([1, 1, 1j, -1j], h)])
    embed = sparse.csc_matrix((values, entries), shape=(d * d, n_diag + 2 * h))
    weights = np.concatenate([np.ones(n_diag), np.full(2 * h, 0.5)])
    return embed, embed.conj().T.multiply(weights[:, None]).tocsr()


# samples per grid call of exact propagation: bounds its states at _CHUNK x block x 8 B
_CHUNK = 100
# a sampled or steady state may have eigenvalues down to -_EIG_FLOOR
_EIG_FLOOR = 1e-7
# a sampled state's trace may drift from the initial one by _TRACE_TOL
_TRACE_TOL = 1e-8


def evolve(
    me: MasterEquation,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    *,
    stride: int = 1,
    exact: bool = False,
    store_states: bool = True,
) -> Trajectory:
    """Integrate d(rho)/dt = L[rho] from 0 to t_end, sampling every ``stride`` steps of ``dt``.

    ``rho0`` is in the generator's representation, ``me.dim`` x ``me.dim``:
    any other shape, a non-finite entry, or a Hermiticity defect
    max|rho0 - rho0^dag| above 1e-10 max|rho0| raises ``ValueError``.
    Samples are taken at k dt stride and at t_end.  By default classical
    RK4 steps dt.  With ``exact`` the generator is instead propagated
    exactly by the time-stepping form of ``expm_multiply`` (A. H. Al-Mohy
    and N. J. Higham, SIAM J. Sci. Comput. 33, 488 (2011)): one call per
    chunk of at most ``_CHUNK`` evenly spaced samples, the last interval
    included unless it is shorter than dt stride, when it takes its own
    call.  It is restricted to the block of unknowns reachable from rho0
    (``_reachable_block``), and runs in the block's real coordinates
    (``_hermitian_embedding``): a Hermiticity-preserving L maps a Hermitian
    rho to a Hermitian one, so it is the real generator E+ L E on w = E+
    vec(rho), and each sample is E w.  ``dt`` and ``stride`` then only set
    the sample spacing.  The sub-floor entries of rho0 outside the block
    are dropped, with a warning when their weight (sum of moduli) exceeds
    1e-10.
    The trace is never renormalized; trace drift beyond 1e-8 or a
    sample with an eigenvalue below -1e-7 aborts with a diagnostic.  The
    eigenvalue floor is a Cholesky test of the Hermitian part plus 1e-7 I;
    the eigenvalues themselves are computed only for a sample that fails it
    and for the final sample.  ``metadata`` records ``method`` (``"rk4"`` or
    ``"expm"``), ``block_dim`` (unknowns propagated: complex entries of
    vec(rho) for RK4, real coordinates for ``exact``), ``dropped_weight``,
    ``max_trace_drift``, ``steps`` (RK4 steps, or exact sample intervals)
    and ``min_eigenvalue``: the smallest of 0 and the eigenvalues computed,
    those of the final sample and of every sample that failed the Cholesky
    test.
    """
    # written so that NaN fails every check
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end = {t_end} must be finite and >= 0")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt = {dt} must be finite and > 0")
    if not (isinstance(stride, numbers.Integral) and stride >= 1):
        raise ValueError(f"stride = {stride} must be an integer >= 1")
    # the eigenvalue floor's Cholesky test would pass NaN entries through
    if not np.isfinite(rho0).all():
        raise ValueError("initial state has non-finite entries")
    if rho0.shape != (me.dim, me.dim):
        raise ValueError(f"state shape {rho0.shape} does not fit the generator's {me.dim} x {me.dim}")
    # a density matrix is Hermitian, and the real coordinates of exact propagation carry no other
    if hermiticity_defect(rho0) > 1e-10 * max_abs(rho0):
        raise ValueError("initial state is not Hermitian within 1e-10")
    rho = rho0.astype(complex, copy=True)
    d = me.dim
    trace0 = float(np.real(np.trace(rho)))

    times = [0.0]
    states = [rho.copy()] if store_states else None
    obs_records = [_observe(me, rho)]
    max_drift = 0.0
    min_eig_seen = 0.0
    final_herm = None
    floor_shift = _EIG_FLOOR * np.eye(d)

    def sample(t: float, rho: np.ndarray) -> None:
        nonlocal max_drift, min_eig_seen, final_herm
        drift = abs(float(np.real(np.trace(rho))) - trace0)
        max_drift = max(max_drift, drift)
        if drift > _TRACE_TOL:
            raise NumericsError(f"trace drift {drift:.3g} exceeds {_TRACE_TOL:.3g} at t={t:.6g}")
        herm = final_herm = 0.5 * (rho + rho.conj().T)
        try:
            # succeeds iff every eigenvalue of herm exceeds -_EIG_FLOOR, up to a rounding
            # error far below the floor, at a fraction of eigvalsh's cost
            np.linalg.cholesky(herm + floor_shift)
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(herm)[0])
            min_eig_seen = min(min_eig_seen, min_eig)
            if min_eig < -_EIG_FLOOR:
                raise NumericsError(f"state eigenvalue {min_eig:.3g} below -1e-07 at t={t:.6g}") from None
        times.append(t)
        if store_states:
            states.append(rho.copy())
        obs_records.append(_observe(me, rho))

    if exact:
        vec = rho.reshape(-1, order="F")
        liouvillian = me.liouvillian()
        block, dropped = _reachable_block(liouvillian, vec)
        if dropped > 1e-10:
            warnings.warn(
                f"initial state has weight {dropped:.3g} outside the block reachable from its "
                "support; that weight is dropped from the evolution",
                stacklevel=2,
            )
        embed, left_inverse = _hermitian_embedding(block, d)
        gen = (left_inverse @ liouvillian @ embed).real.tocsr()
        gen_trace = gen.diagonal().sum()
        w = (left_inverse @ vec).real
        times_at = [0.0] + [t + step for t, step, is_sample in _step_grid(t_end, dt, stride) if is_sample]
        steps = len(times_at) - 1
        # every interval but the last spans stride steps of dt, so a chunk of them is an even grid;
        # the last joins it unless _step_grid shortened it
        even = steps
        if steps > 1 and abs(times_at[-1] - times_at[-2] - stride * dt) > _horizon_eps(t_end):
            even -= 1
        bounds = [*range(0, even, _CHUNK), even] + [steps] * (even < steps)
        for first, last in zip(bounds, bounds[1:]):
            # the grid form's norm estimate draws from numpy's global generator: give the caller's back
            rng_state = np.random.get_state()
            chunk = expm_multiply(
                gen, w, start=0.0, stop=times_at[last] - times_at[first], num=last - first + 1,
                endpoint=True, traceA=gen_trace,
            )
            np.random.set_state(rng_state)
            for t_next, w in zip(times_at[first + 1 : last + 1], chunk[1:]):
                sample(t_next, _unvec(embed @ w, d))
            # so that one chunk at a time is held: w, the next chunk's start, is a view into this one
            w, chunk = w.copy(), None
        method, block_dim = "expm", int(block.size)
    else:
        steps, dropped = 0, 0.0
        for t, step, is_sample in _step_grid(t_end, dt, stride):
            rho = _rk4_step(me, rho, step)
            steps += 1
            if is_sample:
                sample(t + step, rho)
        method, block_dim = "rk4", d * d
    if final_herm is not None:
        min_eig_seen = min(min_eig_seen, float(np.linalg.eigvalsh(final_herm)[0]))

    obs = {key: np.array([rec[key] for rec in obs_records]) for key in obs_records[0]}
    return Trajectory(
        times=np.array(times),
        states=states,
        observables=obs,
        metadata={
            "method": method,
            "block_dim": block_dim,
            "dropped_weight": dropped,
            "max_trace_drift": max_drift,
            "min_eigenvalue": min_eig_seen,
            "steps": steps,
        },
    )


def _observe(me: MasterEquation, rho: np.ndarray) -> dict[str, float]:
    if me.basis is None:
        return {"trace": float(np.real(np.trace(rho)))}
    return observables(rho, me.basis)


# ---------------------------------------------------------------------------
# steady states


def _clip_and_report(rho: np.ndarray):
    """Hermitize rho and clip its negative eigenvalues: (unit-trace rho, clipped weight, lowest eigenvalue)."""
    rho = 0.5 * (rho + rho.conj().T)
    vals, vecs = np.linalg.eigh(rho)
    clipped = float(-vals[vals < 0].sum()) if np.any(vals < 0) else 0.0
    rho = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    rho /= np.real(np.trace(rho))
    return rho, clipped, float(vals[0])


def _warn_clipped(lowest: float) -> None:
    if lowest < -1e-10:
        warnings.warn(f"steady state eigenvalue {lowest:.3g} clipped to zero", stacklevel=3)


# the most real cross-sector unknowns _shifted_solver's dense Schur form may hold:
# A, overwritten by T, and Z are about 100 MB at 2500
_DENSE_MAX = 2500
# a steady state's residual max|system v| may reach this share of the generator scale
_RESIDUAL_TOL = 1e-10


def _accept(v: np.ndarray, d: int, apply, scale: float, path: str):
    """Hermitize and clip the vec(rho_0) that leads v, in place, and accept it if it passes two checks.

    Returns (``SteadyState`` or None, why): the state, with ``clipped_weight``
    and ``solve`` (``path``), only if the lowest eigenvalue before the clip is
    at least -``_EIG_FLOOR``, evolve's positivity floor, and the residual
    max|apply(v)| is at most ``_RESIDUAL_TOL * scale``; only then is a
    clipped eigenvalue warned of.  Otherwise ``why`` names the failed check.
    """
    rho, clipped, lowest = _clip_and_report(_unvec(v[: d * d], d))
    if lowest < -_EIG_FLOOR:
        return None, f"steady state eigenvalue {lowest:.3g} below -{_EIG_FLOOR:.0e}"
    v[: d * d] = rho.reshape(-1, order="F")
    residual = float(max_abs(apply(v)))
    # written so that a NaN residual fails the check
    if not residual <= _RESIDUAL_TOL * scale:
        return None, f"steady-state residual {residual:.3g} exceeds {_RESIDUAL_TOL:.1g} * scale"
    _warn_clipped(lowest)
    return SteadyState(rho, residual, {"clipped_weight": clipped, "solve": path}), None


def _solve_liouvillian(system, d: int, scale: float):
    """Steady state of a sparse system whose first d^2 unknowns are vec(rho_0).

    The unit-trace row of rho_0, weighted by ``scale``, is folded into row 0
    and SuperLU solves the result.  The solution is Hermitized, clipped and
    checked by ``_accept``.  A non-finite system or splu solution raises
    ``NumericsError``, and so do an exactly singular factor and a solution
    that ``_accept`` rejects: the generator has no unique steady state, and
    no member of a steady family is returned.  Returns the ``SteadyState`` of
    rho_0 whose residual is max|system v| with the clipped, unit-trace rho_0
    in v.  Its ``metadata`` records ``clipped_weight`` and ``solve``:
    ``"splu"`` here, or ``"schur"`` for a point of ``_shifted_solver``.
    """
    n = system.shape[0]
    if not np.isfinite(system.data).all():
        raise NumericsError("the steady-state system has non-finite entries")
    b = np.zeros(n, dtype=complex)
    b[0] = scale
    try:
        v = splu((system + _trace_fold(n, d, scale)).tocsc()).solve(b)
    except RuntimeError:
        # splu reports an exactly singular factor as a RuntimeError
        raise NumericsError("the steady-state system is singular: the generator has no unique steady state") from None
    if not np.isfinite(v).all():
        raise NumericsError("splu returned a non-finite steady state")
    ss, why = _accept(v, d, system.dot, scale, "splu")
    if ss is None:
        raise NumericsError(f"{why}: the generator may have no unique steady state")
    return ss


def _trace_fold(n: int, d: int, scale: float) -> sparse.csc_matrix:
    """The unit-trace row of rho_0, weighted by ``scale``, as an n x n matrix with only row 0 set."""
    rows, cols = np.zeros(d, dtype=int), np.arange(d) * (d + 1)  # row 0, the diagonal of rho_0
    return sparse.csc_matrix((np.full(d, scale, dtype=complex), (rows, cols)), shape=(n, n))


# columns of the Schur complement formed per block, so no dense |S| x m solve is ever held
_SCHUR_BLOCK = 32


def _shifted_qt_solve(t: np.ndarray, omegas: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Column k of the returned m x P array solves (T + omegas[k]) x = c, for a real quasi-triangular T.

    One back-substitution from the last row up serves every shift: each row,
    or each 2 x 2 block in closed form, is solved for all the shifts at once,
    in place on one m x P array.  A shift that makes T + omega singular gives
    a non-finite column and no warning.
    """
    x = np.repeat(c[:, None], omegas.size, axis=1)
    i = c.size - 1
    with np.errstate(all="ignore"):
        while i >= 0:
            if i > 0 and t[i, i - 1] != 0.0:  # rows i - 1 and i are one 2 x 2 block
                j = i - 1
                r1, r2 = x[j:i + 1] - t[j:i + 1, i + 1:] @ x[i + 1:]
                t11, t12 = t[j, j] + omegas, t[j, i]
                t21, t22 = t[i, j], t[i, i] + omegas
                det = t11 * t22 - t12 * t21
                x[j] = (t22 * r1 - t12 * r2) / det
                x[i] = (t11 * r2 - t21 * r1) / det
                i -= 2
            else:
                x[i] = (x[i] - t[i, i + 1:] @ x[i + 1:]) / (t[i, i] + omegas)
                i -= 1
    return x


def _shifted_solver(system, shift, d: int, scale: float, grid):
    """Steady states of ``system + omega * shift``, prepared for every omega of ``grid``: returns (solve, path).

    ``solve(omega)`` returns the ``SteadyState`` of an omega of ``grid``;
    ``path`` names what each point tries first.  ``system`` is a
    Hermiticity-preserving d^2 x d^2 generator and ``shift`` a diagonal one,
    B = -i[F, .] for a diagonal F.

    ``"schur"``: the unknowns S where B vanishes (row 0 and the trace fold
    among them) are eliminated once, by one splu of M_SS, the folded system
    restricted to S.  A Hermitian solution has rho_ji = conj(rho_ij), so the
    m real unknowns w = (Re rho_ij, Im rho_ij), i < j across the sectors,
    carry it: the sparse embedding E of ``_hermitian_embedding`` (which
    ``evolve`` also propagates in) maps w to (rho_ij, rho_ji) in v, and
    the system enters only as M_S E and M_U E, its rows in S and at the
    rho_ij.  Those rows' equations, divided by B, read (A + omega) w = z for
    a real m x m Schur complement A, reduced once to real Schur form Z T Z^T
    (the frequency-response problem: A. J. Laub, IEEE Trans. Autom. Control
    26, 407 (1981)).  The quasi-triangular systems (T + omega) x = Z^T z of
    every omega in ``grid`` are then solved together by one back-substitution,
    ``_shifted_qt_solve`` (about 5 ms for 241 shifts at m = 288), and
    ``solve(omega)`` reads its grid column.
    A point then costs one product with Z, one product with E and one
    back-solve with M_SS (about 0.2 ms at m = 288, its acceptance included),
    and is accepted by ``_accept`` like a ``_solve_liouvillian`` attempt;
    one whose quasi-triangular solution is non-finite (a singular
    T + omega), or that ``_accept`` rejects, is re-solved by
    ``_solve_liouvillian`` and records that path, or raises its
    ``NumericsError``.  Besides the m x len(grid) solutions, at most two
    dense m x m arrays are held: A, overwritten by T, and Z, and the points
    keep only Z.

    ``"splu"``, every point by ``_solve_liouvillian``: for m above
    ``_DENSE_MAX``, a non-finite system, a singular M_SS or a failed Schur
    reduction.
    """

    def per_point(omega: float) -> SteadyState:
        return _solve_liouvillian(system + omega * shift, d, scale)

    n = system.shape[0]
    diag = shift.diagonal()
    cross = np.flatnonzero(diag)  # no rho_ii, and rho_ji with every rho_ij: B is -i(F_i - F_j) there
    m = cross.size
    if not (0 < m <= _DENSE_MAX and np.isfinite(system.data).all()):
        return per_point, "splu"
    same = np.flatnonzero(diag == 0)
    upper = cross[cross % d < cross // d]  # rho_ij with i < j: index i + j d
    embed, _ = _hermitian_embedding(cross, d)
    folded = (system + _trace_fold(n, d, scale)).tocsr()
    rows_s, rows_u = folded[same], folded[upper]
    m_se, m_ue = (rows_s @ embed).tocsc(), (rows_u @ embed).tocsc()
    m_us = rows_u[:, same].tocsc()
    try:
        lu = splu(rows_s[:, same].tocsc())
    except RuntimeError:
        # splu reports an exactly singular factor as a RuntimeError
        return per_point, "splu"
    inv_b = 1.0 / diag[upper]

    def real_form(z: np.ndarray) -> np.ndarray:
        return np.concatenate([z.real, z.imag])

    a = np.empty((m, m), order="F")
    for start in range(0, m, _SCHUR_BLOCK):
        cols = np.arange(start, min(start + _SCHUR_BLOCK, m))
        u_block = m_ue[:, cols].toarray() - m_us @ lu.solve(m_se[:, cols].toarray())
        a[:, cols] = real_form(inv_b[:, None] * u_block)
    if not np.isfinite(a).all():
        return per_point, "splu"
    try:
        # LAPACK's least workspace: the optimal one raised the default spectroscopy run's peak RSS by 1.6 MB
        t, q = schur(a, output="real", lwork=3 * m, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return per_point, "splu"
    b_same = np.zeros(same.size, dtype=complex)
    b_same[0] = scale  # row 0 is the first of S
    y = lu.solve(b_same)
    qz = real_form(-inv_b * (m_us @ y)) @ q
    grid = np.asarray(grid, dtype=float)
    columns = dict(zip(grid.tolist(), _shifted_qt_solve(t, grid, qz).T))

    def solve(omega: float) -> SteadyState:
        x_k = columns[omega]
        if np.isfinite(x_k).all():
            w = q @ x_k
            v = embed @ w
            v[same] = y - lu.solve(m_se @ w)
            if np.isfinite(v).all():
                ss, _ = _accept(v, d, lambda u: system @ u + omega * (diag * u), scale, "schur")
                if ss is not None:
                    return ss
        return per_point(omega)

    return solve, "schur"


def steady_state_nullspace(me: MasterEquation) -> SteadyState:
    """Steady state of a generator from the vectorized nullspace.

    Solves L vec(rho) = 0 with the unit-trace condition folded in as a linear
    constraint (``_solve_liouvillian``), Hermitizes, and clips any negative
    eigenvalues at readout: the returned state warns of a clipped one, a
    rejected solution never does.  A generator with no unique steady state
    raises ``NumericsError``.  ``metadata["solve"]`` is ``"splu"``.
    """
    return _solve_liouvillian(me.liouvillian(), me.dim, generator_scale(me))


# the long-time solver stops once max|L rho| is below _LONGTIME_TOL times the generator scale
_LONGTIME_TOL = 1e-7


def steady_state_longtime(me: MasterEquation, rho0: np.ndarray, dt: float) -> SteadyState:
    """Steady state by integrating until the generator residual is negligible.

    RK4 runs in blocks of 5 over the slowest relaxation rate and stops once
    the residual is below 1e-7 times the generator scale, or fails with
    ``NumericsError`` after 200 over that rate.  ``rho0`` is taken as by
    ``evolve``.
    """
    scale = generator_scale(me)
    slowest = _slowest_relaxation_rate(me)
    block = 5.0 / slowest
    limit = 200.0 / slowest
    rho, t = rho0, 0.0
    while t < limit:
        traj = evolve(me, rho, block, dt, store_states=True, stride=10**9)
        rho = traj.states[-1]
        t += block
        residual = float(max_abs(me.rhs(rho)))
        if residual < _LONGTIME_TOL * scale:
            rho, clipped, lowest = _clip_and_report(rho)
            _warn_clipped(lowest)
            return SteadyState(
                rho=rho,
                residual=float(max_abs(me.rhs(rho))),
                metadata={"time": t, "clipped_weight": clipped},
            )
    raise NumericsError(f"long-time residual did not reach {_LONGTIME_TOL:.1g}*scale by t={limit:.3g}")


# the harmonic order K rises until rho_0 moves by at most _HARMONIC_TOL (largest entry)
_HARMONIC_TOL = 1e-8
_MAX_HARMONICS = 8


def _harmonic_system(static, coupling, omega: float, order: int) -> sparse.csc_matrix:
    """Generator of the harmonics rho_k, |k| <= order, with the block of rho_0 first.

    For H(t) = 2 cos(omega t) A, A Hermitian, block row k is (L + i k omega)
    rho_k + V (rho_{k-1} + rho_{k+1}); the ``coupling`` V = -i[A, .] is A's
    ``MasterEquation.liouvillian``.
    """
    eye = sparse.identity(static.shape[0], dtype=complex, format="csc")
    ks = [0] + [sign * k for k in range(1, order + 1) for sign in (1, -1)]
    rows = [{k: static + (1j * k * omega) * eye, k - 1: coupling, k + 1: coupling} for k in ks]
    return sparse.bmat([[row.get(j) for j in ks] for row in rows], format="csc")


def steady_state_timeaveraged(me: MasterEquation, tone: np.ndarray, frequency: float) -> SteadyState:
    """Period-averaged asymptotic state of ``me`` plus H(t) = 2 cos(w t) tone, tone Hermitian.

    The asymptotic state is periodic, rho(t) = sum_k rho_k e^{-i k w t}, and
    its period average is rho_0 (Floquet theory of driven open systems: M.
    Grifoni and P. Hanggi, Phys. Rep. 304, 229 (1998)).  The harmonics
    |k| <= K solve one sparse block-tridiagonal system (``_harmonic_system``),
    coupled by V = -i[tone, .], the ``MasterEquation.liouvillian`` of the tone
    (which refuses a non-Hermitian one with ``ValueError``), through
    ``_solve_liouvillian``; K starts at 2 and rises by one until rho_0 moves
    by at most 1e-8, or fails with ``NumericsError`` past K = 8.  ``metadata``
    records ``harmonics`` (K), ``k_change``, ``clipped_weight`` and ``solve``.
    """
    d, scale, static = me.dim, generator_scale(me), me.liouvillian()
    coupling = MasterEquation(tone).liouvillian()
    ss = None
    for order in range(2, _MAX_HARMONICS + 1):
        prev = ss
        ss = _solve_liouvillian(_harmonic_system(static, coupling, frequency, order), d, scale)
        change = math.inf if prev is None else max_abs(ss.rho - prev.rho)
        if change <= _HARMONIC_TOL:
            break
    else:
        raise NumericsError(f"harmonics not converged at K={order}: rho_0 still moves by {change:.3g}")
    ss.metadata.update(harmonics=order, k_change=change)
    return ss


def coherent_dressed_ket(b: DressedBasis, alpha: complex, sector: str) -> np.ndarray:
    """Coherent state of one dressed ladder in reduced coordinates (renormalized)."""
    L = b.n_levels
    n = np.arange(L)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, L, dtype=float))]))
    amps = np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / np.exp(0.5 * log_fact)
    ket = np.zeros(2 * L, dtype=complex)
    ket[b.sector_block(sector)] = amps
    return ket / np.linalg.norm(ket)
