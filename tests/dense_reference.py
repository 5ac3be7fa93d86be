"""Slow references for the fast paths of ``dressedrabi``, at small d.

The generator is written here term by term, with ``np.kron`` and per-operator
dissipators, in the column-stacking convention vec(A rho B) =
(B^T kron A) vec(rho).  It costs d^4 memory, so it is only for the small
spaces of the tests that check the sparse assembly, ``rhs`` and the steady
states against it.  ``rk4_time_average`` is the brute-force period average
that the harmonic solver ``steady_state_timeaveraged`` is checked against.
"""

import math

import numpy as np

from dressedrabi.dynamics import evolve


def dissipator_apply(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[O] rho = (2 O rho O^dag - O^dag O rho - rho O^dag O)/2."""
    if op.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {op.shape} vs {rho.shape}")
    od = op.conj().T
    odo = od @ op
    return op @ rho @ od - 0.5 * (odo @ rho + rho @ odo)


def dense_rhs(me, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """-i[H(t), rho] + sum_k r_k D[O_k] rho, one operator at a time."""
    h = me.hamiltonian + me.drive_hamiltonian(t)
    out = -1j * (h @ rho - rho @ h)
    for term in me.jumps:
        out = out + term.rate * dissipator_apply(term.op, rho)
    return out


def dense_liouvillian(me) -> np.ndarray:
    """Static part of the generator as a dense d^2 x d^2 matrix, built with kron."""
    d = me.dim
    eye = np.eye(d, dtype=complex)
    h = me.hamiltonian
    sup = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for term in me.jumps:
        op = term.op
        odo = op.conj().T @ op
        sup = sup + term.rate * (
            np.kron(op.conj(), op) - 0.5 * np.kron(eye, odo) - 0.5 * np.kron(odo.T, eye)
        )
    return sup


def dense_steady_state(me) -> np.ndarray:
    """Steady state from a dense solve with the trace row folded into row 0."""
    d = me.dim
    sup = dense_liouvillian(me)
    weight = max(np.max(np.abs(me.hamiltonian)), max((t.rate for t in me.jumps), default=0.0))
    sup[0, :] += weight * np.eye(d, dtype=complex).reshape(-1, order="F")
    b = np.zeros(d * d, dtype=complex)
    b[0] = weight
    rho = np.linalg.solve(sup, b).reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.real(np.trace(rho))


def rk4_time_average(me, rho0: np.ndarray, dt: float, t_start: float) -> np.ndarray:
    """Mean state over 20 periods of the drive tone after an RK4 burn-in to ``t_start``.

    The window is sampled every ceil(window / dt / 4000) steps, so at most ~4000
    samples are kept while the tone stays resolved.
    """
    window = 20 * 2.0 * math.pi / min(abs(tone.frequency) for tone in me.drive)
    rho = evolve(me, rho0, t_start, dt, store_states=True, stride=10**9).states[-1]
    stride = max(1, int(math.ceil(window / dt / 4000.0)))
    traj = evolve(me, rho, t_start + window, dt, t0=t_start, stride=stride, store_states=True)
    avg = sum(traj.states) / len(traj.states)
    return 0.5 * (avg + avg.conj().T)
