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


def dissipator_apply(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[O] rho = (2 O rho O^dag - O^dag O rho - rho O^dag O)/2."""
    if op.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {op.shape} vs {rho.shape}")
    od = op.conj().T
    odo = od @ op
    return op @ rho @ od - 0.5 * (odo @ rho + rho @ odo)


def dense_rhs(me, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_k r_k D[O_k] rho, one operator at a time."""
    h = me.hamiltonian
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


def _rk4_steps(rhs, rho: np.ndarray, t: float, t_end: float, dt: float):
    """Classical RK4 steps of dt from t to t_end, the last one shortened; yields each new state."""
    horizon_eps = 1e-12 * max(t_end - t, 1.0)
    while t < t_end - horizon_eps:
        h = min(dt, t_end - t)
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * h, rho + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, rho + 0.5 * h * k2)
        k4 = rhs(t + h, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        yield rho


def rk4_time_average(me, tone: np.ndarray, frequency: float, rho0: np.ndarray, dt: float,
                     t_start: float) -> np.ndarray:
    """Mean state over 20 periods of the tone after an RK4 burn-in to ``t_start``.

    RK4 integrates me.rhs(rho) - i[H(t), rho] with H(t) = tone e^{-i w t} + h.c.
    from rho0 at t = 0, the tone's frequency w being ``frequency``.  The window
    is sampled at its start, every ceil(window / dt / 4000) steps and at its
    end, so at most ~4000 samples are kept while the tone stays resolved.
    """

    def rhs(t, rho):
        h = tone * np.exp(-1j * frequency * t)
        h = h + h.conj().T
        return me.rhs(rho) - 1j * (h @ rho - rho @ h)

    rho = rho0
    for rho in _rk4_steps(rhs, rho0, 0.0, t_start, dt):
        pass
    window = 20 * 2.0 * math.pi / abs(frequency)
    stride = max(1, int(math.ceil(window / dt / 4000.0)))
    samples, steps = [rho], 0
    for steps, rho in enumerate(_rk4_steps(rhs, rho, t_start, t_start + window, dt), 1):
        if steps % stride == 0:
            samples.append(rho)
    if steps % stride:
        samples.append(rho)
    avg = sum(samples) / len(samples)
    return 0.5 * (avg + avg.conj().T)
