"""Generator invariants across the validity window, drawn with hypothesis.

Every example is a small generator (d <= 12) drawn with omega0 <= 0.3,
|beta| <= 0.2, a few dressed levels, flat rates and a temperature, or a
pumped dressed generator with a probe tone for the harmonic time average.  The
profile is derandomized, so each run checks the same examples, and the whole
module stays within a few seconds.  The sparse Liouvillian is compared with
the dense kron reference of ``dense_reference``.

The CLI's config schema is fuzzed from its own table, ``cli._SCHEMA``: one or
two keys of a tiny config get a wrong type, a non-finite number, zero, a
negative value, an empty list, or a missing or extra nested key, and every
command must either reject the config before writing a table (exit 2) or run
to finite tables.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

from dressedrabi import cli
from dressedrabi.adiabatic import build_basis
from dressedrabi.dynamics import (
    _hermitian_embedding,
    _reachable_block,
    _shifted_solver,
    _solve_liouvillian,
    _transpose_partner,
    evolve,
    generator_scale,
    observables,
    steady_state_nullspace,
    steady_state_timeaveraged,
)
from dressedrabi.hilbert import SpaceDims, max_abs
from dressedrabi.lindblad import (
    JumpTerm,
    MasterEquation,
    RateFunctions,
    driven_rotating_dme,
    finite_temperature_dme,
    gibbs_state,
    standard_master_equation,
    zero_temperature_dme,
)
from dressedrabi.rabi import RabiParams
from dressedrabi.spectroscopy import _cross_drive_op

from conftest import expand, random_density, scan_pump_system
from dense_reference import dense_liouvillian, dense_steady_state

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def params(draw, max_levels: int = 4):
    """(omega0, beta, n_levels) with n_levels under the ladder cap 1/(8 beta^2)."""
    n_levels = draw(st.integers(2, max_levels))
    beta_max = min(0.2, (0.125 / n_levels) ** 0.5)
    return draw(st.floats(0.05, 0.3)), draw(st.floats(-beta_max, beta_max)), n_levels


def _basis(omega0: float, beta: float, n_levels: int):
    return build_basis(RabiParams(1.0, omega0, beta), n_levels, SpaceDims(n_levels + 8),
                       energy_mode="truncated")


def _generic(draw, density: float = 0.6):
    """A random Hermitian H and jumps with several nonzeros in a row and a column.

    Every jump operator the program builds has at most one nonzero per row and
    per column, so pairing the nonzeros of O^dag O by row or by column gives
    the same sum on those; on these it does not.  ``density`` is the share of
    nonzero entries.
    """
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sparse_matrix():
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return g * (rng.random((d, d)) < density)

    h = sparse_matrix()
    jumps = [JumpTerm(draw(st.floats(0.01, 0.4)), sparse_matrix()) for _ in range(draw(st.integers(1, 3)))]
    return MasterEquation(hamiltonian=h + h.conj().T, jumps=jumps)


@st.composite
def generators(draw):
    """A dressed (zero or finite T), pumped, bare-operator or generic generator.

    Only the dressed kind keeps its drawn temperature: the pumped and
    bare-operator generators are zero-temperature builders and refuse T > 0.
    """
    omega0, beta, n_levels = draw(params())
    big = draw(st.floats(0.01, 0.4))
    small, gamma_f = draw(st.floats(0.01, 0.1)), draw(st.floats(0.0, 0.1))
    temperature = draw(st.just(0.0) | st.floats(0.05, 0.5))
    kind = draw(st.sampled_from(["dme", "driven", "sme", "generic"]))
    rates = RateFunctions.flat(big, small, gamma_f=gamma_f, temperature=temperature if kind == "dme" else 0.0)
    if kind == "generic":
        return _generic(draw)
    if kind == "sme":
        return standard_master_equation(RabiParams(1.0, omega0, beta), rates, SpaceDims(n_levels + 2))
    b = _basis(omega0, beta, n_levels)
    if kind == "driven":
        return driven_rotating_dme(b, rates, draw(st.floats(0.0, big)), b.omega_minus)
    if rates.temperature > 0:
        return finite_temperature_dme(b, rates)
    return zero_temperature_dme(b, rates)


@PROFILE
@given(generators())
def test_sparse_liouvillian_matches_dense_reference(me):
    assert max_abs(me.liouvillian().toarray() - dense_liouvillian(me)) <= 1e-12 * generator_scale(me)


@PROFILE
@given(generators())
def test_liouvillian_preserves_trace_and_hermiticity(me):
    d = me.dim
    scale = generator_scale(me)
    vec_eye = np.eye(d).reshape(-1, order="F")
    # vec(I)^dag L = 0: every state keeps its trace
    assert max_abs(me.liouvillian().T @ vec_eye) <= 1e-12 * scale
    out = me.rhs(random_density(d, np.random.default_rng(d)))
    assert max_abs(out - out.conj().T) <= 1e-12 * scale


@PROFILE
@given(generators())
def test_sparse_steady_state_is_a_state_and_matches_dense(me):
    ss = steady_state_nullspace(me)
    assert abs(np.trace(ss.rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(ss.rho)[0] >= -1e-12
    assert max_abs(ss.rho - dense_steady_state(me)) <= 1e-12


@PROFILE
@given(st.data())
def test_reachable_block_is_invariant(data):
    # sparse generic generators, so that the block is often a proper subset
    me = _generic(data.draw, density=data.draw(st.floats(0.1, 0.4)))
    n = me.dim**2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    seeds = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    x = np.zeros(n, dtype=complex)
    x[seeds] = rng.standard_normal(seeds.size)
    liouvillian = me.liouvillian()
    block, dropped = _reachable_block(liouvillian, x)
    assert np.isin(np.flatnonzero(x), block).all() and dropped == 0.0
    # no entry of L maps the block to its complement
    outside = np.setdiff1d(np.arange(n), block)
    assert np.count_nonzero(liouvillian[outside][:, block].toarray()) == 0
    # and it holds rho_ji with every rho_ij, as the real coordinates of exact propagation need
    assert np.isin(_transpose_partner(block, me.dim), block).all()


@PROFILE
@given(generators(), st.booleans(), st.integers(0, 2**32 - 1))
def test_exact_evolution_in_real_coordinates_matches_the_complex_propagator(me, mixed, seed):
    # evolve(exact=True) runs in the real coordinates of the reachable block: against
    # expm_multiply on all d^2 complex unknowns, from a full-rank state or from a basis
    # projector, whose block may be a proper subset
    d = me.dim
    rng = np.random.default_rng(seed)
    if mixed:
        rho0 = random_density(d, rng)
    else:
        k = rng.integers(d)
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[k, k] = 1.0
    traj = evolve(me, rho0, 1.0, 0.25, exact=True)
    liouvillian = me.liouvillian()
    x = rho0.reshape(-1, order="F")
    for h, state in zip(np.diff(traj.times), traj.states[1:]):
        x = expm_multiply(h * liouvillian, x)
        assert max_abs(state.reshape(-1, order="F") - x) <= 1e-12
    # L maps rho_ji to the exact conjugate of what it maps rho_ij to, so Re(E+ L E) drops exactly nothing
    embed, left_inverse = _hermitian_embedding(np.arange(d * d), d)
    partner = _transpose_partner(np.arange(d * d), d)
    assert max_abs((liouvillian[partner][:, partner] - liouvillian.conj()).toarray()) == 0
    assert max_abs((left_inverse @ liouvillian @ embed).imag.toarray()) == 0


@PROFILE
@given(params(), st.floats(0.01, 0.4), st.floats(0.01, 0.1), st.floats(0.05, 0.5))
def test_gibbs_state_is_stationary(dressed, big, small, temperature):
    b = _basis(*dressed)
    me = finite_temperature_dme(b, RateFunctions.flat(big, small, temperature=temperature))
    assert max_abs(me.rhs(gibbs_state(b, temperature))) <= 1e-12 * generator_scale(me)
    # detailed balance of every jump pair: rate_up / rate_down = exp(-nu / T)
    by_label = {term.label: term for term in me.jumps}
    downs = [label for label in by_label if label.endswith("_down")]
    assert 2 * len(downs) == len(me.jumps)
    for label in downs:
        down, up = by_label[label], by_label[label[: -len("_down")] + "_up"]
        expected = math.exp(-down.frequency / temperature)
        assert up.rate / down.rate == pytest.approx(expected, rel=5e-14, abs=0.0)


@PROFILE
@given(st.floats(0.05, 0.3), st.integers(2, 4), st.floats(0.01, 0.4), st.floats(0.01, 0.1),
       st.integers(0, 2**32 - 1))
def test_dme_is_the_bare_operator_me_at_zero_coupling(omega0, n_levels, big, small, seed):
    # at beta = 0 the dressed states are |g,N> and |e,N>.  On states diagonal in
    # them the two generators agree; on coherences they differ by the secular
    # cross terms the DME drops
    b = _basis(omega0, 0.0, n_levels)
    rates = RateFunctions.flat(big, small)
    dme = zero_temperature_dme(b, rates)
    sme = standard_master_equation(b.params, rates, SpaceDims(n_levels + 8))
    rho = np.diag(np.random.default_rng(seed).dirichlet(np.ones(b.reduced_dim))).astype(complex)
    v = b.isometry
    assert max_abs(v.conj().T @ sme.rhs(expand(b, rho)) @ v - dme.rhs(rho)) <= 1e-12 * generator_scale(dme)


@PROFILE
@given(params(max_levels=5), st.floats(0.01, 0.4), st.floats(0.01, 0.1), st.floats(0.0, 0.1), st.data())
def test_timeaveraged_state_across_the_window(dressed, big, small, gamma_f, data):
    # the pumped generator of a time-averaged scan point, probed near the pair splitting
    b = _basis(*dressed)
    rates = RateFunctions.flat(big, small, gamma_f=gamma_f)
    me = driven_rotating_dme(b, rates, data.draw(st.floats(0.0, big)), b.omega_minus)
    omega_s = data.draw(st.floats(0.5, 1.2)) * b.params.omega0
    # a zero tone decouples the harmonics: rho_0 is the nullspace state
    zero = steady_state_timeaveraged(me, np.zeros((me.dim, me.dim), dtype=complex), omega_s)
    assert max_abs(zero.rho - steady_state_nullspace(me).rho) <= 1e-12
    # a probe up to the cross-ladder rate, the CLI's default strength
    spec_amp = data.draw(st.floats(0.01, 1.0)) * rates.cross_rate(b.params.beta, omega_s)
    rho = steady_state_timeaveraged(me, _cross_drive_op(b, spec_amp), omega_s).rho
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert max_abs(rho - rho.conj().T) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


@PROFILE
@given(params(max_levels=6), st.floats(0.01, 0.4), st.floats(0.01, 0.1), st.floats(0.0, 0.1), st.data())
def test_schur_scan_solver_matches_per_point_across_the_window(dressed, big, small, gamma_f, data):
    # one co-rotating scan pump: the shared Schur reduction, solved for the drawn grid at once,
    # against a factorization per point
    b = _basis(*dressed)
    rates = RateFunctions.flat(big, small, gamma_f=gamma_f)
    omega0 = b.params.omega0
    spec_amp = data.draw(st.floats(0.01, 1.0)) * rates.cross_rate(b.params.beta, omega0)
    point, shift = scan_pump_system(b, rates, data.draw(st.floats(0.05, 1.0)) * big, spec_amp)
    system, scale = point.liouvillian(), generator_scale(point)
    grid = [f * omega0 for f in data.draw(st.lists(st.floats(0.5, 1.2), min_size=1, max_size=4))]
    solve, path = _shifted_solver(system, shift, point.dim, scale, grid)
    assert path == "schur"
    for omega in grid:
        fast = solve(omega)
        slow = _solve_liouvillian(system + omega * shift, point.dim, scale)
        # a point that fell back would match trivially
        assert fast.metadata["solve"] == "schur"
        n_fast, n_slow = (observables(ss.rho, b)["n_total"] for ss in (fast, slow))
        assert abs(n_fast - n_slow) <= 1e-12 * n_slow


# ---------------------------------------------------------------------------
# the CLI's config schema, fuzzed from its own table

# Tiny sizes that no mutation enlarges: every bad value of a size is rejected,
# a key is dropped only where its default equals its value here, and
# Gamma = gamma, so that zeroing one rate keeps the relax horizon.
CLI_BASE = cli.resolve_config({
    "rates": {"Gamma": 0.1, "gamma": 0.1},
    "n_cut": 10,
    "n_levels": 2,
    "relax": {"t_end_over_rate": 0.5, "sample_interval": 0.1, "beta_grid": [0.1]},
    "drive": {"pump_amps": [0.05]},
    "spectrum": {"keep": 2},
    "fidelity": {"n_states": 2, "grid": [{"omega0": 0.3, "beta": 0.1}]},
    "spectroscopy": {"baselines": [1.0], "grid_points": 2, "span": [1.0, 3.0]},
}, {})
MISSING = object()


def _bad_values(value) -> list:
    """A wrong type, non-finite numbers, zero and a negative value in place of ``value``."""
    if isinstance(value, bool):
        return [0, 1, "false"]
    if isinstance(value, str):
        return [0, False]
    if isinstance(value, list):
        return [[], str(value)]
    return [str(value), True, math.nan, math.inf, -math.inf, 0, -1]


def _mutations(schema: dict, cfg: dict, path: tuple = ()) -> list:
    """(path, value) pairs; MISSING drops a key, and only where its default is its value in ``cfg``."""
    out = [(path + ("extra",), 0)]
    for key, entry in schema.items():
        if isinstance(entry, dict):
            out += _mutations(entry, cfg[key], path + (key,))
            continue
        value = cfg[key]
        out += [(path + (key,), bad) for bad in _bad_values(value)]
        if value == entry[0]:
            out.append((path + (key,), MISSING))
        for i, item in enumerate(value if isinstance(value, list) else []):
            if isinstance(item, dict):  # a fidelity.grid point
                out += [(path + (key, i, "extra"), 0)] + [(path + (key, i, name), MISSING) for name in item]
            else:
                out += [(path + (key, i), bad) for bad in _bad_values(item)]
    return out


CLI_MUTATIONS = _mutations(cli._SCHEMA, CLI_BASE)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _csv_cells(out) -> list[str]:
    """The numeric cells of every table: all but the ``branch`` column's +/- labels."""
    cells = []
    for table in out.glob("*.csv"):
        header, *rows = [line.split(",") for line in table.read_text(encoding="utf-8").splitlines()
                         if not line.startswith("#")]
        cells += [cell for row in rows for name, cell in zip(header, row) if name != "branch"]
    return cells


@settings(PROFILE, max_examples=200)
@given(st.sampled_from(list(cli._COMMANDS)),
       st.lists(st.sampled_from(CLI_MUTATIONS), min_size=1, max_size=2))
def test_cli_config_mutations_fail_early_or_run_clean(command, mutations):
    cfg = json.loads(json.dumps(CLI_BASE))
    # the longest paths first, so that a list element is mutated before its list is replaced
    for path, value in sorted(mutations, key=lambda m: -len(m[0])):
        table = cfg
        for key in path[:-1]:
            table = table[key]
        if value is MISSING:
            table.pop(path[-1], None)
        else:
            table[path[-1]] = value
    with tempfile.TemporaryDirectory() as scratch:
        config, out = Path(scratch) / "config.json", Path(scratch) / "out"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            code = cli.main([command, "--config", str(config), "--out", str(out)])
        assert code in (0, 2, 3)
        if code != 0:
            assert not list(out.glob("*"))  # a failed run writes no file
        if code == 0:
            assert all(math.isfinite(float(cell)) for cell in _csv_cells(out))
            for sidecar in out.glob("*.json"):  # strict JSON: no NaN or Infinity
                json.loads(sidecar.read_text(encoding="utf-8"), parse_constant=_reject_constant)
