import functools
import hashlib
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from scipy.integrate import solve_ivp

from nlo_quanta import closed_form as cf
from nlo_quanta import evolve, fock, models
from nlo_quanta.errors import AmbiguityError, ContractError, NumericsError


STEADY_ROUTES = ["auto", "dense"]


def _free_model(space, omega):
    return models.ModelSpec(space, omega * fock.number_operator(space, 0),
                            kind="free", params={"omega": omega})


class TestEvolvePure:
    def test_free_coherent_rotation(self):
        space = fock.make_space([25])
        omega = 0.8
        model = _free_model(space, omega)
        psi0 = fock.coherent_state(space, [1.2])
        times = np.linspace(0.0, 5.0, 6)
        res = evolve.evolve_pure(model, psi0, times)
        a = fock.annihilation(space, 0)
        for t, st in zip(times, res.states):
            assert abs(fock.expectation(st, a) - 1.2 * np.exp(-1j * omega * t)) < 1e-9

    def test_kerr_matches_closed_form(self):
        space = fock.make_space([40])
        alpha, omega, kappa = 1.5, 0.9, 0.4
        model = models.h_kerr_single(space, omega, kappa)
        psi0 = fock.coherent_state(space, [alpha])
        times = np.linspace(0.0, 7.0, 15)
        res = evolve.evolve_pure(model, psi0, times)
        sim = res.expectation_series(fock.annihilation(space, 0))
        ref = np.array([cf.kerr_mean_amplitude(alpha, omega, kappa, t) for t in times])
        assert np.abs(sim - ref).max() < 1e-10

    def test_chi2_charge_conserved(self):
        space = fock.make_space([16, 16])
        model = models.h_two_mode_chi2(space, 1.0, 0.3)
        psi0 = fock.coherent_state(space, [0.0, 1.2])
        res = evolve.evolve_pure(model, psi0, np.linspace(0.0, 4.0, 9))
        m_series = res.expectation_series(model.charge("M")).real
        assert np.abs(m_series - m_series[0]).max() < 1e-10

    def test_energy_conserved(self):
        space = fock.make_space([16, 16])
        model = models.h_two_mode_chi2(space, 1.0, 0.3)
        psi0 = fock.coherent_state(space, [0.0, 1.2])
        res = evolve.evolve_pure(model, psi0, np.linspace(0.0, 4.0, 9))
        e_series = res.expectation_series(model.hamiltonian).real
        assert np.abs(e_series - e_series[0]).max() < 1e-9

    def test_signal_parity_from_vacuum(self):
        space = fock.make_space([16, 16])
        model = models.h_two_mode_chi2(space, 1.0, 0.3)
        psi0 = fock.coherent_state(space, [0.0, 1.2])
        res = evolve.evolve_pure(model, psi0, np.linspace(0.2, 4.0, 7))
        for st in res.states:
            rho_a = fock.partial_trace(st, [0])
            # reduced signal state commutes with parity
            parity = fock.mode_rotation(rho_a.space, 0, np.pi).dense()
            comm = parity @ rho_a.data - rho_a.data @ parity
            assert np.abs(comm).max() < 1e-10
            assert np.real(np.diag(rho_a.data))[1::2].sum() < 1e-10

    @pytest.mark.parametrize("pump_case", ["coherent", "two_photon"])
    def test_rotation_covariance(self, pump_case):
        # pump invariant under 2 pi / n  =>  signal invariant under pi / n
        space = fock.make_space([16, 16])
        model = models.h_two_mode_chi2(space, 1.0, 0.4)
        if pump_case == "coherent":
            psi0 = fock.coherent_state(space, [0.0, 1.1])
            n_fold = 1
        else:
            vec = np.zeros(space.total_dim, dtype=complex)
            vec[space.flat_index((0, 0))] = 1 / np.sqrt(2)
            vec[space.flat_index((0, 2))] = 1 / np.sqrt(2)
            psi0 = fock.QuantumState(space, "pure", vec)
            n_fold = 2
        res = evolve.evolve_pure(model, psi0, [2.0])
        from nlo_quanta.diagnostics import rotation_invariance

        assert rotation_invariance(res.states[0], 0, n_fold) < 1e-9

    def test_large_space_krylov_route(self):
        # above DENSE_EVOLVE_DIM the Krylov path takes over; same physics
        space = fock.make_space([40, 20])
        model = models.h_two_mode_chi2(space, 1.0, 0.3)
        psi0 = fock.coherent_state(space, [0.0, 1.2])
        res = evolve.evolve_pure(model, psi0, [0.0, 1.3])
        m_series = res.expectation_series(model.charge("M")).real
        assert abs(m_series[1] - m_series[0]) < 1e-9

    def test_times_contract(self, monkeypatch):
        # unitary routes take any real times; the Lindblad ODE only forward ones
        space = fock.make_space([24, 24])
        model = models.h_two_mode_chi2(space, 1.0, 0.3)
        psi0 = fock.coherent_state(space, [0.0, 1.2])
        times = [0.7, -0.4, 0.0, 1.3]
        krylov = evolve.evolve_pure(model, psi0, times).states
        monkeypatch.setattr(evolve, "DENSE_EVOLVE_DIM", space.total_dim)
        dense = evolve.evolve_pure(model, psi0, times).states
        for k, e in zip(krylov, dense):
            assert np.abs(k.data - e.data).max() < 1e-12
        assert np.abs(dense[2].data - psi0.data).max() < 1e-12
        # every order comparison with NaN is false, so "t < 0" lets it
        # through; the integrator is made to raise, so bad times that slip
        # past the check fail fast instead of hanging
        def integrating(*args, **kwargs):
            raise AssertionError("times reached the integrator")

        monkeypatch.setattr(evolve, "solve_ivp", integrating)
        damped = _damped_number()
        for bad in ([0.5, 0.2], [-0.1, 0.3], [0.0, np.nan], [np.nan, 1.0], [0.0, np.inf], []):
            with pytest.raises(ContractError):
                evolve.evolve_lindblad(damped, fock.vacuum_state(damped.space), bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dims", [(16, 16), (40, 20)], ids=["dense", "krylov"])
    def test_non_finite_times_rejected(self, dims):
        space = fock.make_space(dims)
        model = models.h_two_mode_chi2(space, 1.0, 0.3)
        psi0 = fock.coherent_state(space, [0.0, 1.2])
        for bad in ([np.nan], [np.inf], [0.0, np.nan]):
            with pytest.raises(ContractError):
                evolve.evolve_pure(model, psi0, bad)

    def test_rejects_dissipative_model(self):
        space = fock.make_space([5])
        model = models.ModelSpec(space, fock.number_operator(space, 0),
                                 dissipators=((fock.annihilation(space, 0), 0.2),))
        with pytest.raises(ContractError):
            evolve.evolve_pure(model, fock.vacuum_state(space), [1.0])


def _counting_eigen(monkeypatch):
    """The names of the ``np.linalg`` eigenvalue solvers called from now
    on, in order of call."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _full_complex_lindblad(model, rho0, times):
    """Reference samples: DOP853 on the full complex vec(rho) under L, at
    the tolerances of evolve_lindblad."""
    L = evolve.liouvillian(model)
    d = model.space.total_dim
    sol = solve_ivp(lambda t, y: L @ y, (0.0, times.max()),
                    rho0.density().reshape(-1).astype(complex), t_eval=times,
                    method="DOP853", rtol=evolve.LINDBLAD_RTOL, atol=evolve.LINDBLAD_ATOL)
    return [sol.y[:, i].reshape(d, d) for i in range(len(times))]


def _damped_coherent():
    model = _damped_number()
    return model, fock.coherent_state(model.space, [0.6 + 0.3j], tail_tol=1e-3)


def _kerr_coherent():
    space = fock.make_space([16])
    return models.h_kerr_single(space, 0.7, 0.2), fock.coherent_state(space, [1.0])


#: transients compared with the full complex route: the vacuum occupies the
#: DPO population sector only, a coherent state every mirror pair of the
#: number-conserving damped model, and without dissipators every set of the
#: Kerr model is a diagonal entry or one coherence and its mirror
LINDBLAD_CASES = {
    "dpo-8-6-vacuum": lambda: (_dpo((8, 6)), fock.vacuum_state(fock.make_space([8, 6]))),
    "damped-6-coherent": _damped_coherent,
    "kerr-16-coherent": _kerr_coherent,
}


class TestEvolveLindblad:
    def test_damped_number_decay(self):
        space = fock.make_space([6])
        gamma = 0.35
        model = models.ModelSpec(space, 0.0 * fock.number_operator(space, 0),
                                 dissipators=((fock.annihilation(space, 0), gamma),))
        times = np.linspace(0.0, 2.0, 8)
        res = evolve.evolve_lindblad(model, fock.fock_state(space, [4]), times)
        n_series = res.expectation_series(fock.number_operator(space, 0)).real
        np.testing.assert_allclose(n_series, 4.0 * np.exp(-2 * gamma * times), atol=1e-8)

    def test_driven_damped_steady_amplitude(self):
        space = fock.make_space([14])
        b = fock.annihilation(space, 0)
        e0, gamma = 0.4, 0.8
        h = (1j * e0) * (b.dag() - b)
        model = models.ModelSpec(space, h, dissipators=((b, gamma),))
        res = evolve.evolve_lindblad(model, fock.vacuum_state(space),
                                     np.linspace(0.0, 25.0, 6))
        assert abs(fock.expectation(res.states[-1], b) - e0 / gamma) < 1e-6

    def test_gamma_zero_matches_pure(self):
        space = fock.make_space([16])
        model = models.h_kerr_single(space, 0.7, 0.2)
        psi0 = fock.coherent_state(space, [1.0])
        times = [0.0, 1.1]
        pure = evolve.evolve_pure(model, psi0, times)
        lind = evolve.evolve_lindblad(model, psi0, times)
        np.testing.assert_allclose(lind.states[1].density(), pure.states[1].density(),
                                   atol=1e-9)

    @pytest.mark.parametrize("name", list(LINDBLAD_CASES))
    def test_matches_full_complex_integration(self, name):
        model, rho0 = LINDBLAD_CASES[name]()
        times = np.linspace(0.0, 3.0, 7)
        res = evolve.evolve_lindblad(model, rho0, times)
        for st, ref in zip(res.states, _full_complex_lindblad(model, rho0, times)):
            assert np.abs(st.data - ref).max() <= 1e-8
            assert np.array_equal(st.data, st.data.conj().T)

    def test_all_zero_times_return_start_density(self, monkeypatch):
        # scipy's solve_ivp cannot integrate over (0, 0), so every sample is
        # rho0's density, taken before anything is integrated
        def integrating(*args, **kwargs):
            raise AssertionError("zero times reached the integrator")

        monkeypatch.setattr(evolve, "solve_ivp", integrating)
        model, psi0 = _damped_coherent()
        for times in ([0.0], [0.0, 0.0]):
            res = evolve.evolve_lindblad(model, psi0, times)
            assert len(res.states) == len(times)
            for st in res.states:
                assert not st.is_pure and np.array_equal(st.data, psi0.density())

    def test_fock_start_integrates_diagonal_set_only(self, monkeypatch):
        model = _damped_number()
        starts = []
        real_solve_ivp = evolve.solve_ivp

        def recording(fun, t_span, y0, **kwargs):
            starts.append(y0)
            return real_solve_ivp(fun, t_span, y0, **kwargs)

        monkeypatch.setattr(evolve, "solve_ivp", recording)
        evolve.evolve_lindblad(model, fock.fock_state(model.space, [3]), [0.0, 1.0])
        d = model.space.total_dim
        assert len(starts) == 1 and starts[0].shape == (d,) and starts[0].dtype == np.float64

    def test_vacuum_start_integrates_real_population_sector_only(self, monkeypatch):
        # H is i times a real matrix, so the population set falls apart into
        # Re and Im halves, and the vacuum occupies the Re half alone
        model = _dpo((10, 6))
        sizes = []
        real_solve_ivp = evolve.solve_ivp

        def recording(fun, t_span, y0, **kwargs):
            sizes.append(len(y0))
            return real_solve_ivp(fun, t_span, y0, **kwargs)

        monkeypatch.setattr(evolve, "solve_ivp", recording)
        evolve.evolve_lindblad(model, fock.vacuum_state(model.space), [0.0, 0.5])
        assert sizes == [930]

    def test_trace_and_hermiticity_checked(self):
        space = fock.make_space([8])
        gamma = 0.5
        model = models.ModelSpec(space, fock.number_operator(space, 0),
                                 dissipators=((fock.annihilation(space, 0), gamma),))
        res = evolve.evolve_lindblad(model, fock.fock_state(space, [3]),
                                     np.linspace(0.0, 3.0, 5))
        for st in res.states:
            assert abs(np.trace(st.data) - 1.0) < 1e-8

    def test_large_negative_eigenvalue_raises(self):
        space = fock.make_space([2])
        with pytest.raises(NumericsError, match="t=0.5"):
            evolve._check_density_sample(space, np.diag([1.001, -0.001]).astype(complex),
                                         0.5, 0.0)

    def test_one_eigenvalue_pass_per_density(self, monkeypatch):
        # the clip's eigvalsh is each density's one eigenvalue pass: its
        # QuantumState does not repeat it, and eigh runs only for a clip
        model = _dpo((6, 4))
        rho0 = fock.vacuum_state(model.space).as_density_state()
        calls = _counting_eigen(monkeypatch)
        evolve.steady_state(model)
        assert calls == ["eigvalsh"]
        calls.clear()
        evolve.evolve_lindblad(model, rho0, [0.5, 1.0])
        assert calls == ["eigvalsh"] * 2
        calls.clear()
        noisy = np.diag([1.0 + 1e-9, -1e-9]).astype(complex)
        state = evolve._check_density_sample(fock.make_space([2]), noisy, 0.5, 0.0)
        assert calls == ["eigvalsh", "eigh"] and state.data[1, 1].real == 0.0


def _dpo(dims):
    return models.dpo_model(fock.make_space(dims), 0.3, 0.8, 0.7, 0.9)


def _dpo_at(dims, ratio):
    """The acceptance oscillator's rates, with the drive at ``ratio`` times
    threshold."""
    kappa, gamma_a, gamma_b = 0.25, 1.0, 2.0
    return models.dpo_model(fock.make_space(dims), kappa, ratio * gamma_a * gamma_b / kappa,
                            gamma_a, gamma_b)


def _damped_number():
    space = fock.make_space([6])
    return models.ModelSpec(space, fock.number_operator(space, 0),
                            dissipators=((fock.annihilation(space, 0), 0.4),))


def _driven_damped():
    space = fock.make_space([14])
    b = fock.annihilation(space, 0)
    h = (1j * 0.4) * (b.dag() - b)
    return models.ModelSpec(space, h, dissipators=((b, 0.8),))


STEADY_MODELS = {
    "dpo-6-4": lambda: _dpo((6, 4)),
    "dpo-7-4": lambda: _dpo((7, 4)),
    "dpo-8-6": lambda: _dpo((8, 6)),
    "damped-6": _damped_number,
    "driven-14": _driven_damped,
}

#: DPO models whose ``auto`` route is pinned: the (12, 12) oscillator is
#: the far-below-threshold model of ``test_oscillator``
ROUTE_MODELS = {
    "dpo-8-6": lambda: _dpo((8, 6)),
    "dpo-10-6": lambda: _dpo((10, 6)),
    "oscillator-12-12": lambda: models.dpo_model(fock.make_space([12, 12]), 0.2, 1.5, 1.0, 1.0),
}

ORDER_MODELS = {**STEADY_MODELS, "dpo-10-6": ROUTE_MODELS["dpo-10-6"]}


def _steady(model, route):
    """The steady density by ``route``: "auto" is ``steady_state``, and
    "dense" the private slow reference ``evolve._steady_dense`` with its
    null vector normalized to trace 1."""
    if route == "auto":
        return evolve.steady_state(model).data
    rho = evolve._steady_dense(model)
    return rho / np.trace(rho).real


def _population_degenerate(dim):
    """|1> decays to |0> and to |2>, and nothing leaves either: both
    populations are steady, in the one sector that holds populations."""
    space = fock.make_space([dim])
    jumps = []
    for target in (0, 2):
        m = np.zeros((dim, dim), dtype=complex)
        m[target, 1] = 1.0
        jumps.append(fock.FieldOperator(space, m))
    return models.ModelSpec(space, 0.0 * fock.number_operator(space, 0),
                            dissipators=((jumps[0], 0.5), (jumps[1], 0.7),
                                         (fock.number_operator(space, 0), 0.4)))


def _traceless_null_vector():
    """sigma_x dephasing keeps sigma_x (x) |0><0| steady as well as the
    trace-one state; that second null vector is traceless and lives in a
    sector without populations."""
    space = fock.make_space([2, 30])
    a = fock.annihilation(space, 0)
    return models.ModelSpec(space, 0.3 * fock.number_operator(space, 1),
                            dissipators=((a + a.dag(), 0.5), (fock.annihilation(space, 1), 0.7)))


def _sector_systems(model, monkeypatch):
    """(A, rhs, rtol) of every system the ladder walks of ``steady_state``
    solve, the walks of mirror sectors included, recorded as the walks
    start; a failing walk's error is dropped."""
    real_solve_sector = evolve._solve_sector
    systems = []

    def recording(A, sector_systems, idx, d, *, borrowed=None):
        systems.extend((A, rhs, rtol) for rhs, rtol in sector_systems)
        return real_solve_sector(A, sector_systems, idx, d, borrowed=borrowed)

    with monkeypatch.context() as patch:
        patch.setattr(evolve, "_solve_sector", recording)
        try:
            evolve.steady_state(model)
        except AmbiguityError:
            pass
    return systems


def _population_densities(monkeypatch):
    """Patch ``evolve._densities`` to record each density that
    ``steady_state`` makes of its population sector's trace-row solve, as
    it comes, before its trace is normalized; returns the record."""
    real_densities = evolve._densities
    made = []

    def recording(xs, idx, d):
        for rho in real_densities(xs, idx, d):
            made.append(rho)
            yield rho

    monkeypatch.setattr(evolve, "_densities", recording)
    return made


def _rung_ilu(A, rung):
    """The incomplete LU of A at ``rung`` of ``evolve.ILU_LADDER``, as
    ``evolve._solve_sector`` factors it."""
    drop_tol, fill, _ = rung
    return scipy.sparse.linalg.spilu(A, drop_tol=drop_tol, fill_factor=fill,
                                     drop_rule=None if fill else "basic", permc_spec="NATURAL")


def _recording_spilu(monkeypatch, failing=()):
    """Record the ``evolve.ILU_LADDER`` rung of every ``spilu`` call of
    ``evolve``; a rung in ``failing`` raises as an exactly singular factor."""
    real_spilu = evolve.spla.spilu
    rungs = []

    def spilu(A, **kwargs):
        factor = (kwargs["drop_tol"], kwargs["fill_factor"])
        rung, = [r for r in evolve.ILU_LADDER if r[:2] == factor]
        if rung in failing:
            raise RuntimeError("Factor is exactly singular")
        rungs.append(rung)
        return real_spilu(A, **kwargs)

    monkeypatch.setattr(evolve.spla, "spilu", spilu)
    return rungs


def _mirror_pairs(model):
    """The number of real sectors of ``model`` whose job also walks a mirror
    sector (``evolve._mirror_partners``)."""
    real = evolve._real_sectors(model)
    partners = evolve._mirror_partners(real, model.space.total_dim)
    return len({partner[0] for partner in partners if partner is not None})


def _random_damped(dims, seed, fill=0.05):
    """A strong random sparse H, 20 (M + M^H) / 2 with M complex Gaussian at
    ``fill`` (5% unless given), and every mode damped at 0.05."""
    space = fock.make_space(dims)
    d = space.total_dim
    rng = np.random.default_rng(seed)
    M = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) \
        * (rng.random((d, d)) < fill)
    return models.ModelSpec(space, fock.FieldOperator(space, 20 * (M + M.conj().T) / 2),
                            dissipators=tuple((fock.annihilation(space, m), 0.05)
                                              for m in range(len(dims))))


def _scipy_gmres(A, solve, rhs, rtol, cycles):
    """scipy's GMRES, the reference for ``evolve._gmres``, at the same
    budget of restart cycles."""
    M = scipy.sparse.linalg.LinearOperator(A.shape, solve, dtype=A.dtype)
    return scipy.sparse.linalg.gmres(A, rhs, M=M, rtol=rtol, atol=0.0, restart=100,
                                     maxiter=cycles)


class TestSteadyState:
    def test_pure_damping_gives_vacuum(self):
        rho = evolve.steady_state(_damped_number())
        vac = np.zeros((6, 6), dtype=complex)
        vac[0, 0] = 1.0
        np.testing.assert_allclose(rho.data, vac, atol=1e-10)

    def test_driven_damped_coherent(self):
        model = _driven_damped()
        rho = evolve.steady_state(model)
        assert abs(fock.expectation(rho, fock.annihilation(model.space, 0)) - 0.5) < 1e-9

    def test_fixed_under_lindblad_step(self):
        # self-consistency oracle: evolving the steady state does not move it
        space = fock.make_space([8, 6])
        model = models.dpo_model(space, 0.3, 0.8, 0.7, 0.9)
        rho = evolve.steady_state(model)
        res = evolve.evolve_lindblad(model, rho, [0.0, 1.7])
        assert np.abs(res.states[1].data - rho.data).max() < 1e-8

    def test_residual_contract(self):
        space = fock.make_space([8, 6])
        model = models.dpo_model(space, 0.3, 0.8, 0.7, 0.9)
        rho = evolve.steady_state(model)
        L = evolve.liouvillian(model)
        assert np.linalg.norm(L @ rho.data.reshape(-1)) < 1e-10

    @pytest.mark.parametrize("name", ["dpo-6-4", "damped-6", "random-5-5-seed0"])
    def test_operator_form_is_the_liouvillian(self, name):
        # the residual of steady_state is measured in operator form; on any
        # matrix, hermitian or not, it is L vec(rho)
        model = {"dpo-6-4": lambda: _dpo((6, 4)), "damped-6": _damped_number,
                 "random-5-5-seed0": lambda: _random_damped((5, 5), 0)}[name]()
        d = model.space.total_dim
        L = evolve.liouvillian(model)
        rng = np.random.default_rng(3)
        for _ in range(3):
            rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for m in (rho, rho + rho.conj().T):
                expected = L @ m.reshape(-1)
                action = evolve._lindblad_action(model, m)
                assert action.shape == (d, d)
                assert (np.linalg.norm(action.reshape(-1) - expected)
                        <= 1e-13 * np.linalg.norm(expected))

    def test_no_liouvillian_alive_while_solving(self, monkeypatch):
        # the d^2 x d^2 complex L is gone before any sector is solved or
        # integrated
        real_liouvillian, real_run_sectors = evolve.liouvillian, evolve._run_sectors
        real_solve_ivp = evolve.solve_ivp
        made = []

        def liouvillian(model):
            L = real_liouvillian(model)
            made.append(weakref.ref(L))
            return L

        def gone():
            assert made and all(ref() is None for ref in made)

        def run_sectors(jobs):
            gone()
            return real_run_sectors(jobs)

        def integrate(*args, **kwargs):
            gone()
            return real_solve_ivp(*args, **kwargs)

        monkeypatch.setattr(evolve, "liouvillian", liouvillian)
        monkeypatch.setattr(evolve, "_run_sectors", run_sectors)
        monkeypatch.setattr(evolve, "solve_ivp", integrate)
        model = _dpo((6, 4))
        rho = evolve.steady_state(model)
        evolve.evolve_lindblad(model, fock.vacuum_state(model.space), [0.5])
        assert len(made) == 2
        assert np.linalg.norm(real_liouvillian(model) @ rho.data.reshape(-1)) < 1e-10

    def test_residual_is_that_of_the_returned_density(self, monkeypatch):
        # a clip that moves rho by 1e-7, within the clip's limit, must fail
        # the residual contract: the residual is measured on the density that
        # is returned, after the clip
        real_clip = evolve._clip_negative_eigenvalues

        def clip(m, where):
            shift = np.zeros_like(m)
            shift[0, 0], shift[1, 1] = 1e-7, -1e-7
            return real_clip(m, where) + shift

        monkeypatch.setattr(evolve, "_clip_negative_eigenvalues", clip)
        with pytest.raises(NumericsError, match="steady-state residual"):
            evolve.steady_state(_dpo((6, 4)))

    def test_no_dissipator_rejected(self):
        space = fock.make_space([5])
        model = models.ModelSpec(space, fock.number_operator(space, 0))
        with pytest.raises(ContractError):
            evolve.steady_state(model)

    def test_degenerate_null_space_detected(self):
        # two uncoupled damped modes with no mixing of an excited subspace:
        # dephasing-only dissipator (via the number operator) conserves all
        # populations, so the null space is massively degenerate
        space = fock.make_space([4])
        model = models.ModelSpec(space, 0.0 * fock.number_operator(space, 0),
                                 dissipators=((fock.number_operator(space, 0), 0.5),))
        for method in STEADY_ROUTES:
            with pytest.raises(AmbiguityError):
                _steady(model, method)

    @pytest.mark.parametrize("method", STEADY_ROUTES + ["ilu"])
    def test_traceless_null_vector_detected(self, method):
        # "ilu" runs the ladder walks of "auto" on the other sectors alone,
        # without the population sector
        model = _traceless_null_vector()
        if method != "ilu":
            with pytest.raises(AmbiguityError):
                _steady(model, method)
            return
        d = model.space.total_dim
        with pytest.raises(AmbiguityError):
            for idx, A in evolve._real_sectors(model)[1:]:
                evolve._solve_sector(A, [evolve._check_system(len(idx))], idx, d)

    def test_second_population_sector_fails_check(self):
        # dephasing alone leaves every population rho_nn a sector of its
        # own; the lowest one after rho_00's is named, as any singular
        # sector is
        space = fock.make_space([4])
        model = models.ModelSpec(space, 0.0 * fock.number_operator(space, 0),
                                 dissipators=((fock.number_operator(space, 0), 0.5),))
        with pytest.raises(AmbiguityError, match=r"from rho\[1, 1\]"):
            evolve.steady_state(model)

    def test_singular_ilu_named_by_rung(self):
        # an exactly singular incomplete factor is reported at the rung
        # that met it, not in SuperLU's words
        space = fock.make_space([4])
        model = models.ModelSpec(space, 0.0 * fock.number_operator(space, 0),
                                 dissipators=((fock.number_operator(space, 0), 0.5),))
        with pytest.raises(AmbiguityError) as info:
            evolve.steady_state(model)
        message = str(info.value)
        for drop_tol, fill, _ in evolve.ILU_LADDER:
            assert f"drop_tol {drop_tol}, fill {fill}: exactly singular incomplete LU" in message
        assert ".c" not in message and "\n" not in message

    def test_population_degenerate_null_space_detected(self):
        for dim in (3, 6):
            model = _population_degenerate(dim)
            for method in STEADY_ROUTES:
                with pytest.raises(AmbiguityError):
                    _steady(model, method)

    @pytest.mark.parametrize("name", list(STEADY_MODELS))
    def test_ilu_matches_dense(self, name):
        model = STEADY_MODELS[name]()
        assert np.abs(_steady(model, "auto") - _steady(model, "dense")).max() < 1e-12

    @pytest.mark.parametrize("method", ["auto", "ilu"])
    def test_steady_state_exactly_hermitian(self, method, monkeypatch):
        # "ilu" takes the density of the real population sector's solve as
        # it comes, before its trace is normalized: the real basis makes it
        # hermitian
        model = _dpo((8, 6))
        if method == "ilu":
            made = _population_densities(monkeypatch)
            evolve.steady_state(model)
            rho, = made
        else:
            rho = evolve.steady_state(model).data
        assert rho.shape == (48, 48) and np.array_equal(rho, rho.conj().T)

    def test_one_nonsingularity_solve_per_mirror_pair(self, monkeypatch):
        # number-conserving: the sectors are the 11 coherence orders n - m,
        # and order k mirrors order -k under rho -> rho^T
        model = _damped_number()
        assert len(fock.sectors(evolve.liouvillian(model))) == 11
        calls = []
        real_solve_sector = evolve._solve_sector

        def counting(A, systems, idx, d, *, borrowed=None):
            calls.append(A.dtype)
            return real_solve_sector(A, systems, idx, d, borrowed=borrowed)

        monkeypatch.setattr(evolve, "_solve_sector", counting)
        evolve.steady_state(model)
        # one ladder walk per mirror pair, the population sector's included,
        # all real; H is not i times a real matrix, so no real sector is
        # another's mirror
        assert calls == [np.float64] * 6
        real = evolve._real_sectors(model)
        assert evolve._mirror_partners(real, model.space.total_dim) == [None] * 6

    def test_failed_population_check_raises(self, monkeypatch):
        # the population sector's trace-row system must pass the check that
        # every other sector passes; here GMRES fails on the check's fixed
        # random right-hand side
        model = _dpo((8, 6))
        check = np.random.default_rng(0).standard_normal(len(evolve._real_sectors(model)[0][0]))
        real_gmres = evolve._gmres
        checks = []

        def gmres(A, solve, rhs, rtol, cycles):
            if np.array_equal(rhs, check):
                checks.append(A.shape)
                return np.zeros_like(rhs), 0, 1.0
            return real_gmres(A, solve, rhs, rtol, cycles)

        monkeypatch.setattr(evolve, "_gmres", gmres)
        with pytest.raises(AmbiguityError, match=r"from rho\[0, 0\]") as info:
            evolve.steady_state(model)
        # once per rung of the sector's one ladder walk, and the error says
        # how each rung failed
        assert len(checks) == len(evolve.ILU_LADDER)
        failures = str(info.value).partition("failed on every rung: ")[2].rstrip(")").split("; ")
        assert failures == [f"drop_tol {drop_tol}, fill {fill}: GMRES reached residual "
                            f"1e+00 > 1e-08 after 0 iterations"
                            for drop_tol, fill, _ in evolve.ILU_LADDER]

    def test_population_degenerate_solve_fails_check(self, monkeypatch):
        # a two-dimensional null space in the population sector, whose
        # trace-row solve is made to succeed: that system is singular, so
        # the check on a random right-hand side still fails, in GMRES. SuperLU
        # finds the system itself exactly singular on every rung, so each
        # rung factors it shifted by 1e-8 I. The trace-row system is picked
        # out by its size and right-hand side, whichever thread reaches
        # GMRES first
        model = _population_degenerate(3)
        size = len(evolve._real_sectors(model)[0][0])
        check, _ = evolve._check_system(size)
        real_spilu, real_gmres = evolve.spla.spilu, evolve._gmres
        solved, checks = [], []

        def shifted(A, **kwargs):
            return real_spilu((A + 1e-8 * scipy.sparse.identity(A.shape[0])).tocsc(), **kwargs)

        def gmres(A, solve, rhs, rtol, cycles):
            if len(rhs) == size and np.count_nonzero(rhs) == 1 and rhs[0] == 1.0:
                solved.append(np.linalg.lstsq(A.toarray(), rhs, rcond=None)[0])
                return solved[-1], 1, 0.0
            if np.array_equal(rhs, check):
                checks.append(A.shape)
            return real_gmres(A, solve, rhs, rtol, cycles)

        monkeypatch.setattr(evolve.spla, "spilu", shifted)
        monkeypatch.setattr(evolve, "_gmres", gmres)
        with pytest.raises(AmbiguityError, match=r"from rho\[0, 0\]") as info:
            evolve.steady_state(model)
        # the failure says how far each rung's GMRES got
        for drop_tol, fill, _ in evolve.ILU_LADDER:
            assert f"drop_tol {drop_tol}, fill {fill}: GMRES reached residual " in str(info.value)
        assert str(info.value).endswith(" iterations)")
        # the check comes first and fails on every rung, so the failing
        # sector never reaches its solve
        assert checks == [(size, size)] * len(evolve.ILU_LADDER) and solved == []

    @pytest.mark.parametrize("dims, reference", [((8, 6), "dense"), ((12, 8), "auto")],
                             ids=["dpo-8-6", "dpo-12-8"])
    def test_ladder_falls_back_to_next_rung(self, dims, reference, monkeypatch):
        # with the first rung's factorization made to fail, every sector is
        # solved on the second, and the steady state still matches the
        # reference: the dense one at (8, 6), and at (12, 8), where a dense
        # eig of each sector takes ~20 s, the unpatched route's. Each mirror
        # sector's check converges under its partner's second-rung factor
        # within the first rung's budget, so only the two partners factor
        model = _dpo(dims)
        expected = _steady(model, reference)
        served = _recording_spilu(monkeypatch, failing=(evolve.ILU_LADDER[0],))
        rho = _steady(model, "auto")
        assert _mirror_pairs(model) == 2
        assert served == [evolve.ILU_LADDER[1]] * 2
        assert np.abs(rho - expected).max() < 1e-12

    def test_ladder_falls_back_on_exactly_singular_first_rung(self):
        # a strong random sparse H, weakly damped, whose nonsingular
        # trace-row system leaves the first rung's incomplete LU exactly
        # singular, unforced: the walk goes on to the last rung, which
        # serves it
        model = _random_damped((6,), 1)
        d = model.space.total_dim
        (idx, Lr), = evolve._real_sectors(model)
        A = scipy.sparse.vstack([scipy.sparse.csr_matrix((idx // d == idx % d).astype(float)),
                                 Lr[1:]], format="csc")
        assert np.linalg.matrix_rank(A.toarray()) == len(idx)
        with pytest.raises(RuntimeError, match="singular"):
            _rung_ilu(A, evolve.ILU_LADDER[0])
        ilu = _rung_ilu(A, evolve.ILU_LADDER[-1])
        rhs = np.zeros(len(idx))
        rhs[0] = 1.0
        systems = [evolve._check_system(len(idx)), (rhs, 1e-13)]
        xs, solve = evolve._solve_sector(A, systems, idx, d)
        for x, (b, rtol) in zip(xs, systems, strict=True):
            assert np.array_equal(x, evolve._gmres(A, ilu.solve, b, rtol,
                                                   evolve.ILU_LADDER[-1][2])[0])
            # the walk returns the serving factor, the last rung's
            assert np.array_equal(solve(b), ilu.solve(b))
        assert np.abs(_steady(model, "auto") - _steady(model, "dense")).max() < 1e-11

    @pytest.mark.parametrize("name", list(ORDER_MODELS))
    def test_band_order_matches_minimum_degree(self, name, monkeypatch):
        # the sector ILUs factor in band order; the minimum-degree order
        # they replace is the reference
        model = ORDER_MODELS[name]()
        shipped = evolve.steady_state(model).data
        real_spilu = evolve.spla.spilu

        def minimum_degree(A, **kwargs):
            return real_spilu(A, **{**kwargs, "permc_spec": "MMD_AT_PLUS_A"})

        monkeypatch.setattr(evolve.spla, "spilu", minimum_degree)
        reference = evolve.steady_state(model).data
        assert np.abs(shipped - reference).max() < 1e-12

    @pytest.mark.parametrize("dims", [(6, 4), (10, 6), (13, 15)],
                             ids=["dpo-6-4", "dpo-10-6", "dpo-13-15"])
    def test_gmres_matches_scipy(self, dims, monkeypatch):
        # the in-package GMRES against scipy's under the same first-rung ILU
        # and budget, on every check system and the trace-row system of the
        # shipped route
        cycles = evolve.ILU_LADDER[0][2]
        for A, rhs, rtol in _sector_systems(_dpo(dims), monkeypatch):
            ilu = _rung_ilu(A, evolve.ILU_LADDER[0])
            x, _, residual = evolve._gmres(A, ilu.solve, rhs, rtol, cycles)
            reference, info = _scipy_gmres(A, ilu.solve, rhs, rtol, cycles)
            assert info == 0 and residual <= rtol
            assert np.linalg.norm(rhs - A @ x) <= rtol * np.linalg.norm(rhs)
            # both residuals are within rtol ||b||, and A^-1 amplifies their
            # difference by at most ~4 on these systems
            assert np.linalg.norm(x - reference) <= 100 * rtol * np.linalg.norm(reference)

    @pytest.mark.parametrize("name", ["population-degenerate-3", "traceless-null-vector"])
    def test_gmres_fails_on_singular_check_system_as_scipy_does(self, name, monkeypatch):
        # the check's random right-hand side is outside the range of a
        # singular system. SuperLU finds each such system exactly singular on
        # every rung, so both solvers run under the first rung's ILU of
        # A + 1e-8 I. On the traceless model's system each cycle's estimate
        # meets rtol while the true residual does not fall, and the
        # in-package solve ends after the first such cycle, not after the
        # 400-cycle budget of the second rung
        model = {"population-degenerate-3": lambda: _population_degenerate(3),
                 "traceless-null-vector": _traceless_null_vector}[name]()
        singular = [(A, rhs, rtol) for A, rhs, rtol in _sector_systems(model, monkeypatch)
                    if np.linalg.matrix_rank(A.toarray()) < A.shape[0]
                    and np.array_equal(rhs, evolve._check_system(len(rhs))[0])]
        assert singular
        for A, rhs, rtol in singular:
            ilu = _rung_ilu((A + 1e-8 * scipy.sparse.identity(A.shape[0])).tocsc(),
                            evolve.ILU_LADDER[0])
            _, iters, residual = evolve._gmres(A, ilu.solve, rhs, rtol, 400)
            _, info = _scipy_gmres(A, ilu.solve, rhs, rtol, 400)
            assert residual > rtol and info != 0 and iters <= 200

    def test_gmres_lucky_breakdown_is_exact(self):
        # three distinct eigenvalues: the Krylov space of an unpreconditioned
        # diagonal system is invariant after three steps, and holds A^-1 b
        diagonal = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        rhs = np.arange(1.0, 7.0)
        x, iters, residual = evolve._gmres(scipy.sparse.diags(diagonal).tocsc(), np.copy,
                                           rhs, 1e-12, 1)
        assert iters == 3 and residual <= 1e-12
        np.testing.assert_allclose(x, rhs / diagonal, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", list(ROUTE_MODELS))
    def test_route_is_pinned(self, name, monkeypatch):
        model = ROUTE_MODELS[name]()
        real_gmres = evolve._gmres
        rungs, solves = _recording_spilu(monkeypatch), []

        def gmres(A, solve, rhs, rtol, cycles):
            solves.append(A.shape)
            return real_gmres(A, solve, rhs, rtol, cycles)

        monkeypatch.setattr(evolve, "_gmres", gmres)
        evolve.steady_state(model)
        # the population sector and the Re half of the odd-parity set each
        # factor on the first rung, and their mirrors, the Im halves of the
        # two sets, are checked under those factors; GMRES runs the
        # population solve and the four sectors' checks, that of the
        # population system under the solve's preconditioner
        assert rungs == [evolve.ILU_LADDER[0]] * 2
        assert len(solves) == 5

    def test_every_rung_factors_population_system(self, monkeypatch):
        # the trace-row system of the real population sector, the Re half of
        # its set
        model = _dpo((8, 6))
        size = len(evolve._real_sectors(model)[0][0])
        assert size < len(fock.sectors(evolve.liouvillian(model))[0])
        real_spilu, real_gmres = evolve.spla.spilu, evolve._gmres
        orders, systems = [], []

        def spilu(A, **kwargs):
            orders.append(kwargs["permc_spec"])
            return real_spilu(A, **kwargs)

        def gmres(A, solve, rhs, rtol, cycles):
            # the trace row is rho_00's, the first
            if len(rhs) == size and np.count_nonzero(rhs) == 1 and rhs[0] == 1.0:
                systems.append(A)
            return real_gmres(A, solve, rhs, rtol, cycles)

        monkeypatch.setattr(evolve.spla, "spilu", spilu)
        monkeypatch.setattr(evolve, "_gmres", gmres)
        evolve.steady_state(model)
        assert len(systems) == 1 and set(orders) == {"NATURAL"}
        for rung in evolve.ILU_LADDER:
            _rung_ilu(systems[0], rung)

    @pytest.mark.parametrize("dims", [(8, 6), (12, 8)], ids=["dpo-8-6", "dpo-12-8"])
    def test_pool_size_leaves_solution_bit_identical(self, dims, monkeypatch):
        # one CPU leaves one pool worker; four let every other sector's
        # check run beside the population solve
        model = _dpo(dims)
        runs = _population_densities(monkeypatch)
        for cpus in ({0, 1, 2, 3}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            evolve.steady_state(model)
        rho, rho_1 = runs
        assert rho.shape == (model.space.total_dim,) * 2 and np.array_equal(rho, rho_1)

    def test_every_job_runs_in_the_callers_errstate(self, monkeypatch):
        # numpy's errstate is a context variable and a pool worker starts
        # from a fresh context; the population job holds the calling thread
        # while the one worker takes the others
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        seen = []

        def job(k):
            if k == 0:
                time.sleep(0.05)
            seen.append((k, np.geterr()["over"], np.geterr()["invalid"]))
            return k

        with np.errstate(over="raise", invalid="raise"):
            evolve._run_sectors([functools.partial(job, k) for k in range(4)])
        assert sorted(seen) == [(k, "raise", "raise") for k in range(4)]

    def test_first_sparse_solve_in_fresh_interpreter_bit_identical(self):
        # evolve imports scipy.sparse.linalg on first use, so in a fresh
        # interpreter the pool's worker makes its first read of evolve.spla
        # while the calling thread may still be making its own
        probe = (
            "import hashlib, sys\n"
            "from nlo_quanta import evolve, fock, models\n"
            "model = models.dpo_model(fock.make_space([6, 4]), 0.3, 0.8, 0.7, 0.9)\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n"
            "print(hashlib.sha256(evolve.steady_state(model).data.tobytes()).hexdigest())\n")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        rho = evolve.steady_state(_dpo((6, 4))).data
        assert proc.stdout.strip() == hashlib.sha256(rho.tobytes()).hexdigest()

    def test_lowest_failing_sector_named(self, monkeypatch):
        # GMRES fails, after a random delay, on every system of a sector
        # without populations, so the ILU ladder walk of each such sector's
        # check fails; the error named is always that of the lowest one
        model = _dpo((8, 6))
        d = model.space.total_dim
        real = evolve._real_sectors(model)
        size = len(real[0][0])
        assert all(len(idx) != size for idx, _ in real[1:])
        n, m = divmod(int(real[1][0][0]), d)
        real_gmres = evolve._gmres
        delays = np.random.default_rng(1)

        def failing(A, solve, rhs, rtol, cycles):
            if len(rhs) == size:  # the population solve and its check
                return real_gmres(A, solve, rhs, rtol, cycles)
            time.sleep(delays.uniform(0.0, 0.02))
            return np.zeros_like(rhs), 0, 1.0

        monkeypatch.setattr(evolve, "_gmres", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for _ in range(5):
            with pytest.raises(AmbiguityError, match=rf"from rho\[{n}, {m}\]"):
                evolve.steady_state(model)

    def test_error_order_failing_partner_named_and_its_mirror_never_walked(self, monkeypatch):
        # GMRES fails on every system of sector 1, the Re half of the odd
        # set: its walk raises, and its mirror, sector 3, the Im half, has
        # no serving factor to borrow and is never walked; sector 2, the
        # population sector's mirror, is
        model = _dpo((8, 6))
        d = model.space.total_dim
        real = evolve._real_sectors(model)
        partners = evolve._mirror_partners(real, d)
        assert [None if p is None else p[0] for p in partners] == [None, None, 0, 1]
        monkeypatch.setattr(evolve, "_real_sectors", lambda _: real)
        real_gmres, real_solve_sector = evolve._gmres, evolve._solve_sector
        walked = []

        def gmres(A, solve, rhs, rtol, cycles):
            if A is real[1][1]:
                return np.zeros_like(rhs), 0, 1.0
            return real_gmres(A, solve, rhs, rtol, cycles)

        def recording(A, systems, idx, d, *, borrowed=None):
            walked.append(int(idx[0]))
            return real_solve_sector(A, systems, idx, d, borrowed=borrowed)

        monkeypatch.setattr(evolve, "_gmres", gmres)
        monkeypatch.setattr(evolve, "_solve_sector", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        n, m = divmod(int(real[1][0][0]), d)
        for _ in range(3):
            walked.clear()
            with pytest.raises(AmbiguityError, match=rf"from rho\[{n}, {m}\]") as info:
                evolve.steady_state(model)
            assert "mirror of" not in str(info.value)
            assert sorted(walked) == [int(idx[0]) for idx, _ in real[:3]]

    @pytest.mark.parametrize("lower, higher", [(AmbiguityError, FloatingPointError),
                                               (FloatingPointError, AmbiguityError)],
                             ids=["ambiguity-below-fpe", "fpe-below-ambiguity"])
    def test_error_order_lower_sector_wins_whatever_the_type(self, lower, higher, monkeypatch):
        # sector 1, the Re half of the odd set, is walked on a pool worker,
        # and sector 2, the population sector's mirror, in the population
        # job on the calling thread. One raises AmbiguityError, GMRES
        # failing on all its systems, and the other FloatingPointError,
        # from GMRES itself. GMRES sleeps at random, and in alternate runs
        # each of the two holds its failure until the other's walk has
        # failed, so each fails first in some run: sector 1's error is
        # raised whatever the timing and whichever type it has
        model = _dpo((8, 6))
        d = model.space.total_dim
        real = evolve._real_sectors(model)
        partners = evolve._mirror_partners(real, d)
        assert [None if p is None else p[0] for p in partners] == [None, None, 0, 1]
        monkeypatch.setattr(evolve, "_real_sectors", lambda _: real)
        errors, failed, waits = {1: lower, 2: higher}, {}, {}
        real_gmres, real_solve_sector = evolve._gmres, evolve._solve_sector
        delays = np.random.default_rng(3)

        def gmres(A, solve, rhs, rtol, cycles):
            time.sleep(delays.uniform(0.0, 0.01))
            for k, error in errors.items():
                if A is real[k][1]:
                    if k in waits:
                        failed[waits[k]].wait(10.0)
                    if error is FloatingPointError:
                        raise FloatingPointError("overflow in the sector from rho[{}, {}]"
                                                 .format(*divmod(int(real[k][0][0]), d)))
                    return np.zeros_like(rhs), 0, 1.0
            return real_gmres(A, solve, rhs, rtol, cycles)

        def recording(A, systems, idx, d, *, borrowed=None):
            try:
                return real_solve_sector(A, systems, idx, d, borrowed=borrowed)
            except Exception:
                for k in errors:
                    if idx is real[k][0]:
                        failed[k].set()
                raise

        monkeypatch.setattr(evolve, "_gmres", gmres)
        monkeypatch.setattr(evolve, "_solve_sector", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        n, m = divmod(int(real[1][0][0]), d)
        for run in range(4):
            failed.update((k, threading.Event()) for k in errors)
            waits.clear()
            waits.update({1: 2} if run % 2 else {2: 1})
            with pytest.raises(lower, match=rf"from rho\[{n}, {m}\]"):
                evolve.steady_state(model)
            # the sector that waited failed too, after the other
            assert all(event.is_set() for event in failed.values())

    @pytest.mark.parametrize("method", STEADY_ROUTES)
    def test_null_vector_in_im_half_of_population_set_detected(self, method):
        # H and the dissipator are both sigma_y = i(a^dag - a): rho = 1/2 and
        # sigma_y are both steady. sigma_y's coordinate Im rho_01 is the Im
        # half of the population set, a sector of its own
        space = fock.make_space([2])
        a = fock.annihilation(space, 0)
        sigma_y = 1j * (a.dag() - a)
        model = models.ModelSpec(space, 0.3 * sigma_y, dissipators=((sigma_y, 0.5),))
        assert [list(idx) for idx, _ in evolve._real_sectors(model)] == [[0, 1, 3], [2]]
        with pytest.raises(AmbiguityError):
            _steady(model, method)


def _hermitian_basis(d):
    """Sparse maps S and S^-1 between vec(rho) and the real coordinates x
    of ``evolve._coordinate_pairs``: (S x)_q = x[re[q]] + i s[q] x[im[q]],
    so S maps every real vector to a hermitian matrix. Its entries are 1
    and +-i; S^-1 = diag(w) S^H, with w = 1 on rho_nn's and 1/2 elsewhere,
    has entries 1 and +-1/2 and +-i/2, so both products are exact. The
    slow reference for ``evolve._densities`` and ``evolve._real_coordinates``,
    which gather through the coordinate pairs instead."""
    re, im, sign = evolve._coordinate_pairs(d)
    q = np.arange(d * d)
    off = np.flatnonzero(sign)
    S = scipy.sparse.csc_matrix((np.concatenate([np.ones(d * d), 1j * sign[off]]),
                                 (np.concatenate([q, off]), np.concatenate([re, im[off]]))),
                                shape=(d * d, d * d))
    return S, (scipy.sparse.diags(np.where(sign == 0, 1.0, 0.5)) @ S.conj().T).tocsc()


def _reference_real_sectors(model):
    """Slow reference for ``evolve._real_sectors``: the two-level split it
    replaces. ``fock.sectors`` of |L| + T, T the map rho -> rho^T, gives the
    sets closed under rho -> rho^T; S^-1 L S on each set is real, and each
    real block is split again by ``fock.sectors`` of its own pattern."""
    d = model.space.total_dim
    L = evolve.liouvillian(model)
    k = np.arange(d * d)
    T = scipy.sparse.csr_matrix((np.ones(d * d), (k, (k % d) * d + k // d)), shape=(d * d, d * d))
    S, S_inv = _hermitian_basis(d)
    pairs = []
    for block in fock.sectors(abs(L) + T):
        # S couples only the two entries of a mirror pair, so its block on a
        # set closed under rho -> rho^T is that set's own basis
        Lc = (S_inv[block][:, block] @ L[block][:, block] @ S[block][:, block]).tocsc()
        assert abs(Lc.imag).max() == 0.0
        Lr = Lc.real.copy()
        Lr.eliminate_zeros()
        pairs += [(block[sub], Lr[sub][:, sub]) for sub in fock.sectors(Lr)]
    return sorted(pairs, key=lambda pair: pair[0][0])


#: models whose real sectors are compared with the slow reference: a slice
#: of the DPO threshold sweep, number-conserving and driven damping, the
#: 5%-fill random family, a 30%-fill complex H and a dissipator a + a-dag
#: that couples each coherence to its mirror's neighbours
REAL_SECTOR_MODELS = {
    **{f"dpo-{dims[0]}-{dims[1]}-ratio-{ratio}": functools.partial(_dpo_at, dims, ratio)
       for dims in [(6, 4), (8, 6), (12, 8)] for ratio in (0.05, 0.9, 3.0)},
    "dpo-8-6": lambda: _dpo((8, 6)),
    "damped-6": _damped_number,
    "driven-14": _driven_damped,
    **{f"random-{'-'.join(map(str, dims))}-seed{seed}": functools.partial(_random_damped, dims, seed)
       for dims, seed in [((20,), 0), ((6,), 1), ((5, 5), 0), ((8, 6), 0), ((4, 4, 3), 0)]},
    **{f"random-30pct-6-4-seed{seed}": functools.partial(_random_damped, (6, 4), seed, 0.3)
       for seed in (0, 1)},
    "traceless-null-vector": _traceless_null_vector,
}


class TestRealSectors:
    """``evolve._real_sectors`` scatters the rows rho_nm, n <= m, of L into
    the real generator of the whole space and splits it once."""

    @pytest.mark.parametrize("name", list(REAL_SECTOR_MODELS))
    def test_matches_two_level_split_exactly(self, name):
        model = REAL_SECTOR_MODELS[name]()
        shipped, reference = evolve._real_sectors(model), _reference_real_sectors(model)
        assert len(shipped) == len(reference)
        for (idx, A), (ref_idx, ref_A) in zip(shipped, reference):
            assert np.array_equal(idx, ref_idx)
            assert A.format == "csc" and A.dtype == np.float64
            assert A.nnz == ref_A.nnz and (A != ref_A).nnz == 0

    def test_basis_maps_are_exact_inverses(self):
        d = _dpo((8, 6)).space.total_dim
        S, S_inv = _hermitian_basis(d)
        assert abs(S_inv @ S - scipy.sparse.identity(d * d)).max() == 0.0

    @pytest.mark.parametrize("d", [1, 2, 5, 48])
    def test_coordinate_maps_match_basis_products_bit_for_bit(self, d):
        # the gathers of _densities and _real_coordinates give the bits of
        # the sparse products S x and S^-1 vec(rho), signed zeros included:
        # every part that is zero is +0.0 on both sides, though x and rho
        # hold -0.0 entries
        S, S_inv = _hermitian_basis(d)
        rng = np.random.default_rng(d)
        for _ in range(20):
            idx = np.sort(rng.choice(d * d, size=rng.integers(1, d * d + 1), replace=False))
            x = rng.standard_normal(len(idx)) * (rng.random(len(idx)) < 0.7)
            x[rng.random(len(idx)) < 0.3] = -0.0
            rho, = evolve._densities([x], idx, d)
            expected = (S[:, idx] @ x).reshape(d, d)
            assert rho.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m.real[rng.random((d, d)) < 0.3] = -0.0
            m.imag[rng.random((d, d)) < 0.3] = -0.0
            for matrix in (m, m + m.conj().T, rho):
                expected = (S_inv @ matrix.reshape(-1)).real
                assert (evolve._real_coordinates(matrix).view(np.uint64).tobytes()
                        == expected.view(np.uint64).tobytes())


class TestFallbackRung:
    """The last rung of ``evolve.ILU_LADDER`` drops by tolerance alone, and
    serves nonsingular sectors that the first rung does not."""

    @pytest.mark.parametrize("dims, seed", [((20,), 0), ((20,), 1), ((5, 5), 0)],
                             ids=["20-seed0", "20-seed1", "5-5-seed0"])
    def test_random_damped_matches_dense(self, dims, seed, monkeypatch):
        # each has a single null eigenvalue, so its steady state is unique;
        # the walk reaches the last rung, whose factor under the area rule was
        # exactly singular or left GMRES short of rtol
        model = _random_damped(dims, seed)
        rungs = _recording_spilu(monkeypatch)
        rho = _steady(model, "auto")
        assert rungs[-1] == evolve.ILU_LADDER[-1]
        assert np.abs(rho - _steady(model, "dense")).max() < 1e-10

    def test_dpo_at_three_times_threshold_served_by_last_rung(self, monkeypatch):
        # the first rung serves every sector of this oscillator; with every
        # rung before the last made to fail, the last rung serves them all:
        # the last rung's factor of each partner serves its mirror's check too
        model = _dpo_at((12, 8), 3.0)
        expected = evolve.steady_state(model).data
        rungs = _recording_spilu(monkeypatch, failing=evolve.ILU_LADDER[:-1])
        rho = evolve.steady_state(model).data
        assert _mirror_pairs(model) == 2
        assert rungs == [evolve.ILU_LADDER[-1]] * 2
        assert np.abs(rho - expected).max() < 1e-10


class TestLadderBudget:
    """The first rung of ``evolve.ILU_LADDER`` runs GMRES for at most its
    budget of restart cycles, 100 iterations each."""

    def test_budget_bounds_iterations_and_reports_true_residual(self):
        # unpreconditioned, a spread spectrum converges slowly, each cycle
        # lowering the residual: the budget, not the stall stop, ends it
        A = scipy.sparse.diags(np.linspace(1.0, 1e4, 2000)).tocsc()
        rhs = np.ones(2000)
        x, iters, residual = evolve._gmres(A, np.copy, rhs, 1e-12, cycles=2)
        assert iters == 200 and residual > 1e-12
        assert residual == np.linalg.norm(rhs - A @ x) / np.linalg.norm(rhs)
        assert evolve._gmres(A, np.copy, rhs, 1e-12, cycles=3)[1] == 300

    def test_borrowed_try_gives_up_once_its_budget_cannot_reach_rtol(self):
        # the borrowed try's GMRES, on unpreconditioned diagonal systems. On
        # the spectrum 1..400 one cycle leaves 1.2e-5, which a second cycle
        # as good would take below 1e-8, so it runs on and returns _gmres's
        # bits; on 1..1e4 one cycle leaves 1.3e-2, and it gives up there,
        # where _gmres would spend the whole budget (see the test above)
        rhs = np.ones(2000)
        cycles = evolve.ILU_LADDER[0][2]
        A = scipy.sparse.diags(np.linspace(1.0, 400.0, 2000)).tocsc()
        x, iters, residual = evolve._promising_gmres(A, np.copy, rhs, 1e-8, cycles)
        reference = evolve._gmres(A, np.copy, rhs, 1e-8, cycles)
        assert 100 < iters == reference[1] and residual == reference[2] <= 1e-8
        assert np.array_equal(x, reference[0])
        A = scipy.sparse.diags(np.linspace(1.0, 1e4, 2000)).tocsc()
        _, iters, residual = evolve._promising_gmres(A, np.copy, rhs, 1e-8, cycles)
        assert iters == 100 and residual == evolve._gmres(A, np.copy, rhs, 1e-8, 1)[2]
        assert residual ** cycles > 1e-8

    def test_failed_first_rung_costs_its_budget_then_walks_on_from_the_second(self, monkeypatch):
        # DPO (10, 8) at four times threshold: under the first rung's factor
        # the population sector's check does not converge within the rung's
        # budget, and the second rung serves it. Its mirror, the Im half of
        # the population set, does not converge under that borrowed factor
        # either: one cycle of 100 iterations leaves a residual too high for
        # the rest of the first rung's budget to reach 1e-8 at that rate, so
        # the try gives up, and the mirror walks its own ladder from the
        # first rung. Each such walk returns what a walk started at its next
        # step returns, to the bit: the population sector's a walk from the
        # second rung, the mirror's a walk with nothing borrowed. The walks
        # of steady_state are recorded, then run again one at a time
        walks = []
        real_solve_sector, real_gmres = evolve._solve_sector, evolve._gmres

        def recording(*walk, **kwargs):
            walks.append((walk, kwargs.get("borrowed")))
            return real_solve_sector(*walk, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(evolve, "_solve_sector", recording)
            evolve.steady_state(_dpo_at((10, 8), 4.0))
        runs = []
        starts = []

        def gmres(A, solve, rhs, rtol, cycles):
            out = real_gmres(A, solve, rhs, rtol, cycles)
            # a call on a system's own right-hand side starts that system;
            # the borrowed try's second call runs on the first's residual
            runs.append((solve.__name__ == "mirrored", any(rhs is b for b in starts),
                         cycles, out[1], out[2] <= rtol))
            return out

        monkeypatch.setattr(evolve, "_gmres", gmres)
        budget = evolve.ILU_LADDER[0][2]
        assert all(cycles != budget for *_, cycles in evolve.ILU_LADDER[1:])
        failed = []
        for walk, borrowed in walks:
            runs.clear()
            starts[:] = [rhs for rhs, _ in walk[1]]
            xs, solve = evolve._solve_sector(*walk, borrowed=borrowed)
            # the first step: the borrowed try, or else the first rung
            first = [(start, cycles, iters, converged)
                     for lent, start, cycles, iters, converged in runs
                     if lent or borrowed is None and cycles == budget]
            # each system's iterations and whether its last call converged
            systems = []
            for start, _, iters, converged in first:
                if start:
                    systems.append([0, False])
                systems[-1][0] += iters
                systems[-1][1] = converged
            assert systems and all(iters <= 100 * budget for iters, _ in systems)
            if all(converged for _, converged in systems):
                # a borrowed try that serves hands back the borrowed solve
                assert borrowed is None or solve is borrowed[0]
                continue
            failed.append((len(walk[1]), borrowed is not None))
            # a borrowed try that gives up makes one GMRES call
            assert first == ([(True, 1, 100, False)] if borrowed else
                             [(True, budget, 100 * budget, False)])
            with monkeypatch.context() as patch:
                if borrowed is None:
                    patch.setattr(evolve, "ILU_LADDER", evolve.ILU_LADDER[1:])
                restarted, _ = evolve._solve_sector(*walk)
            assert all(np.array_equal(x, y) for x, y in zip(xs, restarted, strict=True))
        # the population sector's walk, its check then its solve, and its
        # mirror's, a check alone
        assert failed == [(2, False), (1, True)]


class TestLadderSweep:
    """A slice of the DPO threshold sweep that the ladder rests on: below
    threshold the first rung serves every sector, each mirror under its
    partner's factor, and above it no sector needs the last rung."""

    @pytest.mark.parametrize("ratio", [0.05, 0.9, 3.0])
    @pytest.mark.parametrize("dims", [(6, 4), (8, 6), (12, 8)],
                             ids=["dpo-6-4", "dpo-8-6", "dpo-12-8"])
    def test_served_rungs(self, dims, ratio, monkeypatch):
        model = _dpo_at(dims, ratio)
        rungs = _recording_spilu(monkeypatch)
        rho = _steady(model, "auto")
        if ratio < 1.0:
            # one first-rung factor per mirror pair: each Im half's check
            # converges under the factor of its Re half
            assert _mirror_pairs(model) == 2
            assert rungs == [evolve.ILU_LADDER[0]] * 2
        else:
            assert evolve.ILU_LADDER[-1] not in rungs
        # a dense eig of each (12, 8) sector takes ~20 s, and of each (8, 6)
        # one ~0.3 s; test_ilu_matches_dense covers (8, 6) below threshold
        if dims == (6, 4) or dims == (8, 6) and ratio > 1.0:
            assert np.abs(rho - _steady(model, "dense")).max() < 1e-10


class TestMirrorPairs:
    """A mirror sector, the Im half of a set that splits, is checked under
    its partner's serving factor, mapped through rho -> rho^T, and walks
    its own ladder only when that borrowed try misses."""

    @pytest.mark.parametrize("ratio", [0.05, 0.9, 3.0])
    @pytest.mark.parametrize("dims", [(6, 4), (8, 6), (12, 8)],
                             ids=["dpo-6-4", "dpo-8-6", "dpo-12-8"])
    def test_shared_factors_leave_steady_state_bit_identical(self, dims, ratio, monkeypatch):
        # the unshared route, every sector walking its own ladder, is the
        # reference; at ratio 3 the population set's Im half misses under
        # the borrowed factor and walks its own ladder
        model = _dpo_at(dims, ratio)
        shared = evolve.steady_state(model).data
        monkeypatch.setattr(evolve, "_mirror_partners", lambda real, d: [None] * len(real))
        rungs = _recording_spilu(monkeypatch)
        unshared = evolve.steady_state(model).data
        assert len(rungs) == len(evolve._real_sectors(model)) == 4
        assert shared.tobytes() == unshared.tobytes()

    def test_mirror_halves_differ_from_their_partners_in_sign_alone(self):
        # why the factor is shared and both checks stay: under the mirror
        # map the odd set's Im half has its Re half's pattern and |entries|,
        # bit for bit, but 360 of its 4768 entries have the other sign, so
        # one half's check does not prove the other nonsingular
        model = _dpo((8, 6))
        real = evolve._real_sectors(model)
        partners = evolve._mirror_partners(real, model.space.total_dim)
        assert [None if p is None else p[0] for p in partners] == [None, None, 0, 1]
        positions = partners[3][1]
        im_half, mapped = real[3][1], real[1][1][positions][:, positions]
        assert len(positions) == real[1][1].shape[0]
        assert mapped.nnz == im_half.nnz and (abs(mapped) != abs(im_half)).nnz == 0
        assert (mapped != im_half).nnz == 360

    @pytest.mark.parametrize("failing", [(), "first"], ids=["served", "first-rung-fails"])
    def test_missed_borrowed_check_walks_from_first_rung(self, failing, monkeypatch):
        # every check under a borrowed factor is made to miss, its first
        # cycle leaving the residual at 1. It runs its first GMRES cycle
        # alone within the first rung's budget, also when the partner was
        # served by the second rung, at 400 cycles, and a residual of 1
        # ends it after that cycle; then the mirror walks its own ladder
        # from the first rung, and the steady state does not move
        model = _dpo((8, 6))
        failing = evolve.ILU_LADDER[:1] if failing else ()
        rungs = _recording_spilu(monkeypatch, failing=failing)
        expected = evolve.steady_state(model).data
        rungs.clear()
        real_gmres = evolve._gmres
        borrowed = []

        def gmres(A, solve, rhs, rtol, cycles):
            if solve.__name__ == "mirrored":
                borrowed.append((A.shape[0], cycles))
                return np.zeros_like(rhs), 100 * cycles, 1.0
            return real_gmres(A, solve, rhs, rtol, cycles)

        monkeypatch.setattr(evolve, "_gmres", gmres)
        rho = evolve.steady_state(model).data
        assert sorted(borrowed) == [(552, 1), (576, 1)]
        served = evolve.ILU_LADDER[1] if failing else evolve.ILU_LADDER[0]
        assert rungs == [served] * 4
        assert rho.tobytes() == expected.tobytes()

    def test_failing_mirror_lists_borrowed_try_first(self, monkeypatch):
        # GMRES fails on every system of the population set's Im half, the
        # one real sector of 552 unknowns, named by its first position
        # rho[1, 0]; the borrowed try is listed first, then each rung
        model = _dpo((8, 6))
        real_gmres = evolve._gmres

        def gmres(A, solve, rhs, rtol, cycles):
            if len(rhs) == 552:
                return np.zeros_like(rhs), 0, 1.0
            return real_gmres(A, solve, rhs, rtol, cycles)

        monkeypatch.setattr(evolve, "_gmres", gmres)
        with pytest.raises(AmbiguityError, match=r"552 real unknowns from rho\[1, 0\]") as info:
            evolve.steady_state(model)
        failures = str(info.value).partition("failed on every rung: ")[2].rstrip(")").split("; ")
        tried = ["mirror of rho[0, 0]'s factor"] + [f"drop_tol {drop_tol}, fill {fill}"
                                                    for drop_tol, fill, _ in evolve.ILU_LADDER]
        assert failures == [f"{name}: GMRES reached residual 1e+00 > 1e-08 after 0 iterations"
                            for name in tried]

    @pytest.mark.parametrize("seed", range(4))
    def test_complex_h_has_no_mirrors(self, seed, monkeypatch):
        # a 30%-fill random H is not i times a real matrix, so no set splits
        # and no sector borrows: each walks its own ladder, served by one
        # first-rung factor (a slice of the 256 random models)
        model = _random_damped((6,), seed, 0.3)
        real = evolve._real_sectors(model)
        assert evolve._mirror_partners(real, model.space.total_dim) == [None] * len(real)
        rungs = _recording_spilu(monkeypatch)
        rho = _steady(model, "auto")
        assert rungs == [evolve.ILU_LADDER[0]] * len(real)
        assert np.abs(rho - _steady(model, "dense")).max() < 1e-10

    def test_many_mirror_pairs_under_thread_stress(self, monkeypatch):
        # a beam splitter i g (a-dag b - a b-dag) with both modes damped has
        # six mirror pairs, sectors 6 to 11 mirroring sectors 0 to 5; here
        # they run on seven pool workers, more than there are cores, with
        # random delays and a short switch interval. The density is the
        # one-worker run's, bit for bit. When GMRES fails on every sector
        # from the fourth on, the fourth is named, though the population job
        # and two others carry failing mirrors, 6 to 8
        space = fock.make_space([4, 3])
        a, b = fock.annihilation(space, 0), fock.annihilation(space, 1)
        model = models.ModelSpec(space, 1j * 0.7 * (a.dag() @ b - a @ b.dag()),
                                 dissipators=((a, 0.5), (b, 0.8)))
        real = evolve._real_sectors(model)
        partners = evolve._mirror_partners(real, space.total_dim)
        assert [None if p is None else p[0] for p in partners] == [None] * 6 + [1, 2, 0, 3, 4, 5]
        monkeypatch.setattr(evolve, "_real_sectors", lambda _: real)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        expected = evolve.steady_state(model).data
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        real_gmres = evolve._gmres
        delays = np.random.default_rng(2)
        failing = []

        def gmres(A, solve, rhs, rtol, cycles):
            time.sleep(delays.uniform(0.0, 0.002))
            if any(A is block for _, block in failing):
                return np.zeros_like(rhs), 0, 1.0
            return real_gmres(A, solve, rhs, rtol, cycles)

        monkeypatch.setattr(evolve, "_gmres", gmres)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert evolve.steady_state(model).data.tobytes() == expected.tobytes()
            failing.extend(real[3:])
            n, m = divmod(int(real[3][0][0]), space.total_dim)
            for _ in range(3):
                with pytest.raises(AmbiguityError, match=rf"from rho\[{n}, {m}\]"):
                    evolve.steady_state(model)
        finally:
            sys.setswitchinterval(interval)
