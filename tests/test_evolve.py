import hashlib
import os
import subprocess
import sys
import time

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


def _dpo(dims):
    return models.dpo_model(fock.make_space(dims), 0.3, 0.8, 0.7, 0.9)


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


def _real_sectors(model):
    """(flat positions, real block) of every real sector of the model's L,
    the population sector first."""
    L = evolve.liouvillian(model)
    d = model.space.total_dim
    return evolve._real_sectors(L, evolve._closed_sectors(L, d), d)


def _steady(model, route):
    """The steady density by ``route``: "auto" is ``steady_state``, and
    "dense" the private slow reference ``evolve._steady_dense`` with its
    null vector normalized to trace 1."""
    if route == "auto":
        return evolve.steady_state(model).data
    rho = evolve._steady_dense(_real_sectors(model), model.space.total_dim)
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
    solve, recorded as the walks start; a failing walk's error is dropped."""
    real_solve_sector = evolve._solve_sector
    systems = []

    def recording(A, sector_systems, idx, d):
        systems.extend((A, rhs, rtol) for rhs, rtol in sector_systems)
        return real_solve_sector(A, sector_systems, idx, d)

    with monkeypatch.context() as patch:
        patch.setattr(evolve, "_solve_sector", recording)
        try:
            evolve.steady_state(model)
        except AmbiguityError:
            pass
    return systems


def _rung0_ilu(A):
    drop_tol, fill = evolve.ILU_LADDER[0]
    return scipy.sparse.linalg.spilu(A, drop_tol=drop_tol, fill_factor=fill, permc_spec="NATURAL")


def _scipy_gmres(A, solve, rhs, rtol):
    """scipy's GMRES, the reference for ``evolve._gmres``, at the budget
    the steady-state route uses."""
    M = scipy.sparse.linalg.LinearOperator(A.shape, solve, dtype=A.dtype)
    return scipy.sparse.linalg.gmres(A, rhs, M=M, rtol=rtol, atol=0.0, restart=100, maxiter=400)


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
            for idx, A in _real_sectors(model)[1:]:
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
        assert f"singular incomplete LU factor at drop_tol {evolve.ILU_LADDER[-1][0]}" in message
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

    @pytest.mark.parametrize("name", ["dpo-8-6", "driven-14"])
    def test_real_basis_sector_is_real(self, name):
        model = STEADY_MODELS[name]()
        d = model.space.total_dim
        L = evolve.liouvillian(model)
        population = fock.sectors(L)[0]
        S, S_inv = evolve._hermitian_basis(population, d)
        Lc = S_inv @ L[population][:, population] @ S
        assert abs(Lc.imag).max() == 0.0
        assert abs(S_inv @ S - scipy.sparse.identity(len(population))).max() == 0.0
        Lr = evolve._real_block(L, population, d)
        assert Lr.dtype == np.float64
        assert abs(Lr - Lc.real).max() == 0.0

    @pytest.mark.parametrize("method", ["auto", "ilu"])
    def test_steady_state_exactly_hermitian(self, method):
        # "ilu" takes the density of the real population sector's solve as
        # it comes: the real basis makes it hermitian
        model = _dpo((8, 6))
        if method == "ilu":
            population, A = _real_sectors(model)[0]
            rho = evolve._steady_ilu(A, population, model.space.total_dim)
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

        def counting(A, systems, idx, d):
            calls.append(A.dtype)
            return real_solve_sector(A, systems, idx, d)

        monkeypatch.setattr(evolve, "_solve_sector", counting)
        evolve.steady_state(model)
        # one ladder walk per mirror pair, the population sector's included,
        # all real
        assert calls == [np.float64] * 6

    def test_failed_population_check_raises(self, monkeypatch):
        # the population sector's trace-row system must pass the check that
        # every other sector passes; here GMRES fails on the check's fixed
        # random right-hand side
        model = _dpo((8, 6))
        check = np.random.default_rng(0).standard_normal(len(_real_sectors(model)[0][0]))
        real_gmres = evolve._gmres
        checks = []

        def gmres(A, solve, rhs, rtol):
            if np.array_equal(rhs, check):
                checks.append(A.shape)
                return np.zeros_like(rhs), 0, 1.0
            return real_gmres(A, solve, rhs, rtol)

        monkeypatch.setattr(evolve, "_gmres", gmres)
        with pytest.raises(AmbiguityError, match=r"from rho\[0, 0\]"):
            evolve.steady_state(model)
        # once per rung of the sector's one ladder walk
        assert len(checks) == len(evolve.ILU_LADDER)

    def test_population_degenerate_solve_fails_check(self, monkeypatch):
        # a two-dimensional null space in the population sector, whose
        # trace-row solve is made to succeed: that system is singular, so
        # the check on a random right-hand side still fails, in GMRES. SuperLU
        # finds the system itself exactly singular on every rung, so each
        # rung factors it shifted by 1e-8 I. The trace-row system is picked
        # out by its size and right-hand side, whichever thread reaches
        # GMRES first
        model = _population_degenerate(3)
        size = len(_real_sectors(model)[0][0])
        check, _ = evolve._check_system(size)
        real_spilu, real_gmres = evolve.spla.spilu, evolve._gmres
        solved, checks = [], []

        def shifted(A, **kwargs):
            return real_spilu((A + 1e-8 * scipy.sparse.identity(A.shape[0])).tocsc(), **kwargs)

        def gmres(A, solve, rhs, rtol):
            if len(rhs) == size and np.count_nonzero(rhs) == 1 and rhs[0] == 1.0:
                solved.append(np.linalg.lstsq(A.toarray(), rhs, rcond=None)[0])
                return solved[-1], 1, 0.0
            if np.array_equal(rhs, check):
                checks.append(A.shape)
            return real_gmres(A, solve, rhs, rtol)

        monkeypatch.setattr(evolve.spla, "spilu", shifted)
        monkeypatch.setattr(evolve, "_gmres", gmres)
        with pytest.raises(AmbiguityError, match=r"from rho\[0, 0\]") as info:
            evolve.steady_state(model)
        # the failure says how far the last rung's GMRES got
        assert ("GMRES reached residual " in str(info.value)
                and f"iterations at drop_tol {evolve.ILU_LADDER[-1][0]})" in str(info.value))
        # the check comes first and fails on every rung, so the failing
        # sector never reaches its solve
        assert checks == [(size, size)] * len(evolve.ILU_LADDER) and solved == []

    @pytest.mark.parametrize("dims, reference", [((8, 6), "dense"), ((12, 8), "auto")],
                             ids=["dpo-8-6", "dpo-12-8"])
    def test_ladder_falls_back_to_next_rung(self, dims, reference, monkeypatch):
        # with the first rung's factorization made to fail, every sector is
        # solved on the second, and the steady state still matches the
        # reference: the dense one at (8, 6), and at (12, 8), where a dense
        # eig of each sector takes ~20 s, the unpatched route's
        model = _dpo(dims)
        expected = _steady(model, reference)
        real_spilu = evolve.spla.spilu
        served = []

        def spilu(A, **kwargs):
            rung = (kwargs["drop_tol"], kwargs["fill_factor"])
            if rung == evolve.ILU_LADDER[0]:
                raise RuntimeError("Factor is exactly singular")
            served.append(rung)
            return real_spilu(A, **kwargs)

        monkeypatch.setattr(evolve.spla, "spilu", spilu)
        rho = _steady(model, "auto")
        assert served == [evolve.ILU_LADDER[1]] * len(_real_sectors(model))
        assert np.abs(rho - expected).max() < 1e-12

    def test_ladder_falls_back_on_exactly_singular_first_rung(self):
        # a strong random sparse H, weakly damped, whose nonsingular
        # trace-row system leaves the first rung's incomplete LU exactly
        # singular, unforced: the walk goes on to the last rung, which
        # serves it
        space = fock.make_space([6])
        rng = np.random.default_rng(1)
        M = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) \
            * (rng.random((6, 6)) < 0.05)
        model = models.ModelSpec(space, fock.FieldOperator(space, 20 * (M + M.conj().T) / 2),
                                 dissipators=((fock.annihilation(space, 0), 0.05),))
        d = space.total_dim
        (idx, Lr), = _real_sectors(model)
        A = scipy.sparse.vstack([scipy.sparse.csr_matrix((idx // d == idx % d).astype(float)),
                                 Lr[1:]], format="csc")
        assert np.linalg.matrix_rank(A.toarray()) == len(idx)
        first, last = ({"drop_tol": drop_tol, "fill_factor": fill, "permc_spec": "NATURAL"}
                       for drop_tol, fill in (evolve.ILU_LADDER[0], evolve.ILU_LADDER[-1]))
        with pytest.raises(RuntimeError, match="singular"):
            scipy.sparse.linalg.spilu(A, **first)
        ilu = scipy.sparse.linalg.spilu(A, **last)
        rhs = np.zeros(len(idx))
        rhs[0] = 1.0
        systems = [evolve._check_system(len(idx)), (rhs, 1e-13)]
        for x, (b, rtol) in zip(evolve._solve_sector(A, systems, idx, d), systems):
            assert np.array_equal(x, evolve._gmres(A, ilu.solve, b, rtol)[0])
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
        # the in-package GMRES against scipy's under the same first-rung ILU,
        # on every check system and the trace-row system of the shipped route
        for A, rhs, rtol in _sector_systems(_dpo(dims), monkeypatch):
            ilu = _rung0_ilu(A)
            x, _, residual = evolve._gmres(A, ilu.solve, rhs, rtol)
            reference, info = _scipy_gmres(A, ilu.solve, rhs, rtol)
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
        # 400-cycle budget
        model = {"population-degenerate-3": lambda: _population_degenerate(3),
                 "traceless-null-vector": _traceless_null_vector}[name]()
        singular = [(A, rhs, rtol) for A, rhs, rtol in _sector_systems(model, monkeypatch)
                    if np.linalg.matrix_rank(A.toarray()) < A.shape[0]
                    and np.array_equal(rhs, evolve._check_system(len(rhs))[0])]
        assert singular
        for A, rhs, rtol in singular:
            ilu = _rung0_ilu((A + 1e-8 * scipy.sparse.identity(A.shape[0])).tocsc())
            _, iters, residual = evolve._gmres(A, ilu.solve, rhs, rtol)
            _, info = _scipy_gmres(A, ilu.solve, rhs, rtol)
            assert residual > rtol and info != 0 and iters <= 200

    def test_gmres_lucky_breakdown_is_exact(self):
        # three distinct eigenvalues: the Krylov space of an unpreconditioned
        # diagonal system is invariant after three steps, and holds A^-1 b
        diagonal = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        rhs = np.arange(1.0, 7.0)
        x, iters, residual = evolve._gmres(scipy.sparse.diags(diagonal).tocsc(), np.copy,
                                           rhs, 1e-12)
        assert iters == 3 and residual <= 1e-12
        np.testing.assert_allclose(x, rhs / diagonal, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", list(ROUTE_MODELS))
    def test_route_is_pinned(self, name, monkeypatch):
        model = ROUTE_MODELS[name]()
        real_spilu, real_gmres = evolve.spla.spilu, evolve._gmres
        rungs, solves = [], []

        def spilu(A, **kwargs):
            rungs.append((kwargs["drop_tol"], kwargs["fill_factor"]))
            return real_spilu(A, **kwargs)

        def gmres(A, solve, rhs, rtol):
            solves.append(A.shape)
            return real_gmres(A, solve, rhs, rtol)

        monkeypatch.setattr(evolve.spla, "spilu", spilu)
        monkeypatch.setattr(evolve, "_gmres", gmres)
        evolve.steady_state(model)
        # the population sector, the Im half of its set and both halves of
        # the odd-parity set each factor on the first rung; GMRES runs the
        # population solve and the four sectors' checks, that of the
        # population system under the solve's preconditioner
        assert rungs == [evolve.ILU_LADDER[0]] * 4
        assert len(solves) == 5

    def test_every_rung_factors_population_system(self, monkeypatch):
        # the trace-row system of the real population sector, the Re half of
        # its set
        model = _dpo((8, 6))
        size = len(_real_sectors(model)[0][0])
        assert size < len(evolve._closed_sectors(evolve.liouvillian(model),
                                                 model.space.total_dim)[0])
        real_spilu, real_gmres = evolve.spla.spilu, evolve._gmres
        orders, systems = [], []

        def spilu(A, **kwargs):
            orders.append(kwargs["permc_spec"])
            return real_spilu(A, **kwargs)

        def gmres(A, solve, rhs, rtol):
            # the trace row is rho_00's, the first
            if len(rhs) == size and np.count_nonzero(rhs) == 1 and rhs[0] == 1.0:
                systems.append(A)
            return real_gmres(A, solve, rhs, rtol)

        monkeypatch.setattr(evolve.spla, "spilu", spilu)
        monkeypatch.setattr(evolve, "_gmres", gmres)
        evolve.steady_state(model)
        assert len(systems) == 1 and len(set(orders)) == 1
        for drop_tol, fill in evolve.ILU_LADDER:
            real_spilu(systems[0], drop_tol=drop_tol, fill_factor=fill, permc_spec=orders[0])

    @pytest.mark.parametrize("dims", [(8, 6), (12, 8)], ids=["dpo-8-6", "dpo-12-8"])
    def test_pool_size_leaves_solution_bit_identical(self, dims, monkeypatch):
        # one CPU leaves one pool worker; four let every other sector's
        # check run beside the population solve
        model = _dpo(dims)
        real_steady_ilu = evolve._steady_ilu
        runs = []

        def recording(*args):
            runs.append(real_steady_ilu(*args))
            return runs[-1]

        monkeypatch.setattr(evolve, "_steady_ilu", recording)
        for cpus in ({0, 1, 2, 3}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            evolve.steady_state(model)
        rho, rho_1 = runs
        assert rho.shape == (model.space.total_dim,) * 2 and np.array_equal(rho, rho_1)

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
        real = _real_sectors(model)
        size = len(real[0][0])
        assert all(len(idx) != size for idx, _ in real[1:])
        n, m = divmod(int(real[1][0][0]), d)
        real_gmres = evolve._gmres
        delays = np.random.default_rng(1)

        def failing(A, solve, rhs, rtol):
            if len(rhs) == size:  # the population solve and its check
                return real_gmres(A, solve, rhs, rtol)
            time.sleep(delays.uniform(0.0, 0.02))
            return np.zeros_like(rhs), 0, 1.0

        monkeypatch.setattr(evolve, "_gmres", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for _ in range(5):
            with pytest.raises(AmbiguityError, match=rf"from rho\[{n}, {m}\]"):
                evolve.steady_state(model)

    @pytest.mark.parametrize("method", STEADY_ROUTES)
    def test_null_vector_in_im_half_of_population_set_detected(self, method):
        # H and the dissipator are both sigma_y = i(a^dag - a): rho = 1/2 and
        # sigma_y are both steady. sigma_y's coordinate Im rho_01 is the Im
        # half of the population set, a sector of its own
        space = fock.make_space([2])
        a = fock.annihilation(space, 0)
        sigma_y = 1j * (a.dag() - a)
        model = models.ModelSpec(space, 0.3 * sigma_y, dissipators=((sigma_y, 0.5),))
        assert [list(idx) for idx, _ in _real_sectors(model)] == [[0, 1, 3], [2]]
        with pytest.raises(AmbiguityError):
            _steady(model, method)
