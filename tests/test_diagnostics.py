import numpy as np
import pytest

from nlo_quanta import diagnostics as dg
from nlo_quanta import evolve, fock, models
from nlo_quanta.errors import ContractError


def _pair_state(c0, c1, dims=(5, 5)):
    space = fock.make_space(list(dims))
    vec = np.zeros(space.total_dim, dtype=complex)
    vec[space.flat_index((0, 0))] = c0
    vec[space.flat_index((1, 1))] = c1
    return fock.QuantumState(space, "pure", vec / np.linalg.norm(vec))


class TestMandelExcess:
    def test_coherent_poissonian(self):
        space = fock.make_space([35])
        st = fock.coherent_state(space, [1.3])
        rep = dg.mandel_excess(st, 0)
        assert abs(rep.value) < 1e-9
        assert rep.verdict == "inconclusive"

    def test_number_state(self):
        space = fock.make_space([6])
        rep = dg.mandel_excess(fock.fock_state(space, [3]), 0)
        assert abs(rep.value + 3.0) < 1e-12
        assert rep.verdict == "nonclassical"

    def test_thermal_super_poissonian(self):
        space = fock.make_space([70])
        rep = dg.mandel_excess(fock.thermal_state(space, [1.2]), 0)
        assert rep.value > 0
        assert rep.verdict == "inconclusive"


class TestQuadratureSqueezing:
    def test_vacuum_boundary(self):
        space = fock.make_space([10])
        rep = dg.quadrature_squeezing(fock.vacuum_state(space), 0, 0.9)
        assert abs(rep.value - 0.25) < 1e-10
        assert rep.verdict == "inconclusive"

    @pytest.mark.parametrize("phi,c2", [(0.0, 0.2), (0.6, 0.28), (1.2, 0.5)])
    def test_two_photon_superposition(self, phi, c2):
        # (Delta X(phi))^2 = 1/4 + c2 (c2 - c0/sqrt(2)) for c0|0> - c2 e^{2i phi}|2>
        space = fock.make_space([8])
        c0 = np.sqrt(1 - c2 ** 2)
        vec = np.zeros(8, dtype=complex)
        vec[0] = c0
        vec[2] = -c2 * np.exp(2j * phi)
        st = fock.QuantumState(space, "pure", vec)
        rep = dg.quadrature_squeezing(st, 0, phi)
        assert abs(rep.value - (0.25 + c2 * (c2 - c0 / np.sqrt(2)))) < 1e-12
        assert rep.conclusive == (c0 > np.sqrt(2) * c2)

    def test_parametric_squeezed_vacuum(self):
        space = fock.make_space([40])
        kappa, beta, u = 0.1, 10.0, 0.5
        model = models.h_parametric_classical_pump(space, kappa, beta)
        st = evolve.evolve_pure(model, fock.vacuum_state(space),
                                [u / (kappa * beta)]).states[0]
        rep = dg.quadrature_squeezing(st, 0, np.pi / 2)
        assert abs(rep.value - np.exp(-1.0) / 4) < 1e-8
        assert rep.verdict == "nonclassical"


class TestEntanglementCriteria:
    def test_two_mode_vacuum_boundary(self):
        space = fock.make_space([4, 4])
        vac = fock.vacuum_state(space)
        srep = dg.duan_simon_sum(vac, 0, 1)
        prep = dg.epr_product(vac, 0, 1)
        assert abs(srep.value - 2.0) < 1e-12 and srep.verdict == "inconclusive"
        assert abs(prep.value - 1.0) < 1e-12 and prep.verdict == "inconclusive"

    def test_minimizing_pair_state(self):
        st = _pair_state(np.cos(np.pi / 8), -np.sin(np.pi / 8))
        rep = dg.duan_simon_sum(st, 0, 1)
        assert abs(rep.value - (4 - 2 * np.sqrt(2))) < 1e-9
        assert rep.verdict == "entangled"

    @pytest.mark.parametrize("theta", [0.1, 0.35, 0.7, 1.2])
    def test_pair_state_formula(self, theta):
        c0, c1 = np.cos(theta), -np.sin(theta)
        rep = dg.duan_simon_sum(_pair_state(c0, c1), 0, 1)
        assert abs(rep.value - (2 + 2 * (2 * c1 ** 2 + 2 * c0 * c1))) < 1e-9

    def test_mode_exchange_symmetry(self):
        st = _pair_state(np.cos(0.4), -np.sin(0.4), dims=(5, 5))
        a = dg.duan_simon_sum(st, 0, 1).value
        b = dg.duan_simon_sum(st, 1, 0).value
        assert abs(a - b) < 1e-12

    def test_epr_on_minimizing_state(self):
        st = _pair_state(np.cos(np.pi / 8), -np.sin(np.pi / 8))
        rep = dg.epr_product(st, 0, 1)
        assert abs(rep.value - (4 - 2 * np.sqrt(2)) ** 2 / 4) < 1e-9
        assert rep.verdict == "entangled"

    def test_product_coherent_boundary(self):
        space = fock.make_space([16, 16])
        st = fock.coherent_state(space, [0.6, -0.4 + 0.2j])
        assert abs(dg.epr_product(st, 0, 1).value - 1.0) < 1e-8
        assert abs(dg.duan_simon_sum(st, 0, 1).value - 2.0) < 1e-8

    def test_same_mode_rejected(self):
        space = fock.make_space([4, 4])
        with pytest.raises(ContractError):
            dg.duan_simon_sum(fock.vacuum_state(space), 1, 1)


class TestNumberDiff:
    def test_two_mode_vacuum(self):
        space = fock.make_space([4, 4])
        rep = dg.number_diff_criterion(fock.vacuum_state(space), 0, 1)
        assert abs(rep.value) < 1e-12

    def test_three_mode_chi2_twin_beams(self):
        space = fock.make_space([16, 10, 10])
        model = models.h_three_mode_chi2(space, 0.6, 0.4, 0.3)
        psi0 = fock.coherent_state(space, [1.2, 0.0, 0.0])
        res = evolve.evolve_pure(model, psi0, [0.0, 1.5, 3.0])
        # Var(n_a - n_b) stays zero; criterion negative once photons appear
        for st, expect_verdict in zip(res.states, ["inconclusive", "nonclassical",
                                                   "nonclassical"]):
            rep = dg.number_diff_criterion(st, 1, 2)
            assert rep.verdict == expect_verdict
            na = fock.expectation(st, fock.number_operator(space, 1)).real
            assert abs(rep.value + 2 * na) < 1e-9

    def test_independent_thermal_classical(self):
        space = fock.make_space([40, 40])
        st = fock.thermal_state(space, [0.8, 1.1])
        rep = dg.number_diff_criterion(st, 0, 1)
        assert rep.value >= 0
        assert rep.verdict == "inconclusive"


class TestParityTest:
    def test_vacuum(self):
        space = fock.make_space([6])
        rep = dg.parity_test(fock.vacuum_state(space), 0)
        assert rep.extras_dict() == {"q_even_excited": 0.0, "q_odd": 0.0}
        assert rep.verdict == "inconclusive"

    def test_two_photon_state(self):
        space = fock.make_space([6])
        rep = dg.parity_test(fock.fock_state(space, [2]), 0)
        assert rep.extras_dict()["q_even_excited"] == 1.0
        assert rep.verdict == "nonclassical"

    def test_coherent_odd_weight(self):
        space = fock.make_space([25])
        rep = dg.parity_test(fock.coherent_state(space, [1.0]), 0)
        assert abs(rep.extras_dict()["q_odd"] - np.exp(-1.0) * np.sinh(1.0)) < 1e-10
        assert rep.verdict == "inconclusive"

    def test_chi2_signal_reports_even_only(self):
        space = fock.make_space([16, 16])
        model = models.h_two_mode_chi2(space, 1.0, 0.4)
        res = evolve.evolve_pure(model, fock.coherent_state(space, [0.0, 1.1]), [2.5])
        rep = dg.parity_test(res.states[0], 0)
        assert rep.extras_dict()["q_odd"] < 1e-10
        assert rep.verdict == "nonclassical"


class TestRotationInvariance:
    def test_vacuum_any_order(self):
        space = fock.make_space([6])
        for n in (1, 2, 3, 5):
            assert dg.rotation_invariance(fock.vacuum_state(space), 0, n) < 1e-14

    def test_coherent_pump_signal(self):
        space = fock.make_space([16, 16])
        model = models.h_two_mode_chi2(space, 1.0, 0.4)
        res = evolve.evolve_pure(model, fock.coherent_state(space, [0.0, 1.1]), [2.0])
        assert dg.rotation_invariance(res.states[0], 0, 1) < 1e-9

    def test_even_pump_signal_fourfold(self):
        space = fock.make_space([16, 16])
        model = models.h_two_mode_chi2(space, 1.0, 0.4)
        vec = np.zeros(space.total_dim, dtype=complex)
        vec[space.flat_index((0, 0))] = 1 / np.sqrt(2)
        vec[space.flat_index((0, 2))] = 1 / np.sqrt(2)
        res = evolve.evolve_pure(model, fock.QuantumState(space, "pure", vec), [2.0])
        assert dg.rotation_invariance(res.states[0], 0, 2) < 1e-9

    def test_coherent_state_not_invariant(self):
        space = fock.make_space([20])
        st = fock.coherent_state(space, [1.0])
        assert dg.rotation_invariance(st, 0, 1) > 0.1


class TestHusimi:
    def test_vacuum_gaussian(self):
        space = fock.make_space([10])
        grid, _ = dg.husimi_grid(3.0, 41)
        q = dg.husimi_q(fock.vacuum_state(space), 0, grid)
        np.testing.assert_allclose(q, np.exp(-np.abs(grid) ** 2) / np.pi, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        space = fock.make_space([8])
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        st = fock.QuantumState(space, "pure", vec / np.linalg.norm(vec))
        grid, _ = dg.husimi_grid(4.0, 31)
        assert dg.husimi_q(st, 0, grid).min() >= -1e-12

    def test_integral_normalization(self):
        space = fock.make_space([40])
        alpha = 1.3 + 0.4j
        st = fock.coherent_state(space, [alpha])
        grid, area = dg.husimi_grid(6.0 + abs(alpha), 241)
        total = dg.husimi_q(st, 0, grid).sum() * area
        assert abs(total - 1.0) < 1e-4

    def test_three_photon_downconversion_symmetry(self):
        # Q of the 3-photon signal is invariant under 2 pi / 3 rotations
        space = fock.make_space([18, 14])
        model = models.h_nphoton(space, 1.0, 0.15, 3)
        res = evolve.evolve_pure(model, fock.coherent_state(space, [0.0, 1.0]), [3.0])
        rng = np.random.default_rng(7)
        pts = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        q0 = dg.husimi_q(res.states[0], 0, pts)
        q1 = dg.husimi_q(res.states[0], 0, pts * np.exp(2j * np.pi / 3))
        assert np.abs(q0 - q1).max() < 1e-6


class TestFluctuationBounds:
    def test_degenerate_number_state_input(self):
        # DM(0) = 0 forces Dn_a(t) = 2 Dn_b(t)
        space = fock.make_space([24, 10])
        model = models.h_two_mode_chi2(space, 1.0, 0.35)
        res = evolve.evolve_pure(model, fock.fock_state(space, (0, 4)),
                                 np.linspace(0.0, 2.5, 6))
        rep = dg.fluctuation_bounds(res, "M")
        assert rep.worst_violation > -1e-9
        np.testing.assert_allclose(rep.delta_na, rep.upper, atol=1e-9)

    def test_coherent_pump_bounds_hold(self):
        space = fock.make_space([16, 16])
        model = models.h_two_mode_chi2(space, 1.0, 0.4)
        res = evolve.evolve_pure(model, fock.coherent_state(space, [0.0, 1.2]),
                                 np.linspace(0.0, 4.0, 9))
        rep = dg.fluctuation_bounds(res, "M")
        assert rep.worst_violation > -1e-9
        assert rep.slack.min() > -1e-9

    def test_three_photon_coherent_pump_bounds_hold(self):
        space = fock.make_space([18, 12])
        model = models.h_nphoton(space, 1.0, 0.1, 3)
        res = evolve.evolve_pure(model, fock.coherent_state(space, [0.0, 0.8]),
                                 np.linspace(0.0, 3.0, 7))
        rep = dg.fluctuation_bounds(res, "M")
        assert rep.worst_violation > -1e-9
        np.testing.assert_array_less(rep.lower - 1e-9, rep.delta_na)
        np.testing.assert_array_less(rep.delta_na, rep.upper + 1e-9)

    def test_three_mode_bounds(self):
        space = fock.make_space([16, 10, 10])
        model = models.h_three_mode_chi2(space, 0.6, 0.4, 0.3)
        res = evolve.evolve_pure(model, fock.coherent_state(space, [1.2, 0.0, 0.0]),
                                 np.linspace(0.0, 3.0, 7))
        for charge in ("K1", "K2", "M1"):
            rep = dg.fluctuation_bounds(res, charge)
            assert rep.worst_violation > -1e-9
        # double vacuum signal/idler: Dn_a(t) = Dn_b(t)
        m1 = dg.fluctuation_bounds(res, "M1")
        np.testing.assert_allclose(m1.delta_na, 0.0, atol=1e-9)

    def test_m1_slack_is_two_sided(self):
        space = fock.make_space([16, 10, 10])
        model = models.h_three_mode_chi2(space, 0.6, 0.4, 0.3)
        res = evolve.evolve_pure(model, fock.coherent_state(space, [1.2, 0.5, 0.3]),
                                 np.linspace(0.0, 2.0, 5))
        rep = dg.fluctuation_bounds(res, "M1")
        assert rep.upper[0] > 0.1  # DM1(0) > 0
        np.testing.assert_array_equal(
            rep.slack, np.minimum(rep.upper - rep.delta_na, rep.delta_na - rep.lower))
        assert (rep.slack < rep.upper - rep.delta_na).any()

    def test_t0_saturation(self):
        space = fock.make_space([16, 16])
        model = models.h_two_mode_chi2(space, 1.0, 0.4)
        res = evolve.evolve_pure(model, fock.coherent_state(space, [0.0, 1.2]), [0.0])
        rep = dg.fluctuation_bounds(res, "M")
        # at t = 0 the signal side vanishes and the bounds collapse
        assert abs(rep.delta_na[0]) < 1e-12

    def test_unknown_charge_rejected(self):
        space = fock.make_space([16, 16])
        model = models.h_two_mode_chi2(space, 1.0, 0.4)
        res = evolve.evolve_pure(model, fock.coherent_state(space, [0.0, 1.2]), [0.0])
        with pytest.raises(ContractError):
            dg.fluctuation_bounds(res, "bogus")


class TestClassicalStatesInconclusive:
    """Coherent states, thermal states, and coherent mixtures must never
    trigger a nonclassical/entangled verdict."""

    def _mixture(self, space):
        rho = 0.6 * fock.coherent_state(space, [0.9, -0.3]).density() \
            + 0.4 * fock.coherent_state(space, [-0.5, 0.8]).density()
        return fock.QuantumState(space, "density", rho)

    def test_single_mode_criteria(self):
        space = fock.make_space([30])
        states = [fock.coherent_state(space, [1.1]),
                  fock.thermal_state(space, [0.7])]
        for st in states:
            assert dg.mandel_excess(st, 0).margin <= 1e-12
            for phi in (0.0, 0.7, np.pi / 2):
                assert dg.quadrature_squeezing(st, 0, phi).margin <= 1e-12
            assert dg.parity_test(st, 0).margin <= 1e-12

    def test_two_mode_criteria(self):
        space = fock.make_space([16, 16])
        states = [fock.coherent_state(space, [0.9, -0.3]),
                  fock.thermal_state(space, [0.5, 0.8]),
                  self._mixture(space)]
        for st in states:
            assert dg.duan_simon_sum(st, 0, 1).margin <= 1e-12
            assert dg.epr_product(st, 0, 1).margin <= 1e-12
            assert dg.number_diff_criterion(st, 0, 1).margin <= 1e-12
