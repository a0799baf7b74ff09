"""Exhaustive discrete search used as ground truth in benchmarks."""

import itertools
import math

import numpy as np
import pytest

from crloading.discretizer import power_for_bits
from crloading.errors import SolverError
from crloading.oracle import OracleResult, exhaustive_search

from conftest import make_caps, random_instance

C2 = np.array([100.0, 50.0])


class TestFrozenInstances:
    def test_two_tone_total_cap(self):
        res = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 2.0), b_max=4)
        assert list(res.bits) == [4, 3]
        assert res.objective == pytest.approx(-2.811168214603999, rel=1e-12)
        assert np.sum(res.powers) == pytest.approx(1.3776635707920022,
                                                   rel=1e-12)

    def test_single_tone(self):
        res = exhaustive_search(np.array([100.0]), 0.5, 1e-4, make_caps(1),
                                b_max=4)
        assert list(res.bits) == [4]
        assert res.objective == pytest.approx(-1.6437076972089648, rel=1e-12)

    def test_single_tone_cap_forces_step_down(self):
        res = exhaustive_search(np.array([100.0]), 0.5, 1e-4,
                                make_caps(1, 0.5), b_max=4)
        assert list(res.bits) == [3]
        assert res.objective == pytest.approx(-1.333730258697517, rel=1e-12)

    def test_tie_returns_lexicographically_smallest(self):
        # equal CNIR makes (3,4) and (4,3) score identically under the
        # 1.2 W cap; the reported winner must be deterministic
        res = exhaustive_search(np.array([100.0, 100.0]), 0.5, 1e-4,
                                make_caps(2, 1.2), b_max=4)
        assert list(res.bits) == [3, 4]
        assert res.objective == pytest.approx(-2.977437955906482, rel=1e-12)

    def test_even_only_domain(self):
        res = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 2.0), b_max=4,
                                even_only=True)
        assert list(res.bits) == [4, 2]
        assert res.objective == pytest.approx(-2.501190776092551, rel=1e-12)

    def test_zero_cap_transmits_nothing(self):
        res = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 0.0), b_max=4)
        assert list(res.bits) == [0, 0]
        assert res.objective == 0.0
        assert np.all(res.powers == 0.0)

    def test_weighted_cap_instance(self):
        caps = make_caps(2, np.inf, [0.5], omega=[[0.6], [0.05]])
        res = exhaustive_search(C2, 0.5, 1e-4, caps,
                                omega=caps.aci_weights.omega, b_max=4)
        assert list(res.bits) == [4, 4]
        assert res.objective == pytest.approx(-2.931123091626895, rel=1e-12)


class TestOverlapArgument:
    CAPS = make_caps(2, np.inf, [0.5], omega=[[0.6], [0.05]])

    @pytest.mark.parametrize("prune", [True, False], ids=["dfs", "flat"])
    def test_omitted_overlap_matrix_comes_from_the_caps(self, prune):
        res = exhaustive_search(C2, 0.5, 1e-4, self.CAPS, prune=prune)
        ref = exhaustive_search(C2, 0.5, 1e-4, self.CAPS,
                                omega=self.CAPS.aci_weights.omega,
                                prune=prune)
        assert list(res.bits) == list(ref.bits)
        assert res.objective == ref.objective
        load = float(self.CAPS.aci_weights.omega[:, 0] @ res.powers)
        assert load <= 0.5 * (1 + 1e-9)

    @pytest.mark.parametrize("prune", [True, False], ids=["dfs", "flat"])
    def test_two_caps_without_overlap_matrix_argument(self, prune):
        caps = make_caps(2, np.inf, [0.5, 0.3],
                         omega=[[0.6, 0.1], [0.05, 0.2]])
        res = exhaustive_search(C2, 0.5, 1e-4, caps, b_max=6, prune=prune)
        loads = caps.aci_weights.omega.T @ res.powers
        assert np.all(loads <= caps.aci_caps * (1 + 1e-9))

    @pytest.mark.parametrize("omega", [
        [[0.6, 0.1], [0.05, 0.2]], [[0.6]], [0.6, 0.05],
    ], ids=["extra_column", "missing_row", "one_dimensional"])
    def test_misshapen_overlap_matrix_rejected(self, omega):
        with pytest.raises(SolverError, match="overlap matrix shape"):
            exhaustive_search(C2, 0.5, 1e-4, self.CAPS, omega=omega)


class TestCnirChecked:
    @pytest.mark.parametrize("prune", [True, False], ids=["dfs", "flat"])
    @pytest.mark.parametrize("cnir", [[-100.0, 100.0], [np.nan, 100.0]],
                             ids=["negative", "nan"])
    def test_cnir_must_be_finite_and_positive(self, cnir, prune):
        with pytest.raises(SolverError, match="finite and positive"):
            exhaustive_search(cnir, 0.5, 1e-4, make_caps(2, 0.5),
                              prune=prune)


class TestAgainstInTestBruteForce:
    """Replicate the search with bare loops and compare."""

    DOMAIN = (0, 2, 3, 4)

    def brute(self, cnir, alpha, ber, total_cap, omega=None, aci_cap=None):
        best = None
        for combo in itertools.product(self.DOMAIN, repeat=len(cnir)):
            p = [power_for_bits(b, c, ber) if b else 0.0
                 for b, c in zip(combo, cnir)]
            if sum(p) > total_cap * (1 + 1e-9):
                continue
            if omega is not None:
                load = sum(w * pi for w, pi in zip(omega, p))
                if load > aci_cap * (1 + 1e-9):
                    continue
            f = alpha * sum(p) - (1 - alpha) * sum(combo)
            key = (f, combo)
            if best is None or key < best:
                best = key
        return best

    def test_matches_package_search(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            cnir = rng.uniform(20.0, 300.0, size=n)
            alpha = float(rng.uniform(0.3, 0.7))
            cap = float(rng.uniform(0.2, 3.0))
            f_ref, bits_ref = self.brute(cnir, alpha, 1e-4, cap)
            res = exhaustive_search(cnir, alpha, 1e-4, make_caps(n, cap),
                                    b_max=4)
            assert list(res.bits) == list(bits_ref)
            assert res.objective == pytest.approx(f_ref, rel=1e-10, abs=1e-12)

    def test_matches_with_weighted_cap(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            cnir = rng.uniform(20.0, 300.0, size=n)
            w = rng.uniform(0.05, 0.7, size=n)
            aci_cap = float(rng.uniform(0.05, 0.5))
            caps = make_caps(n, np.inf, [aci_cap], omega=w.reshape(-1, 1))
            f_ref, bits_ref = self.brute(cnir, 0.5, 1e-4, math.inf,
                                         omega=w, aci_cap=aci_cap)
            res = exhaustive_search(cnir, 0.5, 1e-4, caps,
                                    omega=caps.aci_weights.omega, b_max=4)
            assert list(res.bits) == list(bits_ref)
            assert res.objective == pytest.approx(f_ref, rel=1e-10, abs=1e-12)


class TestSearchMechanics:
    def test_pruned_equals_flat(self, rng):
        for _ in range(30):
            cnir, alpha, ber, caps = random_instance(rng, n_lo=2, n_hi=5)
            kw = dict(omega=caps.aci_weights.omega, b_max=6)
            a = exhaustive_search(cnir, alpha, ber, caps, prune=True, **kw)
            b = exhaustive_search(cnir, alpha, ber, caps, prune=False, **kw)
            assert list(a.bits) == list(b.bits)
            assert a.objective == pytest.approx(b.objective, rel=1e-12,
                                                abs=1e-15)

    def test_flat_node_count_is_domain_size_power_n(self):
        res = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 2.0), b_max=4,
                                prune=False)
        assert res.nodes_visited == 4 ** 2      # domain {0,2,3,4} squared

    def test_result_fields(self):
        res = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 2.0), b_max=4)
        assert isinstance(res, OracleResult)
        assert res.bits.dtype.kind == "i"
        assert res.nodes_visited > 0

    def test_feasibility_of_winner(self, rng):
        for _ in range(25):
            cnir, alpha, ber, caps = random_instance(rng, n_lo=2, n_hi=5)
            res = exhaustive_search(cnir, alpha, ber, caps,
                                    omega=caps.aci_weights.omega, b_max=6)
            assert np.sum(res.powers) <= caps.total_cap * (1 + 1e-9)
            loads = caps.aci_weights.omega.T @ res.powers
            assert np.all(loads <= caps.aci_caps * (1 + 1e-9))
            assert np.all((res.bits == 0) | (res.bits >= 2))

    def test_large_n_refused(self):
        cnir = np.full(11, 100.0)
        with pytest.raises(SolverError, match="exhaustive"):
            exhaustive_search(cnir, 0.5, 1e-4, make_caps(11, 1.0), b_max=4)

    def test_limit_can_be_raised_explicitly(self):
        cnir = np.full(11, 100.0)
        res = exhaustive_search(cnir, 0.5, 1e-4, make_caps(11, 0.3),
                                b_max=2, n_limit=11)
        assert res.bits.size == 11

    def test_raising_bmax_never_hurts(self, rng):
        for _ in range(15):
            cnir, alpha, ber, caps = random_instance(rng, n_lo=2, n_hi=4)
            lo = exhaustive_search(cnir, alpha, ber, caps,
                                   omega=caps.aci_weights.omega, b_max=4)
            hi = exhaustive_search(cnir, alpha, ber, caps,
                                   omega=caps.aci_weights.omega, b_max=6)
            assert hi.objective <= lo.objective + 1e-12
