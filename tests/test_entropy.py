"""Kernel tests: exact oracles for the entropy functions and the deviation
functions of ``concentration``."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdiqds.concentration import chernoff_delta, mu_parameter, serfling_lambda, upsilon
from mdiqds.entropy import (
    EXACT_TAIL_LIMIT,
    binary_entropy,
    binomial_tail,
    binomial_tail_log2,
    inverse_binary_entropy,
    log2addexp,
)
from mdiqds.errors import DomainError

E_INV = math.exp(-1.0)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_direct_value(self):
        # frozen from -p*log2(p) - (1-p)*log2(1-p) at p = 0.11
        assert binary_entropy(0.11) == pytest.approx(0.49992, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-14)


class TestInverseBinaryEntropy:
    def test_endpoints(self):
        assert inverse_binary_entropy(1.0) == 0.5
        assert inverse_binary_entropy(0.0) == 0.0

    def test_adversary_error_floor_value(self):
        # frozen from an independent brentq solve of h(p) = 0.1954
        assert inverse_binary_entropy(0.1954) == pytest.approx(0.0302, abs=2e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            inverse_binary_entropy(-1e-9)
        with pytest.raises(DomainError):
            inverse_binary_entropy(1.0 + 1e-9)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip(self, y):
        assert binary_entropy(inverse_binary_entropy(y)) == pytest.approx(y, abs=1e-10)


class TestBinomialTail:
    def test_full_sum(self):
        assert binomial_tail_log2(4, 4) == pytest.approx(4.0, abs=1e-12)

    def test_single_term(self):
        assert binomial_tail_log2(5, 0) == pytest.approx(0.0, abs=1e-12)

    def test_small_case(self):
        # 1 + 10 + 45 = 56
        assert binomial_tail_log2(10, 2) == pytest.approx(math.log2(56), abs=1e-10)

    def test_integer_tail_vs_bigint_oracle(self):
        for n in range(41):
            for k in range(n + 1):
                assert binomial_tail(n, k) == sum(math.comb(n, m) for m in range(k + 1)), (n, k)

    def test_exact_vs_bigint_oracle(self):
        for n in range(31):
            for r in range(n + 1):
                exact = math.log2(sum(math.comb(n, m) for m in range(r + 1)))
                # the exact sum, not the entropy exponent: equal to the last bit
                assert binomial_tail_log2(n, r) == exact, (n, r)

    def test_bound_switch(self):
        # at the limit the exact sum is used, one past it the entropy exponent
        n = EXACT_TAIL_LIMIT
        r = n // 10
        exact = math.log2(sum(math.comb(n, m) for m in range(r + 1)))
        assert binomial_tail_log2(n, r) == exact
        assert exact < n * binary_entropy(r / n)
        n = EXACT_TAIL_LIMIT + 1
        r = n // 10
        assert binomial_tail_log2(n, r) == n * binary_entropy(r / n)
        # the entropy exponent really is an upper bound on the exact sum
        small = binomial_tail_log2(1000, 100)
        assert small <= 1000 * binary_entropy(0.1) + 1e-9

    def test_domain(self):
        for n, k in ((3, 4), (3, -1), (EXACT_TAIL_LIMIT + 1, EXACT_TAIL_LIMIT + 2)):
            with pytest.raises(DomainError):
                binomial_tail_log2(n, k)
            with pytest.raises(DomainError):
                binomial_tail(n, k)


class TestDeviationFunctions:
    def test_chernoff_values(self):
        assert chernoff_delta(5.0, 1.0) == 0.0
        assert chernoff_delta(2.0, E_INV) == pytest.approx(2.0, rel=1e-12)
        assert chernoff_delta(8.0, E_INV) == pytest.approx(4.0, rel=1e-12)
        # on an array: element-wise, bit for bit the scalar formula
        x = np.array([0.0, 1e-300, 0.5, 7.0, 123456.789, 3.7e12])
        for y in (1.0, 0.3, 1e-40):
            scalar = [math.sqrt(2.0 * float(v) * math.log(1.0 / y)) for v in x]
            assert chernoff_delta(x, y).tolist() == scalar

    def test_chernoff_domain(self):
        with pytest.raises(DomainError):
            chernoff_delta(1.0, 0.0)
        with pytest.raises(DomainError):
            chernoff_delta(-1.0, 0.5)
        with pytest.raises(DomainError):
            chernoff_delta(np.array([[4.0, 0.0], [2.0, -1e-12]]), 0.5)

    def test_serfling_values(self):
        assert serfling_lambda(10, 5, 1.0) == 0.0
        assert serfling_lambda(100, 100, E_INV) == pytest.approx(7.0711e-3, abs=1e-6)
        big = serfling_lambda(9_420_000, 4_450_000, 1e-10)
        assert big > 0.0
        assert big == pytest.approx(1.16833e-3, rel=1e-4)

    def test_serfling_domain(self):
        with pytest.raises(DomainError):
            serfling_lambda(5, 10, 0.5)
        with pytest.raises(DomainError):
            serfling_lambda(10, 5, 0.0)

    def test_upsilon_values(self):
        assert upsilon(7, 3, 1.0) == 0.0
        assert upsilon(1, 1, E_INV) == pytest.approx(0.70711, abs=1e-5)
        assert upsilon(3, 1, E_INV) == pytest.approx(0.70711, abs=1e-5)

    def test_mu_values(self):
        assert mu_parameter(1000, 100, 1.0) == 0.0
        assert mu_parameter(4.45e6, 5.18e5, 1e-5) == pytest.approx(3.13e-3, abs=2e-4)
        assert mu_parameter(100, 100, E_INV) == pytest.approx(7.07e-3, abs=1e-5)

    @given(
        st.floats(min_value=1.0, max_value=1e8),
        st.floats(min_value=1e-12, max_value=1.0),
        st.floats(min_value=1e-12, max_value=1.0),
    )
    def test_monotone_nonincreasing_in_z(self, x, z1, z2):
        lo, hi = sorted((z1, z2))
        assert chernoff_delta(x, lo) >= chernoff_delta(x, hi)
        y = max(1.0, x / 2.0)
        assert serfling_lambda(x, y, lo) >= serfling_lambda(x, y, hi)
        assert upsilon(x, y, lo) >= upsilon(x, y, hi)
        assert mu_parameter(x, y, lo) >= mu_parameter(x, y, hi)

    @given(
        st.floats(min_value=1.0, max_value=1e9),
        st.floats(min_value=1e-12, max_value=1.0),
    )
    def test_outputs_finite(self, x, z):
        y = max(1.0, x / 3.0)
        for value in (
            chernoff_delta(x, z),
            serfling_lambda(x, y, z),
            upsilon(x, y, z),
            mu_parameter(x, y, z),
        ):
            assert math.isfinite(value)


def test_log2addexp():
    assert log2addexp(3.0, 3.0) == pytest.approx(4.0, rel=1e-12)
    assert log2addexp(-math.inf, 2.0) == 2.0
    assert log2addexp(0.0, -10000.0) == pytest.approx(0.0, abs=1e-12)
