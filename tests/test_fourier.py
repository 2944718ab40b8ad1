"""Tests for the truncated trigonometric subspace and the order selector."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfunmix.fourier import (
    FourierBasis,
    build_basis,
    max_harmonics,
    reduce_columns,
    reduce_spectrum,
    select_num_harmonics,
)


def dense_reduction_oracle(y, n_harmonics):
    """Reduce one spectrum by summing explicit trigonometric products.

    Written without rfft or the basis operator so it can disagree with
    the implementation: coordinate pairs are the weighted cosine and
    negative-sine correlations of the signal at each harmonic.
    """
    y = np.asarray(y, dtype=np.float64)
    length = y.size
    out = np.zeros(2 * n_harmonics)
    for m in range(n_harmonics):
        weight = 1.0 if m == 0 or (length % 2 == 0 and m == length // 2) else np.sqrt(2.0)
        cos_sum = sum(y[n] * np.cos(2.0 * np.pi * m * n / length) for n in range(length))
        sin_sum = sum(y[n] * np.sin(2.0 * np.pi * m * n / length) for n in range(length))
        out[m] = weight * cos_sum / np.sqrt(length)
        out[n_harmonics + m] = -weight * sin_sum / np.sqrt(length) if m > 0 else 0.0
    return out


class TestBuildBasis:
    def test_max_harmonics(self):
        assert max_harmonics(4) == 3
        assert max_harmonics(5) == 3
        assert max_harmonics(200) == 101

    def test_constant_signal_hand_value(self):
        """A constant [1,1,1,1] holds all its energy at the DC harmonic."""
        basis = build_basis(4, 1)
        np.testing.assert_allclose(reduce_spectrum(np.ones(4), basis), [2.0, 0.0])

    def test_pure_cosine_hand_value(self):
        """cos(2 pi n / 8) maps to 2 at the first-harmonic real coordinate."""
        y = np.cos(2.0 * np.pi * np.arange(8) / 8.0)
        got = reduce_spectrum(y, build_basis(8, 2))
        np.testing.assert_allclose(got, [0.0, 2.0, 0.0, 0.0], atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for length, m in [(7, 2), (8, 5), (12, 3), (31, 16)]:
            y = rng.normal(size=length)
            basis = build_basis(length, m)
            np.testing.assert_allclose(
                reduce_spectrum(y, basis), dense_reduction_oracle(y, m), atol=1e-10
            )

    def test_full_basis_preserves_energy_odd(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=11)
        basis = build_basis(11, max_harmonics(11))
        assert abs(np.sum(reduce_spectrum(y, basis) ** 2) - np.sum(y**2)) < 1e-10

    def test_full_basis_preserves_energy_even(self):
        """Even lengths need the Nyquist row downweighted for tight Parseval."""
        rng = np.random.default_rng(2)
        y = rng.normal(size=10)
        basis = build_basis(10, max_harmonics(10))
        assert abs(np.sum(reduce_spectrum(y, basis) ** 2) - np.sum(y**2)) < 1e-10

    def test_retained_energy_monotone_in_order(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=20)
        energies = [
            np.sum(reduce_spectrum(y, build_basis(20, m)) ** 2)
            for m in range(1, max_harmonics(20) + 1)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))
        assert abs(energies[-1] - np.sum(y**2)) < 1e-10

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match=r"n_harmonics must be in \[1, 3\]"):
            build_basis(4, 4)
        with pytest.raises(ValueError, match="n_harmonics"):
            build_basis(4, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(4, 24),
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
    )
    def test_reduction_is_linear(self, seed, length, a, b):
        rng = np.random.default_rng(seed)
        y1, y2 = rng.normal(size=(2, length))
        basis = build_basis(length, max(1, length // 3))
        lhs = reduce_spectrum(a * y1 + b * y2, basis)
        rhs = a * reduce_spectrum(y1, basis) + b * reduce_spectrum(y2, basis)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestBasisValidation:
    def test_row_shape_mismatch(self):
        good = build_basis(6, 2)
        with pytest.raises(ValueError, match="operator shape"):
            FourierBasis(6, 2, good.operator[:, :-1])
        with pytest.raises(ValueError, match="operator shape"):
            FourierBasis(6, 2, good.operator[:-1])

    def test_dc_imag_row_must_vanish(self):
        good = build_basis(6, 2)
        bad = good.operator.copy()
        bad[2, 0] = 0.1
        with pytest.raises(ValueError, match="DC harmonic"):
            FourierBasis(6, 2, bad)


class TestReduceColumns:
    def test_reduce_columns_matches_per_spectrum(self):
        rng = np.random.default_rng(4)
        cols = rng.normal(size=(15, 3))
        basis = build_basis(15, 4)
        reduced = reduce_columns(cols, basis)
        assert isinstance(reduced, np.ndarray)
        assert reduced.shape == (8, 3)
        for q in range(3):
            np.testing.assert_allclose(reduced[:, q], reduce_spectrum(cols[:, q], basis))

    def test_reduce_shape_errors(self):
        basis = build_basis(15, 4)
        with pytest.raises(ValueError, match="length 15"):
            reduce_spectrum(np.ones(14), basis)
        with pytest.raises(ValueError, match=r"\(L, Q\) columns"):
            reduce_columns(np.ones((14, 2)), basis)


class TestSelectNumHarmonics:
    def test_constant_needs_one_harmonic(self):
        rows = np.ones((3, 12))
        assert select_num_harmonics(rows, 99.0) == 1

    def test_full_retention_needs_all(self):
        rng = np.random.default_rng(5)
        for length in (11, 12):
            rows = rng.normal(size=(4, length))
            assert select_num_harmonics(rows, 100.0) == max_harmonics(length)

    def test_energy_ratio_at_selected_order(self):
        """The chosen order is the smallest reaching the retention target."""
        rng = np.random.default_rng(6)
        rows = rng.uniform(0.1, 1.0, size=(5, 30))
        eta = 90.0
        m = select_num_harmonics(rows, eta)
        total = np.sum(rows**2)

        def retained(order):
            basis = build_basis(30, order)
            return sum(np.sum(reduce_spectrum(r, basis) ** 2) for r in rows)

        assert retained(m) >= (eta / 100.0) * total - 1e-10
        if m > 1:
            assert retained(m - 1) < (eta / 100.0) * total

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(7)
        rows = rng.uniform(size=(4, 40))
        orders = [select_num_harmonics(rows, eta) for eta in (50, 80, 95, 99, 100)]
        assert orders == sorted(orders)

    def test_eta_range_enforced(self):
        rows = np.ones((1, 8))
        with pytest.raises(ValueError, match="eta must be in"):
            select_num_harmonics(rows, 0.0)
        with pytest.raises(ValueError, match="eta must be in"):
            select_num_harmonics(rows, 100.5)

    def test_rejects_vector_input(self):
        with pytest.raises(ValueError, match="spectra must be 2-dimensional, got ndim=1"):
            select_num_harmonics(np.ones(8), 90.0)
