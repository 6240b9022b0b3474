"""One-step updates and channel thresholding."""

import numpy as np
import pytest

import d2_explicit
import sphattn.harmonics as harmonics_mod
from sphattn import (
    EmptySelectionError,
    gen_dataset,
    make_target,
    one_step_channel_weights,
    one_step_second_layer,
    one_step_updates,
    oracle_weights,
    predict,
    sample_sphere,
    select_channels,
    threshold_channels,
)
from sphattn.targets import LabeledDataset


def _single_point_dataset():
    """One sample on the circle with <q, x> = 0.5 and response 2."""
    x = np.array([[1.0, 0.0]])
    q = np.array([[0.5, np.sqrt(3) / 2]])
    ds = LabeledDataset(S=x, f_star_S=np.array([2.0]), y=np.array([2.0]), sigma0=0.0)
    return ds, q


class TestOneStepSecondLayer:
    def test_zero_responses(self):
        ds, q = _single_point_dataset()
        ds = LabeledDataset(S=ds.S, f_star_S=ds.f_star_S, y=np.zeros(1), sigma0=0.0)
        assert np.array_equal(one_step_second_layer(ds, q, 3), np.zeros(1))

    def test_hand_computed_value(self):
        # (N(2,0)*P_0 + N(2,1)*P_1(0.5)) * y = (1 + 2*0.5) * 2 = 4
        ds, q = _single_point_dataset()
        np.testing.assert_allclose(one_step_second_layer(ds, q, 1), [4.0], atol=1e-14)

    def test_linear_in_responses(self):
        target = make_target(3, 1, [1.0, 1.0], 0)
        ds = gen_dataset(target, 30, 0.3, 1)
        Q = sample_sphere(25, 3, 2)
        a1 = one_step_second_layer(ds, Q, 2)
        doubled = LabeledDataset(S=ds.S, f_star_S=ds.f_star_S, y=2 * ds.y, sigma0=ds.sigma0)
        np.testing.assert_allclose(one_step_second_layer(doubled, Q, 2), 2 * a1, rtol=1e-13)

    def test_rejects_dimension_mismatch(self):
        ds, _ = _single_point_dataset()
        with pytest.raises(ValueError):
            one_step_second_layer(ds, sample_sphere(3, 4, 0), 1)


class TestOneStepChannelWeights:
    def test_zero_responses(self):
        ds, q = _single_point_dataset()
        ds = LabeledDataset(S=ds.S, f_star_S=ds.f_star_S, y=np.zeros(1), sigma0=0.0)
        out = one_step_channel_weights(ds, q, np.zeros(1), 3)
        assert np.array_equal(out, np.zeros(4))

    def test_hand_computed_values(self):
        # tau_0 = y * N(2,0) * P_0 * a1 = 2 * 1 * 4 = 8
        # tau_1 = y * N(2,1) * P_1(0.5) * a1 = 2 * (2 * 0.5) * 4 = 8
        ds, q = _single_point_dataset()
        a1 = one_step_second_layer(ds, q, 1)
        np.testing.assert_allclose(one_step_channel_weights(ds, q, a1, 1), [8.0, 8.0], atol=1e-13)

    def test_sign_invariance(self):
        target = make_target(4, 1, [1.0, 1.0], 3)
        ds = gen_dataset(target, 40, 0.2, 4)
        Q = sample_sphere(30, 4, 5)
        tau = one_step_channel_weights(ds, Q, one_step_second_layer(ds, Q, 2), 2)
        flipped = LabeledDataset(S=ds.S, f_star_S=ds.f_star_S, y=-ds.y, sigma0=ds.sigma0)
        tau_flipped = one_step_channel_weights(
            flipped, Q, one_step_second_layer(flipped, Q, 2), 2
        )
        np.testing.assert_allclose(tau_flipped, tau, rtol=1e-12)

    def test_quadratic_homogeneity(self):
        target = make_target(3, 1, [1.0, 0.5], 6)
        ds = gen_dataset(target, 35, 0.1, 7)
        Q = sample_sphere(20, 3, 8)
        tau = one_step_channel_weights(ds, Q, one_step_second_layer(ds, Q, 3), 3)
        scaled = LabeledDataset(S=ds.S, f_star_S=ds.f_star_S, y=3 * ds.y, sigma0=ds.sigma0)
        tau_scaled = one_step_channel_weights(
            scaled, Q, one_step_second_layer(scaled, Q, 3), 3
        )
        np.testing.assert_allclose(tau_scaled, 9 * tau, rtol=1e-12)

    def test_rejects_length_mismatch(self):
        ds, q = _single_point_dataset()
        with pytest.raises(ValueError, match="shape"):
            one_step_channel_weights(ds, q, np.zeros(3), 1)

    def test_block_size_independent_up_to_rounding(self, monkeypatch):
        target = make_target(3, 1, [1.0, 1.0], 9)
        ds = gen_dataset(target, 50, 0.2, 10)
        Q = sample_sphere(600, 3, 11)
        a1 = one_step_second_layer(ds, Q, 2)
        tau_big = one_step_channel_weights(ds, Q, a1, 2)
        monkeypatch.setattr(harmonics_mod, "BLOCK_ENTRIES", 64 * ds.n)
        a1_small = one_step_second_layer(ds, Q, 2)
        tau_small = one_step_channel_weights(ds, Q, a1_small, 2)
        np.testing.assert_allclose(tau_small, tau_big, rtol=1e-11)


class TestOneStepUpdates:
    def test_matches_public_wrappers(self):
        target = make_target(4, 2, [1.0, 0.5, 1.0], 21)
        ds = gen_dataset(target, 70, 0.2, 22)
        Q = sample_sphere(90, 4, 23)
        a1, tau = one_step_updates(ds, Q, 3)
        a1_ref = one_step_second_layer(ds, Q, 3)
        np.testing.assert_array_equal(a1, a1_ref)
        np.testing.assert_array_equal(tau, one_step_channel_weights(ds, Q, a1_ref, 3))

    def test_degree_zero_only(self):
        ds, q = _single_point_dataset()
        a1, tau = one_step_updates(ds, q, 0)
        # a1 = N(2,0) * y = 2, tau_0 = y * a1 = 4
        np.testing.assert_allclose(a1, [2.0], atol=1e-15)
        np.testing.assert_allclose(tau, [4.0], atol=1e-15)

    def test_rejects_dot_product_outside_band(self):
        target = make_target(3, 1, [1.0, 1.0], 24)
        ds = gen_dataset(target, 40, 0.1, 25)
        S = ds.S.copy()
        Q = sample_sphere(30, 3, 26)
        # both rows pass the 1e-8 unit-norm check, their dot product does not
        S[5] = Q[7] * (1.0 + 5e-9)
        bad = LabeledDataset(S=S, f_star_S=ds.f_star_S, y=ds.y, sigma0=ds.sigma0)
        with pytest.raises(ValueError, match=r"dot product outside .* at index \(5, 7\)"):
            one_step_updates(bad, Q, 2)
        with pytest.raises(ValueError, match="dot product outside"):
            select_channels(bad, Q, 2, epsilon0=0.1)

    def test_rejects_non_unit_point(self):
        # a halved row keeps every dot product inside the band; train rejects it too
        target = make_target(4, 1, [1.0, 1.0], 24)
        ds = gen_dataset(target, 50, 0.1, 25)
        Q = sample_sphere(40, 4, 26)
        S = ds.S.copy()
        S[3] *= 0.5
        bad = LabeledDataset(S=S, f_star_S=ds.f_star_S, y=ds.y, sigma0=ds.sigma0)
        with pytest.raises(ValueError, match="X row 3 is not unit-norm"):
            one_step_updates(bad, Q, 2)
        with pytest.raises(ValueError, match="X row 3 is not unit-norm"):
            one_step_channel_weights(bad, Q, np.zeros(40), 2)
        with pytest.raises(ValueError, match="X row 3 is not unit-norm"):
            select_channels(bad, Q, 2, epsilon0=0.1)

    def test_allocates_no_m_by_n_array(self):
        import tracemalloc

        target = make_target(5, 1, [1.0, 1.0], 27)
        ds = gen_dataset(target, 1500, 0.1, 28)
        Q = sample_sphere(1200, 5, 29)
        one_step_updates(ds, Q, 4)  # warm up lazy allocations
        tracemalloc.start()
        try:
            one_step_updates(ds, Q, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * ds.n * Q.shape[0] / 4


def _no_walk(monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("the Gegenbauer walk was called")

    monkeypatch.setattr(harmonics_mod, "gegenbauer_blocks", walk)


def _no_expansion(monkeypatch):
    def expansion(*args, **kwargs):
        raise AssertionError("the monomial expansion was called")

    monkeypatch.setattr(harmonics_mod, "_power_sums", expansion)


def _walk_only(monkeypatch):
    monkeypatch.setattr(harmonics_mod, "_expansion_is_cheaper", lambda *args: False)


def _walk_error(S, Q, d, L) -> str:
    with pytest.raises(ValueError) as err:
        for _ in harmonics_mod.gegenbauer_blocks(S, Q, d, L):
            pass
    return str(err.value)


# points per block of the expansion at d = 8, L = 4
_WIDTH_8_4 = harmonics_mod._expansion_width(8, 4)


def _assert_matches_walk(d, L, n, m, monkeypatch):
    """V, a1, tau_raw and predict with the walk patched to raise, against the walk.

    predict runs with channels 0..L on the n points, so its degree
    projections have the sides of stage one's swapped.
    """
    target = make_target(d, 2, [1.0, 1.0, 1.0], 40 + d)
    ds = gen_dataset(target, n, 0.2, 41 + d)
    Q = sample_sphere(m, d, 42 + d)
    a, channels = np.random.default_rng(43 + d).standard_normal(m), oracle_weights(d, L)

    def outputs():
        V = harmonics_mod._degree_projections(Q, ds.S, ds.y, L)
        return (V, *one_step_updates(ds, Q, L), predict(a, ds.S, Q, channels))

    with monkeypatch.context() as mp:
        _no_walk(mp)
        got_all = outputs()
    _walk_only(monkeypatch)
    # entries that cancel to near zero are compared at the array's scale
    for got, ref in zip(got_all, outputs()):
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-11 * np.max(np.abs(ref)))


class TestMonomialExpansion:
    """V, a1, tau_raw and predict from the monomial expansion against the recurrence walk."""

    # d = 8, L = 4 is the select-d8 benchmark's degree pair: with the walk
    # patched to raise, a change that sends it back to the walk fails here
    # too.  (3, 2), (6, 1) and (8, 2) add pairs that predict meets with
    # oracle channels.  L = 0 has nothing to expand but the band check and
    # sum(y); odd L leaves G one half-degree narrower than tall.  The error
    # bound does not grow with n: at 1e5 points (n + p_h p_l) * eps *
    # max_k ||C[k]||_1 would read 1.9e-10 and send d = 3, L = 4 to the walk.
    # With one more point than a block holds, both passes end in a block of
    # one point.
    @pytest.mark.parametrize(
        "d, L, n, m",
        [(2, 6, 400, 400), (3, 5, 400, 400), (4, 3, 400, 400), (8, 4, 400, 400),
         (3, 2, 400, 400), (6, 1, 400, 400), (8, 2, 400, 400),
         (3, 0, 400, 400), (3, 4, 10**5, 100),
         (8, 3, 400, 400), (8, 1, 400, 400), (16, 4, 400, 400), (20, 4, 2000, 2000),
         (2, 1, 400, 400), (6, 0, 400, 400), (20, 1, 2000, 2000), (6, 1, 10**5, 100),
         (8, 4, _WIDTH_8_4 + 1, _WIDTH_8_4 + 1)],
    )
    def test_matches_walk(self, d, L, n, m, monkeypatch):
        _assert_matches_walk(d, L, n, m, monkeypatch)

    @pytest.mark.parametrize("d, n, m", [(2, 300, 200), (6, 8000, 2000), (20, 50, 700)])
    def test_degree_one_sums_match_the_gram(self, d, n, m):
        # at L <= 1 the sums are sum(y) and A @ (B.T @ y); the Gram route at
        # L = 2 yields the same two rows first
        A, B = sample_sphere(m, d, 70 + d), sample_sphere(n, d, 71 + d)
        y = np.random.default_rng(72 + d).standard_normal(n)
        gram = harmonics_mod._power_sums(A, B, y, 2)
        for L in (0, 1):
            u = harmonics_mod._power_sums(A, B, y, L)
            assert u.shape == (L + 1, m)
            np.testing.assert_allclose(u, gram[: L + 1], rtol=1e-12,
                                       atol=1e-13 * np.sum(np.abs(y)))

    def test_one_sample_matches_walk(self, monkeypatch):
        # too few pairs for the rule to take the expansion, so it is forced
        monkeypatch.setattr(harmonics_mod, "_expansion_is_cheaper", lambda *args: True)
        _assert_matches_walk(8, 4, 1, _WIDTH_8_4 + 1, monkeypatch)

    def test_matches_explicit_basis_on_circle(self, monkeypatch):
        target = make_target(2, 2, [1.0, 0.5, 1.0], 43)
        ds = gen_dataset(target, 150, 0.3, 44)
        Q = sample_sphere(140, 2, 45)
        _no_walk(monkeypatch)
        a1, tau = one_step_updates(ds, Q, 8)
        a1_ref, tau_ref = d2_explicit.one_step_explicit(ds.S, ds.y, Q, 8)
        np.testing.assert_allclose(a1, a1_ref, rtol=1e-10)
        np.testing.assert_allclose(tau, tau_ref, rtol=1e-10)

    def test_path_rule(self, monkeypatch):
        cheaper, error = harmonics_mod._expansion_is_cheaper, harmonics_mod._expansion_error
        # the criterion-5 shape: cheaper, and the error bound clears the bar
        assert cheaper(4000, 4000, 8, 4)
        assert error(8, 4, 1.0) <= 1e-10
        assert cheaper(4000, 4000, 8, 0)
        # Chebyshev coefficients at degree 12 are too large for the bound
        assert cheaper(400, 400, 2, 12)
        assert error(2, 12, 1.0) > 1e-10
        # high d at L = 4, where the GEMMs win by m = n = 2000 (d = 16, 20)
        # or only at 4000 (d = 30); each case timed on both routes
        assert cheaper(2000, 2000, 16, 4) and error(16, 4, 1.0) <= 1e-10
        assert cheaper(2000, 2000, 20, 4) and error(20, 4, 1.0) <= 1e-10
        assert cheaper(4000, 4000, 30, 4)
        # too few pairs to pay for the expansion's calls, and GEMMs of
        # 496 x 496 per point at d = 30 (each timed slower than the walk)
        assert not cheaper(6, 5, 8, 4)
        assert not cheaper(20, 20, 2, 6)
        assert not cheaper(2000, 2000, 30, 4)
        assert not cheaper(400, 400, 30, 4)
        _no_expansion(monkeypatch)
        for d, L, n, m in [(2, 12, 400, 400), (8, 4, 6, 5), (30, 4, 300, 300)]:
            target = make_target(d, 0, [1.0], 46)
            one_step_updates(gen_dataset(target, n, 0.1, 47), sample_sphere(m, d, 48), L)

    @pytest.mark.parametrize(
        "d, L", [(2, 9), (3, 5), (4, 7), (8, 3), (8, 4), (16, 3), (16, 4), (20, 4)]
    )
    def test_error_bound_covers_measured_error(self, d, L, monkeypatch):
        # the a-priori bound on V, relative to ||y||_1, against the gap the
        # expansion actually leaves to the walk, and the same bound on
        # predict relative to sum_k |tau_k| ||a||_1 / sqrt(m); d = 2, L = 9
        # sits just under _FACTOR_RTOL, where Chebyshev coefficients are largest
        target = make_target(d, 2, [1.0, 1.0, 1.0], 60 + d)
        ds = gen_dataset(target, 500, 0.2, 61 + d)
        Q = sample_sphere(300, d, 62 + d)
        a, channels = np.random.default_rng(63 + d).standard_normal(300), oracle_weights(d, L)
        V = harmonics_mod._gegenbauer_coefficients(d, L) @ harmonics_mod._power_sums(
            Q, ds.S, ds.y, L)
        with monkeypatch.context() as mp:
            mp.setattr(harmonics_mod, "_expansion_is_cheaper", lambda *args: True)
            _no_walk(mp)
            f = predict(a, ds.S, Q, channels)
        _walk_only(monkeypatch)
        V_walk = harmonics_mod._degree_projections(Q, ds.S, ds.y, L)
        f_walk = predict(a, ds.S, Q, channels)
        bound = harmonics_mod._expansion_error(d, L, harmonics_mod._RHO)
        measured = np.max(np.abs(V - V_walk)) / np.sum(np.abs(ds.y))
        assert 0.0 < measured <= bound
        scale = np.sum(np.abs(channels)) * np.sum(np.abs(a)) / np.sqrt(300)
        assert 0.0 < np.max(np.abs(f - f_walk)) / scale <= bound

    def test_power_sums_memory_bounded_in_n(self):
        import tracemalloc

        # d = 8, L = 4 with m = 4000 directions: the peak is the output u
        # and a few blocks, whatever the number of points, and no more than
        # the 1295776 bytes of the per-degree expansion that preceded it
        A = sample_sphere(4000, 8, 63)
        peaks = []
        for n in (4000, 64000):
            B = sample_sphere(n, 8, 64)
            y = np.random.default_rng(65).standard_normal(n)
            harmonics_mod._power_sums(A, B, y, 4)  # warm up lazy allocations
            tracemalloc.start()
            try:
                harmonics_mod._power_sums(A, B, y, 4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # equal up to small Python objects; one more block row would be 5.8 KB
        assert abs(peaks[1] - peaks[0]) <= 1024
        assert max(peaks) <= 1295776

    def test_uncleared_rows_in_band_keep_the_expansion(self, monkeypatch):
        # rows 1e-9 longer than unit pass the norm check but not the screen's
        # bound; their dot products are formed, found in band, and used
        target = make_target(4, 1, [1.0, 1.0], 49)
        ds = gen_dataset(target, 200, 0.1, 50)
        Q = sample_sphere(150, 4, 51)
        Q[::7] *= 1.0 + 1e-9
        with monkeypatch.context() as mp:
            _no_walk(mp)
            a1, tau = one_step_updates(ds, Q, 3)
        _walk_only(monkeypatch)
        a1_ref, tau_ref = one_step_updates(ds, Q, 3)
        np.testing.assert_allclose(a1, a1_ref, rtol=1e-11)
        np.testing.assert_allclose(tau, tau_ref, rtol=1e-11)

    def test_allocates_no_m_by_p_array(self, monkeypatch):
        import tracemalloc

        # d = 8, L = 4: p = 495 monomials, so m x p would be 12 MB here
        ds = gen_dataset(make_target(8, 2, [1.0, 1.0, 1.0], 55), 3000, 0.1, 56)
        Q = sample_sphere(3000, 8, 57)
        _no_walk(monkeypatch)
        one_step_updates(ds, Q, 4)  # warm up lazy allocations
        tracemalloc.start()
        try:
            one_step_updates(ds, Q, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * Q.shape[0] * 495 / 4

    @pytest.mark.parametrize("row", ["nan", "long"])
    def test_screen_rejects_like_the_walk(self, row, monkeypatch):
        d, L = 5, 3
        target = make_target(d, 1, [1.0, 1.0], 52)
        ds = gen_dataset(target, 400, 0.1, 53)
        Q = sample_sphere(300, d, 54)
        S = ds.S.copy()
        # a NaN or a 1.5x row of X fails the unit-norm check before any dot product
        if row == "nan":
            S[17, 2] = np.nan
        else:
            S[17] *= 1.5
        bad = LabeledDataset(S=S, f_star_S=ds.f_star_S, y=ds.y, sigma0=ds.sigma0)
        with pytest.raises(ValueError, match="X row 17 is not unit-norm"):
            one_step_updates(bad, Q, L)
        # a row inside the unit tolerance whose dot product leaves the band
        # meets the error of the walk over the points, on either route
        j = {"nan": 40, "long": 123}[row]
        S[17] = Q[j] * (1.0 + 5e-9)
        expected = _walk_error(S, Q, d, L)
        bad = LabeledDataset(S=S, f_star_S=ds.f_star_S, y=ds.y, sigma0=ds.sigma0)
        assert f"(17, {j})" in expected
        with monkeypatch.context() as mp:
            _walk_only(mp)
            with pytest.raises(ValueError) as err:
                one_step_updates(bad, Q, L)
            assert str(err.value) == expected
        _no_walk(monkeypatch)
        with pytest.raises(ValueError) as err:
            one_step_updates(bad, Q, L)
        assert str(err.value) == expected


class TestThreshold:
    def test_basic_rule(self):
        res = threshold_channels([0.35, 0.25, 0.05], 0.1, 3)
        assert res.mask.tolist() == [True, True, False]
        np.testing.assert_allclose(res.tau_final, [1.0, np.sqrt(3), 0.0])
        assert res.ell_hat == 1 and res.epsilon0 == 0.1

    def test_empty_selection_raises(self):
        with pytest.raises(EmptySelectionError):
            threshold_channels([0.01, 0.005], 0.1, 3)

    def test_boundary_is_inclusive(self):
        res = threshold_channels([0.2], 0.1, 4)
        assert res.mask.tolist() == [True]

    def test_non_contiguous_mask_warns(self):
        with pytest.warns(UserWarning, match="contiguous"):
            res = threshold_channels([0.5, 0.01, 0.5], 0.1, 3)
        assert res.ell_hat == 2
        np.testing.assert_allclose(res.tau_final, [1.0, 0.0, np.sqrt(5)])

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            threshold_channels([0.5], 0.0, 3)

    @pytest.mark.parametrize("epsilon0", [np.nan, np.inf])
    def test_rejects_non_finite_threshold(self, epsilon0):
        # a bad input, not an EmptySelectionError at 2*epsilon0 = nan or inf
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            threshold_channels([0.5, 0.3], epsilon0, 3)

    def test_json_round_trip(self, tmp_path):
        import json

        res = threshold_channels([0.35, 0.25, 0.05], 0.1, 3)
        res.to_json(tmp_path / "sel.json")
        data = json.loads((tmp_path / "sel.json").read_text())
        assert set(data) == {"tau_raw", "mask", "ell_hat", "epsilon0"}
        assert data["ell_hat"] == 1 and data["mask"] == [True, True, False]


class TestMatrixFreeAgainstExplicitBasis:
    def test_one_step_updates_on_circle(self):
        target = make_target(2, 1, [1.0, 1.0], 12)
        ds = gen_dataset(target, 120, 0.3, 13)
        Q = sample_sphere(110, 2, 14)
        L = 4
        a1 = one_step_second_layer(ds, Q, L)
        tau = one_step_channel_weights(ds, Q, a1, L)
        a1_ref, tau_ref = d2_explicit.one_step_explicit(ds.S, ds.y, Q, L)
        np.testing.assert_allclose(a1, a1_ref, rtol=1e-10)
        np.testing.assert_allclose(tau, tau_ref, rtol=1e-10, atol=1e-12)

    def test_single_pass_on_circle(self):
        target = make_target(2, 2, [1.0, 0.5, 1.0], 30)
        ds = gen_dataset(target, 130, 0.3, 31)
        Q = sample_sphere(100, 2, 32)
        a1, tau = one_step_updates(ds, Q, 5)
        a1_ref, tau_ref = d2_explicit.one_step_explicit(ds.S, ds.y, Q, 5)
        np.testing.assert_allclose(a1, a1_ref, rtol=1e-10)
        np.testing.assert_allclose(tau, tau_ref, rtol=1e-10)


class TestSelectChannels:
    def test_degree_zero_target_selects_channel_zero(self):
        target = make_target(4, 0, [1.0], 15)
        ds = gen_dataset(target, 2000, 0.0, 16)
        Q = sample_sphere(2000, 4, 17)
        res = select_channels(ds, Q, 2, epsilon0=0.25)
        assert res.ell_hat == 0
        assert res.mask.tolist() == [True, False, False]

    def test_zero_responses_fail(self):
        target = make_target(3, 0, [1.0], 18)
        ds = gen_dataset(target, 20, 0.0, 19)
        ds = LabeledDataset(S=ds.S, f_star_S=ds.f_star_S, y=np.zeros(20), sigma0=0.0)
        with pytest.raises(EmptySelectionError):
            select_channels(ds, sample_sphere(15, 3, 20), 2, epsilon0=0.1)

    def test_recovery_in_well_conditioned_regime(self):
        """With n, m large relative to the total harmonic count the informative
        channels separate from the redundant ones and the top selected degree
        matches the target degree in nearly every trial."""
        d, ell0, L, n, m, sigma0 = 5, 1, 3, 3000, 3000, 0.1
        hits, gaps = [], []
        for seed in range(8):
            target = make_target(d, ell0, [1.0, 1.0], 100 + seed)
            ds = gen_dataset(target, n, sigma0, 200 + seed)
            Q = sample_sphere(m, d, 300 + seed)
            a1 = one_step_second_layer(ds, Q, L)
            tau_raw = one_step_channel_weights(ds, Q, a1, L)
            gaps.append(tau_raw[: ell0 + 1].min() - np.abs(tau_raw[ell0 + 1 :]).max())
            res = select_channels(ds, Q, L, epsilon0=0.05)
            hits.append(res.ell_hat == ell0)
        assert np.mean(hits) >= 0.9
        assert np.mean([g > 0 for g in gaps]) >= 0.9

    def test_noise_only_control_yields_empty_selection(self):
        """Pure-noise responses with a threshold calibrated for signal runs
        leave every channel below the bar in most trials."""
        d, L, n, m = 4, 2, 1000, 1000
        empty = 0
        for seed in range(6):
            target = make_target(d, 0, [1.0], 700 + seed)
            ds = gen_dataset(target, n, 0.0, 720 + seed)
            noise = np.random.default_rng(740 + seed).standard_normal(n)
            ds = LabeledDataset(S=ds.S, f_star_S=np.zeros(n), y=noise, sigma0=1.0)
            Q = sample_sphere(m, d, 760 + seed)
            try:
                select_channels(ds, Q, L, epsilon0=0.05)
            except EmptySelectionError:
                empty += 1
        assert empty >= 5

    def test_redundant_weights_shrink_with_more_data(self):
        """Redundant-channel weights decay as n and m grow (quadrupled here)."""
        d, ell0, L = 4, 1, 3

        def mean_redundant(n, m, offset):
            vals = []
            for seed in range(6):
                target = make_target(d, ell0, [1.0, 1.0], offset + seed)
                ds = gen_dataset(target, n, 0.1, offset + 50 + seed)
                Q = sample_sphere(m, d, offset + 90 + seed)
                a1 = one_step_second_layer(ds, Q, L)
                tau_raw = one_step_channel_weights(ds, Q, a1, L)
                vals.append(np.abs(tau_raw[ell0 + 1 :]))
            return np.mean(vals, axis=0)

        small = mean_redundant(600, 600, 1000)
        large = mean_redundant(2400, 2400, 1000)
        assert np.all(large < small)
