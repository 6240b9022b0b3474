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
        with pytest.raises(ValueError, match=r"dot product outside .* at index \(7, 5\)"):
            one_step_updates(bad, Q, 2)
        with pytest.raises(ValueError, match="dot product outside"):
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
