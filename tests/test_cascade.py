"""Unit tests for cascade construction, validation, and serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

import koopcascade as kc


class TestStateVector:
    def test_index_out_of_range(self):
        x = kc.StateVector.of([[1.0], [2.0]])
        with pytest.raises(IndexError):
            x.layer(3)


class TestValidateConditions:
    def test_scalar_pair_passes(self, scalar_pair):
        rep = kc.validate_conditions(scalar_pair)
        assert rep.overall
        assert rep.spectral_gap == pytest.approx(0.4, abs=1e-14)
        assert rep.resonance_margin == pytest.approx(abs(1 - 0.5 / 0.9), abs=1e-14)
        assert rep.norm_hierarchy_ok and not rep.top_norm_marginal

    def test_equal_spectra_fail(self):
        sys_ = kc.CascadeSystem.build(
            [np.array([[0.5]]), np.array([[0.5]])], {(2, 1): np.array([[1.0]])}
        )
        rep = kc.validate_conditions(sys_)
        assert rep.spectral_gap == pytest.approx(0.0, abs=1e-15)
        assert not rep.overall

    def test_reversed_hierarchy_fail(self):
        sys_ = kc.CascadeSystem.build(
            [np.array([[0.9]]), np.array([[0.5]])], {(2, 1): np.array([[1.0]])}
        )
        rep = kc.validate_conditions(sys_)
        assert not rep.norm_hierarchy_ok
        assert not rep.overall

    def test_marginal_top_norm_flagged_not_failed(self):
        sys_ = kc.CascadeSystem.build([np.array([[0.5]]), np.array([[1.0]])])
        rep = kc.validate_conditions(sys_)
        assert rep.top_norm_marginal
        assert rep.overall

    def test_pure(self, scalar_pair):
        a = kc.validate_conditions(scalar_pair)
        b = kc.validate_conditions(scalar_pair)
        assert a == b

    def test_report_json_keys(self, scalar_pair):
        obj = kc.validate_conditions(scalar_pair).to_json()
        for key in (
            "invertible_diagonalizable",
            "condition_numbers",
            "disjoint_spectra_gap",
            "resonance_margin",
            "norms",
            "norm_hierarchy_ok",
            "overall",
        ):
            assert key in obj


class TestRandomChainedCascade:
    def test_generated_systems_validate(self):
        # generator-level guarantee, property-tested over seeds
        for seed in range(12):
            rng = np.random.default_rng(seed)
            sys_ = kc.random_chained_cascade([2, 3], [0.81, 0.9], rng)
            assert kc.validate_conditions(sys_).overall

    def test_chained_coupling_keys(self):
        rng = np.random.default_rng(0)
        sys_ = kc.random_chained_cascade([2, 3, 2], [0.7, 0.8, 0.9], rng)
        assert set(sys_.couplings) == {(2, 1), (3, 2)}
        assert sys_.chained

    def test_norm_schedule_hit(self):
        rng = np.random.default_rng(1)
        norms = [0.9 ** (8 - i) for i in range(1, 8)]
        dims = [int(d) for d in rng.integers(2, 7, 7)]
        sys_ = kc.random_chained_cascade(dims, norms, rng)
        np.testing.assert_allclose(sys_.norms, norms, rtol=1e-12)

    def test_decreasing_schedule_rejected(self):
        with pytest.raises(ValueError):
            kc.random_chained_cascade([2, 2], [0.9, 0.5], np.random.default_rng(2))

    def test_schedule_above_one_rejected(self):
        with pytest.raises(ValueError):
            kc.random_chained_cascade([2, 2], [0.9, 1.1], np.random.default_rng(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kc.random_chained_cascade([2, 2, 2], [0.8, 0.9], np.random.default_rng(4))


class TestBuild:
    def test_coupling_shape_checked(self):
        with pytest.raises(ValueError):
            kc.CascadeSystem.build(
                [np.eye(2) * 0.5, np.eye(3) * 0.9],
                {(2, 1): np.zeros((2, 2))},
            )

    def test_upper_coupling_rejected(self):
        with pytest.raises(ValueError):
            kc.CascadeSystem.build(
                [np.eye(2) * 0.5, np.eye(2) * 0.9],
                {(1, 2): np.zeros((2, 2))},
            )

    def test_general_cascade_not_chained(self):
        sys_ = kc.CascadeSystem.build(
            [np.array([[0.5]]), np.array([[0.7]]), np.array([[0.9]])],
            {(3, 1): np.array([[1.0]])},
        )
        assert not sys_.chained

    def test_defective_layer_reported(self):
        sys_ = kc.CascadeSystem.build([np.array([[1.0, 1.0], [0.0, 1.0]])])
        assert sys_.eig[0] is None
        rep = kc.validate_conditions(sys_)
        assert not rep.layer_diagonalizable[0]
        assert not rep.overall


class TestJson:
    def test_chained_round_trip(self, scalar_pair):
        obj = kc.cascade_to_json(scalar_pair)
        assert "C_prev" in obj["layers"][1]
        back = kc.cascade_from_json(obj)
        assert back.dims == scalar_pair.dims
        np.testing.assert_array_equal(back.L[0], scalar_pair.L[0])
        np.testing.assert_array_equal(back.couplings[(2, 1)], scalar_pair.couplings[(2, 1)])

    def test_general_round_trip(self):
        sys_ = kc.CascadeSystem.build(
            [np.array([[0.5]]), np.array([[0.7]]), np.array([[0.9]])],
            {(3, 1): np.array([[2.0]]), (3, 2): np.array([[1.0]])},
        )
        back = kc.cascade_from_json(kc.cascade_to_json(sys_))
        assert set(back.couplings) == {(3, 1), (3, 2)}
        np.testing.assert_array_equal(back.couplings[(3, 1)], [[2.0]])

    def test_load_emits_report(self, tmp_path, scalar_pair):
        path = tmp_path / "spec.json"
        kc.save_cascade(scalar_pair, path)
        sys_, rep = kc.load_cascade(path)
        assert rep.overall
        assert sys_.dims == (1, 1)

    def test_layer1_coupling_rejected(self):
        obj = {"layers": [{"dim": 1, "L": kc.matrix_to_json(np.eye(1)),
                           "C_prev": kc.matrix_to_json(np.eye(1))}]}
        with pytest.raises(ValueError):
            kc.cascade_from_json(obj)

    def test_dim_mismatch_rejected(self):
        obj = {"layers": [{"dim": 2, "L": kc.matrix_to_json(np.eye(1) * 0.5)}]}
        with pytest.raises(ValueError):
            kc.cascade_from_json(obj)

    def test_state_round_trip(self):
        x = kc.StateVector.of([[1.0 + 1.0j, 2.0], [3.0]])
        back = kc.state_from_json(json.loads(json.dumps(kc.state_to_json(x))))
        for a, b in zip(x, back):
            np.testing.assert_array_equal(a, b)
