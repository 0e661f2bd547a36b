"""Varactor law, load impedances, grouping, and 1-bit enumeration."""

import dataclasses

import numpy as np
import pytest

from risopt.ris import (
    C_OFF,
    C_ON,
    DEFAULT_VARACTOR,
    MAX_ENUMERATION_GROUPS,
    RisConfiguration,
    VaractorModel,
    bias_from_capacitance,
    calibrate_varactor,
    capacitance_from_bias,
    column_paired_grouping,
    enumerate_1bit_configs,
    load_impedances,
    onebit_capacitances,
    onebit_configuration,
)

FREQ = 5.8e9


class TestVaractorLaw:
    def test_zero_bias(self):
        m = DEFAULT_VARACTOR
        assert capacitance_from_bias(m, 0.0) == pytest.approx(
            m.c_j + m.c_par, rel=1e-14
        )

    def test_calibration_anchors_within_one_percent(self):
        m = DEFAULT_VARACTOR
        assert capacitance_from_bias(m, 5.02) == pytest.approx(C_ON, rel=0.01)
        assert capacitance_from_bias(m, 3.05) == pytest.approx(C_OFF, rel=0.01)
        # the two-point fit is exact, not just within tolerance
        assert capacitance_from_bias(m, 5.02) == pytest.approx(C_ON, rel=1e-12)
        assert capacitance_from_bias(m, 3.05) == pytest.approx(C_OFF, rel=1e-12)

    def test_calibration_is_pinned(self):
        # the parameterless refit of the two anchors, exact to the bit
        assert calibrate_varactor() == DEFAULT_VARACTOR
        assert DEFAULT_VARACTOR.c_j == 2.02006486333966e-13
        assert DEFAULT_VARACTOR.v_j == 6.360694444444443
        assert (DEFAULT_VARACTOR.m, DEFAULT_VARACTOR.c_par) == (0.5, 0.10e-12)

    def test_monotone_in_bias(self):
        m = DEFAULT_VARACTOR
        biases = np.linspace(0.0, 0.95 * m.v_j, 40)
        caps = [capacitance_from_bias(m, v) for v in biases]
        # calibrated convention: capacitance increases with the stated bias
        assert np.all(np.diff(caps) > 0)

    def test_domain_errors(self):
        m = DEFAULT_VARACTOR
        with pytest.raises(ValueError):
            capacitance_from_bias(m, m.v_j)
        with pytest.raises(ValueError):
            capacitance_from_bias(m, m.v_j * 1.5)
        with pytest.raises(ValueError):
            capacitance_from_bias(m, -0.1)

    def test_bias_capacitance_round_trip(self):
        m = DEFAULT_VARACTOR
        for c in np.linspace(C_OFF, m.c_max, 17):
            v = bias_from_capacitance(m, c)
            assert capacitance_from_bias(m, v) == pytest.approx(c, rel=1e-12)

    def test_inverse_domain(self):
        m = DEFAULT_VARACTOR
        with pytest.raises(ValueError):
            bias_from_capacitance(m, 0.5 * (m.c_j + m.c_par))

    def test_model_invariants(self):
        with pytest.raises(ValueError):
            VaractorModel(c_j=-1e-12, v_j=6.0, m=0.5, c_par=0.0)
        with pytest.raises(ValueError):
            VaractorModel(c_j=1e-12, v_j=6.0, m=0.5, c_par=0.0, c_min=2e-12, c_max=1e-12)


class TestLoadImpedances:
    def test_frozen_on_off_values(self):
        # direct evaluation: omega L = 7.2885 ohm, 1/(omega C) = 50.816 / 72.212 ohm
        z = load_impedances(DEFAULT_VARACTOR, np.array([C_ON, C_OFF]), FREQ)
        assert z[0] == pytest.approx(2.0 - 43.527259542999694j, rel=1e-12)
        assert z[1] == pytest.approx(2.0 - 64.9233667006115j, rel=1e-12)

    def test_pure_capacitive_when_parasitics_vanish(self):
        model = dataclasses.replace(DEFAULT_VARACTOR, r_v=0.0, l_v=0.0)
        omega = 2 * np.pi * FREQ
        z = load_impedances(model, np.array([C_ON]), FREQ)
        assert z[0] == pytest.approx(-1j / (omega * C_ON), rel=1e-12)

    def test_reactance_increases_with_capacitance(self):
        caps = np.linspace(0.21e-12, 1.19e-12, 25)
        z = load_impedances(DEFAULT_VARACTOR, caps, FREQ)
        assert np.all(np.diff(z.imag) > 0)

    def test_zero_capacitance_rejected(self):
        with pytest.raises(ValueError):
            load_impedances(DEFAULT_VARACTOR, np.array([0.0]), FREQ)

    def test_raw_capacitances_range_checked(self):
        # below the 0.2 pF tuning floor, though finite and positive
        with pytest.raises(ValueError, match="tuning range"):
            load_impedances(DEFAULT_VARACTOR, np.array([C_ON, 0.1e-12]), FREQ)

    def test_configuration_bounds_enforced(self):
        config = RisConfiguration(capacitances=np.array([5e-12]), grouping={0: (0,)})
        with pytest.raises(ValueError):
            load_impedances(DEFAULT_VARACTOR, config.capacitances, FREQ)


class TestGrouping:
    def test_column_paired_layout(self):
        grouping = column_paired_grouping(20)
        assert len(grouping) == 10
        assert grouping[0] == (0, 1)
        assert grouping[9] == (18, 19)

    def test_column_paired_with_rows(self):
        # 20 columns x 11 rows: each pair owns 2 x 11 elements
        grouping = column_paired_grouping(20, n_rows=11)
        assert len(grouping) == 10
        assert all(len(members) == 22 for members in grouping.values())
        flat = sorted(i for m in grouping.values() for i in m)
        assert flat == list(range(220))

    def test_odd_columns_rejected(self):
        with pytest.raises(ValueError):
            column_paired_grouping(7)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            RisConfiguration(
                capacitances=np.full(4, C_ON),
                grouping={0: (0, 1), 1: (1, 2, 3)},  # overlapping
            )


class TestOneBitMode:
    def test_states_enforced(self):
        with pytest.raises(ValueError):
            RisConfiguration(
                capacitances=np.array([C_ON, 0.7e-12]),
                control_mode="column-paired-1bit",
                grouping={0: (0,), 1: (1,)},
            )

    def test_group_constancy_enforced(self):
        with pytest.raises(ValueError):
            RisConfiguration(
                capacitances=np.array([C_ON, C_OFF]),
                control_mode="column-paired-1bit",
                grouping={0: (0, 1)},
            )

    def test_as_continuous_preserves_values(self):
        grouping = column_paired_grouping(8)
        config = onebit_configuration(grouping, (1, 0, 1, 0), 8)
        cont = config.as_continuous()
        assert cont.control_mode == "continuous-per-column"
        assert np.array_equal(cont.capacitances, config.capacitances)
        assert cont.grouping == config.grouping


class TestEnumeration:
    def test_ten_groups_give_1024_unique_configs(self):
        configs = list(enumerate_1bit_configs(10))
        assert len(configs) == 1024
        assert len(set(configs)) == 1024
        assert configs == sorted(configs)  # lexicographic

    def test_single_group(self):
        assert list(enumerate_1bit_configs(1)) == [(0,), (1,)]

    def test_zero_groups_single_empty_config(self):
        assert list(enumerate_1bit_configs(0)) == [()]

    def test_no_duplicates_up_to_16(self):
        for n in (4, 9, 16):
            seen = set(enumerate_1bit_configs(n))
            assert len(seen) == 2**n

    def test_tractability_guard_mentions_optimizer(self):
        with pytest.raises(ValueError, match="alternating_optimize"):
            list(enumerate_1bit_configs(25))

    def test_capacitance_stack_rows_are_the_configurations(self):
        grouping = column_paired_grouping(4, n_rows=3)
        states = list(enumerate_1bit_configs(len(grouping)))
        caps = onebit_capacitances(grouping, states, 12)
        assert caps.shape == (len(states), 12)
        for row, state in zip(caps, states):
            for g, members in grouping.items():
                assert set(row[list(members)]) == {C_ON if state[g] else C_OFF}

    def test_guard_refuses_at_the_first_next(self):
        configs = enumerate_1bit_configs(MAX_ENUMERATION_GROUPS + 1)
        with pytest.raises(ValueError, match=f"{MAX_ENUMERATION_GROUPS + 1} groups"):
            next(configs)
        assert list(configs) == []  # nothing was enumerated
