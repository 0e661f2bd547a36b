"""Channel/scene/config file formats: round trips and structured errors."""

import json

import numpy as np
import pytest

from conftest import random_components

import risopt as ro
from risopt.fileio import (
    load_components,
    load_ris_config,
    load_scene,
    load_varactor_model,
    read_csv,
    save_components,
    save_ris_config,
    save_scene,
    save_varactor_model,
    write_csv,
)
from risopt.ris import (
    C_OFF,
    C_ON,
    DEFAULT_VARACTOR,
    RisConfiguration,
    onebit_configuration,
)
from risopt.ris import column_paired_grouping
from risopt.scene import default_scene, synthesize_components


class TestChannelFile:
    def test_round_trip_is_exact(self, rng, tmp_path):
        comps = random_components(rng)
        path = tmp_path / "channels.json"
        save_components(comps, path)
        loaded = load_components(path)
        assert np.array_equal(loaded.h_u, comps.h_u)
        assert np.array_equal(loaded.h_0, comps.h_0)
        assert np.array_equal(loaded.g_l, comps.g_l)
        assert np.array_equal(loaded.z_ll, comps.z_ll)
        assert loaded.frequency == comps.frequency

    def test_double_round_trip_byte_identical(self, rng, tmp_path):
        comps = random_components(rng)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_components(comps, first)
        save_components(load_components(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_row_count_mismatch_names_field(self, rng, tmp_path):
        comps = random_components(rng, k=3, m=3, n=4)
        path = tmp_path / "channels.json"
        save_components(comps, path)
        doc = json.loads(path.read_text())
        doc["h_u"] = doc["h_u"][:2]  # K=3 header with only 2 rows
        path.write_text(json.dumps(doc))
        with pytest.raises(ro.ChannelFileError, match="h_u"):
            load_components(path)

    def test_asymmetric_z_names_field(self, rng, tmp_path):
        comps = random_components(rng, k=2, m=2, n=4)
        path = tmp_path / "channels.json"
        save_components(comps, path)
        doc = json.loads(path.read_text())
        doc["z_ll"][0][1][0] *= 1.001  # relative 1e-3 asymmetry
        path.write_text(json.dumps(doc))
        with pytest.raises(ro.ChannelFileError, match="z_ll"):
            load_components(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ro.ChannelFileError):
            load_components(path)

    def test_missing_field_named(self, rng, tmp_path):
        comps = random_components(rng, k=2, m=2, n=3)
        path = tmp_path / "channels.json"
        save_components(comps, path)
        doc = json.loads(path.read_text())
        del doc["g_l"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ro.ChannelFileError, match="g_l"):
            load_components(path)

    def test_non_pair_entry_rejected(self, rng, tmp_path):
        comps = random_components(rng, k=2, m=2, n=3)
        path = tmp_path / "channels.json"
        save_components(comps, path)
        doc = json.loads(path.read_text())
        doc["h_0"][1][0] = 3.14  # scalar where [re, im] expected
        path.write_text(json.dumps(doc))
        with pytest.raises(ro.ChannelFileError, match="h_0"):
            load_components(path)

    def test_non_finite_entry_names_its_matrix(self, rng, tmp_path):
        # Python's json reads and writes NaN, and integers of any size
        comps = random_components(rng, k=2, m=2, n=3)
        path = tmp_path / "channels.json"
        save_components(comps, path)
        doc = json.loads(path.read_text())
        for bad in (float("nan"), 10**400):
            doc["h_u"][0][1][0] = bad
            path.write_text(json.dumps(doc))
            with pytest.raises(
                ro.ChannelFileError, match="^field 'h_u': h_u contains non-finite"
            ):
                load_components(path)


@pytest.mark.parametrize(
    "loader, error",
    [
        (load_components, ro.ChannelFileError),
        (load_scene, ro.SceneFileError),
        (load_ris_config, ro.SceneFileError),
        (load_varactor_model, ro.SceneFileError),
    ],
    ids=["channel", "scene", "ris-config", "varactor"],
)
def test_file_that_is_not_an_object_rejected(loader, error, tmp_path):
    path = tmp_path / "file.json"
    path.write_text("[1, 2]")
    with pytest.raises(error, match="must contain a JSON object"):
        loader(path)


class TestSceneFile:
    def test_round_trip_preserves_synthesis(self, tmp_path):
        scene = default_scene(n_ports=6, max_reflection_order=1)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        a = synthesize_components(scene)
        b = synthesize_components(loaded)
        assert np.allclose(a.h_u, b.h_u, rtol=1e-12)
        assert np.allclose(a.h_0, b.h_0, rtol=1e-12)
        assert np.allclose(a.g_l, b.g_l, rtol=1e-12)
        assert np.allclose(a.z_ll, b.z_ll, rtol=1e-12)

    def test_round_trip_keeps_one_port_panel(self, tmp_path):
        # one port fixes no orientation or spacing; the panel wall does
        doc = {
            "frequency_hz": 5.8e9,
            "max_order": 1,
            "walls": [{"p1": [-1, -4], "p2": [-1, 4]}],
            "bs": [[6, -3]],
            "users": [[1.8, 2.38]],
            "ris": {"origin": [0, 0], "n_ports": 1, "orientation_deg": 45,
                    "spacing": 0.03},
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        scene = load_scene(path)
        save_scene(scene, tmp_path / "saved.json")
        loaded = load_scene(tmp_path / "saved.json")
        for end in ("p1", "p2"):
            np.testing.assert_allclose(
                getattr(loaded.unloaded_panel, end),
                getattr(scene.unloaded_panel, end),
                rtol=0,
                atol=1e-12,
            )

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"frequency_hz": 5.8e9}))
        with pytest.raises(ro.SceneFileError, match="max_order"):
            load_scene(path)

    def test_bad_wall_point_named(self, tmp_path):
        doc = {
            "frequency_hz": 5.8e9,
            "max_order": 1,
            "walls": [{"p1": [0, 0], "p2": "oops"}],
            "bs": [[6, -3]],
            "users": [[1, 1]],
            "ris": {"origin": [0, 0], "n_ports": 2, "spacing": 0.025},
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ro.SceneFileError, match=r"walls\[0\]"):
            load_scene(path)

    @pytest.mark.parametrize("grid", [0, False, [], "", "abc"])
    def test_a_grid_that_is_not_an_object_is_refused(self, grid, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(default_scene(n_ports=2, max_reflection_order=1), path)
        doc = json.loads(path.read_text())
        doc["grid"] = grid
        path.write_text(json.dumps(doc))
        with pytest.raises(ro.SceneFileError, match="^field 'grid': expected an object"):
            load_scene(path)

    def test_only_an_absent_or_null_grid_means_no_grid(self, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(default_scene(n_ports=2, max_reflection_order=1), path)
        doc = json.loads(path.read_text())
        doc["grid"] = {}
        path.write_text(json.dumps(doc))
        with pytest.raises(ro.SceneFileError, match="^field 'grid.origin'"):
            load_scene(path)
        doc["grid"] = None
        path.write_text(json.dumps(doc))
        assert load_scene(path).grid is None
        del doc["grid"]
        path.write_text(json.dumps(doc))
        assert load_scene(path).grid is None

    def test_bad_n_ports_rejected(self, tmp_path):
        doc = {
            "frequency_hz": 5.8e9,
            "max_order": 1,
            "walls": [],
            "bs": [[6, -3]],
            "users": [[1, 1]],
            "ris": {"origin": [0, 0], "n_ports": 0},
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ro.SceneFileError, match="n_ports"):
            load_scene(path)


class TestRisConfigFile:
    def test_round_trip(self, tmp_path):
        grouping = column_paired_grouping(8)
        config = onebit_configuration(grouping, (1, 0, 0, 1), 8)
        path = tmp_path / "config.json"
        save_ris_config(config, path)
        loaded = load_ris_config(path)
        assert loaded.control_mode == config.control_mode
        assert np.allclose(loaded.capacitances, config.capacitances, rtol=1e-12)
        assert loaded.grouping == config.grouping

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "psychic", "capacitances_pf": [0.5]}))
        with pytest.raises(ro.SceneFileError, match="mode"):
            load_ris_config(path)

    def test_groups_that_are_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        doc = {"mode": "continuous-per-element", "capacitances_pf": [0.5], "groups": [1]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ro.SceneFileError, match="field 'groups'"):
            load_ris_config(path)

    @pytest.mark.parametrize("key", ["c_on_pf", "c_off_pf"])
    def test_other_onebit_states_rejected(self, key, tmp_path):
        path = tmp_path / "config.json"
        config = RisConfiguration(np.full(4, C_ON))
        save_ris_config(config, path)
        doc = json.loads(path.read_text())
        doc[key] = 0.6
        path.write_text(json.dumps(doc))
        with pytest.raises(ro.SceneFileError, match=key):
            load_ris_config(path)

    def test_written_states_are_the_onebit_constants(self, tmp_path):
        path = tmp_path / "config.json"
        save_ris_config(RisConfiguration(np.full(4, C_OFF)), path)
        doc = json.loads(path.read_text())
        assert doc["c_on_pf"] * 1e-12 == C_ON
        assert doc["c_off_pf"] * 1e-12 == C_OFF


class TestVaractorFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "varactor.json"
        save_varactor_model(DEFAULT_VARACTOR, path)
        loaded = load_varactor_model(path)
        assert loaded.c_j == pytest.approx(DEFAULT_VARACTOR.c_j, rel=1e-12)
        assert loaded.v_j == pytest.approx(DEFAULT_VARACTOR.v_j, rel=1e-12)
        assert loaded.r_v == DEFAULT_VARACTOR.r_v
        assert loaded.l_v == pytest.approx(DEFAULT_VARACTOR.l_v, rel=1e-12)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "varactor.json"
        path.write_text(json.dumps({"c_j_pf": 0.2}))
        with pytest.raises(ro.SceneFileError):
            load_varactor_model(path)

    def test_omitted_fields_keep_the_model_defaults(self, tmp_path):
        path = tmp_path / "varactor.json"
        path.write_text(
            json.dumps({"c_j_pf": 0.2, "v_j_volts": 8.0, "m": 0.5, "c_par_pf": 0.1})
        )
        loaded = load_varactor_model(path)
        default = ro.VaractorModel(
            c_j=loaded.c_j, v_j=loaded.v_j, m=loaded.m, c_par=loaded.c_par
        )
        assert loaded == default  # exact: r_v, l_v, c_min and c_max


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        cols = {"a": [1.5, 2.25, float("nan")], "b": [0.1, -3.0, 4.0]}
        write_csv(path, cols, comments=("hello", "world"))
        comments, loaded = read_csv(path)
        assert comments == ["hello", "world"]
        assert loaded["b"] == [0.1, -3.0, 4.0]
        assert loaded["a"][0] == 1.5
        assert np.isnan(loaded["a"][2])

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", {"a": [1.0], "b": [1.0, 2.0]})


def _default_file(kind, path):
    """Write the default file of each kind: the built-in scene, the channel
    file of its 4-port order-1 variant (few matrix entries), a 1-bit RIS
    configuration as `exhaustive` writes it, and the default varactor."""
    if kind == "scene":
        save_scene(default_scene(), path)
    elif kind == "channel":
        scene = default_scene(n_ports=4, max_reflection_order=1)
        save_components(synthesize_components(scene), path)
    elif kind == "ris-config":
        states = (1, 0, 0, 1, 1, 0, 1, 0, 0, 1)
        save_ris_config(
            onebit_configuration(column_paired_grouping(20), states, 20), path
        )
    else:
        save_varactor_model(DEFAULT_VARACTOR, path)


_LOADERS = {
    "scene": (load_scene, ro.SceneFileError),
    "channel": (load_components, ro.ChannelFileError),
    "ris-config": (load_ris_config, ro.SceneFileError),
    "varactor": (load_varactor_model, ro.SceneFileError),
}
_MATRICES = ("h_u", "h_0", "g_l", "z_ll")


def _numeric_leaves(node, path=""):
    """(path, container, key) of every number in a JSON document; a path
    reads like ``walls[0].p1[1]``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            sub = f"{path}.{key}" if path else key
        else:
            sub = f"{path}[{key}]"
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, sub)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield sub, node, key


@pytest.mark.parametrize("bad", [True, "1", float("nan"), float("inf")],
                         ids=["true", "string", "nan", "infinity"])
@pytest.mark.parametrize("kind", list(_LOADERS))
def test_every_numeric_field_refuses_non_numbers(kind, bad, tmp_path):
    # each number of the default file is replaced in turn; the error must
    # name its field: the leaf itself or the [x, y] / [re, im] pair holding it
    path = tmp_path / "file.json"
    _default_file(kind, path)
    doc = json.loads(path.read_text())
    loader, error = _LOADERS[kind]
    leaves = list(_numeric_leaves(doc))
    assert leaves
    for leaf, container, key in leaves:
        saved = container[key]
        container[key] = bad
        path.write_text(json.dumps(doc))
        container[key] = saved
        with pytest.raises(error) as exc:
            loader(path)
        named = str(exc.value).partition("field '")[2].partition("'")[0]
        matrix = leaf.split("[")[0]
        if matrix in _MATRICES:
            assert named == matrix, (leaf, str(exc.value))
            if isinstance(bad, float):  # NaN/Infinity: ChannelComponents says so
                assert f"{matrix} contains non-finite" in str(exc.value)
            else:
                assert "is not a [re, im] pair" in str(exc.value)
        else:
            assert named in (leaf, leaf.rsplit("[", 1)[0]), (leaf, str(exc.value))


@pytest.mark.parametrize("members", [[0.9, 1.2], ["0", "1"], [False, True]],
                         ids=["fractions", "strings", "booleans"])
def test_group_members_must_be_integers(members, tmp_path):
    path = tmp_path / "config.json"
    save_ris_config(RisConfiguration(np.full(2, C_ON)), path)
    doc = json.loads(path.read_text())
    doc["groups"] = {"0": members}
    path.write_text(json.dumps(doc))
    with pytest.raises(ro.SceneFileError, match="field 'groups.0'"):
        load_ris_config(path)
