"""Config model, JSON loader, unit handling, and the path-loss curve."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from crloading.errors import ConfigError
from crloading.scenario import (
    PathLossParams,
    SWEEPABLE,
    apply_parameter,
    load_scenario,
    path_loss_db,
)

# Log-distance model at d0=500 m, wavelength 1/3 m, exponent 4 --
# literals computed independently from 20 log10(4 pi d0/wl) + 10 g log10(d/d0).
L500 = 85.50602246155555
L1000 = 97.5472222881148
L5000 = 125.50602246155555

PL = PathLossParams(exponent=4.0, wavelength=1.0 / 3.0, reference_distance=500.0)


def base_dict(**su_over):
    su = {
        "num_subcarriers": 8,
        "symbol_duration": 1.024e-4,
        "noise_variance": 1e-9,
        "ber_threshold": 1e-4,
    }
    su.update(su_over)
    return {
        "su": su,
        "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                      "reference_distance": 500.0},
        "pus": [
            {"kind": "cochannel", "distance": 5000.0,
             "interference_cap": 1e-14},
            {"kind": "adjacent", "distance": 1000.0,
             "interference_cap": 1e-14, "bandwidth": 1.25e6,
             "center_offset": 6.25e5},
        ],
    }


class TestPathLoss:
    def test_reference_values(self):
        assert path_loss_db(500.0, PL) == pytest.approx(L500, rel=1e-12)
        assert path_loss_db(1000.0, PL) == pytest.approx(L1000, rel=1e-12)
        assert path_loss_db(5000.0, PL) == pytest.approx(L5000, rel=1e-12)

    def test_below_reference_distance_rejected(self):
        with pytest.raises(ConfigError, match="reference distance"):
            path_loss_db(499.0, PL)

    def test_continuous_at_reference(self):
        # at d = d0 only the free-space term survives
        assert path_loss_db(500.0, PL) == pytest.approx(
            20.0 * math.log10(4.0 * math.pi * 500.0 * 3.0), rel=1e-12)

    @given(st.floats(min_value=500.0, max_value=1e7),
           st.floats(min_value=1.001, max_value=100.0))
    def test_strictly_increasing(self, d, factor):
        assert path_loss_db(d * factor, PL) > path_loss_db(d, PL)


class TestLoader:
    def test_defaults_filled(self):
        cfg = load_scenario(base_dict())
        assert cfg.su.alpha == 0.5
        assert cfg.su.max_bits == 16
        assert cfg.su.power_threshold == math.inf
        assert cfg.su.su_link_gain == 1.0
        assert cfg.pus[0].probability == 0.9
        assert cfg.pus[0].fading_rate == 1.0
        assert cfg.experiment.trials == 10000

    def test_spacing_derived_from_duration(self):
        cfg = load_scenario(base_dict())
        assert cfg.su.subcarrier_spacing == pytest.approx(9765.625, rel=1e-12)

    def test_duration_derived_from_spacing(self):
        d = base_dict()
        del d["su"]["symbol_duration"]
        d["su"]["subcarrier_spacing"] = 9765.625
        cfg = load_scenario(d)
        assert cfg.su.symbol_duration == pytest.approx(1.024e-4, rel=1e-12)

    def test_inconsistent_duration_spacing(self):
        d = base_dict(subcarrier_spacing=10000.0)
        with pytest.raises(ConfigError, match="must equal 1"):
            load_scenario(d)

    def test_power_units(self):
        d = base_dict(power_threshold={"value": 0.1, "unit": "mW"},
                      noise_variance={"value": 1e-3, "unit": "uW"})
        cfg = load_scenario(d)
        assert cfg.su.power_threshold == pytest.approx(1e-4)
        assert cfg.su.noise_variance == pytest.approx(1e-9)

    def test_micro_sign_unit_alias(self):
        d = base_dict(noise_variance={"value": 2.0, "unit": "µW"})
        assert load_scenario(d).su.noise_variance == pytest.approx(2e-6)

    def test_infinite_power_threshold(self):
        cfg = load_scenario(base_dict(power_threshold="inf"))
        assert cfg.su.power_threshold == math.inf

    def test_per_subcarrier_ber(self):
        d = base_dict(ber_threshold=[1e-4] * 4 + [1e-3] * 4)
        cfg = load_scenario(d)
        assert cfg.su.ber_threshold == tuple([1e-4] * 4 + [1e-3] * 4)

    def test_ber_vector_wrong_length(self):
        with pytest.raises(ConfigError, match="length"):
            load_scenario(base_dict(ber_threshold=[1e-4] * 3))

    def test_json_text_and_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_dict()))
        assert load_scenario(str(p)) == load_scenario(base_dict())

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario("/nonexistent/cfg.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{broken")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(p)

    def test_neither_text_path_nor_file(self):
        with pytest.raises(ConfigError, match="cannot load a scenario from "
                                              "<class 'int'>"):
            load_scenario(42)

    @pytest.mark.parametrize("mutate,msg", [
        (lambda d: d["su"].update(alpha=1.2), "alpha"),
        (lambda d: d["su"].update(alpha=0.0), "alpha"),
        (lambda d: d["pus"][0].update(probability=0.0), "probability"),
        (lambda d: d["pus"][0].update(probability=1.5), "probability"),
        (lambda d: d["su"].update(ber_threshold=0.25), "BER"),
        (lambda d: d["su"].update(ber_threshold=0.0), "BER"),
        (lambda d: d["su"].update(num_subcarriers=0), "positive integer"),
        (lambda d: d["su"].update(max_bits=1), "integer >= 2"),
        (lambda d: d["su"].update(typo_key=1), "unknown key"),
        (lambda d: d["pus"][1].pop("bandwidth"), "bandwidth"),
        (lambda d: d["pus"][0].update(kind="sideways"), "kind"),
        (lambda d: d["pus"][0].update(fading_rate=-1.0), "fading_rate"),
        (lambda d: d["su"].update(noise_variance=0.0), "power"),
        (lambda d: d.update(extra_section={}), "unknown key"),
        (lambda d: d.pop("path_loss"), "path_loss"),
        # NaN passes every ordered bound test unless rejected as a number
        (lambda d: d["pus"][0].update(interference_cap=math.nan),
         r"pus\[0\]\.interference_cap"),
        (lambda d: d["pus"][1].update(interference_cap=math.nan),
         r"pus\[1\]\.interference_cap"),
        (lambda d: d["pus"][0].update(distance=math.nan), "distance"),
        (lambda d: d["path_loss"].update(exponent=math.nan), "exponent"),
        (lambda d: d["su"].update(noise_variance=math.nan), "noise_variance"),
        (lambda d: d["su"].update(power_threshold=math.nan), "power_threshold"),
        (lambda d: d["su"].update(su_link_gain=math.nan), "su_link_gain"),
        (lambda d: d["pus"][0].update(fading_rate=math.nan), "fading_rate"),
        (lambda d: d["pus"][1].update(center_offset=math.nan), "center_offset"),
        # an integer too large for a float is not an OverflowError
        (lambda d: d["su"].update(su_link_gain=10 ** 400),
         "su.su_link_gain: number too large for a float"),
        # counts past what the program can size or price load as errors
        (lambda d: d["su"].update(max_bits=10 ** 400),
         r"su\.max_bits: .*1014"),
        (lambda d: d["su"].update(max_bits=1015), r"su\.max_bits: .*1014"),
        (lambda d: d["su"].update(num_subcarriers=10 ** 400),
         r"su\.num_subcarriers: .*4294967296"),
        (lambda d: d["su"].update(num_subcarriers=2 ** 32 + 1),
         r"su\.num_subcarriers: .*4294967296"),
        (lambda d: d.update(experiment={"trials": 10 ** 400}),
         r"experiment\.trials: .*4294967296"),
        (lambda d: d.update(experiment={"trials": 2 ** 32 + 1}),
         r"experiment\.trials: .*4294967296"),
        # shapes a generic reader must still reject by name
        (lambda d: d.update(su=5), "su: must be an object"),
        (lambda d: d.update(path_loss=[1]), "path_loss: must be an object"),
        (lambda d: d["pus"].__setitem__(1, "adjacent"),
         r"pus\[1\]: must be an object"),
        (lambda d: d.update(experiment=5), "experiment: must be an object"),
        (lambda d: d.update(experiment={"sweep": 5}),
         "experiment.sweep: must be an object"),
        (lambda d: d["su"].update(noise_variance={"unit": "uW"}),
         "needs a 'value'"),
        (lambda d: d["su"].update(noise_variance={"value": 1.0, "x": 1}),
         r"su\.noise_variance: unknown key\(s\): x"),
        (lambda d: d["su"].update(noise_variance={"value": 1.0,
                                                  "unit": "kW"}),
         r"unknown power unit 'kW' \(use W, mW or uW\)"),
        (lambda d: d["su"].pop("symbol_duration"),
         "su: need symbol_duration and/or subcarrier_spacing"),
        (lambda d: d.update(pus={}), "pus: must be an array"),
        (lambda d: d.update(experiment={"sweep": {"param": "psi",
                                                  "values": 0.9}}),
         r"experiment\.sweep\.values: must be a non-empty list"),
        # sweep values meet the spec of the field they set
        (lambda d: d.update(experiment={"sweep": {"param": "psi",
                                                  "values": [0.9, 1.5]}}),
         r"experiment\.sweep\.values\[1\]"),
        (lambda d: d.update(experiment={"sweep": {"param": "alpha",
                                                  "values": ["inf"]}}),
         r"experiment\.sweep\.values\[0\]"),
        (lambda d: d.update(experiment={"sweep": {"param": "p_cci",
                                                  "values": [math.nan]}}),
         r"experiment\.sweep\.values\[0\]"),
    ])
    def test_invalid_configs(self, mutate, msg):
        d = base_dict()
        mutate(d)
        with pytest.raises(ConfigError, match=msg):
            load_scenario(d)

    def test_json_text_nan_rejected(self, tmp_path):
        d = base_dict()
        d["pus"][0]["interference_cap"] = math.nan
        text = json.dumps(d)
        assert "NaN" in text
        p = tmp_path / "cfg.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match="interference_cap"):
            load_scenario(p)

    def test_counts_load_up_to_their_bounds(self, tmp_path):
        d = base_dict(num_subcarriers=2 ** 32, max_bits=1014)
        # the seed has no upper bound: SeedSequence takes any such integer
        d["experiment"] = {"trials": 2 ** 32, "seed": 10 ** 400}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        cfg = load_scenario(p)
        assert cfg.su.num_subcarriers == cfg.experiment.trials == 2 ** 32
        assert cfg.su.max_bits == 1014
        assert cfg.experiment.seed == 10 ** 400

    def test_sweep_spec_parsed(self):
        d = base_dict()
        d["experiment"] = {"trials": 50, "seed": 7,
                           "sweep": {"param": "p_cci", "values": [0.8, "inf"]}}
        cfg = load_scenario(d)
        assert cfg.experiment.sweep_param == "p_cci"
        assert cfg.experiment.sweep_values == (0.8, math.inf)

    def test_sweep_bad_param(self):
        d = base_dict()
        d["experiment"] = {"sweep": {"param": "bogus", "values": [1.0]}}
        with pytest.raises(ConfigError, match="sweep.param"):
            load_scenario(d)


class TestApplyParameter:
    def test_psi_hits_every_pu(self):
        cfg = load_scenario(base_dict())
        out = apply_parameter(cfg, "psi", 0.99)
        assert all(p.probability == 0.99 for p in out.pus)
        assert out.su == cfg.su

    def test_alpha(self):
        cfg = load_scenario(base_dict())
        assert apply_parameter(cfg, "alpha", 0.3).su.alpha == 0.3

    def test_caps_only_touch_matching_kind(self):
        cfg = load_scenario(base_dict())
        out = apply_parameter(cfg, "p_cci", 5e-13)
        assert out.pus[0].interference_cap == 5e-13
        assert out.pus[1].interference_cap == cfg.pus[1].interference_cap
        out = apply_parameter(cfg, "p_aci", 7e-13)
        assert out.pus[0].interference_cap == cfg.pus[0].interference_cap
        assert out.pus[1].interference_cap == 7e-13

    @pytest.mark.parametrize("param, kept", [
        ("p_cci", "adjacent"), ("p_aci", "cochannel"), ("psi", None)])
    def test_parameter_that_sets_nothing_rejected(self, param, kept):
        d = base_dict()
        d["pus"] = [p for p in d["pus"] if p["kind"] == kept]
        cfg = load_scenario(d)
        with pytest.raises(ConfigError, match=f"^{param} sets nothing: the "
                                              "config has no PU it applies"):
            apply_parameter(cfg, param, 0.5)

    @pytest.mark.parametrize("param", ["p_cci", "p_aci"])
    def test_nan_cap_rejected(self, param):
        cfg = load_scenario(base_dict())
        with pytest.raises(ConfigError, match=f"{param} sweep value nan"):
            apply_parameter(cfg, param, math.nan)

    def test_unknown_parameter(self):
        cfg = load_scenario(base_dict())
        with pytest.raises(ConfigError, match="sweep parameter"):
            apply_parameter(cfg, "bandwidth", 1.0)

    def test_sweepable_tuple_is_the_contract(self):
        assert SWEEPABLE == ("psi", "alpha", "p_cci", "p_aci")

    def test_configs_are_frozen(self):
        cfg = load_scenario(base_dict())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.su.alpha = 0.1
