import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fractalzeta
from fractalzeta import cli
from fractalzeta.cli import ExperimentConfig, TGrid, main


def write_config(tmp_path, name="config.json", **overrides):
    base = {
        "set": {"variant": "point_set", "points": [[0.0]]},
        "seed": 12345,
        "out_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


README_GASKET = {
    "set": {"variant": "sierpinski_gasket"},
    "t_grid": {"min": 1e-2, "max": 1e-1, "count": 8, "log": True},
    "truncation": 20,
    "oracle": "grid",
    "grid_cell": 5e-4,
    "rel_error_threshold": 0.05,
}


def test_gasket_cli_and_carpet_monte_carlo_leave_scipy_unimported(tmp_path):
    # only a point set's k-d tree needs scipy, whose import costs more than the rest of the library's
    config = write_config(tmp_path, **README_GASKET)
    script = f"""
import sys
from fractalzeta import geometry
from fractalzeta.cli import main
assert main(["tube-compare", "--config", {config!r}]) == 0
geometry.tube_volume(geometry.SierpinskiCarpet3D(), 0.05, "monte_carlo", mc_samples=20_000, seed=1)
print("scipy" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(fractalzeta.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_point_set_poles_and_zeta_eval_leave_scipy_unimported(tmp_path):
    # a small point set's min_gap is taken by numpy; its k-d tree is built only for distances
    config = write_config(
        tmp_path,
        set={"variant": "point_set", "points": [[0.0, 0.0], [1.0, 0.5]]},
        seed=1,
        delta=0.5,
        s_values=[[2.5, 0.0], [1.0, 1.0], [-0.5, -2.0]],
    )
    script = f"""
import sys
from fractalzeta.cli import main
assert main(["poles", "--config", {config!r}]) == 0
assert main(["zeta-eval", "--config", {config!r}]) == 0
print("scipy" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(fractalzeta.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_catalog_lists_five_variants(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for variant in (
        "point_set",
        "cantor_like",
        "string_boundary",
        "sierpinski_gasket",
        "sierpinski_carpet_3d",
    ):
        assert variant in out
    assert "1 / (4 sqrt 3)" in out


def test_catalog_json(capsys):
    assert main(["catalog", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 5
    gasket = [e for e in entries if e["variant"] == "sierpinski_gasket"][0]
    assert gasket["dimension"] == pytest.approx(math.log(3.0) / math.log(2.0))
    assert main(["catalog", "--json"]) == 0
    # the full listing, digit for digit, as printed before the descriptors built it
    assert capsys.readouterr().out == json.dumps(CATALOG_JSON, indent=2, sort_keys=True) + "\n"


CATALOG_JSON = [
    {
        "delta_bound": "half the minimal point separation (none for a single point)",
        "dimension": 0.0,
        "oscillatory_period": None,
        "variant": "point_set",
    },
    {
        "delta_bound": "half the largest gap: (1 - 2 ratio) * scale / 2",
        "dimension": 0.6309297535714574,
        "oscillatory_period": 5.7192017347602535,
        "variant": "cantor_like",
    },
    {
        "delta_bound": "half the first length: l_1 / 2",
        "dimension": 0.6309297535714574,
        "oscillatory_period": 5.7192017347602535,
        "variant": "string_boundary",
    },
    {
        "delta_bound": "1 / (4 sqrt 3)",
        "dimension": 1.5849625007211563,
        "oscillatory_period": 9.064720283654388,
        "variant": "sierpinski_gasket",
    },
    {
        "delta_bound": "1/6",
        "dimension": 2.96564727304425,
        "oscillatory_period": 5.7192017347602535,
        "variant": "sierpinski_carpet_3d",
    },
]


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--frobnicate"])
    assert exc.value.code == 2


def test_parser_built_once_and_reused_after_a_usage_error(tmp_path, capsys):
    # the parser is cached per process: a rejected command line must leave it as a fresh one
    assert cli._build_parser() is cli._build_parser()
    cfg = write_config(tmp_path, set={"variant": "sierpinski_gasket"}, delta=1.0, s_values=[[2.5, 1.0]])
    good = ["zeta-eval", "--config", cfg, "--seed", "3"]
    for bad in (["zeta-eval", "--seed", "x", "--config", cfg], ["tube-compare"], ["catalog", "--frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            main(bad + ["--out-dir", str(tmp_path / "bad")])
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(good + ["--out-dir", str(tmp_path / "reused")]) == 0
    reused = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(Path(fractalzeta.__file__).parents[1])}
    script = f"from fractalzeta.cli import main; raise SystemExit(main({good + ['--out-dir', str(tmp_path / 'fresh')]!r}))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.replace("fresh", "reused") == reused
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "reused").iterdir()) and names
    for name in names:
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "reused" / name).read_bytes()
    assert not (tmp_path / "bad").exists()


def test_missing_config_is_usage_error(tmp_path):
    assert main(["poles", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_config_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"set": {"variant": "point_set", "points": [[0.0]]}}))
    assert main(["poles", "--config", str(path)]) == 2


def test_removed_quadrature_points_key_is_usage_error(tmp_path, capsys):
    # zeta-eval's Monte Carlo evaluator never read it
    path = write_config(tmp_path, quadrature_points=64, s_values=[[1.5, 0.0]], zeta_method="monte_carlo")
    assert main(["zeta-eval", "--config", path]) == 2
    assert "quadrature_points" in capsys.readouterr().err


def test_delta_below_closed_form_bound_is_config_error(tmp_path, capsys):
    # the gasket closed form needs delta > 1/(4 sqrt 3); this exited 1 before
    path = write_config(tmp_path, set={"variant": "sierpinski_gasket"}, delta=0.01)
    for command in ("poles", "measurability", "tube-compare"):
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("band", [math.inf, 1e308])
def test_unbounded_pole_band_is_config_error(tmp_path, capsys, band):
    # inf raised a bare OverflowError; 1e308 listed poles until memory ran out
    path = write_config(tmp_path, set={"variant": "sierpinski_gasket"}, band=band)
    for command in ("poles", "measurability"):
        start = time.perf_counter()
        assert main([command, "--config", path]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "override",
    [
        {"rel_error_threshold": math.nan},  # exited 1 and wrote NaN into the summary
        {"delta": math.nan},
        {"grid_cell": math.inf},
        {"mc_samples": math.nan},
        {"t_grid": {"min": math.nan, "max": 0.1, "count": 4, "log": True}},
        {"t_grid": {"min": 1e-3, "max": math.inf, "count": 4, "log": True}},
    ],
    ids=["threshold", "delta", "grid_cell", "mc_samples", "t_min", "t_max"],
)
def test_non_finite_config_value_is_config_error(tmp_path, capsys, override):
    path = write_config(tmp_path, **override)
    # a NaN t_grid exited 0 from poles and measurability
    for command in ("poles", "measurability", "tube-compare"):
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "out" / "tube_compare_summary.json").exists()


def test_config_round_trip():
    cfg = ExperimentConfig(
        set={"variant": "cantor_like", "ratio": 1.0 / 3.0, "scale": 1.0},
        seed=7,
        delta=0.5,
        t_grid=TGrid(1e-4, 1e-1, 32, True),
        truncation=50,
        s_values=((2.0, 0.0), (1.5, -1.0)),
    )
    assert ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg


def test_zeta_eval_closed_form(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        set={"variant": "sierpinski_gasket"},
        delta=1.0,
        s_values=[[2.0, 0.0], [2.5, 1.0]],
    )
    assert main(["zeta-eval", "--config", cfg]) == 0
    csv_path = tmp_path / "out" / "zeta_eval.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "re_s,im_s,re_zeta,im_zeta,half_width"
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(math.sqrt(3.0) / 4.0 + math.pi + 3.0, rel=1e-15)


def test_zeta_eval_overflow_fails_without_csv(tmp_path):
    cfg = write_config(tmp_path, set={"variant": "sierpinski_gasket"}, delta=0.5, s_values=[[-1000.0, 0.0]])
    assert main(["zeta-eval", "--config", cfg]) == 1
    assert not (tmp_path / "out" / "zeta_eval.csv").exists()


def test_zeta_eval_monte_carlo(tmp_path):
    cfg = write_config(
        tmp_path,
        delta=1.0,
        zeta_method="monte_carlo",
        mc_samples=5000,
        s_values=[[1.0, 0.0]],
    )
    assert main(["zeta-eval", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "zeta_eval.csv").read_text().strip().splitlines()
    re_s, im_s, re_z, im_z, hw = (float(v) for v in lines[1].split(","))
    assert abs(complex(re_z, im_z) - 2.0) <= max(3.0 * hw, 1e-9)


def test_tube_compare_writes_sample_rows(tmp_path):
    cfg = write_config(
        tmp_path,
        t_grid={"min": 1e-2, "max": 0.5, "count": 4, "log": True},
        truncation=2,
        rel_error_threshold=1e-9,
    )
    main(["tube-compare", "--config", cfg])
    lines = (tmp_path / "out" / "tube_samples.csv").read_text().strip().splitlines()
    assert lines[0] == "t,volume,method,error_bound"
    assert len(lines) == 5
    assert lines[1].split(",")[2] == "exact_1d"


def test_poles_command(tmp_path, capsys):
    cfg = write_config(tmp_path, set={"variant": "sierpinski_gasket"}, band=10.0)
    assert main(["poles", "--config", cfg]) == 0
    poles = json.loads((tmp_path / "out" / "poles.json").read_text())
    assert len(poles) == 4  # 0 and the k = 0, +-1 lattice poles
    res0 = [p for p in poles if abs(p["re"]) < 1e-9][0]
    assert res0["residue_re"] == pytest.approx(3.0 * math.sqrt(3.0) + 2.0 * math.pi)


def test_tube_compare_point_set_exits_0(tmp_path):
    cfg = write_config(
        tmp_path,
        t_grid={"min": 1e-3, "max": 0.9, "count": 12, "log": True},
        truncation=5,
        rel_error_threshold=1e-12,
    )
    assert main(["tube-compare", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "tube_compare_summary.json").read_text())
    assert summary["passed"] is True
    assert summary["max_rel_error"] <= 1e-12


def test_tube_compare_cantor_string_exits_0(tmp_path):
    cfg = write_config(
        tmp_path,
        set={"variant": "string_boundary", "base": 3.0, "multiplicity": 2, "scale": 1.0},
        t_grid={"min": 1e-4, "max": 1e-1, "count": 16, "log": True},
        truncation=50,
        rel_error_threshold=1e-2,
    )
    assert main(["tube-compare", "--config", cfg]) == 0


def test_tube_compare_gasket_truncation_1_exits_1(tmp_path):
    # deliberately unattainable threshold at K = 1: the truncation floor
    # (~1e-4 relative) cannot reach 1e-5
    cfg = write_config(
        tmp_path,
        set={"variant": "sierpinski_gasket"},
        t_grid={"min": 1e-2, "max": 1e-1, "count": 8, "log": True},
        truncation=1,
        rel_error_threshold=1e-5,
    )
    assert main(["tube-compare", "--config", cfg]) == 1


def test_measurability_gasket(tmp_path, capsys):
    cfg = write_config(tmp_path, set={"variant": "sierpinski_gasket"})
    assert main(["measurability", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "measurability.json").read_text())
    assert report["verdict"] == "not_measurable"
    assert report["dimension"] == pytest.approx(math.log(3.0) / math.log(2.0))
    assert len(report["critical_line_poles"]) >= 3
    assert report["content"] is None


def test_measurability_carpet(tmp_path):
    cfg = write_config(tmp_path, set={"variant": "sierpinski_carpet_3d"})
    assert main(["measurability", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "measurability.json").read_text())
    assert report["verdict"] == "not_measurable"
    assert report["dimension"] == pytest.approx(math.log(26.0) / math.log(3.0))


def test_measurability_point_set(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["measurability", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "measurability.json").read_text())
    assert report["verdict"] == "measurable"
    assert report["content"] == pytest.approx(2.0)


def test_outputs_are_deterministic(tmp_path):
    cfg = write_config(
        tmp_path,
        set={"variant": "sierpinski_gasket"},
        oracle="monte_carlo",
        mc_samples=20_000,
        t_grid={"min": 5e-2, "max": 2e-1, "count": 4, "log": True},
        truncation=10,
        rel_error_threshold=1.0,
    )
    main(["tube-compare", "--config", cfg, "--out-dir", str(tmp_path / "a")])
    main(["tube-compare", "--config", cfg, "--out-dir", str(tmp_path / "b")])
    for name in ("tube_compare.csv", "tube_compare_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_override_changes_mc_output(tmp_path):
    cfg = write_config(
        tmp_path,
        set={"variant": "sierpinski_gasket"},
        oracle="monte_carlo",
        mc_samples=20_000,
        t_grid={"min": 5e-2, "max": 2e-1, "count": 3, "log": True},
        truncation=10,
        rel_error_threshold=1.0,
    )
    main(["tube-compare", "--config", cfg, "--out-dir", str(tmp_path / "a")])
    main(["tube-compare", "--config", cfg, "--out-dir", str(tmp_path / "b"), "--seed", "999"])
    assert (tmp_path / "a" / "tube_compare.csv").read_bytes() != (
        tmp_path / "b" / "tube_compare.csv"
    ).read_bytes()


def test_float_format_round_trips(tmp_path):
    cfg = write_config(
        tmp_path,
        t_grid={"min": 1e-3, "max": 0.9, "count": 5, "log": True},
        truncation=3,
        rel_error_threshold=1e-9,
    )
    main(["tube-compare", "--config", cfg])
    lines = (tmp_path / "out" / "tube_compare.csv").read_text().strip().splitlines()
    for line in lines[1:]:
        t, direct, formula, _, _ = line.split(",")
        assert float(direct) == 2.0 * float(t)  # 17g output round-trips exactly


@pytest.mark.parametrize(
    "override, commands",
    [
        # a set or t_grid of the wrong JSON type died with AttributeError and a traceback
        ({"set": []}, ("zeta-eval", "poles", "tube-compare", "measurability")),
        ({"set": "x"}, ("zeta-eval", "poles", "tube-compare", "measurability")),
        ({"t_grid": [1, 2]}, ("tube-compare",)),
        # these were accepted by all but Monte Carlo zeta-eval
        ({"seed": -1}, ("zeta-eval", "poles", "tube-compare", "measurability")),
        ({"seed": "a"}, ("zeta-eval", "poles", "tube-compare", "measurability")),
        ({"seed": 1.5}, ("zeta-eval", "poles", "tube-compare", "measurability")),
        ({"seed": True}, ("zeta-eval", "poles", "tube-compare", "measurability")),
        # printed as K=1.5 and written into the summary
        ({"truncation": 1.5}, ("tube-compare",)),
        # np.geomspace raised IndexError
        ({"t_grid": {"min": 1e-3, "max": 0.1, "count": 2**63}}, ("tube-compare",)),
        # Monte Carlo zeta-eval ran without end
        ({"mc_samples": 10**30, "zeta_method": "monte_carlo"}, ("zeta-eval", "poles", "tube-compare", "measurability")),
        # these ran, read by truthiness or as the number 1
        ({"band": True}, ("poles", "tube-compare")),
        ({"rel_error_threshold": True}, ("poles", "tube-compare")),
        ({"delta": True}, ("poles", "tube-compare")),
        ({"grid_cell": True}, ("poles", "tube-compare")),
        ({"t_grid": {"min": True, "max": 2.0, "count": 4}}, ("poles", "tube-compare")),
        ({"t_grid": {"min": 1e-3, "max": True, "count": 4}}, ("poles", "tube-compare")),
        ({"t_grid": {"min": 1e-3, "max": 0.1, "count": 4, "log": "no"}}, ("poles", "tube-compare")),
        ({"oracle": []}, ("poles", "tube-compare")),
        ({"mc_samples": 1.5}, ("poles", "tube-compare")),
        ({"s_values": [["1.5", 0.0]]}, ("poles", "tube-compare")),
        ({"s_values": [[True, 0.0]]}, ("poles", "tube-compare")),
    ],
    ids=[
        "set_list", "set_str", "t_grid_list", "seed_negative", "seed_str", "seed_float", "seed_bool",
        "truncation_float", "t_grid_count_huge", "mc_samples_huge",
        "band_bool", "threshold_bool", "delta_bool", "grid_cell_bool", "t_min_bool", "t_max_bool", "t_log_str",
        "oracle_list", "mc_samples_float", "s_value_str", "s_value_bool",
    ],
)
def test_malformed_config_field_is_config_error(tmp_path, capsys, override, commands):
    path = write_config(tmp_path, **{"s_values": [[1.5, 0.0]], **override})
    for command in commands:
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "out" / "tube_compare_summary.json").exists()


def test_seed_override_below_zero_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["poles", "--config", path, "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# ---------------------------------------------------------------------------
# config fuzzer: every config exits 0, 1 or 2 and raises nothing
# ---------------------------------------------------------------------------

# Values of the wrong type or out of range, for any field.
_JUNK = [
    None, True, "x", "1.5", "no", [], {}, [1, 2], math.nan, math.inf, -1, 0, 1.5, 2**63, 10**30, 1e308, -1e308, 5e-324,
]

# Cheap valid values: exact or auto oracles, at most 4 radii, small budgets.
_VALID_SETS = [
    {"variant": "point_set", "points": [[0.0]]},
    {"variant": "point_set", "points": [[0.0], [0.5]]},
    {"variant": "point_set", "points": [[0.0, 0.0], [1.0, 0.5]]},
    {"variant": "point_set", "points": [[0.1, 0.2, 0.3]]},
    {"variant": "point_cloud", "points": [[0.0, 0.0], [1.0, 0.5]]},
    {"variant": "cantor_like"},
    {"variant": "cantor_like", "ratio": 0.25, "scale": 2.5},
    {"variant": "string_boundary", "base": 3.0, "multiplicity": 2},
    {"variant": "string_boundary", "base": 2.5, "multiplicity": 1, "scale": 2.0},
    {"variant": "string_boundary", "lengths": [0.5, 0.25]},
    {"variant": "sierpinski_gasket"},
    {"variant": "sierpinski_carpet_3d"},
]
_SET_KEYS = ["variant", "points", "ratio", "scale", "lengths", "base", "multiplicity"]
_VALID_FIELDS = {
    "seed": [0, 7, 10**30],
    "delta": [None, 0.5, 1.0],
    "mc_samples": [1000, 2000],
    "t_grid": [
        {"min": 1e-3, "max": 0.1, "count": 4, "log": True},
        {"min": 0.2, "max": 2.0, "count": 2, "log": False},
        {"min": 5e-324, "max": 1e-300, "count": 3, "log": True},
    ],
    "truncation": [0, 1, 5],
    "band": [1.0, 5.0],
    "oracle": ["auto", "exact"],
    "grid_cell": [None, 0.05],
    "rel_error_threshold": [0.05, 1e-12],
    "zeta_method": ["closed_form", "monte_carlo"],
    "s_values": [[[2.5, 0.0]], [[1.5, 1.0], [3.0, -2.0]], []],
}


@st.composite
def _junk(draw):
    """A junk scalar, or a list or object holding one."""
    value = draw(st.sampled_from(_JUNK))
    return draw(st.sampled_from([value, [value], [[value, 0.0]], {"min": value, "max": 0.1, "count": 2}]))


@st.composite
def _configs(draw, out_dir):
    """A valid config with a few fields, set fields included, junk or missing."""
    set_ = dict(draw(st.sampled_from(_VALID_SETS)))
    cfg = {"set": set_, "seed": 1, "out_dir": out_dir}
    cfg.update({key: draw(st.sampled_from(values)) for key, values in _VALID_FIELDS.items()})
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(_SET_KEYS))
        set_[key] = draw(_junk())
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["set", "seed", "out_dir", "t_grid.count", "t_grid.log", "unknown", *_VALID_FIELDS]))
        if key.startswith("t_grid."):
            cfg["t_grid"] = {**draw(st.sampled_from(_VALID_FIELDS["t_grid"])), key[7:]: draw(_junk())}
        elif draw(st.booleans()):
            cfg[key] = draw(_junk())
        else:
            cfg.pop(key, None)
    return cfg


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(["zeta-eval", "poles", "tube-compare", "measurability"]))
@example(data={"set": [], "seed": 1}, command="poles").via("a set of the wrong JSON type died with AttributeError")
@example(
    data={
        "set": {"variant": "string_boundary", "base": 3.0, "multiplicity": 2, "scale": 5e-324},
        "seed": 1,
        "delta": 0.5,
        "zeta_method": "monte_carlo",
        "mc_samples": 1000,
        "s_values": [[2.5, 0.0]],
    },
    command="zeta-eval",
).via("a string whose first length underflows to 0 had NaN distances")
def test_cli_config_fuzz_exits_0_1_or_2(data, command):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = str(Path(tmp) / "out")
        cfg = data if isinstance(data, dict) else data.draw(_configs(out_dir))
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        # a missing or relative out_dir lands in the temporary directory
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path)])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
