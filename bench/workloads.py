"""The benchmark's four workloads: seeded job lists with correctness gates.

Every job calls the library through module attributes looked up at call
time (``geometry.tube_volume``, ``cli.main``, ...), so the tracer's
wrappers see the calls.  Each gate checks a job's result against an oracle
on a code path separate from the one being timed:

* grid and Monte Carlo tube volumes against the exact hole sums;
* CLI pole tables against ``lattice_poles`` and the paper's residue formula;
* CLI zeta values against the gasket formula written out below;
* argument-principle poles against the closed form's structural poles, and
  contour residues against the closed form's algebraic residues;
* Monte Carlo zeta values against the closed form.

The seed moves every input value.  The quantities that set a job's cost
(grid cell, number of radii, sample counts, window heights in periods)
are fixed per job, and the seeded positions are mirrored in pairs, so the
time of a whole job list changes little from seed to seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fractalzeta import cli, dimensions, geometry, tube, zeta

LOG2_3 = math.log(3.0) / math.log(2.0)
LOG3_2 = math.log(2.0) / math.log(3.0)
LOG3_26 = math.log(26.0) / math.log(3.0)
SQRT3 = math.sqrt(3.0)

# The README's gasket config, verbatim.
README_GASKET = {
    "set": {"variant": "sierpinski_gasket"},
    "seed": 12345,
    "t_grid": {"min": 1e-2, "max": 1e-1, "count": 8, "log": True},
    "truncation": 20,
    "oracle": "grid",
    "grid_cell": 5e-4,
    "rel_error_threshold": 0.05,
    "out_dir": "out",
}


@dataclass
class Job:
    """One timed call sequence; ``run`` gets a fresh scratch directory."""

    name: str
    params: dict
    run: Callable[[Path], Any]
    check: Callable[[Any], list]
    fingerprint: Callable[[Any], Any]


def _num(x):
    """Numbers at 17 significant digits, so a fingerprint changes with any output bit."""
    if isinstance(x, complex):
        return [format(x.real, ".17g"), format(x.imag, ".17g")]
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, dict):
        return {str(k): _num(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_num(v) for v in x]
    return str(x)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(_num(obj), sort_keys=True).encode()).hexdigest()


def _mirrored(rng, n: int) -> np.ndarray:
    """``n`` jitters in [0, 1): one draw per pair, the second member gets ``1 - u``."""
    u = rng.random((n + 1) // 2)
    return np.column_stack([u, 1.0 - u]).ravel()[:n]


def _s_values(rng, d: float, hi: float, count: int, im_max: float = 10.0) -> list[complex]:
    """Seeded s with Re s in [d + 0.25, hi] and |Im s| <= im_max, one per stratum."""
    ur, ui = _mirrored(rng, count), _mirrored(rng, count)
    order = rng.permutation(count)
    re = d + 0.25 + (hi - d - 0.25) * (np.arange(count) + ur) / count
    im = -im_max + 2.0 * im_max * (order + ui) / count
    return [complex(a, b) for a, b in zip(re, im)]


# ---------------------------------------------------------------------------
# cli_gasket
# ---------------------------------------------------------------------------


def _gasket_zeta(s: complex, delta: float) -> complex:
    """Distance zeta function of the Sierpinski gasket, written out term by term."""
    lattice = 6.0 * SQRT3 * (2.0 * SQRT3) ** (-s) / (s * (s - 1.0) * (2.0**s - 3.0))
    return lattice + 2.0 * math.pi * delta**s / s + 3.0 * delta ** (s - 1.0) / (s - 1.0)


def _gasket_residue(w: complex) -> complex:
    if abs(w) < 1e-9:
        return 3.0 * SQRT3 + 2.0 * math.pi
    return 6.0 * SQRT3 ** (1 - w) / (4.0**w * math.log(2.0) * w * (w - 1.0))


def _cli_job(name: str, config: dict, config_path: Path, command: str) -> Job:
    def run(out_dir: Path):
        rc = cli.main([command, "--config", str(config_path), "--out-dir", str(out_dir)])
        return rc, out_dir

    def fingerprint(result):
        _, out_dir = result
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}

    def check(result):
        rc, out_dir = result
        if rc != 0:
            return [f"exit code {rc}"]
        return _CLI_GATES[command](config, out_dir)

    params = {"command": command, "config": config}
    return Job(f"{name}.{command}", params, run, check, fingerprint)


def _gate_tube_compare(config: dict, out_dir: Path) -> list:
    fails = []
    summary = json.loads((out_dir / "tube_compare_summary.json").read_text())
    if summary.get("passed") is not True:
        fails.append(f"tube-compare summary not passed: {summary}")
    gasket = geometry.SierpinskiGasket()
    with open(out_dir / "tube_samples.csv") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != config["t_grid"]["count"]:
        fails.append(f"{len(rows)} tube samples for {config['t_grid']['count']} radii")
    for row in rows:
        t, vol, bound = float(row["t"]), float(row["volume"]), float(row["error_bound"])
        exact = geometry.tube_volume(gasket, t, "exact").volume
        if not abs(vol - exact) <= bound:
            fails.append(f"grid |A_t| at t={t}: {vol} vs exact {exact}, bound {bound}")
    return fails


def _gate_poles(config: dict, out_dir: Path) -> list:
    band = config.get("band", 20.0)
    got = json.loads((out_dir / "poles.json").read_text())
    want = [0j] + dimensions.lattice_poles(2.0, 3.0, dimensions.Window(imag_range=(-band, band)))
    if len(got) != len(want):
        return [f"{len(got)} poles listed, {len(want)} expected in |Im s| <= {band}"]
    fails = []
    for p in got:
        w = complex(p["re"], p["im"])
        if min(abs(w - x) for x in want) > 1e-8:
            fails.append(f"pole {w} is not in {{0}} + lattice_poles(2, 3)")
            continue
        r = complex(p["residue_re"], p["residue_im"])
        r_want = _gasket_residue(w)
        if abs(r - r_want) > 1e-8 * max(1.0, abs(r_want)) or p["order"] != 1:
            fails.append(f"pole {w}: residue {r} (order {p['order']}), formula {r_want}")
    return fails


def _gate_measurability(config: dict, out_dir: Path) -> list:
    report = json.loads((out_dir / "measurability.json").read_text())
    fails = []
    if report["verdict"] != "not_measurable":
        fails.append(f"verdict {report['verdict']}, expected not_measurable")
    if abs(report["dimension"] - LOG2_3) > 1e-9:
        fails.append(f"dimension {report['dimension']}, expected log2 3")
    return fails


def _gate_zeta_eval(config: dict, out_dir: Path) -> list:
    delta = config["delta"]
    with open(out_dir / "zeta_eval.csv") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(config["s_values"]):
        return [f"{len(rows)} zeta rows for {len(config['s_values'])} s values"]
    fails = []
    for row in rows:
        s = complex(float(row["re_s"]), float(row["im_s"]))
        got = complex(float(row["re_zeta"]), float(row["im_zeta"]))
        want = _gasket_zeta(s, delta)
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            fails.append(f"zeta({s}) = {got}, formula {want}")
    return fails


_CLI_GATES = {
    "tube-compare": _gate_tube_compare,
    "poles": _gate_poles,
    "measurability": _gate_measurability,
    "zeta-eval": _gate_zeta_eval,
}

# Per variant: number of radii, grid cell and t_grid.min.  Finer cells go
# with fewer radii so every variant costs about the same.  The smallest
# radius sets the grid's peak memory, so it is not seeded.
_GASKET_VARIANTS = ((4, 2.5e-4, 3e-3), (8, 3.0e-4, 4e-3), (12, 4.0e-4, 6e-3), (16, 5.0e-4, 8e-3))


def cli_gasket(rng, work_dir: Path) -> list[Job]:
    configs = [("readme", README_GASKET, ("tube-compare", "poles", "measurability"))]
    # t_grid.max in [0.1, 0.25], log-uniform, mirrored in pairs of variants
    t_max = 0.1 * 2.5 ** _mirrored(rng, len(_GASKET_VARIANTS))
    for i, (count, cell, t_min) in enumerate(_GASKET_VARIANTS):
        cfg = {
            "set": {"variant": "sierpinski_gasket"},
            "seed": int(rng.integers(1, 2**31)),
            "delta": float(rng.uniform(0.5, 0.9)),
            "t_grid": {"min": t_min, "max": float(t_max[i]), "count": count, "log": True},
            "truncation": int(rng.integers(16, 31)),
            "band": float(rng.uniform(15.0, 40.0)),
            "oracle": "grid",
            "grid_cell": cell,
            "rel_error_threshold": 0.05,
            "s_values": [[s.real, s.imag] for s in _s_values(rng, LOG2_3, 3.0, 3)],
        }
        configs.append((f"variant{i}", cfg, ("tube-compare", "poles", "measurability", "zeta-eval")))
    jobs = []
    for name, cfg, commands in configs:
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        jobs.extend(_cli_job(name, cfg, path, cmd) for cmd in commands)
    return jobs


# ---------------------------------------------------------------------------
# carpet_mc
# ---------------------------------------------------------------------------

CARPET_T = np.geomspace(2e-3, 2e-1, 16)
CARPET_TUBE_SAMPLES = 20_000
CARPET_ZETA_SAMPLES = 50_000
CARPET_ZETAS = 4


def carpet_mc(rng, work_dir: Path) -> list[Job]:
    carpet = geometry.SierpinskiCarpet3D()
    mc_seed = int(rng.integers(1, 2**31))

    def run_curve(_):
        samples = geometry.sample_tube_curve(
            carpet, CARPET_T, method="monte_carlo", mc_samples=CARPET_TUBE_SAMPLES, seed=mc_seed
        )
        return samples, tube.box_dimension_fit(samples, 3)

    def check_curve(result):
        samples, fit = result
        fails = []
        for smp in samples:
            exact = geometry.tube_volume(carpet, smp.t, "exact").volume
            if not abs(smp.volume - exact) <= 4.0 * smp.error_bound:
                fails.append(f"MC |A_t| at t={smp.t}: {smp.volume} vs exact {exact}, hw {smp.error_bound}")
        if not abs(fit - LOG3_26) <= 0.08:
            fails.append(f"box dimension fit {fit}, expected log3 26 +- 0.08")
        return fails

    jobs = [
        Job(
            "tube_curve",
            {"t": CARPET_T.tolist(), "mc_samples": CARPET_TUBE_SAMPLES, "seed": mc_seed},
            run_curve,
            check_curve,
            lambda r: digest([[x.t, x.volume, x.error_bound] for x in r[0]] + [r[1]]),
        )
    ]
    for k, s in enumerate(_s_values(rng, LOG3_26, 4.0, CARPET_ZETAS)):
        cfg = zeta.NumericZetaConfig(delta=0.25, seed=mc_seed + 1 + k, mc_samples=CARPET_ZETA_SAMPLES)

        def run_zeta(_, s=s, cfg=cfg):
            return zeta.distance_zeta_numeric(carpet, s, cfg)

        def check_zeta(est, s=s):
            want = zeta.closed_form_eval(zeta.catalog_zeta(carpet, 0.25), s)
            if abs(est.value - want) <= 4.0 * est.half_width:
                return []
            return [f"MC zeta({s}) = {est.value} +- {est.half_width}, closed form {want}"]

        jobs.append(
            Job(
                f"zeta{k}",
                {"s": [s.real, s.imag], "mc_samples": cfg.mc_samples, "seed": cfg.seed},
                run_zeta,
                check_zeta,
                lambda est: digest([est.value, est.half_width]),
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# fe_quadrature
# ---------------------------------------------------------------------------

FE_PER_SET = 6
# The quadrature's work depends on s alone, in steps: each panel-width
# halving doubles it.  For the three sets whose residuals are expensive,
# s comes from a fixed design and the seed moves the input only along
# directions that leave the work unchanged (scaling the set, conjugating s),
# which change the residual's value but not the number of tube volumes.
_FE_DESIGN_SEED = 20261017


def _fe_sets(rng):
    """(name, set, D, s values) for the five catalog sets."""
    design = np.random.default_rng(_FE_DESIGN_SEED)

    def fixed(d, n_dim):
        return [
            s.conjugate() if flip else s
            for s, flip in zip(_s_values(design, d, n_dim + 1.0, FE_PER_SET), rng.random(FE_PER_SET) < 0.5)
        ]

    def scale():
        return float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))

    return [
        ("point", geometry.PointSet([[rng.uniform(-1.0, 1.0)]]), 0.0, _s_values(rng, 0.0, 2.0, FE_PER_SET)),
        ("cantor", geometry.CantorLike(scale=scale()), LOG3_2, fixed(LOG3_2, 1)),
        (
            "string",
            geometry.FractalStringBoundary(base=3.0, multiplicity=2, scale=scale()),
            LOG3_2,
            fixed(LOG3_2, 1),
        ),
        ("gasket", geometry.SierpinskiGasket(), LOG2_3, fixed(LOG2_3, 2)),
        ("carpet", geometry.SierpinskiCarpet3D(), LOG3_26, _s_values(rng, LOG3_26, 4.0, FE_PER_SET)),
    ]


def fe_quadrature(rng, work_dir: Path) -> list[Job]:
    jobs = []
    for name, set_, d, s_values in _fe_sets(rng):
        cfg = zeta.NumericZetaConfig(delta=zeta.default_delta(set_), seed=int(rng.integers(1, 2**31)))
        for k, s in enumerate(s_values):

            def run(_, set_=set_, s=s, cfg=cfg):
                return zeta.functional_equation_residual(set_, s, cfg)

            def check(residual, s=s):
                return [] if residual <= 1e-3 else [f"functional-equation residual {residual} at s={s}"]

            params = {"set": geometry.set_to_json(set_), "s": [s.real, s.imag], "delta": cfg.delta}
            jobs.append(Job(f"{name}{k}", params, run, check, digest))
    return jobs


# ---------------------------------------------------------------------------
# poles_scan
# ---------------------------------------------------------------------------

POLE_WINDOWS = 4  # off-axis windows per closed form, plus one across the real axis
IM_REACH = 100.0


def _pole_forms():
    return [
        ("gasket", zeta.catalog_zeta(geometry.SierpinskiGasket(), 0.5), (-0.5, 2.0), LOG2_3),
        ("carpet", zeta.catalog_zeta(geometry.SierpinskiCarpet3D(), 0.25), (-0.5, 3.5), LOG3_26),
        ("cantor", zeta.catalog_zeta(geometry.CantorLike(), 0.5), (-0.5, 1.0), LOG3_2),
        (
            "string",
            zeta.catalog_zeta(geometry.FractalStringBoundary.cantor_string(), 1.0 / 3.0),
            (-0.5, 1.0),
            LOG3_2,
        ),
    ]


def _windows(rng, period: float) -> list[tuple[float, float]]:
    """One window across the real axis and ``POLE_WINDOWS`` off it, each three periods tall.

    Window edges sit half a period off the lattice ordinates, jittered by at
    most a quarter period, so no pole lies near an edge and every off-axis
    window holds exactly three lattice poles per family.
    """
    jit = 0.5 * (_mirrored(rng, POLE_WINDOWS + 1) - 0.5)
    lo = (-1.5 + jit[0]) * period
    wins = [(lo, lo + 3.0 * period)]
    k_top = math.floor(IM_REACH / period - 3.75)
    strata = (POLE_WINDOWS + 1) // 2
    for i in range(POLE_WINDOWS):
        # upper and lower half-plane windows alternate, stratified in height
        k = 2 + math.floor((k_top - 2) * (i // 2 + rng.random()) / strata)
        lo = (k + 0.5 + jit[i + 1]) * period
        wins.append((lo, lo + 3.0 * period) if i % 2 == 0 else (-lo - 3.0 * period, -lo))
    return wins


def poles_scan(rng, work_dir: Path) -> list[Job]:
    jobs = []
    for name, form, (re_lo, re_hi), d in _pole_forms():
        period = min(form.lattice_periods())
        for k, (im_lo, im_hi) in enumerate(_windows(rng, period)):
            rect = (re_lo, re_hi, im_lo, im_hi)

            def run(_, form=form, rect=rect):
                return dimensions.find_poles_argument_principle(form, rect, tol=1e-9, moment_floor=1e-6)

            def check(found, form=form, rect=rect):
                band = max(abs(rect[2]), abs(rect[3])) + 1.0
                want = [
                    w
                    for w, _ in form.poles(band)
                    if rect[0] <= w.real <= rect[1] and rect[2] <= w.imag <= rect[3]
                ]
                if len(found) != len(want):
                    return [f"{len(found)} poles found in {rect}, {len(want)} structural"]
                fails = []
                for p in found:
                    if p.order != 1 or min(abs(p.location - w) for w in want) > 1e-8:
                        fails.append(f"pole {p.location} (order {p.order}) not structural in {rect}")
                        continue
                    r_want = form.residue_at(p.location)
                    if abs(p.residue - r_want) > 1e-8 * max(1.0, abs(r_want)):
                        fails.append(f"contour residue {p.residue} vs algebraic {r_want} at {p.location}")
                return fails

            jobs.append(
                Job(
                    f"{name}.window{k}",
                    {"rect": list(rect)},
                    run,
                    check,
                    lambda ps: digest([[p.location, p.order, p.residue] for p in ps]),
                )
            )
        h0 = float(rng.uniform(10.0, 12.0))
        heights = list(np.geomspace(h0, 110.0 * h0, 32))

        def run_probe(_, form=form, d=d, heights=heights):
            return dimensions.languidity_probe(form, d + 0.5, heights)

        def check_probe(est):
            return [] if -1.3 <= est.kappa <= -0.7 else [f"languidity kappa {est.kappa} outside [-1.3, -0.7]"]

        jobs.append(
            Job(
                f"{name}.languidity",
                {"abscissa": d + 0.5, "heights": heights},
                run_probe,
                check_probe,
                lambda est: digest([est.kappa, est.constant, list(est.sample_heights)]),
            )
        )
    return jobs


WORKLOADS = {
    "cli_gasket": cli_gasket,
    "carpet_mc": carpet_mc,
    "fe_quadrature": fe_quadrature,
    "poles_scan": poles_scan,
}
