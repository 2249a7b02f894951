"""Command-line front end.

Subcommands: ``catalog`` (known sets and their dimensions), ``zeta-eval``
(zeta values on a grid of s), ``poles`` (complex dimensions), ``tube-compare``
(truncated tube formula against a direct oracle), ``measurability``
(criterion verdict).  All runs are driven by a JSON experiment config with
a mandatory seed; identical config and seed give byte-identical outputs.

Exit codes: 0 success, 1 numeric threshold breached or computation failed,
2 usage/config error (see :func:`main`).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import geometry, zeta
from .dimensions import Pole, languidity_probe
from .errors import DeltaTooSmall, FractalZetaError
from .geometry import CompactSet, _is_count, _is_real, set_from_json
from .tube import (
    compare_tube_formula,
    measurability_criterion,
    series_from_zeta,
)
from .zeta import NumericZetaConfig, catalog_zeta, closed_form_eval


def _fmt(x: float) -> str:
    """17 significant digits: guarantees float round-trip in CSV output."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


def _is_real_pair(value) -> bool:
    """A list or tuple of two real numbers, neither a ``bool``."""
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value))


@dataclass(frozen=True)
class TGrid:
    min: float
    max: float
    count: int
    log: bool = True

    def __post_init__(self):
        if not (_is_real(self.min) and _is_real(self.max) and 0 < self.min < self.max and math.isfinite(self.max)):
            raise ValueError("t grid needs real numbers 0 < min < max < inf")
        if not isinstance(self.log, bool):
            raise ValueError("t grid log must be true or false")
        # past 10^6 radii numpy fails with errors of its own, or first fills the memory
        if not (_is_count(self.count) and 1 <= self.count <= 10**6):
            raise ValueError("t grid count must be an integer from 1 to 10^6")

    def values(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.min, self.max, self.count)
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible run description; round-trips losslessly through JSON."""

    set: dict
    seed: int
    delta: Optional[float] = None
    mc_samples: int = 1_000_000
    t_grid: TGrid = TGrid(1e-3, 1e-1, 16, True)
    truncation: int = 50
    band: float = 20.0
    oracle: str = "auto"
    grid_cell: Optional[float] = None
    rel_error_threshold: float = 1e-2
    zeta_method: str = "closed_form"
    s_values: tuple[tuple[float, float], ...] = ()
    out_dir: str = "out"

    def __post_init__(self):
        # the rule of NumericZetaConfig, checked here for every subcommand
        if not _is_count(self.seed):
            raise ValueError("seed must be a nonnegative integer")
        if not _is_count(self.truncation):
            raise ValueError("truncation must be an integer >= 0")
        if not isinstance(self.t_grid, TGrid):
            raise ValueError("t_grid must be an object with min, max, count and log")
        # 10^9 samples already take minutes per Monte Carlo value; larger counts never finish
        if not (_is_count(self.mc_samples) and 1 <= self.mc_samples <= 10**9):
            raise ValueError("mc_samples must be an integer from 1 to 10^9")
        for name in ("band", "rel_error_threshold", "delta", "grid_cell"):
            value = getattr(self, name)
            optional = value is None and name in ("delta", "grid_cell")
            if not (optional or (_is_real(value) and math.isfinite(value) and value > 0)):
                raise ValueError(f"{name} must be a positive and finite real number")
        if not (isinstance(self.oracle, str) and self.oracle in geometry._METHOD_ALIASES):
            raise ValueError(f"oracle must be one of {', '.join(geometry._METHOD_ALIASES)}")
        if self.zeta_method not in ("closed_form", "monte_carlo"):
            raise ValueError("zeta_method must be closed_form or monte_carlo")
        pairs = self.s_values
        if not (isinstance(pairs, (list, tuple)) and all(_is_real_pair(sv) for sv in pairs)):
            raise ValueError("s_values must be a list of [re, im] pairs of real numbers")
        object.__setattr__(self, "s_values", tuple((float(re), float(im)) for re, im in pairs))

    def the_set(self) -> CompactSet:
        return set_from_json(self.set)

    def the_delta(self) -> float:
        return self.delta if self.delta is not None else self.the_set().default_delta

    def to_json(self) -> dict:
        d = dataclasses.asdict(self)
        d["t_grid"] = dataclasses.asdict(self.t_grid)
        d["s_values"] = [list(sv) for sv in self.s_values]
        return d

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        if "set" not in data or "seed" not in data:
            raise ValueError("config requires 'set' and 'seed'")
        kwargs = dict(data)
        if "t_grid" in kwargs and isinstance(kwargs["t_grid"], dict):
            kwargs["t_grid"] = TGrid(**kwargs["t_grid"])
        return cls(**kwargs)


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_json(json.load(fh))


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Catalog metadata
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    entries = []
    for set_ in (
        geometry.PointSet([[0.0]]),
        geometry.CantorLike(),
        geometry.FractalStringBoundary.cantor_string(),
        geometry.SierpinskiGasket(),
        geometry.SierpinskiCarpet3D(),
    ):
        periods = catalog_zeta(set_).lattice_periods()
        entries.append({
            "variant": set_.variant,
            "dimension": set_.box_dimension,
            "oscillatory_period": periods[0] if periods else None,
            "delta_bound": set_.delta_bound,
        })
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    print(f"{'variant':<22} {'dim D':>10} {'period p':>10}  delta bound")
    for e in entries:
        p = f"{e['oscillatory_period']:.6f}" if e["oscillatory_period"] else "-"
        print(f"{e['variant']:<22} {e['dimension']:>10.6f} {p:>10}  {e['delta_bound']}")
    print("(dimensions for the default parameters: middle-third Cantor, Cantor string)")
    return 0


# ---------------------------------------------------------------------------
# zeta-eval
# ---------------------------------------------------------------------------


def cmd_zeta_eval(cfg: ExperimentConfig, out_dir: Path) -> int:
    set_ = cfg.the_set()
    delta = cfg.the_delta()
    if not cfg.s_values:
        raise ValueError("zeta-eval needs s_values in the config")
    rows = []
    if cfg.zeta_method == "closed_form":
        form = catalog_zeta(set_, delta)
        for re_s, im_s in cfg.s_values:
            val = closed_form_eval(form, complex(re_s, im_s))
            rows.append((re_s, im_s, val.real, val.imag, 0.0))
    else:
        ncfg = NumericZetaConfig(delta=delta, seed=cfg.seed, mc_samples=cfg.mc_samples)
        for re_s, im_s in cfg.s_values:
            est = zeta.distance_zeta_numeric(set_, complex(re_s, im_s), ncfg)
            rows.append((re_s, im_s, est.value.real, est.value.imag, est.half_width))
    out = out_dir / "zeta_eval.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re_s", "im_s", "re_zeta", "im_zeta", "half_width"])
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    print(f"wrote {out} ({len(rows)} rows, method={cfg.zeta_method})")
    return 0


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------


def _pole_to_json(p: Pole) -> dict:
    d = {
        "re": p.location.real,
        "im": p.location.imag,
        "order": p.order,
    }
    if p.residue is not None:
        d["residue_re"] = p.residue.real
        d["residue_im"] = p.residue.imag
    return d


def cmd_poles(cfg: ExperimentConfig, out_dir: Path) -> int:
    set_ = cfg.the_set()
    form = catalog_zeta(set_, cfg.the_delta())
    pole_list = [Pole(w, order=1, residue=r) for w, r in form.poles(cfg.band)]
    pole_list.sort(key=lambda p: (round(p.location.real * 1e9), p.location.imag))
    out = out_dir / "poles.json"
    _dump_json([_pole_to_json(p) for p in pole_list], out)
    print(f"{'Re':>14} {'Im':>14} {'order':>5} {'residue':>24}")
    for p in pole_list:
        res = f"{p.residue.real:.8g}{p.residue.imag:+.8g}i" if p.residue is not None else "-"
        print(f"{p.location.real:>14.8f} {p.location.imag:>14.8f} {p.order:>5} {res:>24}")
    print(f"wrote {out} ({len(pole_list)} poles in |Im s| <= {cfg.band})")
    return 0


# ---------------------------------------------------------------------------
# tube-compare
# ---------------------------------------------------------------------------

def write_tube_samples_csv(samples, path: Path) -> None:
    """TubeSample rows as CSV: (t, volume, method, error_bound)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "volume", "method", "error_bound"])
        for s in samples:
            w.writerow([_fmt(s.t), _fmt(s.volume), s.method.value, _fmt(s.error_bound)])


def cmd_tube_compare(cfg: ExperimentConfig, out_dir: Path) -> int:
    set_ = cfg.the_set()
    form = catalog_zeta(set_, cfg.the_delta())
    series = series_from_zeta(form, truncation=cfg.truncation, t_valid_max=set_.t_valid_max)
    samples = geometry.sample_tube_curve(
        set_, cfg.t_grid.values(), cfg.oracle, cell=cfg.grid_cell, mc_samples=cfg.mc_samples, seed=cfg.seed
    )
    write_tube_samples_csv(samples, out_dir / "tube_samples.csv")
    comparison = compare_tube_formula(series, samples, set_id=cfg.set.get("variant", "custom"))

    csv_path = out_dir / "tube_compare.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "direct_volume", "formula_value", "abs_error", "rel_error"])
        for r in comparison.rows:
            w.writerow([_fmt(r.t), _fmt(r.direct_volume), _fmt(r.formula_value),
                        _fmt(r.abs_error), _fmt(r.rel_error)])
    summary = comparison.summary()
    summary["rel_error_threshold"] = cfg.rel_error_threshold
    summary["passed"] = comparison.max_rel_error <= cfg.rel_error_threshold
    _dump_json(summary, out_dir / "tube_compare_summary.json")
    print(
        f"max rel error {comparison.max_rel_error:.3e} vs threshold "
        f"{cfg.rel_error_threshold:.3e} over {len(comparison.rows)} points (K={cfg.truncation})"
    )
    return 0 if summary["passed"] else 1


# ---------------------------------------------------------------------------
# measurability
# ---------------------------------------------------------------------------


def cmd_measurability(cfg: ExperimentConfig, out_dir: Path) -> int:
    set_ = cfg.the_set()
    form = catalog_zeta(set_, cfg.the_delta())
    periods = form.lattice_periods()
    band = max([cfg.band] + [2.5 * p for p in periods])
    pole_list = [Pole(w, order=1, residue=r) for w, r in form.poles(band)]
    d = max(p.location.real for p in pole_list)
    kappa = None
    try:
        probe = languidity_probe(form, d + 0.5, list(np.geomspace(10.0, 1000.0, 16)))
        kappa = probe.kappa
    except FractalZetaError:
        pass
    verdict = measurability_criterion(
        pole_list, d, 1e-6,
        ambient_dim=set_.ambient_dim,
        band_height=band,
        lattice_period=min(periods) if periods else None,
        languidity_kappa=kappa,
    )
    report = {
        "verdict": verdict.verdict.value,
        "dimension": verdict.dimension,
        "content": verdict.content,
        "critical_line_poles": [_pole_to_json(p) for p in verdict.critical_line_poles],
        "notes": list(verdict.notes),
    }
    _dump_json(report, out_dir / "measurability.json")
    print(f"verdict: {verdict.verdict.value} at D = {d:.10g}")
    if verdict.content is not None:
        print(f"Minkowski content: {verdict.content:.10g}")
    for p in verdict.critical_line_poles:
        print(f"  critical-line pole {p.location.real:.8f} {p.location.imag:+.8f}i (order {p.order})")
    for note in verdict.notes:
        print(f"  note: {note}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    ap = argparse.ArgumentParser(
        prog="fractalzeta",
        description="fractal zeta functions, complex dimensions, and tube formulas",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list catalog sets with D, period, delta bounds")
    p_cat.add_argument("--json", action="store_true", help="machine-readable listing")

    for name, help_ in [
        ("zeta-eval", "evaluate the zeta function on a grid of s values"),
        ("poles", "extract complex dimensions in a band"),
        ("tube-compare", "compare the truncated tube formula against a direct oracle"),
        ("measurability", "render the Minkowski measurability verdict"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default=None, help="override the config output directory")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand and return its exit code.

    Exit 2 when the command line or the config is wrong: a missing or
    malformed file, a value out of its domain, or a ``delta`` below the
    closed form's bound (:class:`DeltaTooSmall`); rerunning cannot help
    until the input changes.  Exit 1 when a valid config's computation
    fails (any other :class:`FractalZetaError`) or breaches its numeric
    threshold.  Exit 0 otherwise.
    """
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command == "catalog":
        return cmd_catalog(args)
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out_dir is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "zeta-eval":
            return cmd_zeta_eval(cfg, out_dir)
        if args.command == "poles":
            return cmd_poles(cfg, out_dir)
        if args.command == "tube-compare":
            return cmd_tube_compare(cfg, out_dir)
        if args.command == "measurability":
            return cmd_measurability(cfg, out_dir)
        raise ValueError(f"unknown command {args.command}")
    except (ValueError, KeyError, OSError, json.JSONDecodeError, TypeError, DeltaTooSmall) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FractalZetaError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
