"""Command line front end.

Subcommands (all driven by one INI file)::

    qwscatter simulate   --config run.ini --out state.csv
    qwscatter density    --config run.ini --out density.csv
    qwscatter spectrum   --config run.ini --out spectrum.csv
    qwscatter scatter    --config run.ini --out outgoing.csv
    qwscatter limit-dist --config run.ini --out limit.csv
    qwscatter compare    --config run.ini --out compare.csv

Config format (INI)::

    [coin.left]            ; required, parameters or matrix
    a = 0.6
    alpha = 0.0
    beta = 0.8
    delta = 3.141592653589793

    [coin.right]           ; required
    matrix = 0.707,0 0.707,0 -0.707,0 0.707,0   ; row-major re,im entries

    [coin.site.0]          ; optional site overrides
    matrix = 1,0 0,0 0,0 -1,0

    [coin.tail.right]      ; optional power-law tails
    kappa = 0.4
    epsilon = 1.0

    [state]                ; site = spinor entries, re,im pairs
    0 = 0.7071067811865476,0 0,0.7071067811865476
    normalize = true

    [run]                  ; numeric knobs, all optional
    steps = 600
    n_max = 4096
    tol = 1e-6
    first = 64
    grid_points = 513
    horizon = 2000
    radius = 64
    ns = 250,500,1000
    xi = 1,2,5
    guard = 0.02

Outputs are CSV with floats at 17 significant digits; runs are fully
deterministic, so identical inputs give byte-identical files.  Errors
are reported as one JSON object on stderr and exit codes 2 (config),
3 (domain) or 4 (convergence).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import json
import os
import sys
from typing import Any, Callable, Container, Iterator, Sequence

import numpy as np

from .coin import CoinField, CoinMatrix, TailRule
from .errors import ConfigError, DomainError, QwalkError
from .lattice import LatticeState, evolve
from .momentum import spectrum_arcs
from .scattering import Schedule, free_model, outgoing_pair
from .weaklimit import (
    LimitDistribution,
    _check_compare_args,
    _check_point_mass_args,
    cf_limit,
    compare_empirical,
    limit_distribution,
    moment,
    pure_point_mass,
    total_mass,
)

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# -- config parsing ----------------------------------------------------

_RUN_DEFAULTS: dict[str, Any] = {
    "steps": 100,
    "n_max": 4096,
    "tol": 1e-6,
    "first": 64,
    "grid_points": 513,
    "horizon": 2000,
    "radius": 64,
    "ns": (250, 500, 1000),
    "xi": (1.0, 2.0, 5.0),
    "guard": 0.02,
}

_COIN_KEYS = {"a", "alpha", "beta", "delta", "matrix"}


def _parse_complex(token: str, where: str) -> complex:
    parts = token.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"{where}: cannot parse complex entry {token!r} (expected 're,im')")


def _parse_entries(text: str, count: int, what: str, where: str) -> list[complex]:
    tokens = text.split()
    if len(tokens) != count:
        raise ConfigError(f"{where}: {what} needs {count} entries, got {len(tokens)}")
    return [_parse_complex(t, where) for t in tokens]


def _parse_matrix(text: str, where: str) -> np.ndarray:
    return np.array(_parse_entries(text, 4, "row-major matrix", where), dtype=complex).reshape(2, 2)


@contextlib.contextmanager
def _section_errors(section: str) -> Iterator[None]:
    """Prefix ``[section]`` to its DomainErrors (type kept); an unparseable value is a ConfigError."""
    try:
        yield
    except DomainError as exc:
        raise type(exc)(f"[{section}]: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"[{section}]: bad numeric value ({exc})") from exc


def _site_index(text: str, where: str, seen: Container[int]) -> int:
    """Parse a site index, rejecting a site that ``seen`` already holds."""
    try:
        site = int(text)
    except ValueError:
        raise ConfigError(f"{where}: site index must be an integer") from None
    if site in seen:
        raise ConfigError(f"{where}: site {site} is given more than once")
    return site


def _coin_from_section(cp: configparser.ConfigParser, section: str) -> CoinMatrix:
    keys = set(cp[section])
    unknown = keys - _COIN_KEYS
    if unknown:
        raise ConfigError(f"[{section}]: unknown keys {sorted(unknown)}")
    with _section_errors(section):
        if "matrix" in keys:
            if keys != {"matrix"}:
                raise ConfigError(f"[{section}]: give either a matrix or parameters, not both")
            return CoinMatrix.from_matrix(_parse_matrix(cp[section]["matrix"], section))
        if "a" not in keys:
            raise ConfigError(f"[{section}]: need 'a' (plus optional angles) or a 'matrix'")
        get = lambda k: cp[section].getfloat(k, 0.0)  # noqa: E731
        a = get("a")
        return CoinMatrix(a, float(np.sqrt(max(0.0, 1.0 - a * a))), get("alpha"), get("beta"), get("delta"))


def _tail_from_section(cp: configparser.ConfigParser, section: str) -> TailRule | None:
    if section not in cp:
        return None
    keys = set(cp[section])
    if keys != {"kappa", "epsilon"}:
        raise ConfigError(f"[{section}]: needs exactly the keys kappa and epsilon")
    with _section_errors(section):
        return TailRule(cp[section].getfloat("kappa"), cp[section].getfloat("epsilon"))


def _load_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    known = {"coin.left", "coin.right", "coin.tail.left", "coin.tail.right", "state", "run"}
    for section in cp.sections():
        if section in known or section.startswith("coin.site."):
            continue
        raise ConfigError(f"unknown section [{section}]")
    return cp


def _load_field(cp: configparser.ConfigParser) -> CoinField:
    for required in ("coin.left", "coin.right"):
        if required not in cp:
            raise ConfigError(f"missing required section [{required}]")
    overrides: dict[int, np.ndarray] = {}
    for section in cp.sections():
        if not section.startswith("coin.site."):
            continue
        site = _site_index(section.removeprefix("coin.site."), f"[{section}]", overrides)
        keys = set(cp[section])
        if keys != {"matrix"}:
            raise ConfigError(f"[{section}]: site overrides take exactly one 'matrix' key")
        overrides[site] = _parse_matrix(cp[section]["matrix"], section)
    return CoinField(
        left=_coin_from_section(cp, "coin.left"),
        right=_coin_from_section(cp, "coin.right"),
        overrides=overrides,
        tail_left=_tail_from_section(cp, "coin.tail.left"),
        tail_right=_tail_from_section(cp, "coin.tail.right"),
    )


def _load_state(cp: configparser.ConfigParser) -> LatticeState:
    if "state" not in cp:
        raise ConfigError("missing required section [state]")
    entries: dict[int, list[complex]] = {}
    normalize = True
    for key, value in cp["state"].items():
        if key == "normalize":
            try:
                normalize = cp["state"].getboolean("normalize")
            except ValueError:
                raise ConfigError("[state]: normalize must be a boolean") from None
            continue
        site = _site_index(key, f"[state] key {key!r}", entries)
        entries[site] = _parse_entries(value, 2, "spinor", f"state entry {key}")
    if not entries:
        raise ConfigError("[state]: needs at least one site entry")
    state = LatticeState.from_entries(entries)
    if normalize:
        if state.norm() == 0.0:
            raise DomainError("[state]: cannot normalize the zero state")
        state = state.normalized()
    return state


def _run_options(cp: configparser.ConfigParser) -> dict[str, Any]:
    """The [run] values, typed as their defaults."""
    opts = dict(_RUN_DEFAULTS)
    section = cp["run"] if "run" in cp else {}
    unknown = set(section) - set(_RUN_DEFAULTS)
    if unknown:
        raise ConfigError(f"[run]: unknown keys {sorted(unknown)}")
    with _section_errors("run"):
        for key, default in _RUN_DEFAULTS.items():
            if key not in section:
                continue
            if isinstance(default, tuple):
                kind = type(default[0])
                opts[key] = tuple(kind(t) for t in section[key].replace(",", " ").split())
            else:
                opts[key] = type(default)(section[key])
    return opts


def _schedule(opts: dict[str, Any]) -> Schedule:
    with _section_errors("run"):
        return Schedule(n_max=opts["n_max"], tol=opts["tol"], first=opts["first"])


def _load_run(cp: configparser.ConfigParser) -> tuple[CoinField, LatticeState, dict[str, Any]]:
    """Field, state and run options, read in that order."""
    return _load_field(cp), _load_state(cp), _run_options(cp)


# -- subcommands -------------------------------------------------------


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _evolved(cp: configparser.ConfigParser) -> LatticeState:
    """The state after the [run] steps, the artefact of simulate and density."""
    field, state, opts = _load_run(cp)
    return evolve(state, field, opts["steps"]).trimmed(0.0)


def _limit_law(field: CoinField, state: LatticeState, opts: dict[str, Any]) -> LimitDistribution:
    """The limit law of the run, shared by limit-dist and compare."""
    return limit_distribution(state, field, _schedule(opts), grid_points=opts["grid_points"])


def _cmd_simulate(cp: configparser.ConfigParser, out: str) -> None:
    final = _evolved(cp)
    rows = [
        [x, _fmt(a[0].real), _fmt(a[0].imag), _fmt(a[1].real), _fmt(a[1].imag), _fmt(abs(a[0]) ** 2 + abs(a[1]) ** 2)]
        for x, a in zip(final.sites, final.amp)
    ]
    _write_csv(out, ["x", "re0", "im0", "re1", "im1", "prob"], rows)


def _cmd_density(cp: configparser.ConfigParser, out: str) -> None:
    xs, probs = _evolved(cp).position_distribution()
    _write_csv(out, ["x", "prob"], [[x, _fmt(p)] for x, p in zip(xs, probs)])


def _cmd_spectrum(cp: configparser.ConfigParser, out: str) -> None:
    field = _load_field(cp)
    rows: list[list[Any]] = []
    for side in ("left", "right"):
        info = spectrum_arcs(free_model(field, side))
        for i, (lo, hi) in enumerate(info.arcs):
            rows.append([side, "arc_start", i, _fmt(lo), _fmt(0.0)])
            rows.append([side, "arc_end", i, _fmt(hi), _fmt(0.0)])
        for item, points in (("threshold", info.thresholds), ("eigenvalue", info.eigenvalues)):
            for i, z in enumerate(points):
                rows.append([side, item, i, _fmt(z.real), _fmt(z.imag)])
    _write_csv(out, ["side", "item", "index", "re", "im"], rows)


def _cmd_scatter(cp: configparser.ConfigParser, out: str) -> None:
    field, state, opts = _load_run(cp)
    pair, reports = outgoing_pair(state, field, _schedule(opts))
    rows: list[list[Any]] = []
    summary: dict[str, Any] = {}
    for side, phi in (("left", pair.left), ("right", pair.right)):
        trimmed = phi.trimmed(1e-12)
        for x, a in zip(trimmed.sites, trimmed.amp):
            rows.append(
                [side, x, _fmt(a[0].real), _fmt(a[0].imag), _fmt(a[1].real), _fmt(a[1].imag)]
            )
        rep = reports[side]
        summary[side] = {
            "norm_sq": phi.norm_sq(),
            "checkpoints": list(rep.checkpoints),
            "increments": list(rep.increments),
            "converged": rep.converged,
        }
    _write_csv(out, ["side", "x", "re0", "im0", "re1", "im1"], rows)
    print(json.dumps(summary, indent=2, sort_keys=True))


def _cmd_limit_dist(cp: configparser.ConfigParser, out: str) -> None:
    field, state, opts = _load_run(cp)
    with _section_errors("run"):  # before the limit law is computed
        _check_point_mass_args(opts["horizon"], opts["radius"], state)
    dist = _limit_law(field, state, opts)
    # cross-check the bound mass against the time-average estimator;
    # reuses the scattering pass, raises ConvergenceError on disagreement
    bound = pure_point_mass(
        state,
        field,
        horizon=opts["horizon"],
        radius=opts["radius"],
        outgoing=dist.reports["outgoing"],
    )
    rows: list[list[Any]] = []
    for pos, mass in ((-1.0, dist.atom_left), (0.0, dist.atom_origin), (1.0, dist.atom_right)):
        rows.append(["atom", _fmt(pos), "", _fmt(mass)])
    for samples in (dist.left, dist.right):
        if samples is None:
            continue
        pdf = samples.lebesgue_density()
        masses = samples.grid.weight * samples.values
        for v, d, m in zip(samples.grid.v, pdf, masses):
            rows.append(["density", _fmt(v), _fmt(d), _fmt(m)])
    _write_csv(out, ["kind", "v", "density", "mass"], rows)
    summary = {
        "atom_left": dist.atom_left,
        "atom_origin": dist.atom_origin,
        "atom_right": dist.atom_right,
        "mass_left": dist.left.mass() if dist.left else 0.0,
        "mass_right": dist.right.mass() if dist.right else 0.0,
        "pure_point_mass": bound,
        "total_mass": total_mass(dist),
        "mean": moment(dist, 1),
        "cf_at_1": [cf_limit(dist, 1.0).real, cf_limit(dist, 1.0).imag],
    }
    print(json.dumps(summary, indent=2, sort_keys=True))


def _cmd_compare(cp: configparser.ConfigParser, out: str) -> None:
    field, state, opts = _load_run(cp)
    with _section_errors("run"):  # before the limit law is computed
        _check_compare_args(opts["ns"], opts["xi"], opts["guard"], state)
    dist = _limit_law(field, state, opts)
    records = compare_empirical(
        dist, state, field, opts["ns"], xi=opts["xi"], guard=opts["guard"]
    )
    header = (
        ["n", "ks"]
        + [f"cf_err_{x:g}" for x in opts["xi"]]
        + ["moment_err_1", "moment_err_2"]
    )
    rows = [
        [r["n"], _fmt(r["ks"])]
        + [_fmt(r["cf_error"][x]) for x in opts["xi"]]
        + [_fmt(r["moment_error"][1]), _fmt(r["moment_error"][2])]
        for r in records
    ]
    _write_csv(out, header, rows)


_HANDLERS: dict[str, Callable[[configparser.ConfigParser, str], None]] = {
    "simulate": _cmd_simulate,
    "density": _cmd_density,
    "spectrum": _cmd_spectrum,
    "scatter": _cmd_scatter,
    "limit-dist": _cmd_limit_dist,
    "compare": _cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwscatter",
        description="Scattering and weak-limit analysis of coined walks on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI file describing coins, state and run")
        p.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cp = _load_config(args.config)
        out_dir = os.path.dirname(args.out) or "."
        if not os.path.isdir(out_dir):
            raise ConfigError(f"output directory {out_dir!r} does not exist")
        if os.path.isdir(args.out):
            raise ConfigError(f"output path {args.out!r} is a directory")
        _HANDLERS[args.command](cp, args.out)
    except QwalkError as exc:
        payload = {"code": type(exc).__name__, "message": str(exc), "path": args.config}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
