"""Command line interface: run scenarios, sweep a parameter, self-check."""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

from . import __version__, selfcheck
from .scenarios import (
    SCENARIOS,
    ConfigError,
    config_from_dict,
    read_config_json,
    run_scenario,
    scenario_defaults,
)

# command-line flag -> dotted config path it overrides
_OVERRIDES = (("out", "output.directory"), ("seed", "disorder.seed"),
              ("threads", "threads"), ("grid_points", "grid.points"))


def _load_raw_config(args) -> dict:
    if args.config is not None:
        return read_config_json(args.config)
    return scenario_defaults(args.scenario)


def _apply_overrides(raw: dict, args) -> dict:
    raw = copy.deepcopy(raw)
    for flag, dotted in _OVERRIDES:
        value = getattr(args, flag)
        if value is not None:
            _set_dotted(raw, dotted, value)
    return raw


def _set_dotted(raw: dict, dotted: str, value):
    keys = dotted.split(".")
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(dotted, "path does not address a config section")
    node[keys[-1]] = value


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def cmd_run(args) -> int:
    config = config_from_dict(_apply_overrides(_load_raw_config(args), args))
    files = run_scenario(config)
    for name in sorted(files):
        print(f"{name}: {files[name]}")
    return 0


def cmd_sweep(args) -> int:
    raw = _apply_overrides(_load_raw_config(args), args)
    values = [_parse_value(v) for v in args.values.split(",") if v != ""]
    if not values:
        raise ConfigError(args.param, "sweep needs at least one value")
    output = raw.get("output")
    base_out = output.get("directory") if isinstance(output, dict) else None
    leaf = args.param.split(".")[-1]
    names = [f"{leaf}={value}" for value in values]
    configs = []  # every point is checked before any runs
    for value, name in zip(values, names):
        if any(sep and sep in name for sep in (os.sep, os.altsep)):
            raise ConfigError(args.param, f"value {value!r} would write outside the sweep "
                                          f"directory (directory name {name!r})")
        point = copy.deepcopy(raw)
        _set_dotted(point, args.param, value)
        out_dir = base_out or f"out/{point.get('scenario', 'sweep')}"
        _set_dotted(point, "output.directory", f"{out_dir}/{name}")
        configs.append(config_from_dict(point))
    for value, config in zip(values, configs):
        files = run_scenario(config)
        print(f"{args.param}={value}: {files['manifest'].parent}")
    return 0


def cmd_check(args) -> int:
    checks = selfcheck.ALL_CHECKS
    failed = 0
    for check in checks:
        result = check()
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveqed",
        description="Collective radiative dynamics of a waveguide-coupled atom array",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_scenario=True):
        if with_scenario:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--config", help="path to a JSON scenario config")
            group.add_argument("--scenario", choices=SCENARIOS,
                               help="run a built-in scenario with default parameters")
        p.add_argument("--out", help="output directory (overrides output.directory)")
        p.add_argument("--seed", type=int, help="seed of fig4 and s1 (overrides disorder.seed)")
        p.add_argument("--threads", type=int, help="worker threads of fig4 and s1")
        p.add_argument("--grid-points", type=int, dest="grid_points",
                       help="grid length, power of two (overrides grid.points)")

    p_run = sub.add_parser("run", help="run one scenario and write CSV outputs + manifest")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario repeatedly over parameter values")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="dotted config path to vary, e.g. detuning or disorder.seed")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values for the swept parameter")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run built-in invariant self-tests")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, ConfigError):
            error["error"]["field"] = exc.field
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
