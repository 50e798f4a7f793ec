"""Command-line front end.

Subcommands:

    qir saturate --d 2                  reproduce the two saturating cases
    qir verify   --config c.cfg --out results/    run a campaign
    qir verify   --replay argmin.json   re-evaluate a stored extremal point
    qir sweep    --state bell:2 --x comp:2 --y fourier:2 --grid 0:1:0.05 --out t.csv
    qir minimize --relation eq11 --dA 2 --dB 2 --restarts 50 --seed 7

Exit codes: 0 success, 1 tolerance violation, 2 usage/config error,
3 theorem-violation flag. The tolerance is ``--tol``, else the config
file's ``tol``, else QIR_TOL, else 1e-9.
Printed numbers are nats with 9 decimals; --bits converts the display
(never stored files) to bits.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__, serialize
from .errors import ConfigError, QirError, TheoremViolation
from .explore import (
    CampaignConfig,
    minimize_slack,
    monitoring_sweep,
    run_campaign_records,
)
from .relations import DEFAULT_TOL, RELATIONS, _bundle, _check_tol, _reports, evaluate_relations
from .serialize import fmt_nats
from .states import (
    basis_from_token,
    computational_basis,
    fourier_basis,
    max_entangled,
    max_mixed,
    state_from_token,
)

SATURATE_EPS = 0.5  # monitoring strength used for the eq16 row of `saturate`


def resolve_tol(explicit: float | None, configured: float | None = None) -> float:
    """Tolerance precedence: ``--tol``, then the config file's ``tol``, then QIR_TOL, then the default.

    The value taken is checked by ``relations._check_tol``, whose message is
    prefixed with where the value came from.
    """
    if explicit is not None:
        source, tol = "--tol", explicit
    elif configured is not None:
        source, tol = "config file", configured
    elif (env := os.environ.get("QIR_TOL")) is not None:
        source = "QIR_TOL"
        try:
            tol = float(env)
        except ValueError as exc:
            raise ConfigError(f"QIR_TOL={env!r} is not a decimal number") from exc
    else:
        return DEFAULT_TOL
    try:
        _check_tol(tol)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return tol


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _record(
    command: str, config: dict, seed: int | None, started: str, outputs: dict, manifest_path: str
) -> None:
    """Write each output, then the manifest that names them.

    ``outputs`` maps a path to a JSON object, which gets a ``"manifest"``
    back-reference, or to a ``(header, rows)`` CSV table. The manifest
    records ``started`` and, once the outputs are on disk, ``finished``.
    A path that cannot be written is a ``ConfigError``.
    """
    manifest_name = os.path.basename(manifest_path)
    try:
        for path, body in outputs.items():
            if isinstance(body, dict):
                serialize.write_json(path, {"manifest": manifest_name, **body})
            else:
                serialize.write_csv(path, *body)
        path = manifest_path
        serialize.write_json(
            manifest_path,
            {
                "command": command,
                "config": config,
                "seed": seed,
                "version": __version__,
                "started": started,
                "finished": _now(),
                "outputs": [os.path.basename(p) for p in outputs],
            },
        )
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _output_dir(directory: str, target: str) -> None:
    """Create ``directory`` before any work, so that an unwritable ``target`` fails fast."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {target!r}: {exc}") from exc


# ---------------------------------------------------------------- saturate


def _print_case(label, state, x, y, tol, eps, bits):
    unit = math.log(2.0) if bits else 1.0

    def fmt(v):
        return fmt_nats(v / unit)

    b = _bundle(x, y, state, eps)
    print(f"case {label}: q = {fmt(b.q)}")
    print(f"  H(AB) = {fmt(b.h_ab)}  H(B) = {fmt(b.h_b)}  H(A|B) = {fmt(b.h_a_given_b)}")
    print(f"  H(X|B) = {fmt(b.h_x_given_b)}  H(Y|B) = {fmt(b.h_y_given_b)}")
    print(f"  irr(X) = {fmt(b.irreality_x)}  irr(Y) = {fmt(b.irreality_y)}")
    reports = _reports(RELATIONS.values(), b, tol)
    ok = True
    for name, report in reports.items():
        if RELATIONS[name].kind == "identity":
            verdict = "ok" if report.holds else "FAIL"
            print(f"  {name:<5} residual {fmt_nats(report.residual)}  {verdict}")
            ok = ok and report.holds
        else:
            verdict = "ok" if report.satisfied else "FAIL"
            print(
                f"  {name:<5} lhs {fmt(report.lhs)}  rhs {fmt(report.rhs)}"
                f"  slack {fmt(report.slack)}  {verdict}"
            )
            ok = ok and report.satisfied
    saturated = abs(reports["eq11"].slack) <= tol
    print(f"  eq11 saturated: {'yes' if saturated else 'NO'}")
    return ok, saturated


def cmd_saturate(args) -> int:
    tol = resolve_tol(args.tol)
    d = args.d
    if d < 2:
        raise ConfigError(f"--d must be >= 2, got {d}")
    x = computational_basis(d)
    y = fourier_basis(d)
    ok_a, sat_a = _print_case(
        f"A (maximally entangled, d={d})", max_entangled(d), x, y, tol, SATURATE_EPS, args.bits
    )
    ok_b, sat_b = _print_case(
        f"B (maximally mixed, d={d})", max_mixed(d, d), x, y, tol, SATURATE_EPS, args.bits
    )
    return 0 if (ok_a and ok_b and sat_a and sat_b) else 1


# ------------------------------------------------------------------ verify


def parse_campaign_config(path: str, tol_override: float | None) -> CampaignConfig:
    """Read the flat key-value campaign format (one [campaign] section)."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not parser.has_section("campaign"):
        raise ConfigError(f"{path}: missing [campaign] section")
    section = parser["campaign"]
    known = {"dims", "trials", "seed", "relations", "ensemble", "tol"}
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}: unknown key {key!r} in [campaign]")

    def need(key: str) -> str:
        if key not in section:
            raise ConfigError(f"{path}: [campaign] is missing required key {key!r}")
        return section[key]

    ensemble = section.get("ensemble", "haar-pure").strip()

    dims = []
    dims_raw = section.get("dims", "").strip()
    if dims_raw:
        for item in dims_raw.replace(",", " ").split():
            try:
                d_a, d_b = item.lower().split("x")
                dims.append((int(d_a), int(d_b)))
            except ValueError as exc:
                raise ConfigError(f"{path}: dims entry {item!r} is not of the form AxB") from exc
    elif ensemble.startswith("named:"):
        named = state_from_token(ensemble.partition(":")[2])
        dims.append((named.d_a, named.d_b))
    else:
        raise ConfigError(f"{path}: [campaign] is missing required key 'dims'")

    try:
        trials = int(need("trials"))
        seed = int(need("seed"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    relations_raw = section.get("relations", "").replace(",", " ").split()
    relations = tuple(relations_raw) if relations_raw else tuple(RELATIONS)

    configured = None
    if "tol" in section:
        try:
            configured = float(section["tol"])
        except ValueError as exc:
            raise ConfigError(f"{path}: tol is not a decimal number") from exc
    tol = resolve_tol(tol_override, configured)

    return CampaignConfig(
        dims=tuple(dims),
        trials=trials,
        seed=seed,
        relations=relations,
        ensemble=ensemble,
        tol=tol,
    )


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def _replay(path: str, tol_override: float | None) -> int:
    tol = resolve_tol(tol_override)
    point = serialize.argmin_from_dict(_load_json(path))
    name = point["relation"]
    reports = evaluate_relations(
        (name,), point["x"], point["y"], point["state"], eps=point["eps"], tol=tol
    )
    slack = reports[name].slack
    drift = abs(slack - point["best_slack"])
    print(f"relation {point['relation']}: stored slack {fmt_nats(point['best_slack'])}")
    print(f"replayed slack {fmt_nats(slack)} (drift {drift:.3e})")
    ok = drift <= tol and slack >= -tol
    print("replay ok" if ok else "replay MISMATCH")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    if args.replay:
        if args.config:
            raise ConfigError("--config and --replay are mutually exclusive")
        return _replay(args.replay, args.tol)
    if not args.config:
        raise ConfigError("verify needs --config <file> or --replay <argmin.json>")
    cfg = parse_campaign_config(args.config, args.tol)
    _output_dir(args.out, args.out)
    started = _now()
    result, records = run_campaign_records(cfg, workers=args.workers)
    result_path = os.path.join(args.out, "campaign_result.json")
    csv_path = os.path.join(args.out, "slacks.csv")
    _record(
        "verify",
        serialize.campaign_config_to_dict(cfg),
        cfg.seed,
        started,
        {
            result_path: serialize.campaign_result_to_dict(result),
            csv_path: (
                ["trial", "dA", "dB", "relation", "slack"],
                serialize.trial_csv_rows(records, cfg.relations),
            ),
        },
        os.path.join(args.out, "manifest.json"),
    )

    for name in cfg.relations:
        s = result.relations[name]
        print(
            f"{name:<5} {s.kind:<10} min slack {fmt_nats(s.min_slack)}"
            f"  violations {s.violations}"
        )
    print(f"total trials {result.total_trials}, violations {result.total_violations}")
    print(f"wrote {result_path}, {csv_path}")
    return 0 if result.total_violations == 0 else 1


# ------------------------------------------------------------------- sweep


def parse_grid(spec: str):
    """Parse start:stop:step into an ascending grid of strengths in [0, 1].

    The stop value is included when it lies on the step lattice (within
    float tolerance); points never exceed it.
    """
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ConfigError(f"grid {spec!r} is not of the form start:stop:step") from exc
    # a nan bound or step fails every comparison
    if not (0.0 < step < math.inf and 0.0 <= start <= stop <= 1.0):
        raise ConfigError(f"grid {spec!r} must ascend within [0, 1] with a finite positive step")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    values = [min(start + k * step, stop) for k in range(count)]
    return values


def _file_or_token(token: str, from_dict, from_token):
    if token.endswith(".json") or os.path.sep in token:
        return from_dict(_load_json(token))
    return from_token(token)


def cmd_sweep(args) -> int:
    state = _file_or_token(args.state, serialize.state_from_dict, state_from_token)
    x, y = (_file_or_token(t, serialize.basis_from_dict, basis_from_token) for t in (args.x, args.y))
    for flag, basis in (("--x", x), ("--y", y)):
        if basis.d != state.d_a:
            raise ConfigError(f"{flag} basis dim {basis.d} != state dA {state.d_a}")
    grid = parse_grid(args.grid)
    _output_dir(os.path.dirname(os.path.abspath(args.out)), args.out)
    started = _now()
    trace = monitoring_sweep(x, y, state, grid)
    _record(
        "sweep",
        {"state": args.state, "x": args.x, "y": args.y, "grid": args.grid, "out": args.out},
        None,
        started,
        {
            args.out: (
                ["eps", "irreality_x", "uncertainty_y", "q", "bound_slack"],
                serialize.sweep_csv_rows(trace),
            )
        },
        args.out + ".manifest.json",
    )
    print(
        f"swept {len(grid)} strengths: irr(X) {fmt_nats(trace.irreality_x[0])} ->"
        f" {fmt_nats(trace.irreality_x[-1])}, H(Y|B) {fmt_nats(trace.uncertainty_y[0])},"
        f" q {fmt_nats(trace.bound_q)}"
    )
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------- minimize


def cmd_minimize(args) -> int:
    tol = resolve_tol(args.tol)
    if args.dA < 2 or args.dB < 1:
        raise ConfigError(f"need --dA >= 2 and --dB >= 1, got ({args.dA}, {args.dB})")
    _output_dir(os.path.dirname(os.path.abspath(args.out)), args.out)
    started = _now()
    result = minimize_slack(
        args.relation,
        args.dA,
        args.dB,
        restarts=args.restarts,
        seed=args.seed,
        tol=tol,
        target=args.target,
    )
    _record(
        "minimize",
        {
            "relation": args.relation,
            "dA": args.dA,
            "dB": args.dB,
            "restarts": args.restarts,
            "seed": args.seed,
            "tol": tol,
            "target": args.target,
        },
        args.seed,
        started,
        {args.out: serialize.argmin_to_dict(result)},
        args.out + ".manifest.json",
    )
    print(
        f"{result.relation}: best slack {fmt_nats(result.best_slack)} after"
        f" {result.evaluations} evaluations in {result.restarts_used} restarts"
    )
    print(f"wrote {args.out}")
    return 0


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qir",
        description="Entropic uncertainty and irreality toolkit for bipartite states",
    )
    parser.add_argument("--version", action="version", version=f"qir {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("saturate", help="reproduce the two saturating cases at dimension d")
    p.add_argument("--d", type=int, required=True, help="local dimension (d_A = d_B = d)")
    p.add_argument("--bits", action="store_true", help="display in bits instead of nats")
    p.add_argument("--tol", type=float, default=None, help="verdict tolerance in nats")
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("verify", help="run a campaign from a config, or replay an argmin file")
    p.add_argument("--config", help="campaign config file")
    p.add_argument("--out", default=".", help="output directory for campaign results")
    p.add_argument("--replay", help="argmin JSON file to re-evaluate (single-point mode)")
    p.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    p.add_argument("--tol", type=float, default=None, help="verdict tolerance in nats")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="monitoring sweep over a strength grid")
    p.add_argument("--state", required=True, help="state token (bell:2, ...) or JSON file")
    p.add_argument("--x", required=True, help="tracked-observable basis token or JSON file")
    p.add_argument("--y", required=True, help="monitored-observable basis token or JSON file")
    p.add_argument("--grid", required=True, help="strength grid start:stop:step")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("minimize", help="search for the configuration minimizing a relation's slack")
    p.add_argument("--relation", required=True, help=f"one of {', '.join(RELATIONS)}")
    p.add_argument("--dA", type=int, required=True)
    p.add_argument("--dB", type=int, required=True)
    p.add_argument("--restarts", type=int, default=50,
                   help="Nelder-Mead restarts: side by side, or one at a time with --target")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=float, default=None, help="stop after the restart that reaches slack <= target")
    p.add_argument("--out", default="argmin.json", help="argmin output path")
    p.add_argument("--tol", type=float, default=None, help="verdict tolerance in nats")
    p.set_defaults(func=cmd_minimize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 3
    except QirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
