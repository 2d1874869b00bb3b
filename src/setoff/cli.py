"""Command line interface over the clearing engine and the experiments.

Commands print one JSON object to stdout on success and exit 0; failures
print ``{"error": <class>, "detail": <message>}`` to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .engine import ClearingEngine, _read_json, canonical_dumps
from .errors import SetoffError, StateError
from .experiments import (
    SyntheticGraphConfig,
    attach_default_liquidity,
    curve_to_csv,
    generate,
    multiplier_curve,
)


def _parse_fund(spec: str) -> tuple[str, str, int]:
    try:
        agent, asset, amount = spec.split(":")
        return agent, asset, int(amount)
    except ValueError as exc:
        raise StateError(f"--fund expects AGENT:ASSET:AMOUNT, got {spec!r}") from exc


def _parse_currency(spec: str) -> tuple[str, str]:
    code, sep, issuer = spec.partition("=")
    if not sep or not code or not issuer:
        raise StateError(f"--currency expects CODE=ISSUER, got {spec!r}")
    return code, issuer


def _json_object(obj) -> dict:
    if not isinstance(obj, dict):
        raise ValueError("the config must be a JSON object")
    return obj


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setoff",
        description="Multilateral obligation clearing over a file-backed store.",
    )
    parser.add_argument("--store", default="store", help="store directory (default: ./store)")
    parser.add_argument("--unit", default="UOA", help="unit of account code (used by init)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a new store")
    p.add_argument("--currency", action="append", default=[], metavar="CODE=ISSUER")
    p.add_argument("--default-source", default=None, metavar="AGENT")
    p.add_argument("--quota", type=int, default=None, metavar="N")
    p.add_argument("--fund", action="append", default=[], metavar="AGENT:ASSET:AMOUNT")

    p = sub.add_parser("keygen", help="register an ascertainment key for an agent")
    p.add_argument("--agent", required=True)
    p.add_argument("--key", default=None, help="hex key; generated when omitted")

    p = sub.add_parser("submit", help="submit a JSONL file of intents")
    p.add_argument("file", type=Path)

    sub.add_parser("freeze", help="close the current epoch's pool")

    p = sub.add_parser("run", help="clear the frozen epoch")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("report", help="show an epoch report")
    p.add_argument("--epoch", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    sub.add_parser(
        "nid",
        help="NID and total debt of the current epoch's admitted obligations "
        "(not intents queued for the next epoch)",
    )

    p = sub.add_parser("simulate", help="run the liquidity multiplier experiment")
    p.add_argument("--config", type=Path, required=True, help="synthetic graph JSON config")
    p.add_argument(
        "--fractions",
        default="0,0.01,0.02,0.05,0.1,0.2,0.3",
        help="comma-separated liquidity fractions of total debt",
    )
    p.add_argument("--out", type=Path, required=True, help="output CSV path")

    return parser


def _write_report_csv(report: dict) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("key", "value"))
    for key in sorted(report):
        value = report[key]
        if not isinstance(value, (str, int, float)) or isinstance(value, bool):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        writer.writerow((key, value))


def _run(args: argparse.Namespace) -> dict | None:
    if args.command == "init":
        balances: dict[str, dict[str, int]] = {}
        for agent, asset, amount in map(_parse_fund, args.fund):
            balances.setdefault(agent, {})[asset] = amount
        ClearingEngine.init(
            args.store,
            unit=args.unit,
            currencies=dict(map(_parse_currency, args.currency)),
            default_source=args.default_source,
            quota_per_agent=args.quota,
            opening_balances=balances,
        )
        return {"store": str(args.store), "unit": args.unit}

    if args.command == "simulate":
        try:
            fractions = [float(x) for x in str(args.fractions).split(",") if x != ""]
        except ValueError as exc:
            raise StateError(f"--fractions expects numbers, got {args.fractions!r}") from exc
        obj = _read_json(args.config, _json_object)
        placement = obj.pop("placement", "net_debtors")
        config = SyntheticGraphConfig.from_obj(obj)
        g = attach_default_liquidity(generate(config), placement=placement)
        points = multiplier_curve(g, fractions)
        try:
            args.out.write_text(curve_to_csv(points))
        except OSError as exc:
            raise StateError(f"{args.out}: {type(exc).__name__}: {exc}") from exc
        return {
            "out": str(args.out),
            "points": len(points),
            "total_debt": g.total_debt(),
        }

    engine = ClearingEngine(args.store)
    if args.command == "keygen":
        key = engine.register_key(args.agent, args.key)
        return {"agent": args.agent, "key": key}
    if args.command == "submit":
        return {"accepted": engine.submit_file(args.file)}
    if args.command == "freeze":
        return {"frozen_epoch": engine.freeze()}
    if args.command == "run":
        return engine.run(budget=args.budget, seed=args.seed)
    if args.command == "report":
        report = engine.report(args.epoch)
        if args.format == "csv":
            _write_report_csv(report)
            return None
        return report
    if args.command == "nid":
        return engine.nid()
    raise StateError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = _run(args)
    except SetoffError as exc:
        sys.stderr.write(
            canonical_dumps({"error": type(exc).__name__, "detail": str(exc)})
        )
        return 1
    if result is not None:
        sys.stdout.write(canonical_dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
