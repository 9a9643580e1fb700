"""Operator CLI: ask the agent, run benchmarks, forge datasets, call tools."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .. import __version__
from ..agent.runner import AgentSettings, run as agent_run
from ..agent.serialization import (
    dumps_stable,
    escape_surrogates,
    observation_to_jsonable,
    write_text_escaped,
)
from ..errors import ConfigError, GulfClimateError
from ..evalharness.model import check_against_registry, load_instances
from ..evalharness.reporting import (
    render_report,
    write_instance_rows_csv,
    write_report_csv,
    write_step_rows_csv,
)
from ..evalharness.replay import BenchReplay
from ..evalharness.runner import run_e2e_mode, run_step_mode
from ..toolkit.registry import INVALID_CALL_CODES, execute, render_tool_prompt
from ..toolkit.types import CATEGORIES, ToolCall
from ..tools.suite import build_registry
from .config import RunConfig, load_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FLAGGED = 2


def _write_manifest(config: RunConfig, out_dir: Path, inputs: dict) -> None:
    manifest = {
        "version": __version__,
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "inputs": inputs,
    }
    write_text_escaped(out_dir / "run_manifest.json", dumps_stable(manifest))


def cmd_ask(args: argparse.Namespace) -> int:
    if not args.query.strip():
        raise ConfigError("query must be non-empty")
    config = load_config(args.config)
    if config.backend is None:
        raise ConfigError("ask requires a backend section in the config")
    backend = config.backend.build()
    registry = build_registry(config.provider, backend=backend)
    settings = AgentSettings(budget=config.budget, route=config.route_intent,
                             images_enabled=args.images)
    answer, trajectory = agent_run(args.query, registry, backend, settings=settings)

    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    trajectory.write(out_dir / "trajectory.json")
    answer_doc = {
        "text": answer.text,
        "citations": list(answer.citations),
        "incomplete": answer.incomplete,
        "ungrounded": list(answer.ungrounded),
        "charts": [c.chart_id for c in answer.charts],
    }
    write_text_escaped(out_dir / "answer.json", dumps_stable(answer_doc))
    for chart in answer.charts:
        (out_dir / f"{chart.chart_id}.svg").write_text(chart.svg, encoding="utf-8")
        (out_dir / f"{chart.chart_id}.csv").write_text(chart.data_csv, encoding="utf-8")
    _write_manifest(config, out_dir, {"query": args.query})

    print(escape_surrogates(answer.text))
    if answer.citations:
        print(f"cited steps: {', '.join(str(c) for c in answer.citations)}")
    if answer.ungrounded:
        print(f"ungrounded numbers: {', '.join(answer.ungrounded)}")
    if answer.incomplete:
        print("run incomplete: step budget exhausted before a final answer")
    print(f"trajectory: {out_dir / 'trajectory.json'}")
    return EXIT_FLAGGED if answer.flagged else EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    instances = load_instances(args.instances)
    registry = build_registry(config.provider)
    check_against_registry(instances, registry)

    if config.backend is None:
        raise ConfigError("bench requires a backend section in the config")
    if config.backend.kind == "scripted":
        replay = BenchReplay.load(config.backend.replay)
        factory = replay.step_backend if args.mode == "step" else replay.e2e_backend
    else:
        backend = config.backend.build()
        factory = lambda _instance: backend  # noqa: E731

    if args.mode == "step":
        report = run_step_mode(instances, factory, registry)
    else:
        report = run_e2e_mode(instances, factory, registry,
                              images_enabled=args.images, budget=config.budget)

    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    text = render_report(report)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    write_report_csv(report, out_dir / "report.csv")
    if report.step_rows:
        write_step_rows_csv(report, out_dir / "step_rows.csv")
    if report.instance_rows:
        write_instance_rows_csv(report, out_dir / "instance_rows.csv")
    _write_manifest(config, out_dir, {"instances": str(args.instances), "mode": args.mode,
                                      "images": args.images})
    print(text, end="")
    print(f"reports under: {out_dir}")
    return EXIT_OK


def cmd_forge_text(args: argparse.Namespace) -> int:
    from ..pipelines import forge_text

    config = load_config(args.config)
    if config.backend is None:
        raise ConfigError("forge text requires a scripted or remote backend")
    try:
        text = Path(args.seeds).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"seeds file {args.seeds} is not UTF-8: {exc}") from exc
    seeds = [s.strip() for s in text.splitlines() if s.strip()]
    constraints = [(args.country, args.city)] if (args.country or args.city) else [(None, None)]
    result = forge_text(
        seeds=seeds,
        constraints=constraints,
        backend=config.backend.build(),
        fixture_root=config.provider.fixture_root,
        out_dir=config.output_dir,
        formats=tuple(args.formats.split(",")),
    )
    _write_manifest(config, config.output_dir, {"seeds": str(args.seeds),
                                                "formats": args.formats})
    print(json.dumps(result, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_forge_visual(args: argparse.Namespace) -> int:
    from ..pipelines import forge_visual

    config = load_config(args.config)
    backend = config.backend.build() if config.backend is not None else None
    result = forge_visual(
        gridded_path=Path(args.gridded),
        city=args.city,
        variable=args.variable,
        out_dir=config.output_dir,
        categories=tuple(args.categories.split(",")),
        formats=tuple(args.formats.split(",")),
        backend=backend,
        seed=config.seed,
        rho=args.rho,
    )
    _write_manifest(config, config.output_dir, {"gridded": str(args.gridded),
                                                "city": args.city,
                                                "variable": args.variable})
    print(json.dumps(result, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_tools_list(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    registry = build_registry(config.provider)
    print(render_tool_prompt(registry), end="")
    print(f"{len(registry)} tools in {len(CATEGORIES)} categories")
    return EXIT_OK


def cmd_tools_call(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    registry = build_registry(config.provider)
    call_args: dict = {}
    for pair in args.arg or []:
        key, _, value = pair.partition("=")
        if not _:
            raise ConfigError(f"--arg expects key=value, got {pair!r}")
        if key in call_args:
            raise ConfigError(f"--arg names {key} twice")
        call_args[key] = value
    observation = execute(ToolCall(tool=args.tool, args=call_args), registry)
    status = observation.status
    if status.code in INVALID_CALL_CODES:
        print(f"invalid call ({status.code}): {status.message}", file=sys.stderr)
        return EXIT_CONFIG
    print(escape_surrogates(json.dumps(observation_to_jsonable(observation), indent=1,
                                       sort_keys=True, ensure_ascii=False)))
    return EXIT_OK if status.is_ok else EXIT_FLAGGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gulfclimate",
        description="Gulf climate agent: grounded tool workflows, benchmarks, dataset forges.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ask = sub.add_parser("ask", help="answer a query through the agent loop")
    ask.add_argument("query")
    ask.add_argument("--config", required=True)
    ask.add_argument("--images", action="store_true",
                     help="emit charts for series observations cited by the answer")
    ask.set_defaults(func=cmd_ask)

    bench = sub.add_parser("bench", help="run the tool-use benchmark")
    bench.add_argument("instances")
    bench.add_argument("--config", required=True)
    bench.add_argument("--mode", choices=("step", "e2e"), default="step")
    bench.add_argument("--images", action="store_true")
    bench.set_defaults(func=cmd_bench)

    forge = sub.add_parser("forge", help="generate QA datasets")
    forge_sub = forge.add_subparsers(dest="kind", required=True)

    text = forge_sub.add_parser("text", help="textual pipeline")
    text.add_argument("--config", required=True)
    text.add_argument("--seeds", required=True, help="file with one topic per line")
    text.add_argument("--country")
    text.add_argument("--city")
    text.add_argument("--formats", default="mcq,tf,open")
    text.set_defaults(func=cmd_forge_text)

    visual = forge_sub.add_parser("visual", help="visual-temporal pipeline")
    visual.add_argument("--config", required=True)
    visual.add_argument("--gridded", required=True, help="gridded fixture file")
    visual.add_argument("--city", required=True)
    visual.add_argument("--variable", required=True)
    visual.add_argument("--categories", default="anomaly,imputation")
    visual.add_argument("--formats", default="mcq")
    visual.add_argument("--rho", type=float, default=0.8)
    visual.set_defaults(func=cmd_forge_visual)

    tools = sub.add_parser("tools", help="inspect or invoke tools directly")
    tools_sub = tools.add_subparsers(dest="action", required=True)

    tlist = tools_sub.add_parser("list", help="list the registered tools")
    tlist.add_argument("--config", required=True)
    tlist.set_defaults(func=cmd_tools_list)

    tcall = tools_sub.add_parser("call", help="invoke one tool")
    tcall.add_argument("tool")
    tcall.add_argument("--config", required=True)
    tcall.add_argument("--arg", action="append", metavar="KEY=VALUE",
                       help="one argument of the call, repeatable; each value is read as "
                            "its parameter's type: a number, an integer, a YYYY-MM-DD date, "
                            "a string or a reference id")
    tcall.set_defaults(func=cmd_tools_call)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GulfClimateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"input not found: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
