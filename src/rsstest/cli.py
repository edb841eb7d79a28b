"""Command-line interface.

Subcommands:

  test        run one perfect-ranking test on a CSV sample
  null-table  tabulate critical values over a (k, n, alpha) grid
  power       estimate rejection probabilities over a parameter grid
  verify      run the exact-identity self-checks

Exit codes: 0 success / null accepted, 1 usage error, 2 data or cap
error, 3 null rejected (or verification failure).

Every run reports the fully resolved configuration, including any seed
that had to be generated, so results can be reproduced bit-exactly.
Seeds are never read from the environment; they are either given
explicitly or generated and printed.  A `--config FILE` of key=value
lines (keys matching the long option names) supplies defaults that the
command line overrides; config values pass the same types and choices as
the flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DataValidationError, RssError
from .exact import DEFAULT_EXACT_CELL_CAP
from .mc import NullSource, null_distributions_for
from .models import ImperfectModel
from .nulldist import as_exact_probability, critical_value, format_probability, run_test
from .power import PowerStudy, compare_tests, estimate_power
from .sample import parse_csv
from .statistics import StatisticKind
from .streams import TEST_STREAM_BASE, fresh_seed, substream
from .verify import run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REJECT = 3

STAT_TAGS = [kind.value for kind in StatisticKind]
# --null values and the null method each one selects
NULL_FLAGS = {"auto": "auto", "exact": "exact", "mc": "monte-carlo"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


def _int_list(text: str) -> list[int]:
    """Parse '2,3,5' or '2..5' (or a mix) into a list of positive ints."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out or min(out) < 1:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return out


def _float_list(text: str) -> list[float]:
    out = [float(p) for p in text.split(",") if p.strip()]
    if not out:
        raise ValueError("empty list")
    return out


def _str_list(text: str) -> list[str]:
    out = [p.strip() for p in text.split(",") if p.strip()]
    if not out:
        raise ValueError("empty list")
    return out


def _stat_list(text: str) -> list[StatisticKind]:
    return [StatisticKind.from_tag(t) for t in _str_list(text)]


def _alpha(text: str) -> str:
    """A significance level in (0, 1], kept as typed: outputs echo the text."""
    try:
        if as_exact_probability(text) > 0:
            return text
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"alpha must be a number in (0, 1], got {text!r}")


def _alpha_list(text: str) -> list[str]:
    return [_alpha(t) for t in _str_list(text)]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="rsstest", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="key=value defaults file")
    common.add_argument("--output", type=Path, default=None, help="write the result here instead of stdout")
    common.add_argument("--threads", type=_positive_int, default=1, help="worker threads (never changes results)")

    # argparse passes a string default through the option's type, as it does a flag's value
    p_test = sub.add_parser("test", parents=[common], help="test perfect ranking on a CSV sample")
    p_test.add_argument("data", type=Path, help="CSV file of measurements")
    p_test.add_argument("--stat", choices=STAT_TAGS, default="PA", help="statistic tag")
    p_test.add_argument("--alpha", type=_alpha, default="0.05", help="significance level (default %(default)s)")
    p_test.add_argument(
        "--layout", choices=["cycles-as-rows", "cycles-as-columns"], default=None,
        help="CSV orientation (required)",
    )
    p_test.add_argument("--randomized", action="store_true", help="randomize the boundary atom")
    p_test.add_argument("--seed", type=int, default=None, help="master seed (generated and printed if absent)")
    p_test.add_argument("--null", choices=NULL_FLAGS, default="auto", help="null distribution source")
    p_test.add_argument("--null-reps", type=_positive_int, default=100_000, help="Monte Carlo nulls: replications (default %(default)s)")
    p_test.add_argument("--null-seed", type=int, default=None, help="Monte Carlo nulls: seed (default: master seed)")
    p_test.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CELL_CAP, help="max kn for the exact engine (default %(default)s)")
    p_test.add_argument("--format", choices=["text", "json"], default="text")

    p_table = sub.add_parser("null-table", parents=[common], help="critical-value table over a grid")
    p_table.add_argument("--stat", choices=STAT_TAGS, default="PA", help="statistic tag (default %(default)s)")
    p_table.add_argument("--k", dest="k_grid", type=_int_list, default=None, help="set sizes, e.g. 2..5 or 2,3")
    p_table.add_argument("--n", dest="n_grid", type=_int_list, default=None, help="cycle counts, e.g. 2..5")
    p_table.add_argument("--alphas", type=_alpha_list, default="0.05,0.10", help="levels, e.g. 0.05,0.10")
    p_table.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CELL_CAP, help="max kn for the exact engine (default %(default)s)")
    p_table.add_argument("--reps", type=_positive_int, default=100_000, help="Monte Carlo replications above the cap (default %(default)s)")
    p_table.add_argument("--seed", type=int, default=None, help="Monte Carlo seed (generated and printed if needed)")
    p_table.add_argument("--format", choices=["text", "csv", "json"], default="text")

    p_power = sub.add_parser("power", parents=[common], help="power study over a parameter grid")
    p_power.add_argument("--k", type=_positive_int, default=None, help="set size")
    p_power.add_argument("--n", type=_positive_int, default=None, help="cycles")
    p_power.add_argument("--model", default=None, help="perfect | concomitant:L | random:L | inverse:L | neighbor:L")
    p_power.add_argument("--lambdas", type=_float_list, default=None, help="parameter grid, e.g. 0,0.5,1")
    p_power.add_argument("--stats", type=_stat_list, default="PA", help="statistic tags (default %(default)s)")
    p_power.add_argument("--alpha", type=_alpha, default="0.05", help="significance level (default %(default)s)")
    p_power.add_argument("--reps", type=_positive_int, default=20_000, help="replications per grid point (default %(default)s)")
    p_power.add_argument("--seed", type=int, default=None, help="master seed (generated and printed if absent)")
    p_power.add_argument("--population", choices=["uniform", "normal"], default=None)
    p_power.add_argument("--null", choices=NULL_FLAGS, default="auto", help="null source (default %(default)s)")
    p_power.add_argument("--null-reps", type=_positive_int, default=1_000_000, help="Monte Carlo nulls: replications (default %(default)s)")
    p_power.add_argument("--null-seed", type=int, default=None, help="Monte Carlo nulls: seed (default: master seed)")
    p_power.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CELL_CAP, help="max kn for exact nulls under auto (default %(default)s)")
    p_power.add_argument("--format", choices=["text", "csv", "json"], default="text")

    p_verify = sub.add_parser("verify", parents=[common], help="run the identity self-checks")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the random instances (default %(default)s)")
    p_verify.add_argument("--instances", type=_positive_int, default=200, help="number of random samples (default %(default)s)")

    return parser


def _load_config(path: Path) -> dict[str, str]:
    if not path.exists():
        raise DataValidationError(f"config file {path} not found")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataValidationError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _with_config(parser: _Parser, args: argparse.Namespace, argv: list[str]) -> list[str]:
    """`argv` with the config file's settings as flags ahead of the user's own.

    Each key=value becomes the option it names, so config values meet the
    same types and choices as flags, and the user's flags, parsed later, win.
    """
    options = {a.dest: a for a in parser.commands[args.command]._actions if a.option_strings}
    flags = []
    for key, raw in _load_config(args.config).items():
        action = options.get(key)
        if action is None:
            raise UsageError(f"config key {key!r} does not match any option")
        flag = action.option_strings[-1]
        if action.nargs != 0:
            flags.append(f"{flag}={raw}")
        elif raw.lower() in ("1", "true", "yes"):
            flags.append(flag)
    command, *rest = argv
    return [command, *flags, *rest]


def _emit(args: argparse.Namespace, content: str) -> None:
    if args.output is not None:
        args.output.write_text(content)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(content if content.endswith("\n") else content + "\n")


def _resolve_seed(value: int | None) -> tuple[int, bool]:
    if value is not None:
        return value, False
    return fresh_seed(), True


def _null_source(args: argparse.Namespace) -> NullSource:
    """The null policy of `--null`, `--null-reps`, `--null-seed` and `--exact-cap`."""
    return NullSource(NULL_FLAGS[args.null], args.null_reps, args.null_seed, args.exact_cap)


def _cmd_test(args: argparse.Namespace) -> int:
    if args.layout is None:
        raise UsageError("--layout is required (cycles-as-rows or cycles-as-columns)")

    try:
        text = args.data.read_text()
    except OSError as exc:
        raise DataValidationError(f"cannot read {args.data}: {exc.strerror}") from None
    sample = parse_csv(text, args.layout)
    kind = StatisticKind.from_tag(args.stat)
    alpha = as_exact_probability(args.alpha)

    source = _null_source(args)
    needs_seed = args.randomized or (
        source.seed is None and not source.is_exact(sample.k, sample.n)
    )
    seed, seed_generated = _resolve_seed(args.seed) if needs_seed else (args.seed, False)
    dist = null_distributions_for([kind], sample.k, sample.n, source, seed, args.threads)[kind]

    rng = substream(seed, TEST_STREAM_BASE) if args.randomized else None
    result = run_test(sample, kind, dist, alpha, randomized=args.randomized, rng=rng)

    cli_config = {
        "data": str(args.data),
        "layout": args.layout,
        "stat": kind.value,
        "alpha": args.alpha,
        "randomized": args.randomized,
        "seed": seed,
        "seed_generated": seed_generated,
        "null": args.null,
        "null_reps": args.null_reps,
        "null_seed": args.null_seed,
        "exact_cap": args.exact_cap,
    }
    if args.format == "json":
        doc = result.to_json_dict()
        doc["cli"] = cli_config
        _emit(args, json.dumps(doc, indent=2))
    else:
        lines = [
            f"statistic {kind.value} on {sample.k}x{sample.n} sample ({args.layout})",
            f"observed: {result.observed}",
            f"tail: {result.tail}",
            f"p-value: {format_probability(result.p_value)} "
            f"({result.p_value.numerator}/{result.p_value.denominator})",
            f"critical value: {result.critical_value} "
            f"(attained level {format_probability(result.attained_level)}, "
            f"gamma {format_probability(result.gamma)} at boundary {result.boundary})",
            f"alpha: {args.alpha}",
            f"null: {dist.provenance.method}"
            + (
                f" (seed {dist.provenance.seed}, reps {dist.provenance.reps})"
                if dist.provenance.method == "monte-carlo"
                else ""
            ),
            f"decision: {result.decision.value}",
        ]
        if args.randomized or seed_generated:
            lines.append(f"seed: {seed}" + (" (generated)" if seed_generated else ""))
        _emit(args, "\n".join(lines))
    return EXIT_REJECT if result.is_rejection else EXIT_OK


def _cmd_null_table(args: argparse.Namespace) -> int:
    if args.k_grid is None or args.n_grid is None:
        raise UsageError("--k and --n grids are required, e.g. --k 2..5 --n 2..5")

    kind = StatisticKind.from_tag(args.stat)
    alphas = [(text, as_exact_probability(text)) for text in args.alphas]
    source = NullSource("auto", args.reps, None, args.exact_cap)
    mc_grids = [(k, n) for k in args.k_grid for n in args.n_grid if not source.is_exact(k, n)]
    seed, seed_generated = _resolve_seed(args.seed) if mc_grids else (args.seed, False)

    rows = []
    for k in args.k_grid:
        for n in args.n_grid:
            if (k, n) in mc_grids:
                print(
                    f"note: {k}x{n} exceeds the exact cap of {args.exact_cap} cells; "
                    f"using Monte Carlo with reps={args.reps}",
                    file=sys.stderr,
                )
            dist = null_distributions_for([kind], k, n, source, seed, args.threads)[kind]
            for alpha_text, alpha in alphas:
                crit = critical_value(dist, alpha)
                rows.append(
                    {
                        "kind": kind.value,
                        "k": k,
                        "n": n,
                        "alpha": alpha_text,
                        "cv": crit.cv,
                        "attained_level": format_probability(crit.attained_level),
                        "gamma": format_probability(crit.gamma),
                        "boundary": crit.boundary,
                        "provenance": dist.provenance.method,
                    }
                )

    config = {
        "stat": kind.value,
        "k": args.k_grid,
        "n": args.n_grid,
        "alphas": [t for t, _ in alphas],
        "exact_cap": args.exact_cap,
        "reps": args.reps,
        "seed": seed,
        "seed_generated": seed_generated,
    }
    if args.format == "json":
        _emit(args, json.dumps({"format": "rsstest-null-table/1", "config": config, "rows": rows}, indent=2))
    elif args.format == "csv":
        lines = ["kind,k,n,alpha,cv,attained_level,gamma,boundary,provenance"]
        lines += [
            f"{r['kind']},{r['k']},{r['n']},{r['alpha']},{r['cv']},{r['attained_level']},"
            f"{r['gamma']},{r['boundary']},{r['provenance']}"
            for r in rows
        ]
        _emit(args, "\n".join(lines))
    else:
        lines = [f"critical values for {kind.value} (levels are attained, * = Monte Carlo)"]
        for r in rows:
            star = "*" if r["provenance"] == "monte-carlo" else ""
            lines.append(
                f"  k={r['k']} n={r['n']} alpha={r['alpha']}: CV {r['cv']} "
                f"level {r['attained_level']}{star} gamma {r['gamma']}"
            )
        if seed_generated:
            lines.append(f"seed: {seed} (generated)")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_power(args: argparse.Namespace) -> int:
    if args.k is None or args.n is None:
        raise UsageError("--k and --n are required")
    if args.model is None:
        raise UsageError("--model is required, e.g. neighbor:0.5")

    tag, _, param = args.model.partition(":")
    grid = args.lambdas
    try:
        if param or tag == "perfect":
            model = ImperfectModel.parse(args.model)
            tag, grid = model.tag, grid or [model.lam]
        for lam in grid or ():
            ImperfectModel(tag, lam)  # validates tag and domain
    except DataValidationError as exc:
        raise UsageError(str(exc)) from exc
    if not grid:
        raise UsageError("no parameter grid: give --lambdas or a model like 'neighbor:0.5'")

    seed, seed_generated = _resolve_seed(args.seed)
    study = PowerStudy(
        k=args.k,
        n=args.n,
        kinds=tuple(args.stats),
        model_tag=tag,
        lambda_grid=tuple(grid),
        alpha=as_exact_probability(args.alpha),
        reps=args.reps,
        seed=seed,
        population=args.population,
        null=_null_source(args),
    )
    table = estimate_power(study, threads=args.threads)

    if args.format == "json":
        doc = table.to_json_dict()
        doc["cli"] = {"seed_generated": seed_generated}
        _emit(args, json.dumps(doc, indent=2))
    elif args.format == "csv":
        _emit(args, table.to_csv())
    else:
        report = compare_tests([table])
        lines = [
            f"power of {', '.join(kd.value for kd in study.kinds)} under {tag} "
            f"(k={study.k}, n={study.n}, alpha={args.alpha}, reps={study.reps}, seed={seed}"
            + (" generated" if seed_generated else "")
            + ")"
        ]
        lines.append(table.to_csv().rstrip("\n"))
        lines.append("")
        lines.append(report.render_text().rstrip("\n"))
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(seed=args.seed, instances=args.instances)
    _emit(args, report.render_text())
    return EXIT_OK if report.passed else EXIT_REJECT


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            args = parser.parse_args(_with_config(parser, args, argv))
        handler = {
            "test": _cmd_test,
            "null-table": _cmd_null_table,
            "power": _cmd_power,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
