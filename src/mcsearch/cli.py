"""Command-line surface: scenario files, subcommand dispatch, reports.

Scenario files are JSON with an explicit ``schema_version``.  Version 1:

    {
      "schema_version": 1,
      "grid":    {"axes": [[1.0, 2.0], [1.0, 2.0]]},
      "pmfs":    {"f": [0.5, 0.0, 0.0, 0.5], "g": [0.25, 0.25, 0.25, 0.25]},
      "utility": {"family": "custom", "values": [5.0, -5.0, 14.0, 5.0]},
      "params":  {"beta": 0.5, "gamma": 1.0, "tol": 1e-10},
      "options": {"class": "supermodular", "theorem": "T3", "seed": 0,
                  "cases": 100, "grid_shape": [3, 3], "episodes": 100000,
                  "threshold": null, "samples": 50, "operator": "truncate"}
    }

Masses and utility values are listed in canonical (lexicographic) node
order.  Only the sections a subcommand needs are required; ``g`` is the
dominated / comparison distribution.  Flags override file values and the
effective configuration is echoed in every report header.  Each subcommand
accepts only the override flags it reads (``_COMMANDS``), plus ``--out`` and
``--format``; any other flag, or ``--format`` without ``--out``, exits 2.

JSON booleans are rejected wherever a number is expected (``params``,
``options.threshold``, masses, axes and utility coefficients).

Exit codes: 0 success, 1 a verification verdict failed (or a solve could
not be certified), 2 input or validation error, or an ``--out`` path that
cannot be written.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from .dominance import dominates
from .grids import Grid, Pmf, SearchParams, make_grid, make_pmf
from .report import FORMATS, Report, emit_report, fmt_value, render_table
from .solver import ConvergenceError, reservation_utility, simulate_search
from .statics import (
    SUITE_GRID_SHAPE,
    THEOREM_CLASS,
    SuiteConfig,
    TheoremCase,
    VerificationReport,
    closure_check,
    run_suite,
    verify_theorem,
)
from .utility import FunctionClass, TabulatedUtility, tabulate_family

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario validation failure; the message names the offending field."""


@dataclass(frozen=True)
class UtilitySpec:
    family: str
    a: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    def build(self, grid: Grid) -> TabulatedUtility:
        return tabulate_family(self.family, grid, a=self.a, values=self.values)


@dataclass(frozen=True)
class Options:
    function_class: str | None = None
    theorem: str | None = None
    seed: int = 0
    cases: int | None = None
    grid_shape: tuple[int, ...] = SUITE_GRID_SHAPE
    episodes: int = 100_000
    threshold: float | None = None
    samples: int = 50
    operator: str | None = None


@dataclass(frozen=True)
class Scenario:
    schema_version: int
    grid: Grid | None
    pmf_f: Pmf | None
    pmf_g: Pmf | None
    utility: UtilitySpec | None
    params: SearchParams | None
    options: Options


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ScenarioError(f"{path}: {message}")


@contextlib.contextmanager
def _naming(path: str) -> Iterator[None]:
    """Re-raise a ValueError from building a value as a ScenarioError on ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v: Any, path: str) -> float:
    _expect(_is_number(v), path, "must be a number")
    try:
        return float(v)
    except OverflowError:  # a JSON integer beyond the float range
        raise ScenarioError(f"{path}: must be a finite number") from None


def _nullable_number(v: Any, path: str) -> float | None:
    _expect(v is None or _is_number(v), path, "must be a number or null")
    return None if v is None else _number(v, path)


def _integer(v: Any, path: str) -> int:
    _expect(isinstance(v, int) and not isinstance(v, bool), path, "must be an integer")
    return v


def _string(v: Any, path: str) -> str:
    _expect(isinstance(v, str), path, "must be a string")
    return v


def _number_list(raw: Any, path: str) -> tuple[float, ...]:
    _expect(isinstance(raw, list) and raw, path, "must be a nonempty list of numbers")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _shape(raw: Any, path: str) -> tuple[int, ...]:
    shape = _number_list(raw, path)
    _expect(all(s.is_integer() and s >= 1 for s in shape), path, "must be positive integers")
    return tuple(int(s) for s in shape)


#: ``options`` key -> (``Options`` field, converter)
_OPTIONS: dict[str, tuple[str, Callable[[Any, str], Any]]] = {
    "class": ("function_class", _string),
    "theorem": ("theorem", _string),
    "seed": ("seed", _integer),
    "cases": ("cases", _integer),
    "grid_shape": ("grid_shape", _shape),
    "episodes": ("episodes", _integer),
    "threshold": ("threshold", _nullable_number),
    "samples": ("samples", _integer),
    "operator": ("operator", _string),
}


def scenario_from_dict(data: Any) -> Scenario:
    _expect(isinstance(data, dict), "scenario", "must be a JSON object")
    version = data.get("schema_version")
    _expect(version == SCHEMA_VERSION, "scenario.schema_version",
            f"must be {SCHEMA_VERSION} (got {version!r})")
    known = {"schema_version", "grid", "pmfs", "utility", "params", "options"}
    for key in data:
        _expect(key in known, f"scenario.{key}", "unknown section")

    grid = None
    if "grid" in data:
        sec = data["grid"]
        _expect(isinstance(sec, dict) and "axes" in sec, "scenario.grid", "needs an axes list")
        axes = sec["axes"]
        _expect(isinstance(axes, list) and axes, "scenario.grid.axes", "must be a nonempty list")
        with _naming("scenario.grid.axes"):
            grid = make_grid([_number_list(ax, f"scenario.grid.axes[{k}]") for k, ax in enumerate(axes)])

    pmfs: dict[str, Pmf] = {}
    if "pmfs" in data:
        sec = data["pmfs"]
        _expect(isinstance(sec, dict), "scenario.pmfs", "must be an object with keys f and/or g")
        for key in sec:
            _expect(key in ("f", "g"), f"scenario.pmfs.{key}", "unknown pmf name (use f or g)")
        _expect(grid is not None, "scenario.grid", "required when pmfs are given")
        for key in sorted(sec):
            weights = _number_list(sec[key], f"scenario.pmfs.{key}")
            with _naming(f"scenario.pmfs.{key}"):
                pmfs[key] = make_pmf(grid, weights)

    utility = None
    if "utility" in data:
        sec = data["utility"]
        _expect(isinstance(sec, dict) and "family" in sec, "scenario.utility", "needs a family")
        family = sec["family"]
        _expect(family in ("linear", "product", "min", "custom"), "scenario.utility.family",
                f"unknown family {family!r}")
        a, values = (
            _number_list(sec[key], f"scenario.utility.{key}") if key in sec else None
            for key in ("a", "values")
        )
        _expect(family != "linear" or a is not None, "scenario.utility.a", "required for linear")
        _expect(family != "custom" or values is not None, "scenario.utility.values",
                "required for custom")
        utility = UtilitySpec(family, a, values)

    params = None
    if "params" in data:
        sec = data["params"]
        _expect(isinstance(sec, dict), "scenario.params", "must be an object")
        numbers = {}
        for key in ("beta", "gamma", "tol"):  # tol defaults to SearchParams.tol
            _expect(key in sec or key == "tol", f"scenario.params.{key}", "required")
            if key in sec:
                numbers[key] = _number(sec[key], f"scenario.params.{key}")
        with _naming("scenario.params"):
            params = SearchParams(**numbers)

    options: dict[str, Any] = {}
    if "options" in data:
        sec = data["options"]
        _expect(isinstance(sec, dict), "scenario.options", "must be an object")
        for key, val in sec.items():
            _expect(key in _OPTIONS, f"scenario.options.{key}", "unknown option")
            name, convert = _OPTIONS[key]
            options[name] = convert(val, f"scenario.options.{key}")

    return Scenario(
        SCHEMA_VERSION, grid, pmfs.get("f"), pmfs.get("g"), utility, params, Options(**options)
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from None
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _node_label(coords: Sequence[float]) -> str:
    return "(" + ", ".join(fmt_value(float(c)) for c in coords) + ")"


def _need(value: Any, what: str) -> Any:
    if value is None:
        raise ScenarioError(f"{what} is required by this subcommand")
    return value


def _with_flags(s: Scenario, args: argparse.Namespace) -> Scenario:
    """The scenario with those of ``--seed``, ``--class`` and ``--theorem`` its
    subcommand took laid over its options (params flags: ``_effective_params``)."""
    flags = {name: getattr(args, name, None) for name in ("seed", "function_class", "theorem")}
    options = dataclasses.replace(s.options, **{k: v for k, v in flags.items() if v is not None})
    return dataclasses.replace(s, options=options)


def _function_class(s: Scenario) -> FunctionClass:
    return FunctionClass.from_name(_need(s.options.function_class, "options.class (or --class)"))


def _effective_params(s: Scenario, args: argparse.Namespace) -> SearchParams:
    """The scenario's params with ``--beta/--gamma/--tol`` laid over them;
    only subcommands that solve call this, so a bad flag fails only those."""
    flags = {key: getattr(args, key, None) for key in ("beta", "gamma", "tol")}
    flags = {key: val for key, val in flags.items() if val is not None}
    if s.params is not None:
        return dataclasses.replace(s.params, **flags)
    if "beta" not in flags or "gamma" not in flags:
        raise ScenarioError("scenario.params (or --beta/--gamma) is required")
    return SearchParams(**flags)


def _header(s: Scenario, args: argparse.Namespace, **fields: Any) -> dict[str, Any]:
    """Report header: scenario path and schema version, then ``fields`` in
    order, a ``SearchParams`` value spelled out as beta, gamma and tol."""
    header = {"scenario": args.scenario, "schema_version": s.schema_version}
    for key, val in fields.items():
        header.update(dataclasses.asdict(val) if isinstance(val, SearchParams) else {key: val})
    return header


def _cmd_solve(s: Scenario, args: argparse.Namespace) -> tuple[Report, int]:
    grid = _need(s.grid, "scenario.grid")
    pmf = _need(s.pmf_f, "scenario.pmfs.f")
    utility = _need(s.utility, "scenario.utility").build(grid)
    params = _effective_params(s, args)
    sol = reservation_utility(pmf, utility, params)
    rows = [
        {
            "node": _node_label(grid.nodes[i]),
            "mass": pmf.mass[i],
            "utility": utility.values[i],
            "value": sol.value.values[i],
            "accept": grid.node(i) in sol.acceptance,
        }
        for i in range(grid.size)
    ]
    summary = {
        "reservation_utility": sol.reservation_utility,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "acceptance_size": len(sol.acceptance),
    }
    return Report("solve", _header(s, args, params=params), ("node", "mass", "utility", "value", "accept"), rows, summary), 0


def _cmd_dominate(s: Scenario, args: argparse.Namespace) -> tuple[Report, int]:
    _need(s.grid, "scenario.grid")
    f = _need(s.pmf_f, "scenario.pmfs.f")
    g = _need(s.pmf_g, "scenario.pmfs.g")
    fc = _function_class(s)
    result = dominates(f, g, fc)
    grid = f.grid
    rows = []
    for i in range(grid.size):
        row: dict[str, Any] = {
            "node": _node_label(grid.nodes[i]),
            "f_mass": f.mass[i],
            "g_mass": g.mass[i],
            "witness": result.witness.values[i] if result.witness is not None else None,
        }
        rows.append(row)
    summary = {
        "verdict": result.verdict,
        "lp_optimum": result.lp_optimum,
        "reason": result.reason,
    }
    code = 0 if result.verdict == "dominates" else 1
    return Report("dominance", _header(s, args, **{"class": fc.value}), ("node", "f_mass", "g_mass", "witness"), rows, summary), code


_VERIFY_COLUMNS = ("theorem", "premise_dom", "premise_mem", "u_F", "u_G", "verdict")
_SUITE_COLUMNS = ("case_id", *_VERIFY_COLUMNS, "detail")


def _verify_row(rep: VerificationReport) -> dict[str, Any]:
    """The ``_VERIFY_COLUMNS`` of one checked case."""
    return dict(zip(_VERIFY_COLUMNS, (
        rep.theorem_id, rep.premise_dominance.verdict, rep.premise_membership,
        rep.u_f, rep.u_g, rep.status,
    )))


def _suite_rows(records) -> list[dict[str, Any]]:
    """One row per case; a failing case's ``detail`` is the JSON of its
    axes, masses, utility values and params, enough to replay it."""
    rows = []
    for rec in records:
        detail = ""
        if rec.report.status == "fail":
            case = rec.case
            detail = json.dumps(
                {
                    "axes": [list(ax) for ax in case.f.grid.axes],
                    "f": list(case.f.mass),
                    "g": list(case.g.mass),
                    "utility": list(case.utility.values),
                    **dataclasses.asdict(case.params),
                },
                separators=(",", ":"),
            )
        rows.append({"case_id": rec.case_id, **_verify_row(rec.report), "detail": detail})
    return rows


def _cmd_verify(s: Scenario, args: argparse.Namespace) -> tuple[Report, int]:
    theorem = _need(s.options.theorem, "options.theorem (or --theorem)")
    explicit = s.pmf_f is not None or s.pmf_g is not None
    if s.options.cases is not None and explicit:
        raise ScenarioError(
            "scenario.options.cases: give either explicit pmfs (single case) or "
            "cases (generated suite), not both"
        )

    if s.options.cases is not None:
        config = SuiteConfig(theorem, s.options.cases, s.options.seed, s.options.grid_shape)
        suite = run_suite(config)
        header = _header(
            s, args, theorem=theorem, cases=config.n_cases, seed=config.seed,
            grid_shape="x".join(str(n) for n in config.grid_shape), jobs=config.jobs,
        )
        summary: dict[str, Any] = dict(suite.summary)
        summary["suite_passed"] = suite.passed
        code = 0 if suite.passed else 1
        return Report("verify-suite", header, _SUITE_COLUMNS, _suite_rows(suite.records), summary), code

    grid = _need(s.grid, "scenario.grid")
    f = _need(s.pmf_f, "scenario.pmfs.f")
    g = _need(s.pmf_g, "scenario.pmfs.g")
    utility = _need(s.utility, "scenario.utility").build(grid)
    params = _effective_params(s, args)
    case = TheoremCase(theorem, f, g, utility, params)
    rep = verify_theorem(case)
    header = _header(s, args, theorem=theorem, params=params)
    summary = {
        "verdict": rep.status,
        "reason": rep.reason,
    }
    code = 1 if rep.status == "fail" else 0
    return Report("verify", header, _VERIFY_COLUMNS, [_verify_row(rep)], summary), code


def _cmd_closure(s: Scenario, args: argparse.Namespace) -> tuple[Report, int]:
    fc = _function_class(s)
    operator = _need(s.options.operator, "options.operator")
    rep = closure_check(fc, operator, s.options.samples, s.options.seed)
    header = _header(
        s, args, **{"class": fc.value}, operator=operator, samples=rep.samples, seed=s.options.seed
    )
    rows = [
        {
            "sample": idx,
            "constraint": witness.constraint,
            "nodes": "; ".join(_node_label(nd) for nd in witness.nodes),
            "margin": witness.margin,
        }
        for idx, witness in rep.violations
    ]
    summary: dict[str, Any] = {
        "preserved": rep.preserved,
        "violations": len(rep.violations),
        "expects_violation": rep.expects_violation,
        "counterexample_margin": (
            rep.counterexample_witness.margin if rep.counterexample_witness else None
        ),
        "passed": rep.passed,
    }
    return Report(
        "closure", header, ("sample", "constraint", "nodes", "margin"), rows, summary
    ), (0 if rep.passed else 1)


def _cmd_simulate(s: Scenario, args: argparse.Namespace) -> tuple[Report, int]:
    grid = _need(s.grid, "scenario.grid")
    pmf = _need(s.pmf_f, "scenario.pmfs.f")
    utility = _need(s.utility, "scenario.utility").build(grid)
    params = _effective_params(s, args)
    threshold = s.options.threshold
    if threshold is None:
        threshold = reservation_utility(pmf, utility, params).reservation_utility
    stats = simulate_search(pmf, utility, params, threshold, s.options.seed, s.options.episodes)
    rows = [
        {
            "threshold": threshold,
            "mean": stats.mean,
            "stderr": stats.stderr,
            "episodes": stats.episodes,
            "horizon": stats.horizon,
            "accept_rate": stats.accept_rate,
        }
    ]
    return Report(
        "simulate",
        _header(s, args, params=params, seed=s.options.seed),
        ("threshold", "mean", "stderr", "episodes", "horizon", "accept_rate"),
        rows,
        dict(rows[0]),
    ), 0


#: subcommand -> (handler, help text, the override flags the handler reads)
_COMMANDS = {
    "solve": (_cmd_solve, "solve the stopping problem for pmf f", ("beta", "gamma", "tol")),
    "dominate": (_cmd_dominate, "check class dominance of pmf f over pmf g", ("class",)),
    "verify": (_cmd_verify, "verify a comparative-statics theorem (single case or generated suite)",
               ("theorem", "seed", "beta", "gamma", "tol")),
    "closure": (_cmd_closure, "closure suite: operator preservation of class membership",
                ("class", "seed")),
    "simulate": (_cmd_simulate, "Monte Carlo evaluation of a threshold policy",
                 ("seed", "beta", "gamma", "tol")),
}

#: override flag -> its ``add_argument`` keywords
_FLAGS: dict[str, dict[str, Any]] = {
    "beta": dict(type=float, help="override params.beta"),
    "gamma": dict(type=float, help="override params.gamma"),
    "tol": dict(type=float, help="override params.tol"),
    "seed": dict(type=int, help="override options.seed"),
    "class": dict(dest="function_class", choices=[fc.value for fc in FunctionClass], help="override options.class"),
    "theorem": dict(choices=list(THEOREM_CLASS), help="override options.theorem"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcsearch",
        description="Multicriteria search: reservation utilities, dominance checks, "
        "and comparative-statics verification on finite offer grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a JSON scenario file")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--out", help="also write a machine-readable report here")
        p.add_argument("--format", choices=list(FORMATS),
                       help="format of the --out report (default json-lines; needs --out)")
    return parser


def run_command(argv: Sequence[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format is not None and not args.out:
            parser.error("--format needs --out")
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code) if exc.code else 0
    try:
        scenario = _with_flags(load_scenario(args.scenario), args)
        report, code = _COMMANDS[args.command][0](scenario, args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_table(report))
    if args.out:
        data = emit_report(report, args.format or "json-lines")
        try:
            with open(args.out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
            return 2
    return code


def main() -> None:  # console entry point
    sys.exit(run_command())
