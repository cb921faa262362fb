import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import mcsearch.cli as cli_module
from mcsearch.cli import (
    Options,
    Scenario,
    ScenarioError,
    UtilitySpec,
    load_scenario,
    run_command,
    scenario_from_dict,
)
from mcsearch.grids import SearchParams, make_grid, make_pmf
from mcsearch.report import Report, emit_report, render_csv, render_json_lines
from mcsearch.solver import ConvergenceError
from mcsearch.statics import CaseRecord, SuiteReport, generate_case, verify_theorem


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _summary_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"# {key} = "):
            return float(line.split(" = ")[1])
    raise AssertionError(f"no summary line for {key} in output")


@pytest.fixture
def two_point_scenario(tmp_path):
    return write_json(
        tmp_path / "two_point.json",
        {
            "schema_version": 1,
            "grid": {"axes": [[0.0, 2.0]]},
            "pmfs": {"f": [0.5, 0.5]},
            "utility": {"family": "linear", "a": [1.0]},
            "params": {"beta": 0.5, "gamma": 0.5},
        },
    )


@pytest.fixture
def fosd_scenario(tmp_path):
    return write_json(
        tmp_path / "fosd.json",
        {
            "schema_version": 1,
            "grid": {"axes": [[0.0, 2.0]]},
            "pmfs": {"f": [0.25, 0.75], "g": [0.5, 0.5]},
            "utility": {"family": "linear", "a": [1.0]},
            "params": {"beta": 0.5, "gamma": 0.5},
            "options": {"class": "increasing", "theorem": "T2a"},
        },
    )


#: (payload, the field its diagnostic names, the exact diagnostic)
REJECTED = [
    ({}, "schema_version", "scenario.schema_version: must be 1 (got None)"),
    ({"schema_version": 2}, "schema_version", "scenario.schema_version: must be 1 (got 2)"),
    ({"schema_version": 1, "extra": {}}, "scenario.extra", "scenario.extra: unknown section"),
    ({"schema_version": 1, "pmfs": {"f": [1.0]}}, "scenario.grid",
     "scenario.grid: required when pmfs are given"),
    ({"schema_version": 1, "grid": {"axes": [[0, 1]]}, "pmfs": {"h": [1.0]}}, "scenario.pmfs.h",
     "scenario.pmfs.h: unknown pmf name (use f or g)"),
    ({"schema_version": 1, "grid": {"axes": [[0, 1]]}, "pmfs": {"f": [0.4, 0.4]}}, "scenario.pmfs.f",
     "scenario.pmfs.f: masses must sum to 1 within 1e-09 (got 0.8); "
     "normalize explicitly with normalize_weights"),
    ({"schema_version": 1, "utility": {"family": "nope"}}, "scenario.utility.family",
     "scenario.utility.family: unknown family 'nope'"),
    ({"schema_version": 1, "utility": {"family": "linear"}}, "scenario.utility.a",
     "scenario.utility.a: required for linear"),
    ({"schema_version": 1, "params": {"beta": 0.5}}, "scenario.params.gamma",
     "scenario.params.gamma: required"),
    ({"schema_version": 1, "params": {"beta": 1.5, "gamma": 1.0}}, "beta",
     "scenario.params: beta must lie in (0, 1), got 1.5"),
    ({"schema_version": 1, "options": {"mystery": 3}}, "scenario.options.mystery",
     "scenario.options.mystery: unknown option"),
    ({"schema_version": 1, "options": {"seed": "zero"}}, "scenario.options.seed",
     "scenario.options.seed: must be an integer"),
    # one bad type per option key and for params.tol
    ({"schema_version": 1, "options": {"class": 3}}, "scenario.options.class",
     "scenario.options.class: must be a string"),
    ({"schema_version": 1, "options": {"theorem": 1}}, "scenario.options.theorem",
     "scenario.options.theorem: must be a string"),
    ({"schema_version": 1, "options": {"cases": 2.5}}, "scenario.options.cases",
     "scenario.options.cases: must be an integer"),
    ({"schema_version": 1, "options": {"grid_shape": "3x3"}}, "scenario.options.grid_shape",
     "scenario.options.grid_shape: must be a nonempty list of numbers"),
    ({"schema_version": 1, "options": {"grid_shape": [3, 0]}}, "scenario.options.grid_shape",
     "scenario.options.grid_shape: must be positive integers"),
    ({"schema_version": 1, "options": {"episodes": "many"}}, "scenario.options.episodes",
     "scenario.options.episodes: must be an integer"),
    ({"schema_version": 1, "options": {"threshold": "high"}}, "scenario.options.threshold",
     "scenario.options.threshold: must be a number or null"),
    ({"schema_version": 1, "options": {"samples": [1]}}, "scenario.options.samples",
     "scenario.options.samples: must be an integer"),
    ({"schema_version": 1, "options": {"operator": 5}}, "scenario.options.operator",
     "scenario.options.operator: must be a string"),
    ({"schema_version": 1, "params": {"beta": 0.5, "gamma": 1.0, "tol": "small"}},
     "scenario.params.tol", "scenario.params.tol: must be a number"),
    # section shapes and nested lists
    ({"schema_version": 1, "params": {"beta": "x"}}, "scenario.params.beta",
     "scenario.params.beta: must be a number"),
    ({"schema_version": 1, "params": []}, "scenario.params", "scenario.params: must be an object"),
    ({"schema_version": 1, "options": []}, "scenario.options", "scenario.options: must be an object"),
    ({"schema_version": 1, "grid": []}, "scenario.grid", "scenario.grid: needs an axes list"),
    ({"schema_version": 1, "grid": {"axes": []}}, "scenario.grid.axes",
     "scenario.grid.axes: must be a nonempty list"),
    ({"schema_version": 1, "grid": {"axes": [[0, "a"]]}}, "scenario.grid.axes[0][1]",
     "scenario.grid.axes: scenario.grid.axes[0][1]: must be a number"),
    ({"schema_version": 1, "grid": {"axes": [[1, 0]]}}, "scenario.grid.axes",
     "scenario.grid.axes: axis 0 must be strictly increasing"),
    ({"schema_version": 1, "pmfs": []}, "scenario.pmfs",
     "scenario.pmfs: must be an object with keys f and/or g"),
    ({"schema_version": 1, "grid": {"axes": [[0, 1]]}, "pmfs": {"f": [0.5, True]}},
     "scenario.pmfs.f[1]", "scenario.pmfs.f[1]: must be a number"),
    ({"schema_version": 1, "utility": []}, "scenario.utility", "scenario.utility: needs a family"),
    ({"schema_version": 1, "utility": {"family": "custom"}}, "scenario.utility.values",
     "scenario.utility.values: required for custom"),
    ({"schema_version": 1, "utility": {"family": "linear", "a": []}}, "scenario.utility.a",
     "scenario.utility.a: must be a nonempty list of numbers"),
    ({"schema_version": 1, "options": {"seed": True}}, "scenario.options.seed",
     "scenario.options.seed: must be an integer"),
    ([], "scenario", "scenario: must be a JSON object"),
    # JSON booleans are not numbers
    ({"schema_version": 1, "params": {"beta": True, "gamma": 1.0}}, "scenario.params.beta",
     "scenario.params.beta: must be a number"),
    ({"schema_version": 1, "params": {"beta": 0.5, "gamma": True}}, "scenario.params.gamma",
     "scenario.params.gamma: must be a number"),
    ({"schema_version": 1, "params": {"beta": 0.5, "gamma": 1.0, "tol": False}},
     "scenario.params.tol", "scenario.params.tol: must be a number"),
    ({"schema_version": 1, "options": {"threshold": True}}, "scenario.options.threshold",
     "scenario.options.threshold: must be a number or null"),
    ({"schema_version": 1, "params": {"beta": 0.5, "gamma": 1.0, "tol": float("inf")}}, "tol",
     "scenario.params: tol must be a positive real, got inf"),
]


class TestScenarioRoundTrip:
    def test_full_scenario_file_loads(self, tmp_path):
        path = write_json(
            tmp_path / "full.json",
            {
                "schema_version": 1,
                "grid": {"axes": [[1.0, 2.0], [1.0, 2.0]]},
                "pmfs": {"f": [0.5, 0.0, 0.0, 0.5], "g": [0.25, 0.25, 0.25, 0.25]},
                "utility": {"family": "custom", "values": [5.0, -5.0, 14.0, 5.0]},
                "params": {"beta": 0.5, "gamma": 1.0, "tol": 1e-9},
                "options": {"class": "supermodular", "theorem": "T3", "seed": 7,
                            "cases": 20, "grid_shape": [4, 3], "episodes": 500,
                            "threshold": 2, "samples": 9, "operator": "clamp"},
            },
        )
        grid = make_grid([[1.0, 2.0], [1.0, 2.0]])
        assert load_scenario(path) == Scenario(
            schema_version=1,
            grid=grid,
            pmf_f=make_pmf(grid, [0.5, 0.0, 0.0, 0.5]),
            pmf_g=make_pmf(grid, [0.25] * 4),
            utility=UtilitySpec("custom", values=(5.0, -5.0, 14.0, 5.0)),
            params=SearchParams(0.5, 1.0, 1e-9),
            options=Options(
                function_class="supermodular", theorem="T3", seed=7, cases=20,
                grid_shape=(4, 3), episodes=500, threshold=2.0, samples=9, operator="clamp",
            ),
        )

    def test_minimal_round_trip(self):
        scenario = Scenario(1, None, None, None, None, None, Options())
        assert scenario_from_dict({"schema_version": 1}) == scenario

    @pytest.mark.parametrize(
        "payload,needle,message", REJECTED,
        ids=[f"payload{i}-{needle}" for i, (_, needle, _) in enumerate(REJECTED)],
    )
    def test_validation_names_the_field(self, payload, needle, message):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(payload)
        assert str(info.value) == message
        assert needle in message


#: subcommand -> the override flags its handler reads
READ_FLAGS = {
    "solve": ("beta", "gamma", "tol"),
    "dominate": ("class",),
    "verify": ("theorem", "seed", "beta", "gamma", "tol"),
    "closure": ("class", "seed"),
    "simulate": ("seed", "beta", "gamma", "tol"),
}

#: override flag -> a value it accepts
FLAG_VALUES = {
    "beta": "0.5", "gamma": "1.0", "tol": "1e-9", "seed": "9", "class": "convex", "theorem": "T3",
}


class TestSubcommands:
    def test_solve(self, two_point_scenario, capsys):
        code = run_command(["solve", two_point_scenario])
        out = capsys.readouterr().out
        assert code == 0
        assert _summary_value(out, "reservation_utility") == pytest.approx(1.0, abs=1e-9)
        assert "# acceptance_size = 1" in out

    def test_solve_flag_overrides(self, two_point_scenario, capsys):
        code = run_command(["solve", two_point_scenario, "--gamma", "2.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# gamma = 2.5" in out
        # offers top out at 2 < gamma: searcher never strictly prefers stopping
        assert "# reservation_utility = 2.5" in out

    def test_option_flags_override_file_values(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "closure_flags.json",
            {"schema_version": 1, "options": {"class": "increasing", "operator": "affine",
                                              "samples": 2, "seed": 1}},
        )
        assert run_command(["closure", path, "--class", "supermodular", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "# class = supermodular" in out and "# seed = 5" in out

    def test_bad_beta_only_fails_commands_that_need_params(self, fosd_scenario, capsys):
        assert run_command(["dominate", fosd_scenario, "--beta", "2"]) == 2
        assert "unrecognized arguments: --beta 2" in capsys.readouterr().err
        assert run_command(["solve", fosd_scenario, "--beta", "2"]) == 2
        assert "beta must lie in (0, 1)" in capsys.readouterr().err

    def test_infinite_tol_is_rejected(self, two_point_scenario, capsys):
        # an infinite tol would certify any residual and any verdict margin
        assert run_command(["solve", two_point_scenario, "--tol", "inf"]) == 2
        assert capsys.readouterr().err == "error: tol must be a positive real, got inf\n"

    def test_flags_alone_need_both_beta_and_gamma(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "no_params.json",
            {
                "schema_version": 1,
                "grid": {"axes": [[0.0, 2.0]]},
                "pmfs": {"f": [0.5, 0.5]},
                "utility": {"family": "linear", "a": [1.0]},
            },
        )
        assert run_command(["solve", path, "--beta", "0.5"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: scenario.params (or --beta/--gamma) is required\n"
        )

    def test_each_subcommand_takes_the_flags_it_reads(self, fosd_scenario):
        flags = {name: entry[2] for name, entry in cli_module._COMMANDS.items()}
        assert flags == READ_FLAGS
        # 25 settable flag slots: 15 overrides plus --out and --format on each
        assert sum(map(len, READ_FLAGS.values())) == 15
        parser = cli_module._build_parser()
        for command, read in READ_FLAGS.items():
            for flag in read:
                args = parser.parse_args([command, fosd_scenario, f"--{flag}", FLAG_VALUES[flag]])
                assert getattr(args, "function_class" if flag == "class" else flag) is not None

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for c in READ_FLAGS for f in FLAG_VALUES if f not in READ_FLAGS[c]],
    )
    def test_unread_flag_exits_2(self, fosd_scenario, command, flag, capsys):
        value = FLAG_VALUES[flag]
        assert run_command([command, fosd_scenario, f"--{flag}", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: --{flag} {value}\n" in captured.err

    @pytest.mark.parametrize("command", sorted(READ_FLAGS))
    def test_format_without_out_exits_2(self, fosd_scenario, command, capsys):
        assert run_command([command, fosd_scenario, "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: --format needs --out\n")

    def test_params_flags_alone_stand_in_for_params(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "no_params.json",
            {
                "schema_version": 1,
                "grid": {"axes": [[0.0, 2.0]]},
                "pmfs": {"f": [0.5, 0.5]},
                "utility": {"family": "linear", "a": [1.0]},
            },
        )
        assert run_command(["solve", path, "--beta", "0.5", "--gamma", "2.5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert {"# beta = 0.5", "# gamma = 2.5", "# tol = 1e-10"} <= set(out)
        assert "# reservation_utility = 2.5" in out

    def test_unknown_class_in_scenario_names_the_choices(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bad_class.json",
            {
                "schema_version": 1,
                "grid": {"axes": [[0.0, 2.0]]},
                "pmfs": {"f": [0.25, 0.75], "g": [0.5, 0.5]},
                "options": {"class": "concave"},
            },
        )
        assert run_command(["dominate", path]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: unknown function class 'concave'; choose one of increasing, convex, "
            "componentwise_convex, supermodular, ultramodular, increasing_supermodular, "
            "increasing_ultramodular\n",
        )

    def test_jobs_option_is_rejected(self, fosd_scenario, tmp_path, capsys):
        for command in ("solve", "dominate", "verify", "closure", "simulate"):
            assert run_command([command, fosd_scenario, "--jobs", "2"]) == 2
            assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        # suites still run on one thread and say so in their header
        path = write_json(
            tmp_path / "suite.json",
            {"schema_version": 1, "options": {"theorem": "T2a", "cases": 1, "seed": 0}},
        )
        assert run_command(["verify", path]) == 0
        assert "# jobs = 1" in capsys.readouterr().out.splitlines()

    def test_verify_on_one_node_grid_exits_2(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "suite.json",
            {"schema_version": 1, "options": {"theorem": "T2a", "cases": 1, "grid_shape": [1]}},
        )
        assert run_command(["verify", path]) == 2
        assert "upward shifts need an axis with at least 2 nodes" in capsys.readouterr().err

    def test_suite_past_the_cone_guard_exits_2(self, tmp_path, capsys):
        # numpy once ran out of memory drawing this grid and exited 1
        path = write_json(
            tmp_path / "suite.json",
            {
                "schema_version": 1,
                "options": {"theorem": "T2a", "cases": 3, "grid_shape": [100000, 100000, 100000]},
            },
        )
        assert run_command(["verify", path]) == 2
        assert "increasing cone would be 2999970000000000 x 2" in capsys.readouterr().err

    def test_dominance_lp_past_the_tableau_guard_exits_2(self, tmp_path, capsys):
        # g moves node 0's mass to node 1: the means differ, so the pair
        # goes to the cone LP and its guard
        n = 79
        path = write_json(
            tmp_path / "convex.json",
            {
                "schema_version": 1,
                "grid": {"axes": [list(range(n))]},
                "pmfs": {"f": [1.0 / n] * n, "g": [0.0, 2.0 / n] + [1.0 / n] * (n - 2)},
                "options": {"class": "convex"},
            },
        )
        assert run_command(["dominate", path]) == 2
        assert "LP tableau would be 6241 x 6479" in capsys.readouterr().err

    def test_dominate_and_exit_codes(self, fosd_scenario, capsys):
        assert run_command(["dominate", fosd_scenario]) == 0
        assert "# verdict = dominates" in capsys.readouterr().out

    def test_dominate_failure_exits_1(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "rev.json",
            {
                "schema_version": 1,
                "grid": {"axes": [[0.0, 2.0]]},
                "pmfs": {"f": [0.5, 0.5], "g": [0.25, 0.75]},
                "options": {"class": "increasing"},
            },
        )
        assert run_command(["dominate", path]) == 1
        out = capsys.readouterr().out
        assert "# verdict = fails" in out
        assert "witness" in out

    def test_verify_single_case(self, fosd_scenario, capsys):
        assert run_command(["verify", fosd_scenario]) == 0
        out = capsys.readouterr().out
        assert "# verdict = pass" in out

    def test_verify_conclusion_failure_exits_1(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "corrupt.json",
            {
                "schema_version": 1,
                "grid": {"axes": [[0.0, 100.0]]},
                "pmfs": {"f": [0.5 + 9e-10, 0.5 - 9e-10], "g": [0.5, 0.5]},
                "utility": {"family": "linear", "a": [1.0]},
                "params": {"beta": 0.9, "gamma": 1.0},
                "options": {"theorem": "T2a"},
            },
        )
        assert run_command(["verify", path]) == 1
        assert "# verdict = fail" in capsys.readouterr().out

    def test_verify_suite(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "suite.json",
            {"schema_version": 1, "options": {"theorem": "T3", "cases": 6, "seed": 11}},
        )
        assert run_command(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "# pass = 6" in out and "# suite_passed = true" in out

    def test_failing_suite_row_details_a_replayable_scenario(self, tmp_path, monkeypatch, capsys):
        # the suite's second case is reported failed; its detail column must
        # rebuild that case through the scenario parser
        cases = [generate_case("T3", i, 11) for i in range(2)]
        reports = [verify_theorem(case) for case in cases]
        reports[1] = dataclasses.replace(reports[1], conclusion_holds=False)
        records = tuple(CaseRecord(i, c, r) for i, (c, r) in enumerate(zip(cases, reports)))
        monkeypatch.setattr(cli_module, "run_suite", lambda config: SuiteReport(config, records))
        path = write_json(
            tmp_path / "suite.json",
            {"schema_version": 1, "options": {"theorem": "T3", "cases": 2, "seed": 11}},
        )
        out = tmp_path / "suite.jsonl"
        assert run_command(["verify", path, "--out", str(out)]) == 1
        capsys.readouterr()
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        rows = [line for line in lines if line["record"] == "row"]
        assert [(r["verdict"], r["detail"] == "") for r in rows] == [("pass", True), ("fail", False)]
        assert lines[-1]["suite_passed"] is False
        detail = json.loads(rows[1]["detail"])
        scenario = scenario_from_dict({
            "schema_version": 1,
            "grid": {"axes": detail["axes"]},
            "pmfs": {"f": detail["f"], "g": detail["g"]},
            "utility": {"family": "custom", "values": detail["utility"]},
            "params": {key: detail[key] for key in ("beta", "gamma", "tol")},
        })
        case = cases[1]
        assert scenario.grid == case.f.grid
        assert (scenario.pmf_f, scenario.pmf_g) == (case.f, case.g)
        assert scenario.utility.build(scenario.grid) == case.utility
        assert scenario.params == case.params

    def test_convergence_error_exits_1(self, two_point_scenario, monkeypatch, capsys):
        def uncertified(*args):
            raise ConvergenceError("routes disagree")

        monkeypatch.setattr(cli_module, "reservation_utility", uncertified)
        assert run_command(["solve", two_point_scenario]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: routes disagree\n")

    def test_verify_rejects_ambiguous_scenario(self, fosd_scenario, tmp_path, capsys):
        payload = json.loads(Path(fosd_scenario).read_text())
        payload["options"]["cases"] = 5
        path = write_json(tmp_path / "ambiguous.json", payload)
        assert run_command(["verify", path]) == 2
        assert "not both" in capsys.readouterr().err

    def test_closure_expected_violation(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "closure.json",
            {
                "schema_version": 1,
                "options": {"class": "supermodular", "operator": "truncate",
                            "samples": 3, "seed": 2},
            },
        )
        assert run_command(["closure", path]) == 0
        out = capsys.readouterr().out
        assert "# counterexample_margin = -4" in out and "# passed = true" in out

    def test_closure_closed_class(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "closure2.json",
            {
                "schema_version": 1,
                "options": {"class": "increasing_ultramodular", "operator": "affine",
                            "samples": 5, "seed": 2},
            },
        )
        assert run_command(["closure", path]) == 0
        assert "# preserved = 5" in capsys.readouterr().out

    def test_simulate(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "sim.json",
            {
                "schema_version": 1,
                "grid": {"axes": [[0.0, 2.0]]},
                "pmfs": {"f": [0.5, 0.5]},
                "utility": {"family": "linear", "a": [1.0]},
                "params": {"beta": 0.5, "gamma": 0.5},
                "options": {"episodes": 5000, "seed": 1, "threshold": 1.0},
            },
        )
        assert run_command(["simulate", path]) == 0
        out = capsys.readouterr().out
        assert "# episodes = 5000" in out

    def test_boolean_gamma_exits_2(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bool.json",
            {
                "schema_version": 1,
                "grid": {"axes": [[0.0, 2.0]]},
                "pmfs": {"f": [0.5, 0.5]},
                "utility": {"family": "linear", "a": [1.0]},
                "params": {"beta": 0.5, "gamma": True},
            },
        )
        assert run_command(["solve", path]) == 2
        assert capsys.readouterr().err == "error: scenario.params.gamma: must be a number\n"

    def test_number_beyond_float_range_exits_2(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "huge.json",
            {
                "schema_version": 1,
                "grid": {"axes": [[0.0, 2.0]]},
                "pmfs": {"f": [0.5, 0.5]},
                "utility": {"family": "linear", "a": [1.0]},
                "params": {"beta": 0.5, "gamma": 10**400},
            },
        )
        assert run_command(["solve", path]) == 2
        assert capsys.readouterr().err == "error: scenario.params.gamma: must be a finite number\n"

    def test_unwritable_out_exits_2(self, two_point_scenario, tmp_path, capsys):
        out = tmp_path / "missing" / "r.jsonl"
        assert run_command(["solve", two_point_scenario, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report {out}: ")
        assert "Traceback" not in err and not out.exists()

    def test_missing_sections_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "empty.json", {"schema_version": 1})
        assert run_command(["solve", path]) == 2
        assert "scenario.grid" in capsys.readouterr().err

    def test_unreadable_file_exits_2(self, capsys):
        assert run_command(["solve", "/nonexistent/path.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_command(["solve", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_command(["frobnicate", "x.json"]) == 2
        capsys.readouterr()

    def test_console_entry_point(self, two_point_scenario):
        proc = subprocess.run(
            [sys.executable, "-m", "mcsearch", "solve", two_point_scenario],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert _summary_value(proc.stdout, "reservation_utility") == pytest.approx(1.0, abs=1e-9)

    def test_bare_import_loads_no_cli(self):
        # the library import stays lean: the CLI, its reports and argparse
        # load only with ``mcsearch.cli``
        code = (
            "import sys, mcsearch; "
            "print(sorted({'mcsearch.cli', 'mcsearch.report', 'argparse'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestReportDeterminism:
    def test_out_files_are_byte_identical(self, tmp_path, capsys):
        scenario = write_json(
            tmp_path / "suite.json",
            {"schema_version": 1, "options": {"theorem": "T2a", "cases": 8, "seed": 4}},
        )
        paths = [str(tmp_path / f"out{i}.jsonl") for i in (1, 2)]
        for p in paths:
            assert run_command(["verify", scenario, "--out", p, "--format", "json-lines"]) == 0
        capsys.readouterr()
        a, b = (Path(p).read_bytes() for p in paths)
        assert a == b and a

    def test_all_formats_deterministic(self, fosd_scenario, tmp_path, capsys):
        for fmt, suffix in (("table", "txt"), ("csv", "csv"), ("json-lines", "jsonl")):
            outs = []
            for i in (1, 2):
                p = str(tmp_path / f"d{i}.{suffix}")
                assert run_command(["dominate", fosd_scenario, "--out", p, "--format", fmt]) == 0
                outs.append(Path(p).read_bytes())
            assert outs[0] == outs[1]
        capsys.readouterr()

    def test_emit_report_twice_identical(self):
        report = Report(
            "demo", {"seed": 1}, ("a", "b"), [{"a": 1 / 3, "b": None}], {"done": True}
        )
        for fmt in ("table", "csv", "json-lines"):
            assert emit_report(report, fmt) == emit_report(report, fmt)
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(report, "yaml")

    def test_csv_schema(self):
        report = Report("demo", {"k": "v"}, ("x", "y"), [{"x": 1.0, "y": "n"}], {"s": 2})
        text = render_csv(report)
        lines = text.splitlines()
        assert lines[0] == "# demo"
        assert "x,y" in lines
        assert lines[-1] == "# s = 2"

    def test_empty_report_is_header_only(self, tmp_path, capsys):
        scenario = write_json(
            tmp_path / "empty_suite.json",
            {"schema_version": 1, "options": {"theorem": "T2a", "cases": 0, "seed": 4}},
        )
        out_path = str(tmp_path / "empty.csv")
        assert run_command(["verify", scenario, "--out", out_path, "--format", "csv"]) == 0
        capsys.readouterr()
        lines = Path(out_path).read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data == ["case_id,theorem,premise_dom,premise_mem,u_F,u_G,verdict,detail"]

    def test_twelve_significant_digits(self):
        report = Report("demo", {}, ("x",), [{"x": 1 / 3}], {})
        assert "0.333333333333" in render_csv(report)
        assert '"x":0.333333333333' in render_json_lines(report)
