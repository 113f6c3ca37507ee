import json
import pathlib

import pytest

from motifsim.cli import main
from motifsim.games import ground, import_controller
from motifsim.lang import Model, parse
from motifsim.scenarios import PLATOON, SHUTTLE, THERMOSTAT


@pytest.fixture
def models(tmp_path):
    paths = {}
    for name, text in (("thermostat", THERMOSTAT), ("shuttle", SHUTTLE),
                       ("platoon", PLATOON)):
        p = tmp_path / f"{name}.motif"
        p.write_text(text)
        paths[name] = str(p)
    bad = tmp_path / "bad.motif"
    bad.write_text("goal g critical avoid (nobody.x);")
    paths["bad"] = str(bad)
    doomed = tmp_path / "doomed.motif"
    doomed.write_text(THERMOSTAT + "\ngoal doom critical avoid (true);\n")
    paths["doomed"] = str(doomed)
    lonely = tmp_path / "lonely.motif"
    lonely.write_text(THERMOSTAT.replace(
        "  map line(2);\n", "  map line(2);\n  config rule grow then { addnode(5); }\n"))
    paths["lonely"] = str(lonely)
    return paths


def test_check_exit_codes(models, tmp_path, capsys):
    assert main(["check", models["thermostat"]]) == 0
    assert main(["check", models["bad"]]) == 1
    err = capsys.readouterr().err
    assert "nobody" in err
    assert main(["check", str(tmp_path / "missing.motif")]) == 2


@pytest.mark.parametrize("command", [
    ["check"], ["simulate", "--steps", "5"]], ids=lambda c: c[0])
def test_a_command_builds_its_model_once(models, monkeypatch, command):
    builds = []
    original = Model.build

    def counted(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(Model, "build", counted)
    assert main([command[0], models["thermostat"], *command[1:]]) == 0
    assert len(builds) == 1


def test_unbuildable_model_fails_with_a_diagnostic(models, capsys):
    expected = ("error: 19:10: motif 'house' rule 'grow': rule 'grow' needs at"
                " least one required participant")
    assert main(["check", models["lonely"]]) == 1
    assert capsys.readouterr().err.strip() == expected
    assert main(["simulate", models["lonely"]]) == 1
    assert capsys.readouterr().err.strip() == expected


def test_simulate_follows_a_scripted_scenario(tmp_path):
    scripted = tmp_path / "scripted.motif"
    script = ["cool", "cool", "cool", "cool", "off_to_on_0", "house/warm"]
    scripted.write_text(THERMOSTAT.replace("steps 10000;", "steps 6;").replace(
        "policy random;", f"policy script({', '.join(script)});"))
    out = tmp_path / "trace.jsonl"
    assert main(["simulate", str(scripted), "--trace", str(out)]) == 0
    events = [json.loads(ln) for ln in out.read_text().splitlines()[1:]]
    assert [e["rule"] for e in events] == [name.split("/")[-1] for name in script]


def test_simulate_writes_a_trace(models, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    rc = main(["simulate", models["shuttle"], "--steps", "10",
               "--trace", str(out)])
    assert rc == 0
    text = out.read_text()
    assert len(text.splitlines()) == 11
    captured = capsys.readouterr().out
    assert "steps: 10" in captured
    assert "onroute" in captured and "pass" in captured


def test_simulate_failing_check(models, tmp_path):
    failing = tmp_path / "failing.motif"
    failing.write_text(SHUTTLE.replace(
        "check onroute always (placed(bus, route));",
        "check stuck always (@(bus, route) = 0);"))
    assert main(["simulate", str(failing), "--steps", "10"]) == 1


def test_simulate_is_deterministic(models, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["simulate", models["platoon"], "--steps", "40",
                     "--seed", "7", "--trace", str(out)]) == 0
    assert a.read_text() == b.read_text()


def test_synth_thermostat(models, tmp_path, capsys):
    out = tmp_path / "ctrl.tsv"
    rc = main(["synth", models["thermostat"], "--agent", "h1",
               "--goal", "band", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "initial: winning" in captured
    table = out.read_text()
    assert table.startswith("# controller-table v1")
    assert "\t" in table


def test_synth_reach_goal(models, tmp_path, capsys):
    # the heater can always warm the room to 22.0: a ranked table that
    # validates against the game
    model = tmp_path / "warm.motif"
    model.write_text(THERMOSTAT + "\ngoal warm critical reach (room.temp >= 22.0);\n")
    out = tmp_path / "ctrl.tsv"
    rc = main(["synth", str(model), "--agent", "h1", "--goal", "warm",
               "--out", str(out)])
    assert rc == 0
    assert "initial: winning" in capsys.readouterr().out
    system = parse(model.read_text())[0].build()
    game = ground(system.cfg, "h1", target=system.goals["warm"].holds)
    ctrl = import_controller(out.read_text(), game)
    assert ctrl.rank[game.states[game.initial].key] > 0


def test_synth_losing_goal(models, capsys):
    rc = main(["synth", models["doomed"], "--agent", "h1", "--goal", "doom"])
    assert rc == 1
    assert "initial: losing" in capsys.readouterr().out


def test_synth_budget_exceeded(models, capsys):
    rc = main(["synth", models["platoon"], "--agent", "v1",
               "--goal", "nope", "--bound", "1"])
    assert rc == 2  # unknown goal reported before grounding
    platoon_goal = models["platoon"]
    # with a real goal the tiny bound trips the state budget
    text = pathlib.Path(platoon_goal).read_text()
    with_goal = pathlib.Path(platoon_goal).with_name("pg.motif")
    with_goal.write_text(
        text + "\ngoal apart critical avoid (@(v1, road) = @(v2, road));\n")
    rc = main(["synth", str(with_goal), "--agent", "v1",
               "--goal", "apart", "--bound", "1"])
    assert rc == 3
    assert "plan" in capsys.readouterr().err


def test_synth_usage_errors(models):
    assert main(["synth", models["thermostat"], "--agent", "h1",
                 "--goal", "missing"]) == 2
    assert main(["synth", models["thermostat"], "--agent", "ghost",
                 "--goal", "band"]) == 2


def test_plan_command(models, capsys):
    rc = main(["plan", models["thermostat"], "--agent", "h1",
               "--horizon", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "first action:" in out
    assert "agent:" in out


def test_plan_no_safe_plan(models, capsys):
    rc = main(["plan", models["doomed"], "--agent", "h1", "--horizon", "2"])
    assert rc == 1
    assert "no safe plan" in capsys.readouterr().err


def test_plan_usage_errors(models):
    assert main(["plan", models["thermostat"], "--agent", "h1",
                 "--horizon", "0"]) == 2
    assert main(["plan", models["thermostat"], "--agent", "ghost"]) == 2


def test_unknown_subcommand_is_usage():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
