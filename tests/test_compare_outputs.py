"""The diff of scripts/compare_outputs.py on hand-made reports and exports."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("compare_outputs", ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

Change, Output = compare_outputs.Change, compare_outputs.Output


def report(residual, detail, seconds):
    return {
        "config": {"n": 4, "seed": 7},
        "results": [
            {"check": "theta-zeros", "residual": 1e-16, "detail": {}},
            {"check": "dybe-psi", "residual": residual, "detail": detail},
        ],
        "exit_code": 0,
        "timings": {"seconds_per_check": {"dybe-psi": seconds}},
    }


def output(payload, code=0):
    return Output(code, json.dumps(payload, sort_keys=True) + "\n", "")


def test_a_moved_residual_and_an_added_detail_key_by_their_paths():
    base = output(report(2e-15, {"draws": 20}, 0.01))
    head = output(report(3e-15, {"draws": 20, "pole_resamples": 0}, 0.02))
    argv = ("verify", "all", "--format", "json")
    changes = compare_outputs.compare(argv, base, head)
    # in the order of the sorted keys; the timings differ too, and are not compared
    assert changes == [
        Change("added", "results[dybe-psi].detail.pole_resamples", None, 0),
        Change("moved", "results[dybe-psi].residual", 2e-15, 3e-15),
    ]
    text = compare_outputs.table([(argv, base, head, changes)], "t")
    assert "(ratio 1.5)" in text
    assert "1 of 1 runs moved." in text
    assert compare_outputs.compare(argv, base, output(report(2e-15, {"draws": 20}, 0.03))) == []


def test_a_changed_export_by_its_first_differing_field():
    entries = [[[1.0, 0.0], [0.5, 0.25]], [[0.0, 0.0], [1.0, 0.0]]]
    moved = json.loads(json.dumps(entries))
    moved[0][1][1] = 0.5
    moved[1][0][0] = -0.0
    changes = compare_outputs.compare(("rmatrix",), output({"entries": entries}), output({"entries": moved}))
    assert changes == [Change("moved", "entries[0][1][1]", 0.25, 0.5)]
    # a number's text is compared: 0.0 against -0.0 moves, and 1 against 1.0
    assert list(compare_outputs.diff({"a": [0.0, 1]}, {"a": [-0.0, 1.0]})) == [
        Change("moved", "a[0]", 0.0, -0.0),
        Change("moved", "a[1]", 1, 1.0),
    ]


def test_an_exit_code_and_a_removed_key():
    base, head = output({"config": {"samples": 20}}, 0), output({"config": {}}, 1)
    changes = compare_outputs.compare(("verify", "all"), base, head)
    assert changes == [Change("changed", "exit code", 0, 1), Change("removed", "config.samples", 20, None)]
    assert compare_outputs.compare(("rmatrix",), output({"x": 1}), output({"x": 1})) == []


def test_a_table_report_by_its_first_differing_line():
    assert ("verify", "all") in compare_outputs.RUNS
    lines = ["check suite status residual", "theta-zeros elliptic pass 1.00e-16", "0 failed"]
    base = Output(0, "\n".join(lines) + "\n", "")
    head = Output(1, "\n".join([lines[0], "theta-zeros elliptic FAIL 3.00e-02", "1 failed"]) + "\n", "failed: theta-zeros")
    assert compare_outputs.compare(("verify", "all"), base, head) == [
        Change("changed", "exit code", 0, 1),
        Change("changed", "stdout line 2", lines[1], "theta-zeros elliptic FAIL 3.00e-02"),
    ]
    # a line that one side lacks reads as empty there
    longer = Output(0, base.stdout + "extra\n", "")
    assert compare_outputs.compare(("verify", "all"), base, longer) == [Change("changed", "stdout line 4", "", "extra")]
