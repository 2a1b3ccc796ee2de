"""tools/bench_record.py: alternating records of two checkouts."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_record.py")


@pytest.fixture
def bench(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    names = [m["name"] for m in module._spec()["end_to_end"]]
    calls = []

    def run(workload, seed, checkout):
        calls.append((seed, os.path.basename(checkout)))
        value = seed + (0.5 if checkout.endswith("change") else 0.0)
        return {"metrics": {n: {"value": value} for n in names},
                "failed": 0, "attempted": 3}

    monkeypatch.setattr(module, "BENCH_DIR", str(tmp_path))
    monkeypatch.setattr(module, "_run", run)
    monkeypatch.setattr(module, "_git", lambda checkout, *args:
                        "" if "status" in args else "a" * 40)
    return module, calls, tmp_path


def test_record_alternates_the_side_that_runs_first(bench):
    module, calls, out = bench
    assert module.main(["record", "--workload", "solve", "--seeds",
                        "1,2,3,4,5,6", "base=/x/parent",
                        "new=/x/change"]) == 0
    first = ["parent", "change"] * 3
    assert calls == [(seed, side) for seed, a in zip(range(1, 7), first)
                     for side in (a, "change" if a == "parent" else "parent")]
    for label, turns in (("base", [0, 1] * 3), ("new", [1, 0] * 3)):
        path = out / f"BENCH_{label}_solve.json"
        doc = json.loads(path.read_text())
        assert doc["label"] == label and doc["seeds"] == [1, 2, 3, 4, 5, 6]
        assert [r["seed"] for r in doc["runs"]] == doc["seeds"]
        assert [r["turn"] for r in doc["runs"]] == turns
        assert module.main(["check", str(path)]) == 0
    assert module.main(["compare", "base", "new"]) == 0


def test_check_refuses_a_record_of_a_dirty_checkout(bench, capsys):
    # a record whose checkout had uncommitted changes does not measure the
    # commit it names
    module, _, out = bench
    assert module.main(["record", "--workload", "solve", "new=/x/change"]) \
        == 0
    path = out / "BENCH_new_solve.json"
    doc = json.loads(path.read_text())
    assert doc["git_dirty"] is False
    assert module.main(["check", str(path)]) == 0
    doc["git_dirty"] = True
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert module.main(["check", str(path)]) == 1
    assert "git_dirty" in capsys.readouterr().out


def test_record_refuses_a_label_given_twice(bench):
    module, calls, _ = bench
    with pytest.raises(SystemExit, match="each label names one checkout"):
        module.main(["record", "--workload", "solve", "a=/x/parent",
                     "a=/x/change"])
    assert calls == []
