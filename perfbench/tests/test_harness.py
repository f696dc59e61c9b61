"""Tests of the benchmark harness itself (not of paradim).

Run: python3 -m pytest perfbench/tests
"""
import itertools
import json
import shutil
import subprocess
import sys
import types

import pytest

import run
from tracer import PER_LAYER, TARGETS, Stat, Tracer, layer_metrics
from workloads import WORKLOADS, check, coset_grid, load_expected


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.inner defines `leaf`; fakepkg.outer binds it with
    `from .inner import leaf` and calls it twice from `outer`."""
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf():
        return 1

    def top():
        return outer.leaf() + outer.leaf()

    inner.leaf = leaf
    outer.leaf = leaf
    outer.top = top
    for m in (inner, outer):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return inner, outer


def test_self_time_of_nested_call(fake_package):
    inner, outer = fake_package
    ticks = itertools.count()
    targets = (("inner", "fakepkg.inner", "leaf", True),
               ("outer", "fakepkg.outer", "top", True))
    with Tracer(targets, package="fakepkg", clock=lambda: float(next(ticks))) as t:
        assert outer.top() == 2
    # clock reads: top 0, leaf 1..2, leaf 3..4, top ..5
    top, leaf = t.stats["outer.top"], t.stats["inner.leaf"]
    assert (top.calls, top.total_s, top.self_s) == (1, 5.0, 3.0)
    assert (leaf.calls, leaf.total_s, leaf.self_s) == (2, 2.0, 2.0)
    assert [s[1:] for s in t.spans] == [["outer.top", None, 0.0, 5.0],
                                        ["inner.leaf", 0, 1.0, 2.0],
                                        ["inner.leaf", 0, 3.0, 4.0]]
    assert outer.leaf is inner.leaf  # restored by identity in both modules


def test_layer_and_other_time_partition_the_wall():
    stats = {"compact.trace_R": Stat(calls=2, total_s=3.0, self_s=1.0),
             "characters.chi_young": Stat(calls=9, total_s=2.0, self_s=2.0)}
    m = layer_metrics(stats, {}, wall_s=3.5)
    assert m["compact.self_s"] == 1.0 and m["characters.self_s"] == 2.0
    assert m["other.self_s"] == 0.5
    assert "kernels.self_s" not in m and "kernels.kronecker.calls" not in m


def test_generator_timed_over_iteration_and_counts_failures(fake_package):
    inner, _ = fake_package
    Check = type("Check", (), {})

    def checks():
        for ok in (True, False, True):
            c = Check()
            c.ok = ok
            yield c

    inner.table_checks = checks
    ticks = itertools.count()
    targets = (("corpus", "fakepkg.inner", "table_checks", True),)
    with Tracer(targets, package="fakepkg", clock=lambda: float(next(ticks))) as t:
        assert len(list(inner.table_checks())) == 3
    m = layer_metrics(t.stats, {}, wall_s=2.0)
    assert (m["corpus.table.checks"], m["corpus.table.failures"]) == (3, 1)
    assert m["corpus.table.s"] == 1.0


def _bindings():
    import paradim.cli  # noqa: F401  loads every module the CLI uses

    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "paradim" or name.startswith("paradim.")
            for attr, value in vars(mod).items() if callable(value)}


def test_paradim_unpatched_after_traced_run(capsys):
    import paradim.arith
    import paradim.cli
    import paradim.compact
    import paradim.elliptic

    before = _bindings()
    original = paradim.arith.class_number
    with Tracer() as t:
        for mod in (paradim.arith, paradim.compact, paradim.elliptic):
            assert mod.class_number is not original
        assert paradim.cli.main(["dim", "--p", "277", "--k", "8"]) == 0
    assert "1761" in capsys.readouterr().out
    assert t.stats["compact.dim_M_total"].calls == 1
    assert t.stats["arith.class_number"].calls >= 3
    hits, misses = t.cache_counts()["arith.class_number"]
    assert hits + misses == t.stats["arith.class_number"].calls
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_function_reported_absent():
    targets = TARGETS + (("kernels", "paradim.kernels", "no_such_kernel", False),
                         ("gone", "paradim.no_such_module", "f", False))
    targets = tuple(t for t in targets if t[2] != "kronecker")
    with Tracer(targets) as t:
        pass
    assert t.missing == ["kernels.no_such_kernel", "gone.f"]
    m = layer_metrics(t.stats, t.cache_counts(), wall_s=1.0)
    assert "kernels.kronecker.calls" not in m
    assert m["kernels.b2_character_sum.calls"] == 0


def _zero3_output(capsys):
    from paradim.cli import _emit

    _emit([[p] for p in load_expected(run.ROOT)["zero3"]], ["p"], "text")
    return capsys.readouterr().out


def test_corrupted_output_counts_as_failed(capsys):
    wl = WORKLOADS["zero3"]
    expected = load_expected(run.ROOT)
    good_out = _zero3_output(capsys)
    assert check(wl, 0, good_out, expected) == []
    dropped = good_out.replace("\n241", "")
    reformatted = good_out.replace("\n", "\n ")
    assert check(wl, 0, dropped, expected)
    assert any("digest" in p for p in check(wl, 0, reformatted, expected))
    reps = [{"rc": 0, "output": out, "wall_s": wall, "peak_rss_mb": 17.0,
             "setup_s": 0.06, "setup_ref_s": 0.003, "ref_s": 0.003, "traced": False}
            for out, wall in ((good_out, 1.0), (dropped, 0.5))]
    for r in reps:
        r["problems"] = run.judge(wl, r, expected, None)
    correct, attempted, failed, metrics = run.summarize(wl, [], reps, trace=False)
    assert (correct, attempted, failed) == (False, 2, 1)
    assert metrics["wall_s"] == (1.0, "ref_s")  # the failed repetition is no sample


def test_times_scale_with_the_reference_loop():
    wl = WORKLOADS["verify"]
    setups = [{"setup_s": 0.1, "setup_ref_s": 2 * run.REF_NOMINAL_S}]
    rep = {"rc": 0, "output": "902 checks, 0 failed\n", "wall_s": 3.0, "setup_s": 0.2,
           "setup_ref_s": run.REF_NOMINAL_S, "ref_s": 1.5 * run.REF_NOMINAL_S,
           "peak_rss_mb": 17.0, "traced": False, "problems": []}
    _, _, _, metrics = run.summarize(wl, setups, [rep], trace=False)
    assert metrics["wall_s"][0] == pytest.approx(2.0)
    assert metrics["setup_s"][0] == pytest.approx(0.125)  # median of 0.05 and 0.2
    assert metrics["work_per_s"][0] == pytest.approx(902 / 2.0)


def test_verify_and_coset_checks():
    verify = WORKLOADS["verify"]
    assert check(verify, 0, "902 checks, 0 failed\n", None) == []
    assert check(verify, 1, "902 checks, 0 failed\n", None)
    assert check(verify, 0, "FAIL x\n902 checks, 1 failed\n", None)
    grid = coset_grid(3)
    out = {"family_sizes": {"2": [192] * 4 + [1152], "3": [36, 36, 324, 324]},
           "coset_sizes": {"2": 1920, "3": 720}, "tallies": {"2": [], "3": []},
           "traces": [row + [1, 1] for row in grid]}
    problems = check(WORKLOADS["coset"], 0, json.dumps(out), None, grid)
    assert len(problems) == 1 and "digest" in problems[0]
    out["traces"][5][3] = 2
    assert any("!= trace_R" in p for p in
               check(WORKLOADS["coset"], 0, json.dumps(out), None, grid))


def test_seed_chooses_the_coset_grid_only():
    assert coset_grid(7) == coset_grid(7) != coset_grid(8)
    assert all(f1 >= f2 >= 0 and (f1 - f2) % 2 == 0 for _, f1, f2 in coset_grid(7))
    assert [w.name for w in WORKLOADS.values() if w.uses_seed] == ["coset"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in PER_LAYER]
    wl = WORKLOADS["verify"]
    rep = {"rc": 0, "output": "902 checks, 0 failed\n", "wall_s": 2.0, "setup_s": 0.06,
           "setup_ref_s": 0.003, "ref_s": 0.003, "peak_rss_mb": 17.0, "traced": False,
           "problems": []}
    _, _, _, metrics = run.summarize(wl, [], [rep], trace=False)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in metrics.items()}


def test_git_sha_is_absent_outside_a_repository(tmp_path):
    (tmp_path / "checkout").mkdir()
    assert run._git_sha(tmp_path / "checkout") == "absent"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zero3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
