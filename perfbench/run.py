"""Cold-process benchmark of paradim.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload zero3 --seed 1 --seconds 20 --trace 0

Every repetition runs in a fresh child interpreter, one at a time,
because a user of the CLI pays cold caches on every command.  The child
imports paradim from the checkout's `src/`, times the workload's call,
and returns its output, which is checked here against the published data
and against a digest recorded on the seed commit.  A repetition whose
check fails is counted as failed, not as a timing sample.

Times are host-normalized: each is scaled by the time a fixed reference
chunk of pure Python took in the same child while it was measured (see
child.py), as if that chunk had taken REF_NOMINAL_S.  Their unit is
therefore "ref_s", except `setup_s`, which is scaled the same way but
whose unit the BENCHMARK.json format requires to be "s".  The raw median
wall time and reference chunk, in seconds on the host's clock, are
printed next to them and are per-layer metrics (host.*).  Peak RSS is the child's own VmHWM.

With `--trace 0` a run takes at least MIN_SAMPLES repetitions, and the
last line holds the end-to-end metrics; with `--trace 1` untraced and
traced repetitions alternate, and the last line holds the per-layer
metrics of the traced ones (medians over them).  The spans of the last
traced repetition are written to `.perfbench/`.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER, TIME, Stat, layer_metrics
from workloads import WORKLOADS, check, coset_grid, load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7          # dedicated import-only children per run
MIN_SAMPLES = 3         # untraced calls per --trace 0 run, however long each is
TIME_LIMIT_S = 170      # a run ends well inside the 180 s allowed
# Reported times are scaled as if the children's reference chunk had taken
# this long.  On a shared 2-vCPU KVM guest the same call took 1.6 s to
# 3.6 s within minutes, while its ratio to the chunk moved by ~5%.
REF_NOMINAL_S = 0.003


def spawn(spec, timeout):
    """Run one child; its JSON result, or {"error": ...}."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Bytecode caches are written once and then read, as for an installed
    # package; compiling on every import would be set-up users do not pay.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def judge(workload, rep, expected, grid):
    """Problems with one repetition; an empty list means it counts."""
    if rep.get("error"):
        return [rep["error"]]
    return check(workload, rep["rc"], rep["output"], expected, grid)


def summarize(workload, setups, reps, trace):
    """(correct, attempted, failed, metrics) from the setup children and
    the judged repetitions; metrics map a name to (value, unit).

    Each rep is a child result with its "problems" list and "traced" flag.
    Times are host-normalized (see `normalized`).
    """
    good = [r for r in reps if not r["problems"]]
    failed = len(reps) - len(good)
    plain = [r for r in good if not r["traced"]]
    imports = [normalized(r["setup_s"], r["setup_ref_s"])
               for r in setups + reps if "setup_s" in r]
    metrics = {}
    if plain and imports:
        wall = statistics.median(normalized(r["wall_s"], r["ref_s"]) for r in plain)
        metrics = {
            "setup_s": (statistics.median(imports), "s"),
            "wall_s": (wall, TIME),
            "work_per_s": (workload.units / wall, "1/" + TIME),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
        }
    traced = [r for r in good if r["traced"]]
    if trace:
        metrics = _per_layer(traced, plain) if plain and traced else {}
    correct = bool(reps) and failed == 0 and bool(metrics)
    return correct, len(reps), failed, metrics


def normalized(seconds, ref_s):
    """Seconds scaled to a host on which the child's reference chunk takes
    REF_NOMINAL_S; `ref_s` is that chunk's time during the measurement."""
    return seconds * REF_NOMINAL_S / ref_s


def _per_layer(traced, plain):
    """Per-layer metrics: medians over the traced repetitions, and the
    tracing overhead and host clock from the untraced ones (`plain`)."""
    units = {name: unit for name, unit, *_ in PER_LAYER}
    per_rep = []
    for r in traced:
        m = layer_metrics({k: Stat(*v) for k, v in r["stats"].items()},
                          r["caches"], r["wall_s"])
        per_rep.append({name: normalized(v, r["ref_s"]) if units[name] == TIME else v
                        for name, v in m.items()})
    out = {name: (statistics.median(m[name] for m in per_rep), units[name])
           for name in per_rep[0]}
    traced_wall = statistics.median(normalized(r["wall_s"], r["ref_s"]) for r in traced)
    untraced_wall = statistics.median(normalized(r["wall_s"], r["ref_s"]) for r in plain)
    out["trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    out["host.raw_wall_s"] = (statistics.median(r["wall_s"] for r in plain), "s")
    out["host.ref_chunk_s"] = (statistics.median(r["ref_s"] for r in plain), "s")
    return out


def machine_record(seed, workload, compiled):
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_sha": _git_sha(ROOT),
        "seed": seed,
        "seed_used": workload.uses_seed,
        "PARADIM_PURE": os.environ.get("PARADIM_PURE"),
        "compiled": compiled,
    }


def _git_sha(root):
    """HEAD of the checkout, or "absent" outside a git repository."""
    # The ceiling keeps git from taking a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "absent"
    return proc.stdout.strip() if proc.returncode == 0 else "absent"


def measure(workload, seed, seconds, trace):
    """Set up, then run repetitions for `seconds`, and at least MIN_SAMPLES
    of them untraced (two, one of them traced, with `trace`); returns the
    setup children's results and the judged repetitions."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    expected = load_expected(ROOT)
    grid = coset_grid(seed) if workload.uses_seed else None

    def child(mode, traced=False):
        spec = {"root": str(ROOT), "mode": mode, "workload": workload.name,
                "trace": traced, "grid": grid}
        return spawn(spec, max(1.0, deadline - time.perf_counter()))

    child("setup")  # compiles the bytecode caches; not a sample
    setups = [child("setup") for _ in range(SETUP_RUNS)]
    reps = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        began = time.perf_counter()
        rep = child("run", traced)
        rep["traced"] = traced
        rep["problems"] = judge(workload, rep, expected, grid)
        reps.append(rep)
        now = time.perf_counter()
        # Failed repetitions count too, so that a broken program still ends.
        enough = now - t0 >= seconds and len(reps) >= (2 if trace else MIN_SAMPLES)
        if enough or now + 2 * (now - began) > deadline:
            return setups, reps


def report(workload, seed, setups, reps, result):
    correct, attempted, failed, metrics = result
    compiled = next((r["compiled"] for r in reps if "compiled" in r), "absent")
    print("machine:", json.dumps(machine_record(seed, workload, compiled)))
    call = " ".join(workload.argv) or "coset enumeration p = 2, 3 + trace grid"
    print(f"workload {workload.name}: {call}; work unit: {workload.unit_name} "
          f"({workload.units})")
    plain = [r for r in reps if not r["traced"] and not r["problems"]]
    print(f"samples: {len(setups)} import-only children, {len(plain)} good untraced "
          f"calls, {sum(r['traced'] for r in reps)} traced calls")
    if plain:
        raw = statistics.median(r["wall_s"] for r in plain)
        ref = statistics.median(r["ref_s"] for r in plain)
        print(f"raw_wall_s {raw:.6g} s, reference chunk {ref:.6g} s "
              f"(times below are scaled to a {REF_NOMINAL_S} s reference chunk)")
    print(f"fail_ratio {failed / attempted:.4g} ({failed} of {attempted} repetitions)")
    for r in reps:
        for problem in r["problems"]:
            print(f"FAILED repetition: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def write_spans(workload, seed, reps):
    traced = [r for r in reps if r["traced"] and "spans" in r]
    if not traced:
        return
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    last = traced[-1]
    fields = ("id", "name", "parent", "start", "end")
    record = {"workload": workload.name, "seed": seed, "missing": last["missing"],
              "spans": [dict(zip(fields, s)) for s in last["spans"]]}
    (out / f"spans-{workload.name}.json").write_text(json.dumps(record, indent=1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "paradim" / "__init__.py").is_file():
        print(f"error: no paradim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setups, reps = measure(workload, args.seed, args.seconds, bool(args.trace))
    result = summarize(workload, setups, reps, bool(args.trace))
    if args.trace:
        write_spans(workload, args.seed, reps)
    report(workload, args.seed, setups, reps, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
