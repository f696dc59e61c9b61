"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py '<json spec>'

The spec names the checkout root, the mode ("setup" or "run"), the
workload, whether to trace, and the coset grid.  The child times
`import paradim` and `paradim.cli`, then (mode "run") one workload call
with stdout captured, and prints one JSON line with the timings, the
captured output and, when traced, the per-function statistics.

The host's speed changes by up to 2x within seconds, so the child also
times a fixed reference chunk of pure Python: around the import, and
every SAMPLE_EVERY_S during an untraced call, from a SIGALRM handler.
The parent scales each time by the reference chunk's time next to it.
The chunks' own time is subtracted from the call's wall time.
"""
import sys
import time

SAMPLE_EVERY_S = 0.2
BRACKET_CHUNKS = 8


def main():
    ref_before = reference_s(BRACKET_CHUNKS)
    # Time the import before anything else is imported, so that modules
    # paradim shares with this script (json, io, ...) count towards it.
    t0 = time.perf_counter()
    import paradim
    import paradim.cli
    setup_s = time.perf_counter() - t0
    ref_after = reference_s(BRACKET_CHUNKS)

    import json
    from pathlib import Path

    spec = json.loads(sys.argv[1])
    src = Path(spec["root"]).resolve() / "src"
    if src not in Path(paradim.__file__).resolve().parents:
        print(f"paradim imported from {paradim.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "setup_ref_s": (ref_before + ref_after) / 2}
    if spec["mode"] == "run":
        result.update(_run(spec, paradim))
    kernels = sys.modules.get("paradim.kernels")
    result["compiled"] = getattr(kernels, "COMPILED", "absent")
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


def _peak_rss_mb():
    """This process's own peak RSS in MiB.  Unlike `ru_maxrss`, which Linux
    carries over from the forking parent through execve, VmHWM starts
    afresh with the new image."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _jacobi(a, n):
    sign = 1
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def reference_s(chunks=1):
    """Mean seconds of a fixed chunk of pure Python (integer arithmetic,
    calls, generators) that imports nothing and allocates little.  It has
    its own Jacobi symbol so that no change to paradim can move it."""
    t = time.perf_counter()
    for _ in range(chunks):
        for n in range(3, 61, 2):
            if sum(_jacobi(a, n) for a in range(1, 160)) > 160:
                raise RuntimeError("reference chunk went wrong")
    return (time.perf_counter() - t) / chunks


def _run(spec, paradim):
    import contextlib
    import io
    import signal
    import traceback

    from tracer import Tracer
    from workloads import WORKLOADS, run_coset

    workload = WORKLOADS[spec["workload"]]
    # A traced call is not sampled, so that the reference chunks stay out
    # of the per-layer times.
    sampled = not spec["trace"]
    tracer = contextlib.nullcontext() if sampled else Tracer()
    samples = []
    signal.signal(signal.SIGALRM, lambda *_: samples.append(reference_s()))
    buf = io.StringIO()
    rc, error = 0, None
    with tracer:
        t = time.perf_counter()
        try:
            if sampled:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            with contextlib.redirect_stdout(buf):
                if workload.argv:
                    rc = paradim.cli.main(list(workload.argv))
                else:
                    print(run_coset(spec["grid"]), end="")
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            error = traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall_s = time.perf_counter() - t - sum(samples)
    ref_s = sum(samples) / len(samples) if samples else reference_s(BRACKET_CHUNKS)
    out = {"wall_s": wall_s, "ref_s": ref_s, "ref_samples": len(samples),
           "rc": rc, "output": buf.getvalue(), "error": error}
    if not sampled:
        out["stats"] = {key: s.as_list() for key, s in tracer.stats.items()}
        out["caches"] = tracer.cache_counts()
        out["missing"] = tracer.missing
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    sys.exit(main())
